"""Subjective-score post-processing and user-heterogeneity analysis.

The pipeline mirrors a multi-session lab study: raw 0-100 ratings are
standardized per subject per session, unreliable raters are screened
out (an auxiliary keystroke task plus BT.500-style statistical
screening), and a per-day linear mapping learned on anchor videos
realigns session Z-scores onto a common MOS scale. Per-subject
sensitivities to rebuffering, presentation quality, and quality
adaptation are difference-of-means over filtered video partitions.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import checks


@dataclass(frozen=True)
class VideoMeta:
    """Per-video summary used by the partition filters."""

    mean_quality: float
    quality_std: float
    total_stall_s: float


@dataclass(frozen=True)
class RatingsMatrix:
    """Subjects x videos opinion scores with study metadata.

    ``raw[i, j]`` is subject i's score for video j on a 0-100 scale,
    NaN where missing. Sessions group videos; days group sessions (one
    realignment mapping is learned per day).
    """

    subjects: list[str]
    videos: list[str]
    raw: np.ndarray
    session_of: dict[str, str]
    day_of: dict[str, str]
    device_of: dict[str, str]

    def __post_init__(self):
        if self.raw.shape != (len(self.subjects), len(self.videos)):
            raise ValueError("raw matrix shape inconsistent with subject/video lists")
        present = self.raw[~np.isnan(self.raw)]
        if present.size and (present.min() < 0.0 or present.max() > 100.0):
            raise ValueError("ratings must lie in [0, 100]")

    def sessions(self) -> list[str]:
        return list(dict.fromkeys(self.session_of[v] for v in self.videos))  # first-seen order

    def session_columns(self, session: str) -> list[int]:
        return [j for j, v in enumerate(self.videos) if self.session_of[v] == session]


def z_normalize(matrix: RatingsMatrix) -> np.ndarray:
    """Standardize ratings per subject per session (sample std, n-1).

    Each (subject, session) group maps to mean 0 and std 1; missing
    entries stay NaN. A group with fewer than two ratings or zero
    spread is an error.
    """
    z = np.full_like(matrix.raw, np.nan)
    for session in matrix.sessions():
        cols = np.array(matrix.session_columns(session), dtype=np.intp)
        block = matrix.raw[:, cols]
        rated = ~np.isnan(block)
        for i, subject in enumerate(matrix.subjects):
            mask = rated[i]
            if not mask.any():
                continue
            if mask.sum() < 2:
                raise ValueError(f"subject {subject} has a single rating in session {session}")
            vals = block[i, mask]
            mean = vals.mean()
            std = vals.std(ddof=1)
            if std == 0.0:
                raise ValueError(f"zero-spread group: subject {subject}, session {session}")
            z[i, cols[mask]] = (vals - mean) / std
    return z


def keystroke_accuracy(
    events: dict[tuple[str, str], list[float]],
    stall_onsets: dict[str, list[float]],
    videos_of: dict[str, list[str]],
    tol_s: float = 2.0,
) -> dict[str, float]:
    """Fraction of true stall onsets each subject flagged in time.

    A keystroke within +-tol_s of a stall onset counts as correct;
    accuracy is correct flags over true stalls across the subject's
    videos. Subjects whose videos had no stalls score 1.0.
    """
    out = {}
    for subject, videos in videos_of.items():
        correct = 0
        total = 0
        for video in videos:
            onsets = stall_onsets.get(video, [])
            strokes = events.get((subject, video), [])
            for onset in onsets:
                total += 1
                if any(abs(k - onset) <= tol_s for k in strokes):
                    correct += 1
        out[subject] = correct / total if total else 1.0
    return out


def reject_auxiliary(matrix: RatingsMatrix, accuracy: dict[str, float], threshold: float = 0.10) -> np.ndarray:
    """Keep-mask over subjects passing the auxiliary-task screen.

    ``accuracy`` maps each subject of ``matrix`` to its keystroke
    accuracy in [0, 1]; a missing subject or an accuracy outside that
    range raises before anyone is screened. A subject failing more than
    ``threshold`` of the keystroke task is removed; the boundary
    (exactly 1-threshold accuracy) is kept.
    """
    for subject in matrix.subjects:
        if subject not in accuracy:
            raise ValueError(f"no keystroke accuracy recorded for subject {subject}")
        if not 0.0 <= accuracy[subject] <= 1.0:
            raise ValueError(f"keystroke accuracy of {subject} outside [0, 1]")
    return np.array([accuracy[s] >= 1.0 - threshold for s in matrix.subjects], dtype=bool)


# BT.500 screening: a rating beyond mean +- k*std of its video is flagged, with k = 2 for a
# normal-tailed column and sqrt(20) otherwise; a subject goes when over 5 % of their ratings
# are flagged and the flags are not heavily one-sided (|P-Q|/(P+Q) < 0.3)
BT500_NORMAL_SIGMA, BT500_HEAVY_SIGMA = 2.0, math.sqrt(20.0)
BT500_OUTLIER_FRACTION, BT500_BALANCE = 0.05, 0.3


def reject_bt500(z: np.ndarray) -> np.ndarray:
    """Single-pass BT.500-style screening; returns a keep-mask.

    Per video, ratings beyond mean +- k*std are counted against the
    subject, with k chosen by the column kurtosis (2..4 treated as
    normal-tailed). A subject is rejected when flagged ratings exceed
    ``BT500_OUTLIER_FRACTION`` of their total and the flags are not
    heavily one-sided (|P-Q|/(P+Q) < ``BT500_BALANCE``).
    """
    n_subj, n_videos = z.shape
    if n_subj < 3:
        raise ValueError("BT.500 screening needs at least 3 subjects")
    p = np.zeros(n_subj)
    q = np.zeros(n_subj)
    for j in range(n_videos):
        col = z[:, j]
        mask = ~np.isnan(col)
        if mask.sum() < 2:
            continue
        vals = col[mask]
        mean = vals.mean()
        std = vals.std(ddof=1)
        if std == 0.0:
            continue
        m2 = ((vals - mean) ** 2).mean()
        m4 = ((vals - mean) ** 4).mean()
        beta2 = m4 / (m2 * m2) if m2 > 0 else 0.0
        k = BT500_NORMAL_SIGMA if 2.0 <= beta2 <= 4.0 else BT500_HEAVY_SIGMA
        hi = mean + k * std
        lo = mean - k * std
        p[mask] += (vals >= hi).astype(float)
        q[mask] += (vals <= lo).astype(float)
    rated = (~np.isnan(z)).sum(axis=1).astype(float)
    keep = np.ones(n_subj, dtype=bool)
    for i in range(n_subj):
        total = p[i] + q[i]
        if rated[i] == 0 or total == 0:
            continue
        if total / rated[i] > BT500_OUTLIER_FRACTION and abs(p[i] - q[i]) / total < BT500_BALANCE:
            keep[i] = False
    return keep


def realign(
    matrix: RatingsMatrix,
    z: np.ndarray,
    anchors: dict[str, list[tuple[str, float]]],
) -> tuple[dict[str, float], dict[str, tuple[float, float]]]:
    """Map session Z-scores onto the MOS scale, one linear fit per day.

    ``anchors[day]`` lists (video_id, anchor_mos) pairs; the fit
    minimizes the squared residual of MOS = a*z + b over the anchors'
    mean Z-scores, then applies to every video of that day's sessions.
    Returns (mos per video, (a, b) per day).
    """
    video_index = {v: j for j, v in enumerate(matrix.videos)}
    mean_z = np.array([np.nanmean(z[:, j]) if (~np.isnan(z[:, j])).any() else np.nan for j in range(len(matrix.videos))])
    mos: dict[str, float] = {}
    mappings: dict[str, tuple[float, float]] = {}
    for day, pairs in anchors.items():
        usable = [(video_index[v], m) for v, m in pairs if v in video_index and not np.isnan(mean_z[video_index[v]])]
        if len(usable) < 2:
            raise ValueError(f"day {day!r} has {len(usable)} usable anchors; need at least 2")
        zs = np.array([mean_z[j] for j, _ in usable])
        ms = np.array([m for _, m in usable])
        a_mat = np.vstack([zs, np.ones_like(zs)]).T
        (a, b), *_ = np.linalg.lstsq(a_mat, ms, rcond=None)
        mappings[day] = (float(a), float(b))
        for v in matrix.videos:
            if matrix.day_of[matrix.session_of[v]] == day and not np.isnan(mean_z[video_index[v]]):
                mos[v] = float(a * mean_z[video_index[v]] + b)
    return mos, mappings


# thresholds of the named video partitions (values from the study design)
QUALITY_CENTER, QUALITY_HALFWIDTH, QUALITY_FLOOR = 80.0, 10.0, 60.0
VARIATION_STD, STALL_LONG_S = 10.0, 1.0


def partition_sessions(video_meta: dict[str, VideoMeta]) -> dict[str, list[str]]:
    """Build the analysis partitions from per-video summaries.

    Rebuffering sets fix quality near the center and split on stalls;
    quality sets exclude stalls/variation and split on the floor;
    adaptation sets exclude stalls and split on quality spread.
    """
    out: dict[str, list[str]] = {
        "q_r_bar": [], "q_r": [],
        "q_q": [], "q_q_bar": [],
        "q_a": [], "q_a_bar": [],
    }
    for video, meta in video_meta.items():
        near_center = abs(meta.mean_quality - QUALITY_CENTER) <= QUALITY_HALFWIDTH
        steady = meta.quality_std <= VARIATION_STD
        if near_center and steady:
            if meta.total_stall_s == 0.0:
                out["q_r_bar"].append(video)
            elif meta.total_stall_s > STALL_LONG_S:
                out["q_r"].append(video)
        if meta.total_stall_s <= STALL_LONG_S and steady:
            (out["q_q"] if meta.mean_quality > QUALITY_FLOOR else out["q_q_bar"]).append(video)
        if meta.total_stall_s == 0.0 and near_center:
            (out["q_a"] if meta.quality_std > VARIATION_STD else out["q_a_bar"]).append(video)
    return out


@dataclass(frozen=True)
class SensitivityRow:
    subject: str
    s_r: float | None
    s_q: float | None
    s_a: float | None
    set_sizes: dict[str, int]


def build_sensitivity_report(
    matrix: RatingsMatrix, partitions: dict[str, list[str]], min_set: int = 30
) -> tuple[SensitivityRow, ...]:
    """Per-subject sensitivities over the named partitions, from the raw ratings.

    A sensitivity is the mean rating over one partition minus the mean
    over its contrast: (q_r_bar, q_r) to rebuffering, (q_q, q_q_bar) to
    quality and (q_a, q_a_bar) to adaptation, each mean over the
    subject's rated videos in partition order. Sensitivities whose sets
    are smaller than ``min_set`` for a subject are reported as None.
    """
    checks.count("min_set", min_set)
    column = {v: j for j, v in enumerate(matrix.videos)}
    blocks = {  # each partition's columns of every subject, in partition order
        name: matrix.raw[:, np.array([column[v] for v in partitions.get(name, []) if v in column], dtype=np.intp)]
        for name in ("q_r_bar", "q_r", "q_q", "q_q_bar", "q_a", "q_a_bar")
    }
    rows = []
    for i, subject in enumerate(matrix.subjects):
        rated = {name: block[i][~np.isnan(block[i])].tolist() for name, block in blocks.items()}
        mean = {name: sum(vals) / len(vals) if len(vals) >= min_set else None for name, vals in rated.items()}
        s_r, s_q, s_a = (
            None if mean[high] is None or mean[low] is None else mean[high] - mean[low]
            for high, low in (("q_r_bar", "q_r"), ("q_q", "q_q_bar"), ("q_a", "q_a_bar"))
        )
        rows.append(SensitivityRow(subject, s_r, s_q, s_a, {name: len(vals) for name, vals in rated.items()}))
    return tuple(rows)


def personal_mean_cdf(matrix: RatingsMatrix) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-device empirical CDF of average personal ratings.

    Returns, per device, the sorted per-subject mean ratings and the
    CDF values k/n at those points.
    """
    by_device: dict[str, list[float]] = {}
    for i, subject in enumerate(matrix.subjects):
        vals = matrix.raw[i, :]
        mask = ~np.isnan(vals)
        if not mask.any():
            continue
        by_device.setdefault(matrix.device_of[subject], []).append(float(vals[mask].mean()))
    out = {}
    for device, means in by_device.items():
        arr = np.sort(np.array(means))
        cdf = np.arange(1, len(arr) + 1) / len(arr)
        out[device] = (arr, cdf)
    return out


def subset_matrix(matrix: RatingsMatrix, keep: np.ndarray) -> RatingsMatrix:
    """Restrict the panel to the kept subjects."""
    subjects = [s for s, k in zip(matrix.subjects, keep) if k]
    return replace(
        matrix, subjects=subjects, raw=matrix.raw[np.asarray(keep, dtype=bool), :],
        device_of={s: matrix.device_of[s] for s in subjects},
    )


# ---------------------------------------------------------------------------
# CSV interfaces (column layouts in docs/file_formats.md)

def csv_rows(text: str, columns: tuple[str, ...], kind: str):
    """(line number, values of ``columns``) per row of a CSV text, after checking its header carries ``columns``.

    Fields are read by their position in the header, as ``csv.DictReader`` would read them by
    name: a column named twice is read at its last position, a short row gives None for the fields
    it lacks, and a blank line is skipped. ``columns`` names at least two columns.
    """
    reader = csv.reader(io.StringIO(text))
    position = {name: i for i, name in enumerate(next(reader, []))}
    missing = [c for c in columns if c not in position]
    if missing:
        raise ValueError(f"{kind} CSV lacks columns {missing}; it must carry {list(columns)}")
    pick = operator.itemgetter(*(position[c] for c in columns))
    width = 1 + max(position[c] for c in columns)
    return (
        (reader.line_num, pick(row if len(row) >= width else row + [None] * (width - len(row))))
        for row in reader if row
    )


def csv_number(text, column: str, source: str, line: int) -> float:
    """A CSV field as a finite float; the error names ``source`` and the line."""
    try:
        value = float(text)
    except (TypeError, ValueError):  # TypeError: a short row leaves the field None
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{source} line {line}: {column} must be a finite number, got {text!r}")
    return value


def load_ratings_csv(text: str, source: str = "ratings CSV") -> RatingsMatrix:
    """Columns: subject_id,video_id,session_id,day,device,score.

    Subjects and videos keep their first-seen order, and a later row for
    the same (subject, video) replaces the earlier score. A score that is
    not a finite number in [0, 100], or a row that puts a video in another
    session, a session on another day or a subject on another device than
    an earlier row did, is an error naming ``source`` and the line.
    """
    subject_index: dict[str, int] = {}
    video_index: dict[str, int] = {}
    session_of: dict[str, str] = {}
    day_of: dict[str, str] = {}
    device_of: dict[str, str] = {}
    cells: dict[tuple[int, int], float] = {}
    columns = ("subject_id", "video_id", "session_id", "day", "device", "score")
    for line, (s, v, session, day, device, field) in csv_rows(text, columns, "ratings"):
        cell = (subject_index.setdefault(s, len(subject_index)), video_index.setdefault(v, len(video_index)))
        score = csv_number(field, "score", source, line)
        if not 0.0 <= score <= 100.0:
            raise ValueError(f"{source} line {line}: score must be a number in [0, 100], got {field!r}")
        cells[cell] = score
        if session_of.setdefault(v, session) != session or day_of.setdefault(session, day) != day or (
            device_of.setdefault(s, device) != device
        ):
            for of, what, key, column, value in ((session_of, "video", v, "session_id", session),
                                                 (day_of, "session", session, "day", day),
                                                 (device_of, "subject", s, "device", device)):
                if of[key] != value:  # the first binding that an earlier row contradicts
                    raise ValueError(f"{source} line {line}: {what} {key!r} has {column} {value!r},"
                                     f" but an earlier row gives {of[key]!r}")
    raw = np.full((len(subject_index), len(video_index)), np.nan)
    if cells:
        raw[tuple(zip(*cells))] = list(cells.values())
    return RatingsMatrix(
        subjects=list(subject_index), videos=list(video_index), raw=raw,
        session_of=session_of, day_of=day_of, device_of=device_of,
    )


def load_keystrokes_csv(text: str, source: str = "keystrokes CSV") -> dict[tuple[str, str], list[float]]:
    """Columns: subject_id,video_id,event_time_s."""
    out: dict[tuple[str, str], list[float]] = {}
    for line, (s, v, t) in csv_rows(text, ("subject_id", "video_id", "event_time_s"), "keystrokes"):
        out.setdefault((s, v), []).append(csv_number(t, "event_time_s", source, line))
    return out


def load_video_meta_csv(text: str, source: str = "video meta CSV") -> dict[str, VideoMeta]:
    """Columns: video_id,mean_quality,quality_std,total_stall_s; other columns are ignored."""
    columns = ("video_id", "mean_quality", "quality_std", "total_stall_s")
    return {
        values[0]: VideoMeta(*(csv_number(x, c, source, line) for x, c in zip(values[1:], columns[1:])))
        for line, values in csv_rows(text, columns, "video meta")
    }


def load_stall_events_csv(text: str, source: str = "stall events CSV") -> dict[str, list[float]]:
    """Columns: video_id,position_s[,duration_s]; positions are stall onsets."""
    out: dict[str, list[float]] = {}
    for line, (v, position) in csv_rows(text, ("video_id", "position_s"), "stall events"):
        out.setdefault(v, []).append(csv_number(position, "position_s", source, line))
    return out


def load_anchors_csv(text: str, source: str = "anchors CSV") -> dict[str, list[tuple[str, float]]]:
    """Columns: day,video_id,mos."""
    out: dict[str, list[tuple[str, float]]] = {}
    for line, (day, v, mos) in csv_rows(text, ("day", "video_id", "mos"), "anchors"):
        out.setdefault(day, []).append((v, csv_number(mos, "mos", source, line)))
    return out
