"""Seeded, synthetic inputs and the command sequence of each workload.

Inputs are written in the documented file formats by this module
alone, without importing abrbench, so a library change cannot change
what the benchmark feeds it. ``make_plan`` writes a workload's files
into a work directory and returns the plan the measured worker runs:
configs, the commands of one pass, and what the output checks expect.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("grid", "long_session", "offline")
DEFAULT_SEED = 7  # the manifest seed of scripts/demo_grid.py

# The reference 13-rung ladder: (index, width, height, bitrate_kbps).
LADDER = (
    (1, 320, 180, 235.0),
    (2, 384, 216, 375.0),
    (3, 512, 288, 560.0),
    (4, 512, 288, 750.0),
    (5, 640, 360, 1050.0),
    (6, 960, 540, 1750.0),
    (7, 1280, 720, 2350.0),
    (8, 1280, 720, 3000.0),
    (9, 1920, 1080, 4300.0),
    (10, 1920, 1080, 5800.0),
    (11, 2560, 1440, 8100.0),
    (12, 3840, 2160, 11600.0),
    (13, 3840, 2160, 16800.0),
)

QOE_MODELS = (
    "bentaleb2016", "ftw", "ksqi", "liu2012", "mok2011",
    "sqi", "spiteri2016", "xue2014", "yin2015",
)

# The demo grid of scripts/demo_grid.py: nine shaped traces, four policies.
GRID_TRACES = {
    "low_constant": [(0.0, 1200.0)],
    "mid_constant": [(0.0, 4500.0)],
    "step_up": [(0.0, 1000.0), (20.0, 6000.0)],
    "step_down": [(0.0, 6000.0), (20.0, 900.0)],
    "oscillating": [(0.0, 2500.0), (10.0, 600.0), (20.0, 2500.0), (30.0, 600.0), (40.0, 2500.0)],
    "ramp": [(0.0, 500.0), (10.0, 1500.0), (20.0, 3000.0), (30.0, 5000.0), (40.0, 8000.0)],
    "outage": [(0.0, 3500.0), (25.0, 0.0), (29.0, 3500.0)],
    "spiky": [(0.0, 800.0), (5.0, 9000.0), (10.0, 800.0), (15.0, 9000.0), (20.0, 800.0), (25.0, 9000.0)],
    "high_constant": [(0.0, 9000.0)],
}
GRID_POLICIES = [
    {"id": "rate_based", "name": "rate_based"},
    {"id": "buffer_based", "name": "buffer_based"},
    {"id": "mpc_exact", "name": "fastmpc", "params": {"horizon": 5}},
    {"id": "rdos", "name": "rdos"},
]

LONG_SEGMENTS = 3600
# The coarse table the long session's mpc_table policy reads; built before timing.
LONG_TABLE = {"tput_bins": 20, "buffer_bins": 20, "tput_max_kbps": 20000.0, "horizon": 3, "segment_duration_s": 1.0}

# mpc-table: 10 throughput bins spanning 0..20 Mb/s, h=5, default ladder.
# A quarter of the buffer axis keeps a build near 4 s, so an offline pass
# stays near 6.5 s and a run holds several.
TABLE_BLOCK = {"tput_bins": 10, "buffer_bins": 25, "tput_max_kbps": 20000.0, "horizon": 5}

ANALYSIS_RECORDS = 1000
ANALYSIS_RECORD_SEGMENTS = 60
ANALYSIS_SUBJECTS = 60
ANALYSIS_VIDEOS = 450
ANALYSIS_SESSIONS = 9  # three per day
ANALYSIS_METHODS = 10
# 400 items keep stats near 1.7 s (krcc's pair loop is most of it), so the
# analysis commands do not outweigh the table build in an offline pass.
ANALYSIS_ITEMS = 400


def _quality(bitrate_kbps: float) -> float:
    return 100.0 * bitrate_kbps / (bitrate_kbps + 900.0)


def manifest_doc(segments: int, segment_duration_s: float, size_jitter: float, seed: int) -> dict:
    """A jittered manifest, drawn as ``media.synthetic_manifest`` draws it."""
    rng = random.Random(seed)
    rows = []
    for _ in range(segments):
        row = []
        for _, _, _, rate in LADDER:
            factor = 1.0 + size_jitter * (2.0 * rng.random() - 1.0) if size_jitter else 1.0
            row.append({"size_bits": rate * 1000.0 * segment_duration_s * factor,
                        "quality": min(100.0, max(0.0, _quality(rate)))})
        rows.append(row)
    return {
        "segment_duration_s": segment_duration_s,
        "ladder": [{"index": i, "width": w, "height": h, "bitrate_kbps": r} for i, w, h, r in LADDER],
        "segments": rows,
    }


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _write_json(path: Path, doc) -> str:
    return _write(path, json.dumps(doc, indent=1))


def _pairs(samples) -> str:
    return "".join(f"{t!r},{bw!r}\n" for t, bw in samples)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def _cell_ids(manifest: str, traces, policies) -> list[str]:
    return [f"{manifest}__{t}__{p['name']}" for t in traces for p in policies]


def _grid(work: Path, seed: int) -> dict:
    manifest = _write_json(work / "title.json", manifest_doc(14, 4.0, 0.12, seed))
    traces = []
    for name, samples in GRID_TRACES.items():
        traces.append({"path": _write(work / f"trace_{name}.csv", _pairs(samples)), "format": "pairs"})
    # Stats needs a MOS per item (trace); a saturating curve of the trace's
    # mean rate plus seeded noise stands in for one.
    rng = random.Random(seed)
    mos_rows = []
    for name, samples in sorted(GRID_TRACES.items()):
        duration = 30.0 if name == "spiky" else 55.0
        ends = [t for t, _ in samples[1:]] + [duration]
        mean = sum(bw * (end - t) for (t, bw), end in zip(samples, ends)) / duration
        mos_rows.append((f"trace_{name}", repr(100.0 * mean / (mean + 2500.0) + rng.gauss(0.0, 3.0))))
    mos = _write(work / "grid_mos.csv", _csv("item_id,mos", mos_rows))
    scores = str(work / "grid_scores.csv")  # rewritten from each pass's qoe output
    config = _write_json(work / "grid.json", {
        "manifests": [manifest],
        "traces": traces,
        "policies": GRID_POLICIES,
        "player": {"max_buffer_s": 60.0, "initial_rep": 1, "rtt_s": 0.08},
        "qoe_models": [{"id": m} for m in QOE_MODELS],
        "stats": {"scores_csv": scores, "mos_csv": mos, "test": "wilcoxon"},
    })
    cells = _cell_ids("title", [f"trace_{n}" for n in GRID_TRACES], GRID_POLICIES)
    return {
        "config": config,
        "steps": [
            {"label": "simulate", "argv": ["simulate", "--config", config, "--jobs", "1", "--out", "{out}/j1"]},
            {"label": "simulate_jobs2", "parallel": True,
             "argv": ["simulate", "--config", config, "--jobs", "2", "--out", "{out}/j2"]},
            {"label": "qoe", "argv": ["qoe", "--config", config, "--out", "{out}/j1"]},
            {"glue": "grid_scores", "qoe_csv": "{out}/j1/qoe_scores.csv", "scores_csv": scores},
            {"label": "stats", "argv": ["stats", "--config", config, "--out", "{out}/stats"]},
        ],
        "simulate_dirs": {"simulate": "j1", "simulate_jobs2": "j2"},
        "cells": cells,
        "segment_duration_s": 4.0,
        "qoe": {"dir": "j1", "records": cells, "models": list(QOE_MODELS)},
        "stats_dir": "stats",
        "inputs": {"manifests": [manifest], "traces": traces},
        "chunks_per_cell": 14,
        "rungs": len(LADDER),
    }


def _long_session(work: Path, seed: int) -> dict:
    rng = random.Random(seed)
    manifest = _write_json(work / "long_title.json", manifest_doc(LONG_SEGMENTS, 1.0, 0.1, seed))
    # An hour of 1 s samples: a mean-reverting walk in log rate around 3 Mb/s.
    x = math.log(3000.0)
    walk = []
    for _ in range(3600):
        x += 0.02 * (math.log(3000.0) - x) + rng.gauss(0.0, 0.08)
        walk.append(round(min(max(math.exp(x), 150.0), 20000.0), 3))
    long_trace = _write(work / "hour_1s.txt", "".join(f"{v!r}\n" for v in walk))
    short = [round(rng.uniform(1500.0, 7000.0), 1) for _ in range(12)]
    short_trace = _write(work / "fcc_5s.txt", "".join(f"{v!r}\n" for v in short))
    table_dir = work / "coarse_table"
    table_config = _write_json(work / "coarse_table.json", {"mpc_table": LONG_TABLE})
    policies = [
        {"id": "rate_based", "name": "rate_based"},
        {"id": "buffer_based", "name": "buffer_based"},
        {"id": "mpc_table", "name": "mpc_table", "table": str(table_dir / "mpc_table.bin")},
    ]
    traces = [{"path": long_trace, "format": "granular_1s"}, {"path": short_trace, "format": "granular_5s"}]
    config = _write_json(work / "long.json", {
        "manifests": [manifest],
        "traces": traces,
        "policies": policies,
        "player": {"max_buffer_s": 60.0, "initial_rep": 1, "rtt_s": 0.08},
    })
    return {
        "config": config,
        "prep": [["mpc-table", "--config", table_config, "--out", str(table_dir)]],
        "steps": [
            {"label": "simulate", "argv": ["simulate", "--config", config, "--jobs", "1", "--out", "{out}/j1"]},
        ],
        "simulate_dirs": {"simulate": "j1"},
        "cells": _cell_ids("long_title", ["hour_1s", "fcc_5s"], policies),
        "segment_duration_s": 1.0,
        "inputs": {"manifests": [manifest], "traces": traces},
        "chunks_per_cell": LONG_SEGMENTS,
        "rungs": len(LADDER),
    }


def _records(work: Path, rng: random.Random) -> tuple[str, list[str]]:
    """Session records with a rung random walk, stalls and startup delay."""
    rec_dir = work / "records"
    ids = []
    for i in range(ANALYSIS_RECORDS):
        rung = rng.randrange(len(LADDER))
        qualities, rates, stalls = [], [], []
        for k in range(ANALYSIS_RECORD_SEGMENTS):
            rung = min(max(rung + rng.choice((-1, 0, 0, 0, 1)), 0), len(LADDER) - 1)
            rate = LADDER[rung][3] * rng.uniform(0.9, 1.1)
            rates.append(rate)
            qualities.append(min(100.0, _quality(rate) + rng.uniform(-2.0, 2.0)))
            if k and rng.random() < 0.03:
                stalls.append([k * 4.0, round(rng.uniform(0.2, 6.0), 3)])
        vid = f"sess{i:04d}"
        ids.append(vid)
        _write_json(rec_dir / f"{vid}.record.json", {
            "segment_duration_s": 4.0,
            "qualities": qualities,
            "bitrates_kbps": rates,
            "stalls": stalls,
            "startup_delay_s": round(rng.uniform(0.3, 4.0), 3),
        })
    return str(rec_dir), ids


def _ratings(work: Path, rng: random.Random) -> dict:
    """A 60 x 450 ratings panel at 90% fill with partitions that all reach min_set."""
    per_session = ANALYSIS_VIDEOS // ANALYSIS_SESSIONS
    # Video kinds: steady near 80 without stalls, with long stalls,
    # steady low quality, and strongly varying quality.
    kinds = ("steady", "stalled", "low", "varying")
    meta, truth, session_of = {}, {}, {}
    for j in range(ANALYSIS_VIDEOS):
        vid = f"v{j:03d}"
        kind = kinds[j % 4]
        mean_q = rng.uniform(40.0, 55.0) if kind == "low" else rng.uniform(72.0, 88.0)
        std_q = rng.uniform(12.0, 20.0) if kind == "varying" else rng.uniform(1.0, 8.0)
        stall = rng.uniform(1.5, 8.0) if kind == "stalled" else 0.0
        meta[vid] = (mean_q, std_q, stall, mean_q + rng.uniform(-5, 5), mean_q + rng.uniform(-5, 5))
        truth[vid] = mean_q - 4.0 * stall - 0.6 * std_q
        session_of[vid] = f"s{j // per_session}"
    devices = ("phone", "tablet", "tv")
    rows = []
    for i in range(ANALYSIS_SUBJECTS):
        subj = f"u{i:02d}"
        bias, scale = rng.gauss(0.0, 6.0), rng.uniform(0.8, 1.2)
        erratic = i % 20 == 19  # a few raters ignore the content
        for j in range(ANALYSIS_VIDEOS):
            if rng.random() >= 0.9:
                continue
            vid = f"v{j:03d}"
            s = session_of[vid]
            day = f"d{int(s[1:]) // 3}"
            score = rng.uniform(0.0, 100.0) if erratic else 50.0 + scale * (truth[vid] - 50.0) + bias + rng.gauss(0.0, 6.0)
            rows.append((subj, vid, s, day, devices[i % 3], round(min(max(score, 0.0), 100.0), 2)))
    ratings = _write(work / "ratings.csv", _csv("subject_id,video_id,session_id,day,device,score", rows))
    meta_rows = [(v, *(round(x, 3) for x in m)) for v, m in meta.items()]
    video_meta = _write(work / "video_meta.csv", _csv(
        "video_id,mean_quality,quality_std,total_stall_s,first_quality,last_quality", meta_rows))
    anchors = []
    for day in range(3):
        first = day * 3 * per_session
        for j in range(first, first + 3 * per_session, 25):
            vid = f"v{j:03d}"
            anchors.append((f"d{day}", vid, round(truth[vid] + rng.gauss(0.0, 2.0), 3)))
    anchors_csv = _write(work / "anchors.csv", _csv("day,video_id,mos", anchors))
    return {"ratings_csv": ratings, "anchors_csv": anchors_csv, "video_meta_csv": video_meta}


def _method_scores(work: Path, rng: random.Random) -> dict:
    """10 objective methods scored on 400 items; MOS is a logistic of each score.

    Each method's score is the logit of MOS plus Gaussian noise, so the
    5-parameter logistic fits every method in a few dozen evaluations
    for any seed. A near-linear map would leave the fit sliding along
    its flat ridge to the evaluation budget for some seeds, and the
    run's cost would then depend on the seed.
    """
    mos = [(f"item{i:04d}", round(rng.uniform(12.0, 88.0), 4)) for i in range(ANALYSIS_ITEMS)]
    rows = []
    for m in range(ANALYSIS_METHODS):
        noise = 0.5 + 0.6 * m
        slope = rng.uniform(0.06, 0.12)
        for item, value in mos:
            score = 50.0 + math.log((value - 10.0) / (90.0 - value)) / slope + rng.gauss(0.0, noise)
            rows.append((item, f"method{m}", repr(round(score, 6))))
    return {
        "scores_csv": _write(work / "scores.csv", _csv("item_id,method,score", rows)),
        "mos_csv": _write(work / "mos.csv", _csv("item_id,mos", mos)),
        "test": "f_test",
    }


def _offline(work: Path, seed: int) -> dict:
    """The tools users run outside a session: the FastMPC table, then QoE, subjective and stats.

    The table's inputs are pinned (default ladder, h=5, 10 x 25 bins) and
    do not depend on the seed; the records, ratings and scores do.
    """
    rng = random.Random(seed)
    records_dir, record_ids = _records(work, rng)
    subjective = _ratings(work, rng)
    stats = _method_scores(work, rng)
    config = _write_json(work / "offline.json", {
        "mpc_table": TABLE_BLOCK,
        "records_dir": records_dir,
        "qoe_models": [{"id": m} for m in QOE_MODELS],
        "subjective": subjective,
        "stats": stats,
    })
    return {
        "config": config,
        "steps": [
            {"label": "mpc_table", "argv": ["mpc-table", "--config", config, "--jobs", "{jobs}", "--out", "{out}/table"]},
            {"label": "qoe", "argv": ["qoe", "--config", config, "--out", "{out}/qoe"]},
            {"label": "subjective", "argv": ["subjective", "--config", config, "--out", "{out}/subjective"]},
            {"label": "stats", "argv": ["stats", "--config", config, "--out", "{out}/stats"]},
        ],
        "table_dir": "table",
        "table_cells": TABLE_BLOCK["tput_bins"] * TABLE_BLOCK["buffer_bins"] * len(LADDER),
        "qoe": {"dir": "qoe", "records": record_ids, "models": list(QOE_MODELS)},
        "subjective_dir": "subjective",
        "stats_dir": "stats",
        "inputs": {"records_dir": records_dir, "ratings_csv": subjective["ratings_csv"]},
    }


_PLANS = {"grid": _grid, "long_session": _long_session, "offline": _offline}


def make_plan(workload: str, work: Path, seed: int) -> dict:
    """Write ``workload``'s inputs for ``seed`` under ``work`` and return its plan."""
    if workload not in _PLANS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    plan = _PLANS[workload](Path(work), seed)
    plan.update(workload=workload, seed=seed, work=str(work))
    return plan


def glue_grid_scores(qoe_csv: str, scores_csv: str) -> None:
    """Per-policy KSQI over the trace grid, as the stats command's method scores."""
    rows = []
    for line in Path(qoe_csv).read_text().splitlines()[1:]:
        video, model, score = line.split(",")
        if model == "ksqi":
            _, trace, policy = video.split("__")
            rows.append((trace, policy, score))
    Path(scores_csv).write_text(_csv("item_id,method,score", rows))
