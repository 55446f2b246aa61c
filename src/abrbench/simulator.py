"""Player state machine: sequential chunk downloads over a fluid channel.

Downloads are strictly sequential with no abandonment or replacement.
Playback begins once the first chunk is fully buffered; that initial
wait is reported as the startup delay, never as a stall. When the
buffer reaches capacity the player pauses downloading while playback
continues (idle time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .media import Manifest
from .nettrace import ChannelConfig, Trace, download_time


@dataclass(frozen=True)
class PlayerConfig:
    max_buffer_s: float = 60.0
    initial_rep: int = 1  # every policy starts a session from this rung
    drop_first_chunk: bool = True
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self):
        if self.initial_rep < 1:
            raise ValueError("initial_rep must be a valid 1-based ladder index")
        if self.max_buffer_s <= 0:
            raise ValueError("max_buffer_s must be > 0")


@dataclass(frozen=True)
class SessionLog:
    """Everything that happened during one playback session.

    ``stalls`` holds (playhead_position_s, duration_s) pairs; positions
    are content time already played when the stall began.
    """

    choices: tuple[int, ...]
    download_spans: tuple[tuple[float, float], ...]
    startup_delay_s: float
    stalls: tuple[tuple[float, float], ...]
    total_wall_time_s: float

    def __post_init__(self):
        if len(self.choices) != len(self.download_spans):
            raise ValueError("choices and download_spans must have equal length")
        prev_pos = -1.0
        for pos, dur in self.stalls:
            if dur <= 0:
                raise ValueError("stall durations must be > 0")
            if pos < prev_pos:
                raise ValueError("stall positions must be non-decreasing")
            prev_pos = pos

    @property
    def total_stall_s(self) -> float:
        return sum(d for _, d in self.stalls)


@dataclass(frozen=True)
class SessionRecord:
    """QoE-facing summary of a session: what the viewer experienced."""

    segment_duration_s: float
    qualities: tuple[float, ...]
    bitrates_kbps: tuple[float, ...]
    stalls: tuple[tuple[float, float], ...]
    startup_delay_s: float

    def __post_init__(self):
        if len(self.qualities) != len(self.bitrates_kbps):
            raise ValueError("qualities and bitrates_kbps must have equal length")
        for q in self.qualities:
            if not (0.0 <= q <= 100.0):
                raise ValueError(f"quality {q} outside [0, 100]")

    @property
    def segment_count(self) -> int:
        return len(self.qualities)

    @property
    def total_stall_s(self) -> float:
        return sum(d for _, d in self.stalls)


def buffer_step(
    buffer_s: float, download_time_s: float, segment_duration_s: float, max_buffer_s: float
) -> tuple[float, float, float]:
    """One step of the buffer recursion.

    Returns (new_buffer_s, stall_s, idle_s). The buffer drains while the
    chunk downloads, stalls once empty, gains one segment on completion,
    and any excess over capacity becomes idle time (the player pauses
    downloading while playback continues).
    """
    stall = max(download_time_s - buffer_s, 0.0)
    drained = min(buffer_s, download_time_s)
    tentative = buffer_s - drained + segment_duration_s
    if tentative > max_buffer_s:
        return max_buffer_s, stall, tentative - max_buffer_s
    return tentative, stall, 0.0


def run_session(manifest: Manifest, trace: Trace, policy, config: PlayerConfig) -> SessionLog:
    """Play ``manifest`` over ``trace`` under ``policy``.

    Chunk 1 always uses ``config.initial_rep``; later chunks are chosen
    by ``policy.select(state)`` with an :class:`~abrbench.abr.AbrState`
    view of the player. Deterministic: identical inputs produce an
    identical log.
    """
    from .abr import AbrState  # local import: abr imports qoe, which imports simulator

    n = manifest.segment_count
    seg = manifest.segment_duration_s
    if config.max_buffer_s < 2 * seg:
        raise ValueError("max_buffer_s must be at least two segment durations")
    if not 1 <= config.initial_rep <= len(manifest.ladder):
        raise ValueError(f"initial_rep {config.initial_rep} not in ladder")

    choices: list[int] = []
    spans: list[tuple[float, float]] = []
    stalls: list[tuple[float, float]] = []
    history: list[float] = []

    rep = config.initial_rep
    dt = download_time(trace, config.channel, 0.0, manifest.size_bits(0, rep))
    choices.append(rep)
    spans.append((0.0, dt))
    history.append(manifest.size_bits(0, rep) / dt / 1000.0)
    startup = dt
    wall = dt
    buffer = seg  # playback starts with exactly one chunk buffered

    for k in range(2, n + 1):
        state = AbrState(
            chunk_index=k,
            buffer_s=buffer,
            last_rep=choices[-1],
            throughput_history_kbps=tuple(history),
            manifest=manifest,
        )
        choice = policy.select(state)
        if not (float(choice).is_integer() and 1 <= choice <= len(manifest.ladder)):
            raise ValueError(f"policy returned invalid representation index {choice!r}")
        rep = int(choice)
        size = manifest.size_bits(k - 1, rep)
        dt = download_time(trace, config.channel, wall, size)
        new_buffer, stall, idle = buffer_step(buffer, dt, seg, config.max_buffer_s)
        if stall > 0:
            stalls.append(((k - 1) * seg, stall))
        choices.append(rep)
        spans.append((wall, wall + dt))
        history.append(size / dt / 1000.0)
        wall = wall + dt + idle
        buffer = new_buffer

    total = startup + n * seg + sum(d for _, d in stalls)
    return SessionLog(
        choices=tuple(choices),
        download_spans=tuple(spans),
        startup_delay_s=startup,
        stalls=tuple(stalls),
        total_wall_time_s=total,
    )


def to_record(log: SessionLog, manifest: Manifest, config: PlayerConfig) -> SessionRecord:
    """Summarize a log for QoE scoring.

    With ``drop_first_chunk`` the first chunk and the startup delay are
    removed and stall positions shift back by one segment duration,
    mirroring how sessions are trimmed before being shown to viewers.
    """
    if len(log.choices) > manifest.segment_count:
        raise ValueError("log has more chunks than the manifest")
    seg = manifest.segment_duration_s
    skip = 1 if config.drop_first_chunk else 0
    qualities = []
    bitrates = []
    for pos, rep in enumerate(log.choices):
        if pos < skip:
            continue
        info = manifest.info(pos, rep)
        qualities.append(info.quality)
        bitrates.append(info.size_bits / seg / 1000.0)
    if skip:
        stalls = tuple((max(p - seg, 0.0), d) for p, d in log.stalls)
        startup = 0.0
    else:
        stalls = log.stalls
        startup = log.startup_delay_s
    return SessionRecord(
        segment_duration_s=seg,
        qualities=tuple(qualities),
        bitrates_kbps=tuple(bitrates),
        stalls=stalls,
        startup_delay_s=startup,
    )


def log_to_json(log: SessionLog) -> str:
    doc = {
        "choices": list(log.choices),
        "download_spans": [list(s) for s in log.download_spans],
        "startup_delay_s": log.startup_delay_s,
        "stalls": [list(s) for s in log.stalls],
        "total_wall_time_s": log.total_wall_time_s,
    }
    return json.dumps(doc, indent=1)


def log_from_json(text: str) -> SessionLog:
    doc = json.loads(text)
    return SessionLog(
        choices=tuple(int(c) for c in doc["choices"]),
        download_spans=tuple((float(a), float(b)) for a, b in doc["download_spans"]),
        startup_delay_s=float(doc["startup_delay_s"]),
        stalls=tuple((float(p), float(d)) for p, d in doc["stalls"]),
        total_wall_time_s=float(doc["total_wall_time_s"]),
    )


def record_to_json(record: SessionRecord) -> str:
    doc = {
        "segment_duration_s": record.segment_duration_s,
        "qualities": list(record.qualities),
        "bitrates_kbps": list(record.bitrates_kbps),
        "stalls": [list(s) for s in record.stalls],
        "startup_delay_s": record.startup_delay_s,
    }
    return json.dumps(doc, indent=1)


def record_from_json(text: str) -> SessionRecord:
    doc = json.loads(text)
    return SessionRecord(
        segment_duration_s=float(doc["segment_duration_s"]),
        qualities=tuple(float(q) for q in doc["qualities"]),
        bitrates_kbps=tuple(float(b) for b in doc["bitrates_kbps"]),
        stalls=tuple((float(p), float(d)) for p, d in doc["stalls"]),
        startup_delay_s=float(doc["startup_delay_s"]),
    )


def log_to_csv(log: SessionLog) -> str:
    """Per-chunk CSV view of a log for spreadsheet analysis."""
    lines = ["chunk,rep_index,request_s,finish_s"]
    for i, (rep, (a, b)) in enumerate(zip(log.choices, log.download_spans), start=1):
        lines.append(f"{i},{rep},{a!r},{b!r}")
    return "\n".join(lines) + "\n"
