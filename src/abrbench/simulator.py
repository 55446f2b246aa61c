"""Player state machine: sequential chunk downloads over a fluid channel.

Downloads are strictly sequential with no abandonment or replacement.
Playback begins once the first chunk is fully buffered; that initial
wait is reported as the startup delay, never as a stall. When the
buffer reaches capacity the player pauses downloading while playback
continues (idle time).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field, fields

from . import checks
from .media import Manifest
from .nettrace import ChannelConfig, Trace, download_time


@dataclass(frozen=True)
class PlayerConfig:
    max_buffer_s: float = 60.0
    initial_rep: int = 1  # every policy starts a session from this rung
    drop_first_chunk: bool = True
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self):
        checks.attrs(self, checks.positive, "max_buffer_s")
        checks.attrs(self, checks.count, "initial_rep")  # a 1-based ladder index
        checks.attrs(self, checks.flag, "drop_first_chunk")

    def check_fits(self, manifest: Manifest) -> None:
        """The buffer holds two segments of ``manifest`` and ``initial_rep`` is a rung of its ladder."""
        seg, rungs = manifest.segment_duration_s, len(manifest.ladder)
        if self.max_buffer_s < 2 * seg:
            raise ValueError(f"max_buffer_s must be at least two segments ({2 * seg} s), got {self.max_buffer_s}")
        if self.initial_rep > rungs:  # >= 1 by construction
            raise ValueError(f"initial_rep must be a rung of the ladder (1..{rungs}), got {self.initial_rep}")


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


def _quality(name: str, value) -> float:
    return checks.between(name, value, 0.0, 100.0)


def _stall(name: str, stall) -> tuple[float, float]:
    if not (isinstance(stall, (list, tuple)) and len(stall) == 2):
        raise ValueError(f"{name} must be a [position_s, duration_s] pair, got {stall!r}")
    return checks.nonnegative(f"{name} position_s", stall[0]), checks.positive(f"{name} duration_s", stall[1])


@dataclass(frozen=True)
class SessionRecord:
    """QoE-facing summary of a session: what the viewer experienced.

    Values are checked, not coerced: at least one segment, a segment
    duration and bitrates > 0, qualities in [0, 100], stalls as
    (position >= 0, duration > 0) pairs and a startup delay >= 0, all
    finite numbers (a bool is no number). Lists are stored as tuples.
    """

    segment_duration_s: float
    qualities: tuple[float, ...]
    bitrates_kbps: tuple[float, ...]
    stalls: tuple[tuple[float, float], ...]
    startup_delay_s: float

    def __post_init__(self):
        checks.attrs(self, checks.positive, "segment_duration_s")
        checks.attrs(self, checks.each(_quality), "qualities")
        checks.attrs(self, checks.each(checks.positive), "bitrates_kbps")
        checks.attrs(self, checks.each(_stall), "stalls")
        checks.attrs(self, checks.nonnegative, "startup_delay_s")
        if not self.qualities:
            raise ValueError("a session record needs at least one segment")
        if len(self.qualities) != len(self.bitrates_kbps):
            raise ValueError("qualities and bitrates_kbps must have equal length")

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
    downloading while playback continues). The buffer and download time
    must be finite and >= 0, the segment duration and cap finite and > 0.
    """
    inf = math.inf  # one chained comparison per argument: this runs once per chunk
    if not (0.0 <= buffer_s < inf and 0.0 <= download_time_s < inf and 0.0 < segment_duration_s < inf
            and 0.0 < max_buffer_s < inf):
        checks.nonnegative("buffer_s", buffer_s)
        checks.nonnegative("download_time_s", download_time_s)
        checks.positive("segment_duration_s", segment_duration_s)
        checks.positive("max_buffer_s", max_buffer_s)
    stall = max(download_time_s - buffer_s, 0.0)
    drained = min(buffer_s, download_time_s)
    tentative = buffer_s - drained + segment_duration_s
    if tentative > max_buffer_s:
        return max_buffer_s, stall, tentative - max_buffer_s
    return tentative, stall, 0.0


def run_session(manifest: Manifest, trace: Trace, policy, config: PlayerConfig) -> SessionLog:
    """Play ``manifest`` over ``trace`` under ``policy``.

    One loop plays chunks 1..n from an empty buffer: chunk 1 uses ``config.initial_rep`` and
    its wait is the startup delay. Later chunks are chosen by ``policy.select(state)``; each
    state reads a view of one sample buffer, so a session is linear in chunks.
    Deterministic: identical inputs produce an identical log.
    """
    from .abr import AbrState  # local import: abr imports qoe, which imports simulator

    config.check_fits(manifest)
    n = manifest.segment_count
    seg = manifest.segment_duration_s

    choices: list[int] = []
    spans: list[tuple[float, float]] = []
    stalls: list[tuple[float, float]] = []
    sizes = manifest.sizes
    samples = array("d", bytes(8 * n))
    history = memoryview(samples).toreadonly()
    wall = buffer = 0.0
    rep = int(config.initial_rep)

    for k in range(1, n + 1):
        if k > 1:
            choice = policy.select(
                AbrState(
                    chunk_index=k,
                    buffer_s=buffer,
                    last_rep=rep,
                    throughput_history_kbps=history[: k - 1],
                    manifest=manifest,
                )
            )
            if not (float(choice).is_integer() and 1 <= choice <= len(manifest.ladder)):
                raise ValueError(f"policy returned invalid representation index {choice!r}")
            rep = int(choice)
        size = sizes[k - 1][rep - 1]
        dt = download_time(trace, config.channel, wall, size)
        buffer, stall, idle = buffer_step(buffer, dt, seg, config.max_buffer_s)
        if k == 1:
            startup = stall
        elif stall > 0:
            stalls.append(((k - 1) * seg, stall))
        choices.append(rep)
        spans.append((wall, wall + dt))
        samples[k - 1] = size / dt / 1000.0
        wall = wall + dt + idle

    return SessionLog(
        choices=tuple(choices),
        download_spans=tuple(spans),
        startup_delay_s=startup,
        stalls=tuple(stalls),
        total_wall_time_s=startup + n * seg + sum(d for _, d in stalls),
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
    played = log.choices[skip:]
    bad = [rep for rep in played if not 1 <= rep <= len(manifest.ladder)]
    if bad:
        raise IndexError(f"representation index {bad[0]} out of range 1..{len(manifest.ladder)}")
    qualities = [row[rep - 1] for row, rep in zip(manifest.qualities[skip:], played)]
    bitrates = [row[rep - 1] / seg / 1000.0 for row, rep in zip(manifest.sizes[skip:], played)]
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
    return json.dumps(vars(log))  # fields in declaration order, tuples as lists


def record_to_json(record: SessionRecord) -> str:
    return json.dumps(vars(record))


def record_from_json(text: str) -> SessionRecord:
    """A record document's values go to ``SessionRecord`` as they are; it checks them."""
    doc = json.loads(text)
    keys = [f.name for f in fields(SessionRecord)]
    if not (isinstance(doc, dict) and set(doc) == set(keys)):
        raise ValueError(f"a session record must be an object with exactly the keys {keys}")
    return SessionRecord(**doc)
