"""Bandwidth traces and the fluid channel model.

A trace is a piecewise-constant bandwidth timeline. Downloads are
resolved analytically by integrating bandwidth over time, with a fixed
round-trip latency charged once per request before any bits flow. This
replaces packet-level emulation with the chunk-granularity timing that
ABR logic actually consumes.

Each trace derives its timeline (interval edges, rates in bit/s, bits
per loop) once, on first use, and every reader shares it. A download is
one walk over that timeline; on wrapping it skips whole loops.

Supported on-disk formats (bit-exact definitions in
docs/file_formats.md):

* ``granular_5s`` - one bandwidth value (kb/s) per line, 5 s apart
  (FCC-style broadband measurements);
* ``granular_1s`` - one value per line, 1 s apart (HSDPA/Belgium-style
  mobile measurements);
* ``pairs`` - generic CSV lines ``time_s,bandwidth_kbps``, and an
  optional last line holding the end time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from . import checks

TRACE_FORMATS = ("granular_5s", "granular_1s", "pairs")


class TraceExhaustedError(ValueError):
    """A non-looping trace ended with bits still outstanding."""


@dataclass(frozen=True)
class ChannelConfig:
    """Channel behaviour shared by every download of a session."""

    rtt_s: float = 0.08
    loop_trace: bool = True  # wrap the trace when a session outlasts it

    def __post_init__(self):
        checks.attrs(self, checks.nonnegative, "rtt_s")
        checks.attrs(self, checks.flag, "loop_trace")


@dataclass(frozen=True)
class Trace:
    """Piecewise-constant bandwidth timeline.

    ``samples[i] = (start_time_s, bandwidth_kbps)``: the i-th value
    holds from its start time until the next start (or ``duration_s``
    for the last sample). Start times are strictly increasing and begin
    at 0; bandwidths are finite and >= 0; ``duration_s`` is finite and
    > 0.
    """

    samples: tuple[tuple[float, float], ...]
    duration_s: float

    def __post_init__(self):
        if not self.samples:
            raise ValueError("empty trace")
        if self.samples[0][0] != 0.0:
            raise ValueError("first sample must start at time 0")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and > 0, got {self.duration_s!r}")
        prev = -1.0
        for t, bw in self.samples:
            if not t > prev:
                raise ValueError("sample start times must be strictly increasing")
            if not 0 <= bw < math.inf:
                raise ValueError(f"bandwidth must be finite and >= 0, got {bw!r}")
            prev = t
        if self.duration_s < prev:
            raise ValueError("duration_s shorter than last sample start")

    @cached_property
    def timeline(self) -> tuple[tuple[float, ...], tuple[float, ...], float]:
        """``(edges, rates, loop_bits)``, derived once per trace.

        Sample ``i`` holds over ``[edges[i], edges[i + 1])`` (the last
        edge is ``duration_s``) at ``rates[i]`` bit/s; ``loop_bits`` is
        what one full pass of the trace carries.
        """
        edges = tuple(s for s, _ in self.samples) + (self.duration_s,)
        rates = tuple(bw * 1000.0 for _, bw in self.samples)
        loop_bits = 0.0
        for i, rate in enumerate(rates):
            loop_bits += rate * (edges[i + 1] - edges[i])
        return edges, rates, loop_bits

    def _index_at(self, t: float) -> int:
        """Index of the sample in effect at local time ``t``."""
        return max(bisect_right(self.timeline[0], t, 0, len(self.samples)) - 1, 0)

    def mean_kbps(self) -> float:
        """Time-weighted mean bandwidth over the full duration."""
        return self.timeline[2] / 1000.0 / self.duration_s


def parse_trace(text: str, format: str, duration_s: float | None = None) -> Trace:
    """Parse trace ``text`` in one of the supported formats.

    For the fixed-granularity formats the k-th line becomes the sample
    (k*step, value) and the duration is n*step. For ``pairs`` a final
    line holding one number is the trace's end time, its duration;
    without one the duration is the last start time plus the trailing
    gap (1.0 s for a single sample). Pass ``duration_s`` to override
    either. A bad value names its line of ``text``, counting blank and
    ``#`` lines.
    """
    if format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected one of {TRACE_FORMATS}")
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]  # n: the line number in ``text``
    if not lines:
        raise ValueError("empty trace input")

    def read_float(what: str, field: str, n: int) -> float:
        try:
            return float(field)
        except ValueError:
            raise ValueError(f"{what} {field.strip()!r} on line {n} is not a number") from None

    def bandwidth(field: str, n: int) -> float:
        bw = read_float("bandwidth", field, n)
        if not 0 <= bw < math.inf:
            raise ValueError(f"bandwidth {bw!r} on line {n} is not finite and >= 0")
        return bw

    if format in ("granular_5s", "granular_1s"):
        step = 5.0 if format == "granular_5s" else 1.0
        samples = tuple((k * step, bandwidth(ln, n)) for k, (n, ln) in enumerate(lines))
        return Trace(samples=samples, duration_s=duration_s if duration_s is not None else len(lines) * step)

    samples = []
    end = None
    for n, ln in lines:
        fields = ln.strip("()").replace(";", ",").split(",")
        if len(fields) == 1 and samples and n == lines[-1][0]:  # the end line
            end = read_float("end time", fields[0], n)
            if not (0 < end < math.inf and end >= samples[-1][0]):  # Trace's rule for its duration
                raise ValueError(f"end time {end!r} on line {n} is not finite, > 0 and at or after "
                                 f"the last start {samples[-1][0]!r}")
            break
        parts = [p for p in fields if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"malformed pair on line {n}: {ln!r}")
        t = read_float("time", parts[0], n)
        if not -math.inf < t < math.inf:
            raise ValueError(f"time {t!r} on line {n} is not finite")
        if not samples and t != 0.0:
            raise ValueError(f"time {t!r} on line {n} is not 0: the first sample must start at time 0")
        if samples and not t > samples[-1][0]:
            raise ValueError(f"time {t!r} on line {n} is not after the previous sample's {samples[-1][0]!r}")
        samples.append((t, bandwidth(parts[1], n)))
    if duration_s is None:
        if end is not None:
            duration_s = end
        elif len(samples) >= 2:
            duration_s = samples[-1][0] + (samples[-1][0] - samples[-2][0])
        else:
            duration_s = samples[-1][0] + 1.0
    return Trace(samples=tuple(samples), duration_s=duration_s)


def serialize_trace(trace: Trace) -> str:
    """Write a trace as ``pairs`` CSV lines and an end line (round-trips with parse_trace)."""
    lines = [f"{t!r},{bw!r}" for t, bw in trace.samples] + [repr(trace.duration_s)]
    return "\n".join(lines) + "\n"


MAX_WINDOWS = 1_000_000  # the ``traces`` command writes a file per kept window


def window_traces(trace: Trace, window_s: float = 55.0, stride_s: float = 55.0) -> Iterator[Trace]:
    """Cut sliding windows of ``window_s`` seconds out of ``trace``, one at a time.

    Window ``i`` starts at exactly ``i * stride_s``. The arguments and
    the window count are checked when called: a stride that would cut
    more than ``MAX_WINDOWS`` raises before any is cut. Each window is
    yielded as it is cut, re-origined to time 0, and preserves the
    time-weighted mean bandwidth of the span it covers.
    """
    stride_s = checks.positive("stride_s", stride_s)
    window_s = checks.positive("window_s", window_s)
    if window_s > trace.duration_s:
        raise ValueError(f"window_s {window_s} is longer than the trace ({trace.duration_s}s)")
    end = trace.duration_s + 1e-12  # the last window may end at the trace end, give or take rounding

    def fits(w: int) -> bool:  # window w ends inside the trace
        return w * stride_s + window_s <= end

    count = int(min((end - window_s) / stride_s, MAX_WINDOWS)) + 1  # fits(count - 1) but for rounding
    count += fits(count) - (not fits(count - 1))
    if count > MAX_WINDOWS:
        raise ValueError(f"stride_s {stride_s} cuts more than {MAX_WINDOWS} windows of {window_s}s "
                         f"from a {trace.duration_s}s trace")
    return _cut_windows(trace, window_s, stride_s, count)


def _cut_windows(trace: Trace, window_s: float, stride_s: float, count: int) -> Iterator[Trace]:
    """Windows ``0..count-1``, each from the samples inside it only."""
    starts = trace.timeline[0]
    for w in range(count):
        t0 = w * stride_s
        i = trace._index_at(t0)
        stop = bisect_left(starts, t0 + window_s, i + 1, len(trace.samples))  # the first sample at or past the end
        samples = [(0.0, trace.samples[i][1])]
        samples += [(s - t0, bw) for s, bw in trace.samples[i + 1 : stop] if s > t0]
        yield Trace(samples=tuple(samples), duration_s=window_s)


def download_time(trace: Trace, channel: ChannelConfig, start_time_s: float, size_bits: float) -> float:
    """Wall-clock seconds to fetch ``size_bits`` starting at ``start_time_s``.

    The RTT elapses first; bits then flow at the trace bandwidth from
    ``start_time_s + rtt_s`` onward, so the latency overlaps whatever
    bandwidth interval it lands in. Zero-bandwidth spans simply consume
    wall time. With ``loop_trace`` the timeline wraps modulo the trace
    duration; otherwise running out of trace raises
    :class:`TraceExhaustedError`.

    One walk over the trace's cached timeline from the interval the
    bits start in. On wrapping past the trace end it skips the whole
    loops outstanding, so it walks about two passes at most.
    """
    if not 0 <= size_bits < math.inf:
        raise ValueError(f"size_bits must be finite and >= 0, got {size_bits!r}")
    if not 0 <= start_time_s < math.inf:
        raise ValueError(f"start_time_s must be finite and >= 0, got {start_time_s!r}")
    if size_bits == 0:
        return channel.rtt_s

    edges, rates, loop_bits = trace.timeline
    duration = trace.duration_s
    t = start_time_s + channel.rtt_s
    if t == math.inf:  # two finite values whose sum overflows; ``inf % duration`` would walk forever on NaN
        raise ValueError(f"start_time_s + rtt_s must be finite, got {start_time_s!r} + {channel.rtt_s!r}")
    if not channel.loop_trace and t >= duration:
        raise TraceExhaustedError(f"request at {start_time_s}s lands beyond trace end ({duration}s)")
    if channel.loop_trace and loop_bits <= 0.0:
        raise TraceExhaustedError("trace carries zero bandwidth over a full loop")

    remaining = size_bits
    elapsed = 0.0
    local = t % duration if channel.loop_trace else t
    i = trace._index_at(local)
    while True:
        rate = rates[i]
        span = edges[i + 1] - local
        if rate > 0 and remaining <= rate * span:
            return channel.rtt_s + (elapsed + remaining / rate)
        remaining -= rate * span
        elapsed += span
        i += 1
        local = edges[i]
        if i == len(rates):
            if not channel.loop_trace:
                raise TraceExhaustedError(f"trace exhausted with {remaining:.0f} bits remaining (loop_trace=False)")
            whole = remaining // loop_bits
            if whole * loop_bits >= remaining:  # finish inside a loop, not at its very start
                whole -= 1
            remaining -= whole * loop_bits
            elapsed += whole * duration
            i, local = 0, 0.0
