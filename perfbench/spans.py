"""In-memory spans, self time, percentiles and failure counting.

Pure helpers shared by the benchmark's parent process and its measured
worker. Nothing here imports abrbench.
"""

from __future__ import annotations

import math
import re
import statistics
import time

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentile levels tried for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999)
TAIL_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}: want [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    return name


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list: the ceil(pct% * n)-th value."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    k = max(math.ceil(pct / 100.0 * n - 1e-9), 1)
    return sorted_values[k - 1]


def tail_percentile(values) -> tuple[float, float]:
    """(pct, value) of the highest ladder percentile with >= 10 samples beyond it.

    A sample is beyond the percentile when its rank exceeds the nearest
    rank ceil(pct% * n). With fewer than 20 samples no level qualifies
    and the median is reported, with pct 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n - 1e-9) >= TAIL_BEYOND:
            best = pct
    return best, nearest_rank(ordered, best)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Tracer:
    """Records (name, start, end, parent) spans in memory.

    ``parent`` is the index of the enclosing span, or -1. Calls are
    assumed to nest on one thread, which holds for the serial traced run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.samples: dict[str, list[float]] = {}  # extra per-name durations (s)
        self.counts: dict[str, float] = {}

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of the args."""
        spans, stack, clock = self.spans, self._stack, self.clock
        dynamic = callable(name)

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if dynamic else name
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def add_sample(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def finished(self) -> list[tuple[str, float, float, int]]:
        return [s for s in self.spans if s is not None]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping or out-of-range children never drive a
    self time below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize_spans(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and the list of durations (s)."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own
        entry["durations"].append(end - start)
    return out


class Tally:
    """Operations attempted and failed; an operation fails at most once.

    An operation that raised, exited non-zero or failed any output
    check counts as one failure, however many checks it failed.
    """

    def __init__(self):
        self._attempted: set[str] = set()
        self._failed: set[str] = set()
        self.reasons: list[str] = []

    def attempt(self, op: str) -> None:
        self._attempted.add(op)

    def fail(self, op: str, reason: str) -> None:
        if op not in self._attempted:
            raise KeyError(f"failure reported for unattempted operation {op!r}")
        self._failed.add(op)
        self.reasons.append(f"{op}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self._attempted)

    @property
    def failed(self) -> int:
        return len(self._failed)

    def attempted_in(self, prefix: str) -> int:
        return sum(1 for op in self._attempted if op.startswith(prefix))

    def failed_in(self, prefix: str) -> int:
        return sum(1 for op in self._failed if op.startswith(prefix))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
