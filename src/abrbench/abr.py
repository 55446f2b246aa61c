"""ABR decision policies, each one class in ``POLICIES``: its fields are its
config options and its ``select(state)`` holds its decision.

Four families are provided: rate-based, buffer-based, receding-horizon
MPC (exact per decision, or looked up in an offline FastMPC table) and
RDOS, the same search under a perceptual (KSQI-style) objective. MPC and
RDOS decide through one path, ``_exact_select``, and differ only in
their objective; the search itself, its objectives, parameter sets and
table format live in ``search``.

Predictors and ``ExternalPolicy`` check the throughput samples they read
through ``_recent`` (finite and > 0); building an ``AbrState`` checks none.
Policies check their own fields, not coercing them, through the
``checks`` vocabulary (reals are stored as floats).
``make_policy`` builds a config entry's checked policy, and policies
read rung bitrates from ``Manifest.ladder_kbps``. ``ExternalPolicy``
starts its child process at its first decision.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import subprocess
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields

from . import checks, search
from .media import Manifest
from .qoe import KsqiParams
# build_mpc_table and save_table: perfbench's traced run wraps them here, where ``cli.cmd_mpc_table`` looks them up
from .search import LookupTable, MpcObjectiveParams, RdosParams, build_mpc_table, save_table  # noqa: F401


@dataclass(frozen=True)
class AbrState:
    """Decision inputs before each chunk download; samples are checked where read (``_recent``).

    ``chunk_index`` (1..segment count) and ``last_rep`` (1..ladder rungs) are integers, not bools;
    ``buffer_s`` is finite and >= 0. ``throughput_history_kbps``: one sample (kb/s) per earlier chunk, any float sequence.
    ``run_session`` passes a read-only ``memoryview`` of its sample buffer, not a copy, its length
    fixed at construction; ``len``, indexing, negative slices, iteration and truth act as on a tuple.
    """

    chunk_index: int  # 1-based ordinal of the chunk about to be requested
    buffer_s: float
    last_rep: int
    throughput_history_kbps: Sequence[float]
    manifest: Manifest

    def __post_init__(self):
        chunk, rep, manifest = self.chunk_index, self.last_rep, self.manifest
        # one chained comparison on the fast path: ``run_session`` builds a state per chunk
        if not (type(chunk) is int and type(rep) is int and 1 <= chunk <= len(manifest.sizes)
                and 1 <= rep <= len(manifest.ladder) and 0.0 <= self.buffer_s < math.inf):
            checks.count("chunk_index", chunk)  # an integer (numpy's too) and no bool
            checks.count("last_rep", rep)
            if chunk > manifest.segment_count:
                raise ValueError(f"chunk_index {chunk} not in the manifest (1..{manifest.segment_count})")
            if rep > len(manifest.ladder):
                raise ValueError(f"last_rep {rep} not in ladder (1..{len(manifest.ladder)})")
            if not 0.0 <= self.buffer_s < math.inf:
                raise ValueError(f"buffer_s must be finite and >= 0, got {self.buffer_s!r}")

    @property
    def remaining_chunks(self) -> int:
        return self.manifest.segment_count - self.chunk_index + 1


def _recent(history, window: int):
    """The last ``window`` throughput samples (kb/s), each checked finite and > 0."""
    if not history:
        raise ValueError("empty throughput history")
    checks.count("window", window)
    tail = history[-window:]
    for x in tail:
        if not 0.0 < x < math.inf:  # NaN fails both comparisons
            raise ValueError(f"throughput samples must be finite and > 0, got {x!r}")
    return tail


def arithmetic_mean_predict(history, window: int = 5) -> float:
    """Mean of the last ``window`` throughput samples (kb/s)."""
    tail = _recent(history, window)
    return sum(tail) / len(tail)


def harmonic_mean_predict(history, window: int = 5) -> float:
    """Harmonic mean of the last ``window`` throughput samples (kb/s)."""
    tail = _recent(history, window)
    acc = 0.0
    for x in tail:
        acc += 1.0 / x
    return len(tail) / acc


def _exact_select(state: AbrState, params, objective, tput: float | None = None) -> int:
    """MPC's and RDOS's one decision path (see ``mpc_select_exact``); ``objective(dt_by_pos)`` is what it maximises."""
    if tput is None:
        tput = harmonic_mean_predict(state.throughput_history_kbps, params.prediction_window)
    manifest, first, h = state.manifest, state.chunk_index - 1, min(params.horizon, state.remaining_chunks)
    sizes = manifest.sizes[first : first + h] if params.use_manifest_sizes else None
    dt_by_pos = search._download_times(params, manifest.ladder_kbps, manifest.segment_duration_s, h, tput, sizes)
    decision = search._decisions([state.buffer_s], dt_by_pos, manifest.segment_duration_s, params.max_buffer_s,
                                 objective(dt_by_pos))
    return int(decision[0, 0])


def mpc_select_exact(state: AbrState, params: MpcObjectiveParams, predicted_tput: float | None = None) -> int:
    """Exhaustive receding-horizon MPC decision.

    Enumerates every rung sequence over the (end-truncated) horizon
    under the harmonic-mean throughput prediction (or an externally
    supplied one, e.g. a clairvoyant value) and returns the first
    element of the best sequence, ties broken toward the lower rung.
    Download times are size/predicted_tput + rtt; a supplied
    ``predicted_tput`` must be finite and > 0 (kb/s).
    """
    if predicted_tput is not None:
        predicted_tput = checks.positive("predicted_tput", predicted_tput)
    return _exact_select(state, params, lambda dt_by_pos: search._mpc_objective(
        state.manifest.ladder_kbps, len(dt_by_pos), params, [state.last_rep - 1]), predicted_tput)


@dataclass(frozen=True)
class FixedPolicy:
    """Always the same rung; useful as a control and for hand-checked runs."""

    rep_index: int = 1

    def __post_init__(self):
        checks.attrs(self, checks.count, "rep_index")

    def check_fits(self, manifest: Manifest) -> None:
        if self.rep_index > len(manifest.ladder):  # >= 1 by construction
            raise ValueError(f"rep_index must be a ladder rung (1..{len(manifest.ladder)}), got {self.rep_index}")

    def select(self, state: AbrState) -> int:
        return self.rep_index


@dataclass(frozen=True)
class RateBasedPolicy:
    """Largest rung with bitrate below the arithmetic-mean prediction.

    ``strict`` uses "strictly below"; clamps to rung 1 when even the
    lowest bitrate is not below the prediction.
    """

    window: int = 5
    strict: bool = True

    def __post_init__(self):
        checks.attrs(self, checks.count, "window")
        checks.attrs(self, checks.flag, "strict")

    def select(self, state: AbrState) -> int:
        pred = arithmetic_mean_predict(state.throughput_history_kbps, self.window)
        return max((bisect_left if self.strict else bisect_right)(state.manifest.ladder_kbps, pred), 1)


@dataclass(frozen=True)
class BufferBasedPolicy:
    """Piecewise-linear buffer-to-bitrate map.

    At or under the reservoir the lowest rung is chosen; at or beyond
    reservoir+cushion the highest; in between the target bitrate
    interpolates linearly between the ladder extremes and the largest
    rung not exceeding it wins.
    """

    reservoir_s: float = 5.0
    cushion_s: float = 10.0

    def __post_init__(self):
        checks.attrs(self, checks.nonnegative, "reservoir_s", "cushion_s")

    def select(self, state: AbrState) -> int:
        buffer_s, rates = state.buffer_s, state.manifest.ladder_kbps
        if buffer_s <= self.reservoir_s:
            return 1
        if buffer_s >= self.reservoir_s + self.cushion_s:
            return len(rates)
        target = rates[0] + (buffer_s - self.reservoir_s) / self.cushion_s * (rates[-1] - rates[0])
        return max(bisect_right(rates, target), 1)


@dataclass(frozen=True)
class MpcExactPolicy:
    params: MpcObjectiveParams = MpcObjectiveParams()

    def __post_init__(self):
        checks.attrs(self, checks.instance(MpcObjectiveParams), "params")

    def check_fits(self, manifest: Manifest) -> None:
        """``search._check_search`` allows the longest search over ``manifest``, whose chunks 2..n are decided."""
        search._check_search(len(manifest.ladder), min(self.params.horizon, manifest.segment_count - 1))

    def select(self, state: AbrState) -> int:
        return mpc_select_exact(state, self.params)


@dataclass(frozen=True)
class MpcTablePolicy:
    """Online FastMPC: look the decision up instead of optimizing.

    Throughput prediction and buffer clamp into the edge bins when they
    fall outside the binned ranges.
    """

    table: LookupTable

    def __post_init__(self):
        checks.attrs(self, checks.instance(LookupTable), "table")

    def check_fits(self, manifest: Manifest) -> None:
        self.table.check_fits(manifest)

    def select(self, state: AbrState) -> int:
        tput_edges, buffer_edges, entries = self.table.lookup
        tput = harmonic_mean_predict(state.throughput_history_kbps, self.table.params.prediction_window)
        bin_index = search._bin_index
        return entries[bin_index(tput_edges, tput)][bin_index(buffer_edges, state.buffer_s)][state.last_rep - 1]


@dataclass(frozen=True)
class RdosPolicy:
    """Exhaustive perceptual-objective decision, ties toward the lower rung; ``RdosParams`` states its objective."""

    params: RdosParams = RdosParams()

    def __post_init__(self):
        checks.attrs(self, checks.instance(RdosParams), "params")

    check_fits = MpcExactPolicy.check_fits

    def select(self, state: AbrState) -> int:
        return _exact_select(state, self.params, lambda dt_by_pos: search._rdos_objective(
            state.manifest, state.chunk_index, state.last_rep, dt_by_pos, self.params))


@dataclass(eq=False)
class ExternalPolicy:
    """Adapter for out-of-process policies (e.g. learned models).

    Speaks a line protocol on the child's stdin/stdout: one JSON object
    per decision in, one integer rung index out. The payload mirrors
    AbrState plus the manifest attributes of the next few chunks; see
    docs/file_formats.md. Building the policy checks its options and
    starts nothing: the child starts at the first ``select``.
    """

    command: list[str]
    lookahead: int = 5

    def __post_init__(self):
        checks.attrs(self, checks.command, "command")
        checks.attrs(self, checks.count, "lookahead")
        self._proc = None  # not a field, so never a config option

    def select(self, state: AbrState) -> int:
        if self._proc is None:
            self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                          bufsize=1)
        manifest = state.manifest
        first = state.chunk_index - 1
        h = min(self.lookahead, state.remaining_chunks)
        payload = {
            "chunk_index": state.chunk_index,
            "buffer_s": state.buffer_s,
            "last_rep": state.last_rep,
            "throughput_history_kbps": list(_recent(state.throughput_history_kbps, len(state.throughput_history_kbps))),
            "segment_duration_s": manifest.segment_duration_s,
            "ladder_kbps": manifest.ladder_kbps,
            "future_sizes_bits": manifest.sizes[first : first + h],
            "future_qualities": manifest.qualities[first : first + h],
        }
        self._proc.stdin.write(json.dumps(payload) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"external policy {self.command} closed its output")
        try:
            return int(line)  # int() itself skips surrounding whitespace
        except ValueError:
            raise ValueError(f"external policy {self.command} printed {line.strip()!r}, not a rung index") from None

    def close(self):
        """Close both pipes and reap the child, which may already have exited; no-op if none started."""
        if self._proc is None:
            return
        with contextlib.suppress(BrokenPipeError):  # unflushed input to a dead child
            self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# a policy's config options are its class's fields; rdos also takes the ksqi block of its params
POLICIES = {
    "fixed": FixedPolicy,
    "rate_based": RateBasedPolicy,
    "buffer_based": BufferBasedPolicy,
    "mpc_exact": MpcExactPolicy,
    "mpc_table": MpcTablePolicy,
    "rdos": RdosPolicy,
    "external": ExternalPolicy,
}


def make_policy(spec: dict):
    """The checked policy of a config entry: its ``id``, an optional ``name`` and the class's fields.

    JSON objects become the parameter sets the class takes; an ``mpc_table`` entry's ``table`` file is read here,
    once. An ``external`` policy starts no child. A grid cell decides with a fresh ``dataclasses.replace(policy)``.
    """
    kind = spec.get("id")
    if not (isinstance(kind, str) and kind in POLICIES):
        raise ValueError(f"unknown policy id {kind!r}; expected one of {tuple(POLICIES)}")
    cls = POLICIES[kind]
    keys = ["id", "name", *(f.name for f in fields(cls)), *(["ksqi"] if kind == "rdos" else [])]
    checks.known_keys(f"policy {kind}", spec, keys)
    options = {key: value for key, value in spec.items() if key not in ("id", "name")}
    if kind == "mpc_exact" and "params" in options:
        options["params"] = _options_object(MpcObjectiveParams, "params", options["params"])
    elif kind == "rdos":
        rdos = functools.partial(RdosParams, ksqi=_options_object(KsqiParams, "ksqi", options.pop("ksqi", {})))
        options["params"] = _options_object(rdos, "params", options.get("params", {}))
    elif kind == "mpc_table" and "table" in options:
        table = checks.path("table", options["table"])
        if not os.path.isfile(table):  # a directory too: reading it would raise IsADirectoryError
            raise FileNotFoundError(f"table file not found: {table}")
        options["table"] = search.load_table(table)
    return _options_object(cls, f"policy {kind}", options)


def _options_object(cls, key: str, block):
    """``cls(**block)``; a block that is not an object, or an unknown key in it, is a ValueError."""
    if not isinstance(block, dict):
        raise ValueError(f"{key} must be an object, got {block!r}")
    with checks.naming(key, TypeError):  # an unknown keyword
        return cls(**block)
