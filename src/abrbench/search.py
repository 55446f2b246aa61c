"""The exact search behind MPC, RDOS and the FastMPC lookup table.

One kernel, ``_enumerate``, scores every rung sequence over the horizon
and returns the best score per (starting buffer, first rung); an
objective supplies its step and score functions: bitrate, switch and
stall terms for MPC (``_mpc_objective``), quality, adaptation and stall
penalties for RDOS (``_rdos_objective``). Every sequence accumulates its
terms in position order, so a straight re-implementation of either
formula gives bit-identical scores, and ties go to the lowest first
rung, as in a lexicographic scan. Every search goes through
``_decisions``, which prunes only prefixes that cannot win after any
previous rung it decides for; ``_enumerate`` states the bound and proves
it, so decisions and table entries stay bit-identical.

Download times are planned in one place, ``_download_times``. The table
builder solves one throughput bin at a time through the same kernel,
and ``save_table`` / ``load_table`` hold its artifact format. Parameter
sets check their own fields, not coercing them, through ``checks``
(reals are stored as floats). This module imports no policy code.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import checks
from .media import Manifest, check_rungs, ladder_default
from .qoe import KsqiParams


@dataclass(frozen=True)
class MpcObjectiveParams:
    """Weights of the bitrate-centric MPC objective.

    ``mu_rebuf`` defaults to the top ladder rate in Mb/s so a second of
    stalling can never be bought by one chunk of extra bitrate. Weights
    and ``rtt_s`` must be finite and >= 0, ``max_buffer_s`` finite and
    > 0, ``horizon`` and ``prediction_window`` integers >= 1.
    """

    lambda_switch: float = 1.0
    mu_rebuf: float = 16.8
    horizon: int = 5
    rtt_s: float = 0.08
    max_buffer_s: float = 60.0
    use_manifest_sizes: bool = False  # clairvoyant chunk sizes vs nominal rate x duration
    prediction_window: int = 5

    def __post_init__(self):
        checks.attrs(self, checks.nonnegative, "lambda_switch", "mu_rebuf")
        _check_horizon_params(self)


@dataclass(frozen=True)
class RdosParams:
    """Perceptual-objective policy parameters.

    The objective is the KSQI-style horizon score minus ``gamma_rate``
    per Mb/s of chosen bitrate, encouraging bitrate saving. Chunk sizes
    and qualities come from the manifest attributes by default since
    the manifest embeds both per chunk. Fields are checked as in
    ``MpcObjectiveParams``.
    """

    ksqi: KsqiParams = field(default_factory=KsqiParams)
    gamma_rate: float = 0.1
    horizon: int = 5
    rtt_s: float = 0.08
    max_buffer_s: float = 60.0
    use_manifest_sizes: bool = True
    prediction_window: int = 5

    def __post_init__(self):
        checks.attrs(self, checks.instance(KsqiParams), "ksqi")  # a config's ksqi block is built into one
        checks.attrs(self, checks.nonnegative, "gamma_rate")
        _check_horizon_params(self)


def _check_horizon_params(params) -> None:
    """Checks shared by the MPC and RDOS parameter sets."""
    checks.attrs(params, checks.count, "horizon", "prediction_window")
    checks.attrs(params, checks.nonnegative, "rtt_s")
    checks.attrs(params, checks.positive, "max_buffer_s")
    checks.attrs(params, checks.flag, "use_manifest_sizes")


def _download_times(params, ladder_kbps, seg: float, h: int, tput: float, sizes=None) -> np.ndarray:
    """Download times (s) by [position, rung] over ``h`` positions at ``tput`` kb/s: size / (tput x 1000) + rtt_s,
    with ``sizes`` (bits) by [position, rung], or when None the nominal ones, each rung bitrate times ``seg``."""
    if sizes is None:
        sizes = [[r * 1000.0 * seg for r in ladder_kbps]] * h
    return np.array(sizes) / (tput * 1000.0) + params.rtt_s


def _constant_scores(buffers, dt_by_pos, seg: float, max_buffer_s: float, acc: tuple, step, score) -> np.ndarray:
    """Score, per (row, choice), of the sequence that keeps that choice at every position.

    Each sequence goes through ``step`` and ``score`` with the operations
    ``_enumerate`` applies to it, so its score is the kernel's, bit for
    bit. Position 0 steps choice c from the root (previous index 0),
    every later one from c itself.
    """
    c = np.arange(dt_by_pos.shape[1])
    p = np.zeros_like(c)
    b = buffers[:, None]
    for k, dt in enumerate(dt_by_pos):
        acc = step(k, p, c, np.maximum(dt - b, 0.0), acc)
        b = np.minimum(b - np.minimum(b, dt) + seg, max_buffer_s)
        p = c
    return np.broadcast_to(score(acc), (len(b), len(c)))


class _Pruner:
    """The prefix test ``_enumerate`` runs for its ``prices`` and ``first`` matrix (see there)."""

    def __init__(self, buffers, dt_by_pos, seg: float, max_buffer_s: float, acc, step, score, *, prices, first):
        h, n = dt_by_pos.shape
        self.prices, self.first, self.seg, self.h = prices, first, seg, h
        c, zero = np.arange(n), np.zeros((1, 1, 1))
        # a choice's stall-free terms by [position - 2, previous, next] choice for positions 2..: its score from zero
        # sums, in one step over all of them
        gains = score(step(np.arange(2, h)[:, None, None], c[:, None], c, zero, (zero,) * len(acc)))
        gains = np.broadcast_to(gains, (h - 2, n, n))
        # per price x, one backward Viterbi pass: the best stall-free completion from position k after choice p,
        # less x per second of its download time
        paid = gains - self.prices[:, None, None, None] * dt_by_pos[2:, None, :]
        self.completion = {h: np.zeros((len(self.prices), n))}
        for k in range(h - 1, 1, -1):
            self.completion[k] = (paid[:, k - 2] + self.completion[k + 1][:, None, :]).max(axis=2)
        constant = _constant_scores(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score)
        self.incumbent = (constant[:, None, :] + self.first).max(axis=2)  # per (row, previous choice)
        scale = (1.0 + np.abs(self.incumbent).max(axis=1) + np.abs(gains).max(axis=(1, 2)).sum()
                 + np.abs(self.first).max() + prices.max() * (dt_by_pos.max(axis=1).sum() + max_buffer_s + h * seg))
        self.margin = 1e-9 * scale
        # a sequence with first choice c can win after previous choice p only if its score reaches
        # incumbent[p] - first[p, c]; the smallest of these over p, less the margin, is its row's floor
        self.floor = (self.incumbent[:, :, None] - self.first).min(axis=1) - self.margin[:, None]

    def upper(self, d: int, value, buf) -> np.ndarray:
        """Bound on the best score through each depth-``d`` prefix, (parent, last choice) ordered.

        ``value`` is a prefix's score so far and ``buf`` its buffer (rows x
        prefixes). The remaining h - d positions stall at least their
        download time minus ``buf`` minus h - d - 1 segments, so each
        price's completion plus that price times this budget bounds them.
        """
        n = self.completion[d].shape[1]
        budget = buf.reshape(1, len(buf), -1, n) + (self.h - d - 1) * self.seg
        bound = (self.completion[d][:, None, None, :] + self.prices[:, None, None, None] * budget).min(axis=0)
        total = value.reshape(len(value), -1, n) + bound
        return total.reshape(len(total), -1)

    def keep(self, d: int, value, buf, counts):
        """The depth-``d`` prefixes that may reach a row's floor, as a mask, and how many survive per first choice."""
        n = len(counts)
        first = np.repeat(np.arange(n), counts)
        kept = (self.upper(d, value, buf) >= self.floor[:, first]).any(axis=0)
        return kept, np.bincount(first[kept], minlength=n)


_MAX_SEQUENCES = 6_000_000  # per search: 13^6 passes, 13^7 does not


def _check_search(n_reps: int, horizon: int) -> None:
    """Refuse a search over more than 64 positions or ``_MAX_SEQUENCES`` sequences (n^h is formed for h <= 64)."""
    if horizon > 64 or n_reps**horizon > _MAX_SEQUENCES:
        raise ValueError(f"horizon {horizon} is too long for {n_reps} ladder rungs: a search would enumerate"
                         f" {n_reps}^{horizon} sequences; at most {_MAX_SEQUENCES} sequences and 64 positions")


# the most entries of one block of the last position's fold, per array (64 KB of floats): a block folds as many last
# choices as fit, and at least one. Every h=5 MPC decision of the grid benchmark folds in one block, and all but 6
# of its 117 RDOS decisions; the 10x25 table builds in the same time with caps from 2,048 to none
_FOLD_ENTRIES = 8192


def _enumerate(buffers, dt_by_pos, seg: float, max_buffer_s: float, acc: tuple, step, score, *, prices=None,
               first=None) -> np.ndarray:
    """Best score over every choice sequence, per (starting buffer, first choice).

    The single enumeration kernel behind MPC, RDOS and the lookup table.
    ``dt_by_pos[k, c]`` is the download time of choice ``c`` at horizon
    position ``k`` (an (h, n) array-like); ``buffers`` holds independent
    starting buffers (rows). Arrays hold one entry per sequence prefix,
    in lexicographic order (the first position varies slowest); their
    row axis has one entry per row, or one for all rows when the term
    does not depend on the buffer (``acc`` starts with one root prefix).

    Every position, the last one included, calls ``step(k, p, c, stall,
    acc)``, which returns the extended accumulators. ``p`` holds each
    prefix's last choice (0 for the root) and ``c`` the next choices,
    both integer index arrays that broadcast against ``stall``, so a
    term of both is read from a table as ``t[k, p, c]``, one of the
    previous choice as ``t[k, p]`` and one of the next as ``v[k, c]``.
    Positions 0..h-2 grow the prefixes by broadcasting: ``acc`` is
    viewed as (rows, prefix, 1), ``stall`` is (rows, prefix, choice),
    ``p`` (prefix, 1) and ``c`` (choice,). The last position is folded a
    block of choices at a time, with the block on a leading axis:
    ``acc`` is (rows, prefix), ``stall`` (block, rows, prefix), ``p``
    (prefix,) and ``c`` (block, 1, 1); ``score(step(h - 1, p, c, stall,
    acc))`` scores the sequences that end in the block's choices, and a
    running maximum keeps each row's best per first choice. A block
    holds as many choices as keep its arrays within ``_FOLD_ENTRIES``
    entries, and at least one. So a fold block exceeds that cap only
    when one choice does, and no other array holds more than rows x
    n^(h-1) entries, or one per stall price and prefix while bounding
    prefixes. The prefix bound's set-up calls ``step`` the same way for
    the constant-choice sequences, and with ``k`` an index array too for
    the stall-free terms of positions 2..h-1. ``step`` and ``score`` are
    pure: they write into none of their arguments. Each sequence still
    adds its terms in position order, so its score is that of a
    per-sequence loop, bit for bit, and the lowest first choice that
    reaches a row's maximum is the first choice of the lexicographically
    first best sequence.

    ``prices`` and ``first`` prune the search; a caller passes both or
    neither. ``prices``: an array of stall prices >= 0; after the first
    position the score falls by at least the largest per second of stall.
    ``first``: a (previous choice x first choice) matrix; per previous
    choice, the caller adds its row to a buffer row's best before taking the
    argmax over first choices. A single decision passes one row, the table
    builder one per rung. The score must be linear in the accumulators: a
    sequence's total is its prefix's score, plus per later position its
    stall-free terms (the score of one step from zero sums and stalls), less
    its stall penalty, at least the largest price per second. From buffer b
    after depth d, the remaining h - d positions stall at least their summed
    download time less b + (h-d-1) x seg, so for every price x in [0, the
    largest price] the best completion scores at most A_x + x (b + (h-d-1) x
    seg), where A_x is the best stall-free sum less x per second of download
    time; one backward Viterbi pass over (position, previous choice) per
    price of ``prices`` gives A_x, and the bound is the smallest of these. A
    row's incumbent after previous choice p is the best, over choices c, of
    its constant-c sequence's score plus ``first[p, c]``, scored by the
    kernel's own operations, so the row's optimum after p is at least that
    incumbent, bit for bit. A sequence with first choice c can reach it only
    if its score reaches incumbent[p] - ``first[p, c]``; the smallest of
    these over p, less the margin 1e-9 x (1 + the largest |incumbent| + the
    summed largest stall-free terms + the largest |``first``| + the largest
    price times (the summed largest download times + ``max_buffer_s`` + h
    x seg)), is the row's floor for c. After depths 2..h-1 a prefix is dropped
    when, in every row, its score plus that bound is below its first
    choice's floor. Each compared quantity sums fewer than 10h rounded
    terms, each within that scale, so its rounding error is under 1e-12 of
    it; equality never prunes. Hence no sequence that reaches a row's
    incumbent after any previous choice is dropped: an entry whose best plus
    ``first[p]`` reaches the incumbent for some p is exact, every entry
    below it for every p reads -inf, and the argmax after each previous
    choice is the unpruned one. The position after a pruned depth, the fold
    included, extends only the surviving prefixes.
    """
    dt_by_pos = np.asarray(dt_by_pos, dtype=np.float64)
    h, n = dt_by_pos.shape
    _check_search(n, h)
    buf = np.asarray(buffers, dtype=np.float64)[:, None]
    rows = len(buf)
    pruner = None
    if first is not None and h > 3:  # depths 2..h-1 are pruned
        pruner = _Pruner(buf[:, 0], dt_by_pos, seg, max_buffer_s, acc, step, score, prices=prices, first=first)
    rungs = np.arange(n)
    last = rungs[:1]  # each prefix's last choice; the root's is 0
    counts = np.ones(n, dtype=np.intp)  # prefixes per first choice
    for k, dt in enumerate(dt_by_pos[:-1]):
        b = buf[:, :, None]
        acc = step(k, last[:, None], rungs, np.maximum(dt - b, 0.0), tuple(a[:, :, None] for a in acc))
        acc = tuple(a.reshape(len(a), -1) for a in acc)
        buf = np.minimum(b - np.minimum(b, dt) + seg, max_buffer_s).reshape(rows, -1)
        counts = counts * n if k else counts
        children = np.arange(buf.shape[1])  # (parent, last choice) ordered
        if pruner is not None and k:
            kept, counts = pruner.keep(k + 1, score(acc), buf, counts)
            children = np.flatnonzero(kept)
            buf, *acc = (x.take(children, axis=1) for x in (buf, *acc))
        last = children % n
    best = np.full((rows, n), -np.inf)
    reached = counts > 0
    starts = (np.cumsum(counts) - counts)[reached]  # each first choice's block of sequences
    width = max(1, _FOLD_ENTRIES // buf.size)
    for lo in range(0, n, width):
        c = rungs[lo : lo + width, None, None]
        scores = score(step(h - 1, last, c, np.maximum(dt_by_pos[-1][c] - buf, 0.0), acc))
        if h == 1:  # the last choice is the first
            best[:, lo : lo + width] = scores[:, :, 0].T
        else:
            block_best = np.maximum.reduceat(scores, starts, axis=2).max(axis=0)
            best[:, reached] = np.maximum(best[:, reached], block_best)
    if pruner is not None:  # an entry below the incumbent after every previous choice may have lost its best
        best[(best[:, None, :] + pruner.first < pruner.incumbent[:, :, None]).all(axis=1)] = -np.inf
    return best


# the stall prices MPC's prefix bound tries, as fractions of ``mu_rebuf``: 1, 1/2, ..., 1/256 and 0. Below the full
# price the bound is tighter where a search can afford some stalls but not all. Each price costs a pass over every
# prefix; on the 10x25 table lower prices drop no more prefixes, and steps of 2^-1/2 ~6 % more
_PRICE_STEPS = np.append(0.5 ** np.arange(9), 0.0)


def _mpc_objective(ladder_kbps, h: int, params: MpcObjectiveParams, previous=slice(None)):
    """The bitrate objective over ``h`` positions after the 0-based rungs ``previous`` (every rung by default).

    The objective is the sum of chosen bitrates (Mb/s), minus
    ``lambda_switch`` times the magnitude of every bitrate switch, minus
    ``mu_rebuf`` times the predicted stall seconds. The switch from the
    previous rung is constant within a first-rung block, so it is the
    ``first`` term, added after the per-block max; IEEE rounding is
    monotone, so the decisions are the ones a full per-sequence score
    would give. Its prices are ``mu_rebuf`` x ``_PRICE_STEPS``.
    """
    rates = np.array(ladder_kbps) / 1000.0
    moves = np.abs(rates[None, :] - rates[:, None])  # |rate step| by [previous, next] choice
    switch = np.zeros((h, *moves.shape))  # by [position, previous, next]: none at the first position
    switch[1:] = moves

    def step(k, p, c, stall, acc):
        stall_acc, rate_acc, sw_inner = acc
        return stall_acc + stall, rate_acc + rates[c], sw_inner + switch[k, p, c]

    def score(acc):
        stall_acc, rate_acc, sw_inner = acc
        return (rate_acc - params.lambda_switch * sw_inner) - params.mu_rebuf * stall_acc

    return step, score, params.mu_rebuf * _PRICE_STEPS, -params.lambda_switch * moves[previous]


def _rdos_objective(manifest, chunk_index: int, last_rep: int, dt_by_pos, params: RdosParams):
    """RDOS's objective over ``dt_by_pos``'s horizon from chunk ``chunk_index`` (1-based) of ``manifest``, after
    rung ``last_rep`` was played (see ``abr.RdosPolicy``): the switch from the played chunk is a position-0 term, so
    ``first`` is one row of zeros, and its one price is the chord of the stall term's log1p."""
    kp = params.ksqi
    h, n = dt_by_pos.shape
    first = chunk_index - 1
    q = np.array(manifest.qualities[first : first + h])  # by [position, rung]
    # the quality on screen before each position, by [position, previous rung]: position 0 follows the played
    # chunk, its previous index 0
    played = manifest.qualities[max(first - 1, 0)][last_rep - 1]
    q_prev = np.array([(played,) * n, *manifest.qualities[first : first + h - 1]])
    rates = np.array(manifest.ladder_kbps) / 1000.0
    delta = q[:, None, :] - q_prev[:, :, None]  # by [position, previous, next]
    adaptation = kp.beta_neg * np.maximum(-delta, 0.0) + kp.beta_pos * np.maximum(delta, 0.0)
    stall_weight = kp.c1 + kp.c2 * (100.0 - q_prev)  # by [position, previous]

    def step(k, p, c, stall, acc):
        q_acc, pen_acc, rate_acc = acc
        # log1p(0) = 0, so a stall-free sequence adds +-0.0 and its penalty is unchanged
        pen = pen_acc + kp.c0 * np.log1p(stall) * stall_weight[k, p] + adaptation[k, p, c]
        return q_acc + q[k, c], pen, rate_acc + rates[c]

    def score(acc):
        q_acc, pen_acc, rate_acc = acc
        return q_acc / h - pen_acc / h - params.gamma_rate * rate_acc

    # the stall term c0 * log1p(s) * w / h of a position >= 1 is at least the chord price * s: its weight is
    # at least c1 + c2 * (100 - the best horizon quality), and s is at most the position's download time,
    # so at most x, and on [0, x] the concave log1p lies above its chord
    x = float(dt_by_pos[1:].max()) if h > 1 else 0.0
    weight = kp.c1 + kp.c2 * (100.0 - float(q.max()))
    price = kp.c0 * weight * math.log1p(x) / (x * h) if x > 0.0 else 0.0
    return step, score, np.array([price]), np.zeros((1, n))


def _decisions(buffers, dt_by_pos, seg: float, max_buffer_s: float, objective) -> np.ndarray:
    """Best first rung (1-based) for every starting buffer and previous rung of an exact ``objective``.

    Entry [i, j] of the result is the decision from buffer ``buffers[i]``
    after the previous rung of row j of ``first``; both objectives keep
    three sums from zero. Prefixes that cannot win after any of those
    rungs are pruned (``_enumerate``), which leaves every decision as it is.
    """
    step, score, prices, first = objective
    best = _enumerate(buffers, dt_by_pos, seg, max_buffer_s, (np.zeros((1, 1)),) * 3, step, score, prices=prices,
                      first=first)
    return np.argmax(best[:, None, :] + first, axis=2) + 1


@dataclass(frozen=True)
class TableBinning:
    """Uniform binning of the table axes; representatives are bin centers."""

    tput_bins: int = 100
    buffer_bins: int = 100
    tput_max_kbps: float = 20000.0
    max_buffer_s: float = 60.0

    def __post_init__(self):
        checks.attrs(self, checks.count, "tput_bins", "buffer_bins")
        checks.attrs(self, checks.positive, "tput_max_kbps", "max_buffer_s")

    def tput_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.tput_max_kbps, self.tput_bins + 1)

    def buffer_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.max_buffer_s, self.buffer_bins + 1)

    def tput_centers(self) -> np.ndarray:
        e = self.tput_edges()
        return (e[:-1] + e[1:]) / 2.0

    def buffer_centers(self) -> np.ndarray:
        e = self.buffer_edges()
        return (e[:-1] + e[1:]) / 2.0


def _check_table_params(params) -> None:
    checks.instance(MpcObjectiveParams)("params", params)
    if params.use_manifest_sizes:
        raise ValueError("use_manifest_sizes must be false for a table, which has no manifest: it plans nominal sizes")


@dataclass
class LookupTable:
    """Precomputed MPC policy: best first rung per state cell.

    Its axes are checked, not coerced: bin edges finite and strictly
    increasing, a segment duration > 0, rung bitrates that pass
    ``check_rungs`` (stored as floats), and params that plan nominal
    sizes (``_check_table_params``), whether the table is built or loaded.
    """

    tput_edges: np.ndarray
    buffer_edges: np.ndarray
    entries: np.ndarray  # (tput_bins, buffer_bins, n_reps) uint8, 1-based rungs
    ladder_kbps: tuple[float, ...]
    segment_duration_s: float
    params: MpcObjectiveParams

    def __post_init__(self):
        for name in ("tput_edges", "buffer_edges"):
            edges = checks.each(checks.finite)(name, list(getattr(self, name)))
            if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{name} must be at least two strictly increasing numbers, got {list(edges)}")
        checks.attrs(self, checks.positive, "segment_duration_s")
        checks.attrs(self, check_rungs, "ladder_kbps")
        _check_table_params(self.params)
        t, b, r = self.entries.shape
        if t != len(self.tput_edges) - 1 or b != len(self.buffer_edges) - 1:
            raise ValueError("entries shape inconsistent with bin edges")
        if r != len(self.ladder_kbps):
            raise ValueError("entries rep dimension inconsistent with ladder")
        if self.entries.size and (self.entries.min() < 1 or self.entries.max() > r):
            raise ValueError("table entries must be valid 1-based rung indices")

    @functools.cached_property
    def lookup(self) -> tuple[tuple[float, ...], tuple[float, ...], list]:
        """``(tput_edges, buffer_edges, entries)`` as Python floats and nested lists of ints, derived once."""
        return tuple(self.tput_edges.tolist()), tuple(self.buffer_edges.tolist()), self.entries.tolist()

    def check_fits(self, manifest: Manifest) -> None:
        """A table decides only for the segment duration and ladder it was built for."""
        built = (self.segment_duration_s, list(self.ladder_kbps))
        given = (manifest.segment_duration_s, list(manifest.ladder_kbps))
        if given != built:
            raise ValueError("the table is for {} s segments, ladder {} kb/s, not {} s, {}".format(*built, *given))


def _bin_index(edges: tuple[float, ...], value: float) -> int:
    """Bin of ``value``, clamping out-of-range values to the edge bins."""
    i = bisect_right(edges, value) - 1
    return min(max(i, 0), len(edges) - 2)


# buffer rows enumerated together; a slab keeps every prefix that one of its rows
# needs, so fewer rows prune more, and more rows share more set-up: on 2 cores the
# offline-sized 10x25 table builds in ~81 ms with 4-row slabs, ~85 ms with 2 and
# ~95 ms with 8; a (rows x 13^4) float array is at most ~0.9 MB
_SLAB_ROWS = 4


# the most entries a table may have, 77 times the default 100x100x13 one; checked before any is allocated
_MAX_TABLE_CELLS = 10_000_000

DEFAULT_LADDER_KBPS = tuple(r.bitrate_kbps for r in ladder_default())


def check_table(binning: TableBinning, ladder_kbps, horizon: int) -> tuple[float, ...]:
    """A table's rung bitrates (kb/s), ``ladder_kbps`` checked by ``check_rungs`` (None is refused), with at most
    ``_MAX_TABLE_CELLS`` entries over ``binning`` and a ``horizon`` that ``_check_search`` allows."""
    rungs = check_rungs("ladder_kbps", ladder_kbps)
    cells = binning.tput_bins * binning.buffer_bins * len(rungs)
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(f"tput_bins x buffer_bins x ladder rungs is {binning.tput_bins}x{binning.buffer_bins}x"
                         f"{len(rungs)} = {cells} table cells; at most {_MAX_TABLE_CELLS} are built")
    _check_search(len(rungs), horizon)
    return rungs


def _table_bin(ladder_kbps, seg: float, params: MpcObjectiveParams, tput: float, buffers) -> np.ndarray:
    """Best first rung for every (buffer, prev_rep) cell at one throughput.

    Returns a (len(buffers), n_reps) uint8 array. No sequence can stall
    from a buffer at or above the worst cumulative deficit
    k*dt_max - (k-1)*seg, which peaks at either end of the horizon (when
    the buffer cap is below dt_max, every such row instead sits at the
    cap after a stall-free first download), so those rows score alike
    and share one enumeration; the others are enumerated in slabs of
    ``_SLAB_ROWS``.
    """
    h = params.horizon
    dt_by_pos = _download_times(params, ladder_kbps, seg, h, tput)
    threshold = max(dt_by_pos.max(), h * dt_by_pos.max() - (h - 1) * seg)
    buffers = np.asarray(buffers, dtype=np.float64)
    needy = buffers < threshold
    rows = np.concatenate([buffers[needy], buffers[~needy][:1]])
    slabs = [rows[lo : lo + _SLAB_ROWS] for lo in range(0, len(rows), _SLAB_ROWS)]
    objective = _mpc_objective(ladder_kbps, h, params)
    solved = np.concatenate([_decisions(slab, dt_by_pos, seg, params.max_buffer_s, objective) for slab in slabs])
    return solved[np.where(needy, np.cumsum(needy) - 1, len(rows) - 1)].astype(np.uint8)


def build_mpc_table(
    params: MpcObjectiveParams,
    binning: TableBinning = TableBinning(),
    ladder_kbps=DEFAULT_LADDER_KBPS,
    segment_duration_s: float = 4.0,
    progress=None,
    jobs: int = 1,
) -> LookupTable:
    """Solve the MPC decision offline for every (tput, buffer, prev) cell.

    ``ladder_kbps`` lists the rung bitrates (kb/s), the reference
    ladder's by default. Future chunk sizes are the nominal rung bitrate
    times the segment duration: a table has no manifest, so
    ``params.use_manifest_sizes`` must be false. Throughput bins are
    independent; ``jobs`` > 1 solves them in a pool of that many
    processes, started the platform's default way (fork on Linux before
    Python 3.14), with identical entries.
    ``progress(done, total)`` is called once per throughput bin, in
    order. On 2 cores the default 100x100x13 binning takes ~2 s on one,
    ~1.2-1.5 s with ``jobs=2``; starting the pool costs more than a small
    table saves: 20x20 at horizon 3 takes ~9 ms on one, ~36 ms with two,
    and 10x25 at horizon 5 ~0.1 s and ~0.08 s (~0.16 s on a busy host).
    ``params``, ``segment_duration_s`` and ``check_table`` are checked first.
    """
    checks.count("jobs", jobs)
    _check_table_params(params)
    segment_duration_s = checks.positive("segment_duration_s", segment_duration_s)
    ladder_kbps = check_table(binning, ladder_kbps, params.horizon)
    solve = functools.partial(_table_bin, ladder_kbps, segment_duration_s, params, buffers=binning.buffer_centers())
    entries = np.empty((binning.tput_bins, binning.buffer_bins, len(ladder_kbps)), dtype=np.uint8)
    centers = binning.tput_centers()
    with concurrent.futures.ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for ti, rows in enumerate(pool.map(solve, centers) if pool else map(solve, centers)):
            entries[ti] = rows
            if progress is not None:
                progress(ti + 1, binning.tput_bins)
    return LookupTable(
        tput_edges=binning.tput_edges(),
        buffer_edges=binning.buffer_edges(),
        entries=entries,
        ladder_kbps=ladder_kbps,
        segment_duration_s=segment_duration_s,
        params=params,
    )


def save_table(table: LookupTable, path) -> None:
    """Write the table artifact: one JSON header line + raw row-major entries."""
    header = {
        "format": "abrbench-mpc-table-v1",
        "tput_edges": [float(x) for x in table.tput_edges],
        "buffer_edges": [float(x) for x in table.buffer_edges],
        "ladder_kbps": list(table.ladder_kbps),
        "segment_duration_s": table.segment_duration_s,
        "params": asdict(table.params),  # in field order
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(table.entries).tobytes())


def load_table(path) -> LookupTable:
    """Read a table artifact; a header that is not a table's, or entries of the wrong size, raise naming ``path``."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != "abrbench-mpc-table-v1":
            raise ValueError("not a lookup-table artifact")
        missing = [k for k in ("tput_edges", "buffer_edges", "ladder_kbps", "segment_duration_s", "params")
                   if k not in header]
        if missing:
            raise ValueError(f"table header lacks {missing}")
        for name in ("tput_edges", "buffer_edges", "ladder_kbps"):  # the entry shape is read from their lengths
            if not isinstance(header[name], list):
                raise ValueError(f"{name} must be a list, got {header[name]!r}")
        shape = (len(header["tput_edges"]) - 1, len(header["buffer_edges"]) - 1, len(header["ladder_kbps"]))
        if len(blob) != math.prod(shape):
            raise ValueError(f"{len(blob)} entry bytes for a {shape[0]}x{shape[1]}x{shape[2]} table")
        p = header["params"]
        if not (isinstance(p, dict) and set(p) == {f.name for f in fields(MpcObjectiveParams)}):
            raise ValueError(f"table params must be exactly the MpcObjectiveParams fields, got {p!r}")
        return LookupTable(
            tput_edges=np.array(header["tput_edges"]),
            buffer_edges=np.array(header["buffer_edges"]),
            entries=np.frombuffer(blob, dtype=np.uint8).reshape(shape).copy(),
            ladder_kbps=header["ladder_kbps"],
            segment_duration_s=header["segment_duration_s"],
            params=MpcObjectiveParams(**p),
        )
    except (TypeError, ValueError) as exc:  # TypeError: a header field of the wrong type
        raise ValueError(f"{path}: {exc}") from exc
