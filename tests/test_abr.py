import collections
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrbench import abr, media, search
from abrbench.abr import (
    AbrState,
    ExternalPolicy,
    arithmetic_mean_predict,
    harmonic_mean_predict,
    make_policy,
    mpc_select_exact,
)
from abrbench.media import Manifest, Representation
from abrbench.qoe import KsqiParams
from abrbench.search import (
    LookupTable,
    MpcObjectiveParams,
    RdosParams,
    TableBinning,
    build_mpc_table,
    load_table,
    save_table,
)

from conftest import mpc_table_cells
from oracles import (
    best_completions,
    buffer_based_reference,
    buffer_walk,
    mpc_enumerate,
    mpc_objective,
    rate_based_reference,
    rdos_enumerate,
    rdos_objective,
    table_bin_reference,
    table_lookup_reference,
)


def toy_manifest(n_reps=3, segments=10, seed=0, quality_jitter=0.0):
    rng = random.Random(seed)
    ladder = tuple(
        Representation(index=i + 1, width=320 * (i + 1), height=180 * (i + 1), bitrate_kbps=300.0 * 2**i)
        for i in range(n_reps)
    )
    sizes, qualities = [], []
    for _ in range(segments):
        size_row, quality_row = [], []
        for rep in ladder:
            size_row.append(rep.bitrate_kbps * 1000.0 * 4.0 * (1.0 + 0.2 * (rng.random() - 0.5)))
            q = media.default_quality_curve(rep.bitrate_kbps) + quality_jitter * (rng.random() - 0.5)
            quality_row.append(min(100.0, max(0.0, q)))
        sizes.append(size_row)
        qualities.append(quality_row)
    return Manifest(segment_duration_s=4.0, ladder=ladder, sizes=sizes, qualities=qualities)


def state_for(manifest, chunk_index=2, buffer_s=12.0, last_rep=1, history=(1000.0,)):
    return AbrState(
        chunk_index=chunk_index,
        buffer_s=buffer_s,
        last_rep=last_rep,
        throughput_history_kbps=tuple(history),
        manifest=manifest,
    )


# --- throughput predictors ---------------------------------------------------

def test_arithmetic_mean_cases():
    assert arithmetic_mean_predict([1000.0] * 5) == 1000.0
    assert arithmetic_mean_predict([1000.0, 2000.0]) == 1500.0
    assert arithmetic_mean_predict([9.0, 9.0, 100.0, 200.0, 300.0, 400.0, 500.0], window=5) == 300.0


def test_harmonic_mean_cases():
    assert harmonic_mean_predict([700.0] * 4) == pytest.approx(700.0)
    assert harmonic_mean_predict([1000.0, 2000.0]) == pytest.approx(4000.0 / 3.0)
    assert harmonic_mean_predict([1.0, 1.0, 10.0, 10.0, 10.0, 10.0, 10.0], window=5) == pytest.approx(10.0)


def test_predictors_reject_bad_input():
    for predict in (arithmetic_mean_predict, harmonic_mean_predict):
        with pytest.raises(ValueError, match="empty"):
            predict([])
        for bad in (0.0, -3000.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and > 0"):
                predict([1000.0, bad])
            with pytest.raises(ValueError, match="finite and > 0"):
                predict((bad, 1000.0, 2000.0), window=3)
            # only the window is read, so only the window is checked
            assert predict([bad, 1000.0, 1000.0], window=2) == 1000.0


def test_prediction_window_must_be_a_count():
    # history[-0:] is the whole history and history[--1:] drops the oldest sample
    for bad in (0, -1, 2.5, math.nan):
        for predict in (arithmetic_mean_predict, harmonic_mean_predict):
            with pytest.raises(ValueError, match="window must be an integer >= 1"):
                predict([1000.0, 2000.0, 3000.0], window=bad)
        with pytest.raises(ValueError, match="window must be an integer >= 1"):
            abr.RateBasedPolicy(window=bad)
    assert harmonic_mean_predict([1000.0, 2000.0], window=np.int64(1)) == 2000.0


@given(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=12))
def test_harmonic_never_exceeds_arithmetic(history):
    assert harmonic_mean_predict(history) <= arithmetic_mean_predict(history) + 1e-9


# --- rate-based --------------------------------------------------------------

def test_rate_based_hand_rule():
    m = media.synthetic_manifest(segments=4)
    # 3000 kb/s prediction: rung 8 (3000) is not strictly below, rung 7 (2350) is
    assert abr.RateBasedPolicy().select(state_for(m, history=[3000.0])) == 7


def test_rate_based_clamps():
    m = media.synthetic_manifest(segments=4)
    assert abr.RateBasedPolicy().select(state_for(m, history=[100.0])) == 1
    assert abr.RateBasedPolicy().select(state_for(m, history=[1e9])) == 13


def test_rate_based_non_strict_flag():
    m = media.synthetic_manifest(segments=4)
    assert abr.RateBasedPolicy(strict=False).select(state_for(m, history=[3000.0])) == 8


@given(st.floats(min_value=10.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
def test_rate_based_monotone_in_prediction(lo, extra):
    m = media.synthetic_manifest(segments=2)
    a = abr.RateBasedPolicy().select(state_for(m, history=[lo]))
    b = abr.RateBasedPolicy().select(state_for(m, history=[lo + extra]))
    assert b >= a


def test_rate_based_scale_invariance():
    base = media.synthetic_manifest(segments=2)
    k = 3.7
    scaled_ladder = tuple(
        Representation(r.index, r.width, r.height, r.bitrate_kbps * k) for r in base.ladder
    )
    scaled = Manifest(4.0, scaled_ladder, base.sizes, base.qualities)
    select = abr.RateBasedPolicy().select
    for pred in (150.0, 700.0, 2350.0, 3000.0, 9000.0):
        assert select(state_for(base, history=[pred])) == select(state_for(scaled, history=[pred * k]))


# --- buffer-based ------------------------------------------------------------

def buffer_based(buffer_s, ladder):
    """The default buffer-based policy's rung at ``buffer_s`` on a manifest with ``ladder``."""
    manifest = Manifest(4.0, ladder, [[r.bitrate_kbps * 4000.0 for r in ladder]] * 2, [[50.0] * len(ladder)] * 2)
    return abr.BufferBasedPolicy().select(state_for(manifest, buffer_s=buffer_s))


def test_buffer_based_boundaries():
    ladder = media.ladder_default()
    assert buffer_based(5.0, ladder) == 1
    assert buffer_based(15.0, ladder) == 13
    assert buffer_based(0.0, ladder) == 1


def test_buffer_based_interpolation():
    # buffer 10 -> target 235 + 0.5*16565 = 8517.5 -> rung 11 (8100)
    assert buffer_based(10.0, media.ladder_default()) == 11


@given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0))
def test_buffer_based_monotone(a, b):
    ladder = media.ladder_default()
    lo, hi = sorted([a, b])
    assert buffer_based(lo, ladder) <= buffer_based(hi, ladder)


def test_buffer_based_scale_invariance():
    ladder = media.ladder_default()
    scaled = tuple(Representation(r.index, r.width, r.height, r.bitrate_kbps * 11.0) for r in ladder)
    for buf in (0.0, 5.0, 7.5, 10.0, 12.0, 15.0, 40.0):
        assert buffer_based(buf, ladder) == buffer_based(buf, scaled)


# --- rate- and buffer-based picks against the ladder loops ----------------------

@st.composite
def small_manifests(draw):
    """A two-segment manifest over a drawn ladder of 1-13 strictly increasing rungs."""
    rates = sorted(draw(st.lists(st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=13, unique=True)))
    ladder = tuple(Representation(i + 1, 16, 9, r) for i, r in enumerate(rates))
    return Manifest(4.0, ladder, [[r * 4000.0 for r in rates]] * 2, [[50.0] * len(rates)] * 2)


def _near(value):
    """``value`` and its two float neighbours, where a comparison with it flips."""
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


@given(small_manifests(), st.booleans(), st.data())
def test_rate_based_pick_equals_the_ladder_loop(manifest, strict, data):
    rates = manifest.ladder_kbps
    pred = data.draw(st.one_of(
        st.sampled_from([x for r in rates for x in _near(r)]),  # at a rung bitrate, < and <= differ
        st.floats(min_value=1e-3, max_value=rates[0], exclude_max=True),  # below the lowest rung
        st.floats(min_value=rates[-1], max_value=1e12, exclude_min=True),  # above the highest
        st.floats(min_value=rates[0], max_value=rates[-1]),
    ))
    got = abr.RateBasedPolicy(window=1, strict=strict).select(state_for(manifest, history=[pred]))
    assert got == rate_based_reference(manifest.ladder, pred, strict)


@given(small_manifests(), st.data())
def test_buffer_based_pick_equals_the_ladder_loop(manifest, data):
    rates = manifest.ladder_kbps
    reservoir_s = data.draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)))
    cushion_s = data.draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0),
                                    st.floats(min_value=5e-324, max_value=1e-300)))  # 1/cushion overflows
    edges = [*_near(reservoir_s), *_near(reservoir_s + cushion_s)]  # the reservoir and cushion edges
    # buffers whose interpolated target lands on a rung bitrate, up to rounding
    at_rungs = [reservoir_s + (r - rates[0]) / (rates[-1] - rates[0]) * cushion_s for r in rates[1:-1]]
    buffer_s = data.draw(st.one_of(
        st.sampled_from([b for b in edges + at_rungs if b >= 0.0]),
        st.floats(min_value=0.0, max_value=70.0),
    ))
    got = abr.BufferBasedPolicy(reservoir_s, cushion_s).select(state_for(manifest, buffer_s=buffer_s))
    assert got == buffer_based_reference(manifest.ladder, buffer_s, reservoir_s, cushion_s)


# --- MPC ---------------------------------------------------------------------

def test_mpc_objective_hand_value():
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, buffer_s=50.0, last_rep=5, history=[3000.0])
    params = MpcObjectiveParams(horizon=3)
    # ample buffer: 1.05+1.75+1.05 - (0.7+0.7) - 0 = 2.45
    assert mpc_objective([5, 6, 5], st_, 3000.0, params) == pytest.approx(2.45)


def test_mpc_objective_no_penalties_for_constant_choice():
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, buffer_s=55.0, last_rep=7, history=[50000.0])
    params = MpcObjectiveParams(horizon=5)
    score = mpc_objective([7] * 5, st_, 50000.0, params)
    assert score == pytest.approx(5 * 2.35)


@given(st.floats(min_value=50.0, max_value=20000.0), st.floats(min_value=0.0, max_value=19000.0))
@settings(max_examples=30, deadline=None)
def test_mpc_objective_monotone_in_throughput(tput, drop):
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, buffer_s=6.0, last_rep=4, history=[tput])
    params = MpcObjectiveParams(horizon=4)
    choices = [4, 6, 3, 5]
    hi = mpc_objective(choices, st_, tput + drop, params)
    lo = mpc_objective(choices, st_, tput, params)
    assert lo <= hi + 1e-12


@pytest.mark.parametrize("tput", [math.nan, -5.0, 0.0, math.inf, -math.inf])
def test_mpc_select_refuses_a_bad_predicted_throughput(tput):
    # NaN and -5.0 used to decide rung 1, and 0.0 divided by zero
    st_ = state_for(toy_manifest(), history=[1000.0])
    with pytest.raises(ValueError, match="^predicted_tput must be finite and > 0"):
        mpc_select_exact(st_, MpcObjectiveParams(), predicted_tput=tput)


def test_mpc_select_horizon_one_is_direct_argmax():
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, buffer_s=55.0, last_rep=5, history=[3000.0])
    params = MpcObjectiveParams(horizon=1)
    best = max(
        range(1, 14),
        key=lambda r: (mpc_objective([r], st_, harmonic_mean_predict(st_.throughput_history_kbps), params), -r),
    )
    assert mpc_select_exact(st_, params) == best


def test_mpc_select_matches_enumeration_toy_ladder():
    m = toy_manifest(n_reps=4, segments=12, seed=2)
    rng = random.Random(1)
    params = MpcObjectiveParams(horizon=3)
    for _ in range(25):
        st_ = state_for(
            m,
            chunk_index=rng.randint(2, 9),
            buffer_s=rng.uniform(0.0, 60.0),
            last_rep=rng.randint(1, 4),
            history=[rng.uniform(100.0, 8000.0) for _ in range(rng.randint(1, 6))],
        )
        tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
        expect, _ = mpc_enumerate(st_, params, tput)
        assert mpc_select_exact(st_, params) == expect


def test_mpc_select_matches_enumeration_manifest_sizes():
    m = toy_manifest(n_reps=3, segments=12, seed=5)
    params = MpcObjectiveParams(horizon=4, use_manifest_sizes=True)
    rng = random.Random(3)
    for _ in range(10):
        st_ = state_for(
            m,
            chunk_index=rng.randint(2, 8),
            buffer_s=rng.uniform(0.0, 30.0),
            last_rep=rng.randint(1, 3),
            history=[rng.uniform(100.0, 5000.0)],
        )
        tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
        expect, _ = mpc_enumerate(st_, params, tput)
        assert mpc_select_exact(st_, params) == expect


def test_mpc_select_truncates_at_video_end():
    m = media.synthetic_manifest(segments=6)
    params = MpcObjectiveParams(horizon=5)
    st_ = state_for(m, chunk_index=5, buffer_s=20.0, last_rep=6, history=[2000.0])
    assert st_.remaining_chunks == 2
    tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
    expect, _ = mpc_enumerate(st_, params, tput)  # enumerates 13^2 only
    assert mpc_select_exact(st_, params) == expect


@pytest.mark.slow
def test_mpc_select_matches_enumeration_full_ladder():
    m = media.synthetic_manifest(segments=10)
    params = MpcObjectiveParams()
    st_ = state_for(m, chunk_index=3, buffer_s=9.5, last_rep=6, history=[2500.0, 4000.0])
    tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
    expect, _ = mpc_enumerate(st_, params, tput)  # 13^5 = 371,293 sequences
    assert mpc_select_exact(st_, params) == expect


def test_enumeration_kernel_order_and_stalls_match_buffer_walk():
    # the score function sees every sequence once, each fold block in
    # lexicographic order with its last choices on the leading axis, with
    # the stall total of the oracle's buffer walk, bit for bit; each (row,
    # first choice) result is the maximum over that block of the oracle's
    # scan. A small buffer cap makes both stalls and capping frequent;
    # coarse scores make ties common.
    rng = random.Random(21)
    for _ in range(30):
        n, h = rng.randint(2, 4), rng.randint(1, 4)
        seg = 4.0
        cap = rng.uniform(seg, 3 * seg)
        dt_by_pos = [np.array([rng.uniform(0.1, 3 * seg) for _ in range(n)]) for _ in range(h)]
        buffers = np.array([rng.uniform(0.0, cap) for _ in range(3)])
        values = np.array([float(rng.randint(0, 3)) for _ in range(n**h)])
        seen = {}

        def step(k, p, c, stall, acc):
            code, stall_acc = acc
            assert (code % n == p).all() if k else (p == 0).all()  # p is each prefix's last choice
            return code * n + c, stall_acc + stall

        def score(acc):
            code, stall_acc = acc
            code = code.astype(int)
            stall_acc = np.broadcast_to(stall_acc, (len(code), len(buffers), code.shape[-1]))
            for block_code, block_stall in zip(code, stall_acc):
                block_code = block_code.reshape(-1)
                assert block_code.tolist() == [j * n + block_code[0] % n for j in range(n ** (h - 1))]
                for i in range(len(buffers)):
                    for j, x in zip(block_code, block_stall[i]):
                        assert (i, j) not in seen
                        seen[(i, j)] = x
            return values[code] - stall_acc

        zero = np.zeros((1, 1))
        best = search._enumerate(buffers, dt_by_pos, seg, cap, (zero, zero), step, score)
        assert len(seen) == len(buffers) * n**h
        for i, b0 in enumerate(buffers):
            expect = [-math.inf] * n
            for j, seq in enumerate(itertools.product(range(n), repeat=h)):
                _, stalls = buffer_walk(b0, [dt_by_pos[k][c] for k, c in enumerate(seq)], seg, cap)
                total = 0.0
                for x in stalls:
                    total += x
                assert seen[(i, j)] == total
                expect[seq[0]] = max(expect[seq[0]], values[j] - total)
            assert best[i].tolist() == expect


def test_exact_decisions_never_hold_a_full_tree_array():
    # one float64 per 13^5 sequence is the array size whose allocation and
    # page faults used to cost as much as the arithmetic
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, chunk_index=3, buffer_s=9.5, last_rep=6, history=[2500.0, 4000.0])
    for decide in (lambda: mpc_select_exact(st_, MpcObjectiveParams()), lambda: abr.RdosPolicy().select(st_)):
        decide()
        tracemalloc.start()
        try:
            decide()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 13**5


def decision_call(monkeypatch, decide):
    """The arguments of the one ``_enumerate`` call behind ``decide()``."""
    enumerate_ = search._enumerate
    calls = []
    monkeypatch.setattr(search, "_enumerate", lambda *args, **kw: calls.append((args, kw)) or enumerate_(*args, **kw))
    decide()
    monkeypatch.setattr(search, "_enumerate", enumerate_)
    (call,) = calls
    return call


def read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


def test_objectives_never_write_into_their_arguments(monkeypatch):
    # MPC's and RDOS's step and score are pure: handed read-only views of their
    # indices, stalls and accumulators they raise nothing and score every
    # search as before, bit for bit; several buffer rows and h = 1..5 (at h = 1
    # the accumulators are the kernel's zero roots)
    rng = random.Random(12)
    horizons = set()
    for i in range(20):
        n_reps = 13 if i % 5 == 0 else rng.randint(2, 6)
        m = toy_manifest(n_reps=n_reps, segments=8, seed=i, quality_jitter=20.0)
        st_ = state_for(m, chunk_index=rng.randint(1, 4), buffer_s=rng.uniform(0.0, 30.0),
                        last_rep=rng.randint(1, n_reps), history=[rng.uniform(200.0, 30000.0) for _ in range(3)])
        common = {"horizon": 1 + i % 5, "max_buffer_s": rng.uniform(4.0, 60.0), "use_manifest_sizes": i % 2 == 0}
        mpc, rdos = random_weights(rng)
        for decide in (lambda: mpc_select_exact(st_, MpcObjectiveParams(**mpc, **common)),
                       lambda: abr.RdosPolicy(RdosParams(**rdos, **common)).select(st_)):
            (buffers, dt_by_pos, seg, cap, acc, step, score), kwargs = decision_call(monkeypatch, decide)
            rows = np.concatenate([buffers, [rng.uniform(0.0, cap) for _ in range(3)]])

            def pure_step(k, p, c, stall, acc, step=step):
                k, p, c, stall = (read_only(x) if isinstance(x, np.ndarray) else x for x in (k, p, c, stall))
                return step(k, p, c, stall, tuple(map(read_only, acc)))

            def pure_score(acc, score=score):
                return score(tuple(map(read_only, acc)))

            got = search._enumerate(rows, dt_by_pos, seg, cap, tuple(map(read_only, acc)), pure_step, pure_score,
                                 **kwargs)
            expect = search._enumerate(rows, dt_by_pos, seg, cap, acc, step, score, **kwargs)
            assert got.tobytes() == expect.tobytes()
            horizons.add(len(dt_by_pos))
    assert horizons == {1, 2, 3, 4, 5}


def prefix_scores(args, d):
    """Score so far and buffer (rows x prefixes) of every depth-``d`` prefix, in lexicographic order."""
    buffers, dt_by_pos, seg, cap, acc, step, score = args
    rungs = np.arange(len(dt_by_pos[0]))
    buf = np.asarray(buffers, dtype=np.float64)[:, None]
    last = rungs[:1]
    for k in range(d):
        b = buf[:, :, None]
        stepped = step(k, last[:, None], rungs, np.maximum(dt_by_pos[k] - b, 0.0), tuple(a[:, :, None] for a in acc))
        acc = tuple(a.reshape(len(a), -1) for a in stepped)
        buf = np.minimum(b - np.minimum(b, dt_by_pos[k]) + seg, cap).reshape(len(buf), -1)
        last = np.tile(rungs, len(last))
    return score(acc), buf


def random_weights(rng):
    """Random MPC and RDOS objective weights, each zero a quarter of the time."""
    def weight(high):
        return 0.0 if rng.random() < 0.25 else rng.uniform(0.0, high)
    beta_pos = weight(0.5)
    ksqi = KsqiParams(c0=weight(3.0), c1=weight(10.0), c2=weight(0.2), beta_neg=beta_pos + weight(1.0),
                      beta_pos=beta_pos)
    return {"lambda_switch": weight(3.0), "mu_rebuf": weight(30.0)}, {"ksqi": ksqi, "gamma_rate": weight(1.0)}


def assert_prefix_floors(pruner, args, best, h) -> tuple[int, int]:
    """Check every depth 2..h-1 prefix of the search ``args`` against ``pruner``.

    ``best[r]`` maps each prefix (1-based rungs) to its best completion's
    exact score from row ``r``'s buffer, after the previous rung of the
    first row of ``pruner.first``. The prefix's bound is at least that
    score, less its first-rung term, less the margin the kernel prunes
    with; and a prefix below its first rung's floor in a row cannot reach
    that row's incumbent after any previous rung. Returns how many (row,
    prefix) pairs were checked and how many of them were below the floor.
    """
    n = pruner.first.shape[1]
    checked = below = 0
    for d in range(2, h):
        value, buf = prefix_scores(args, d)
        upper = pruner.upper(d, value, buf)
        for j, prefix in enumerate(itertools.product(range(1, n + 1), repeat=d)):
            c = prefix[0] - 1
            for r, row_best in enumerate(best):
                completion = row_best[prefix] - pruner.first[0, c]
                assert upper[r, j] >= completion - pruner.margin[r]
                if upper[r, j] < pruner.floor[r, c]:
                    assert (completion + pruner.first[:, c] < pruner.incumbent[r]).all()
                    below += 1
                checked += 1
    return checked, below


def test_prefix_bound_never_undercuts_a_prefix_best_completion(monkeypatch):
    # every prefix's bound is at least its best completion's exact score, less
    # the margin the kernel prunes with, and a prefix below its first rung's
    # floor cannot win after any previous rung, at every depth from 2 to h - 1:
    # for single MPC and RDOS decisions, and for the table search over every
    # previous rung from several buffers
    rng = random.Random(16)
    counts = collections.Counter()
    for i in range(24):
        n_reps = rng.randint(2, 6)
        h = rng.randint(2, {2: 6, 3: 6, 4: 5, 5: 4, 6: 4}[n_reps])  # at most 1296 sequences
        m = toy_manifest(n_reps=n_reps, segments=8, seed=i, quality_jitter=40.0)
        st_ = state_for(m, chunk_index=rng.randint(1, 9 - h), buffer_s=rng.choice([0.0, rng.uniform(0.0, 30.0)]),
                        last_rep=rng.randint(1, n_reps), history=[math.exp(rng.uniform(4.6, 9.9)) for _ in range(3)])
        tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)  # 100 kb/s to 20 Mb/s: stalls are common
        mpc, rdos = random_weights(rng)
        cap = rng.uniform(8.0, 60.0)
        for sizes in (False, True):
            common = {"horizon": h, "max_buffer_s": cap, "use_manifest_sizes": sizes}
            for params, objective, decide in (
                (MpcObjectiveParams(**mpc, **common), mpc_objective, mpc_select_exact),
                (RdosParams(**rdos, **common), rdos_objective, lambda s, p: abr.RdosPolicy(p).select(s)),
            ):
                args, kwargs = decision_call(monkeypatch, lambda: decide(st_, params))
                pruner = search._Pruner(np.asarray(args[0]), *args[1:], **kwargs)
                best = best_completions(objective, st_, tput, params)
                checked, below = assert_prefix_floors(pruner, args, [best], h)
                counts.update({"decision": checked, "decision below": below})
        # the table builder's search at the predicted throughput, from an empty, a middle and a full buffer
        params = MpcObjectiveParams(**mpc, horizon=h, max_buffer_s=cap)
        ladder_kbps = tuple(r.bitrate_kbps for r in m.ladder)
        args, kwargs = decision_call(monkeypatch, lambda: search._table_bin(ladder_kbps, 4.0, params, tput,
                                                                         [0.0, cap / 4.0, cap]))
        rows = np.asarray(args[0])
        pruner = search._Pruner(rows, *args[1:], **kwargs)
        assert pruner.first.shape == (n_reps, n_reps)
        best = [best_completions(mpc_objective, dataclasses.replace(st_, buffer_s=float(b), last_rep=1), tput, params)
                for b in rows]
        checked, below = assert_prefix_floors(pruner, args, best, h)
        counts.update({"table": checked, "table below": below})
    assert counts["decision"] > 5000 and counts["table"] > 5000
    assert counts["decision below"] > 1000 and counts["table below"] > 1000


def test_pruned_enumeration_matches_the_full_one(monkeypatch):
    # each decision runs pruned and unpruned: the decisions are equal, every
    # first rung the pruned run scores is bit-identical, and every one it
    # reads -inf could not have been the decision
    enumerate_ = search._enumerate
    calls = []

    def both(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score, prices=None, first=None):
        pruned = enumerate_(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score, prices=prices, first=first)
        full = enumerate_(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score)
        total, full_total = pruned + first, full + first
        assert np.argmax(total[0]) == np.argmax(full_total[0])
        scored = np.isfinite(pruned)
        assert pruned[scored].tobytes() == full[scored].tobytes()
        assert (full_total[~scored] < total.max()).all()
        calls.append(len(dt_by_pos))
        return pruned

    monkeypatch.setattr(search, "_enumerate", both)
    rng = random.Random(5)
    flat = Manifest(4.0, media.ladder_default(),
                    [[r.bitrate_kbps * 4000.0 for r in media.ladder_default()]] * 8, [[70.0] * 13] * 8)
    for i in range(36):
        mpc, rdos = random_weights(rng)
        if i % 6 == 0:  # near ties: no penalty weights, and on every other state equal qualities
            mpc, rdos = {"lambda_switch": 0.0, "mu_rebuf": 0.0}, {"gamma_rate": 0.0}
            m = flat if i % 12 == 0 else media.synthetic_manifest(segments=8)
        elif i % 3 == 0:
            m = media.synthetic_manifest(segments=8)
        else:
            m = toy_manifest(n_reps=rng.randint(2, 6), segments=8, seed=i, quality_jitter=40.0)
        n_reps, cap = len(m.ladder), rng.uniform(8.0, 60.0)
        buffer_s = [0.0, cap, rng.uniform(0.0, cap)][i % 3]
        st_ = state_for(m, chunk_index=rng.randint(1, 4), buffer_s=buffer_s, last_rep=rng.randint(1, n_reps),
                        history=[rng.uniform(200.0, 20000.0) for _ in range(3)])
        common = {"horizon": 5 if n_reps == 13 else rng.randint(4, 6), "max_buffer_s": cap,
                  "use_manifest_sizes": i % 2 == 0}
        mpc_select_exact(st_, MpcObjectiveParams(**mpc, **common))
        abr.RdosPolicy(RdosParams(**rdos, **common)).select(st_)
    assert set(calls) == {4, 5, 6} and calls.count(5) > 24


def fold_steps(step, h, blocks):
    """``step``, recording the (block width, stall entries) of every call that folds position ``h - 1``."""
    def spy(k, p, c, stall, acc):
        if np.ndim(c) == 3:  # a fold block: its last choices on a leading axis
            assert k == h - 1
            blocks.append((len(c), stall.size))
        return step(k, p, c, stall, acc)
    return spy


def test_block_fold_matches_oracles_and_the_unpruned_search(monkeypatch):
    # blocks of one last choice, and blocks that leave a ragged last one, score
    # MPC and RDOS decisions at h = 1..5 and table slabs as the default blocks
    # and the unpruned search do, bit for bit, and find the oracles' decisions
    # and best scores; no block holds more than the cap unless it is one choice
    enumerate_, default_cap = search._enumerate, search._FOLD_ENTRIES
    blocks, results = [], []

    def small_blocks(buffers, dt_by_pos, seg, max_buffer_s, acc, step, score, **kwargs):
        kernel_args = (buffers, dt_by_pos, seg, max_buffer_s, acc)
        recorded = []
        got = enumerate_(*kernel_args, fold_steps(step, len(dt_by_pos), recorded), score, **kwargs)
        blocks.extend((len(dt_by_pos[0]), width, entries, search._FOLD_ENTRIES) for width, entries in recorded)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_FOLD_ENTRIES", default_cap)
            assert got.tobytes() == enumerate_(*kernel_args, step, score, **kwargs).tobytes()
        full = enumerate_(*kernel_args, step, score)
        scored = np.isfinite(got)
        assert got[scored].tobytes() == full[scored].tobytes()
        first = kwargs["first"]
        assert (np.argmax(got[:, None, :] + first, axis=2) == np.argmax(full[:, None, :] + first, axis=2)).all()
        results.append((got, first))
        return got

    monkeypatch.setattr(search, "_enumerate", small_blocks)
    rng = random.Random(24)
    horizons = collections.Counter()
    for fold_entries in (1, 12, 40, 150):
        monkeypatch.setattr(search, "_FOLD_ENTRIES", fold_entries)
        for i in range(10):
            n_reps = rng.randint(2, 5)
            m = toy_manifest(n_reps=n_reps, segments=8, seed=i, quality_jitter=40.0)
            st_ = state_for(m, chunk_index=rng.randint(1, 4), buffer_s=rng.choice([0.0, rng.uniform(0.0, 30.0)]),
                            last_rep=rng.randint(1, n_reps), history=[math.exp(rng.uniform(4.6, 9.9)) for _ in range(3)])
            tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
            mpc, rdos = random_weights(rng)
            common = {"horizon": 1 + i % 5, "max_buffer_s": rng.uniform(8.0, 60.0), "use_manifest_sizes": i % 2 == 0}
            params = MpcObjectiveParams(**mpc, **common)
            expect, expect_score = mpc_enumerate(st_, params, tput)
            assert mpc_select_exact(st_, params) == expect
            got, first = results[-1]
            assert (got + first).max() == expect_score
            params = RdosParams(**rdos, **common)
            expect, expect_score = rdos_enumerate(st_, params, tput)
            assert abr.RdosPolicy(params).select(st_) == expect
            assert results[-1][0].max() == expect_score
            horizons[common["horizon"]] += 1
        # a table slab: four buffer rows, pruned for every previous rung at once
        ladder_kbps = tuple(r.bitrate_kbps for r in m.ladder)
        params = MpcObjectiveParams(**mpc, horizon=5)
        search._table_bin(ladder_kbps, 4.0, params, tput, [0.0, 3.0, 7.5, 12.0])
    assert set(horizons) == {1, 2, 3, 4, 5}
    assert all(entries <= cap or width == 1 for _, width, entries, cap in blocks)
    assert any(width == 1 < n for n, width, _, _ in blocks)  # one last choice per block
    assert any(n % width for n, width, _, _ in blocks if width > 1)  # a ragged last block


def test_default_decisions_fold_their_last_position_in_one_step(monkeypatch):
    # a default-ladder h = 5 decision scores all 13 last rungs in one step
    # call, so a return to folding one rung at a time fails here
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, chunk_index=3, buffer_s=4.0, last_rep=6, history=[3000.0])
    enumerate_ = search._enumerate
    for decide in (lambda: mpc_select_exact(st_, MpcObjectiveParams()), lambda: abr.RdosPolicy().select(st_)):
        blocks = []
        monkeypatch.setattr(search, "_enumerate", lambda buffers, dt_by_pos, seg, cap, acc, step, score, **kw: (
            enumerate_(buffers, dt_by_pos, seg, cap, acc, fold_steps(step, len(dt_by_pos), blocks), score, **kw)))
        decide()
        assert [width for width, _ in blocks] == [13]


def test_pruning_engages_on_a_default_ladder_decision(monkeypatch):
    # a looser bound would keep more prefixes and lose the pruned kernel's gain
    m = media.synthetic_manifest(segments=10)
    st_ = state_for(m, chunk_index=3, buffer_s=4.0, last_rep=6, history=[3000.0])
    keep_ = search._Pruner.keep
    kept = []

    def spy(self, d, value, buf, counts):
        mask, survivors = keep_(self, d, value, buf, counts)
        if d == 2:
            kept.append(mask.mean())
        return mask, survivors

    monkeypatch.setattr(search._Pruner, "keep", spy)
    mpc_select_exact(st_, MpcObjectiveParams())
    abr.RdosPolicy().select(st_)
    assert len(kept) == 2 and max(kept) < 0.6


def test_pruning_engages_on_a_default_table_bin(monkeypatch):
    # the table search keeps only the prefixes that may win after some previous
    # rung: ~8 % of the depth-3 ones at 6.1 Mb/s, where a floor at the smallest
    # incumbent over previous rungs, less no switch term, would keep ~20 %
    keep_ = search._Pruner.keep
    kept = []

    def spy(self, d, value, buf, counts):
        mask, survivors = keep_(self, d, value, buf, counts)
        if d == 3:
            kept.append(survivors.sum() / 13**3)
        return mask, survivors

    monkeypatch.setattr(search._Pruner, "keep", spy)
    binning = TableBinning()
    ladder_kbps = search.check_table(binning, search.DEFAULT_LADDER_KBPS, 5)
    search._table_bin(ladder_kbps, 4.0, MpcObjectiveParams(), binning.tput_centers()[30], binning.buffer_centers())
    assert len(kept) > 5 and np.mean(kept) < 0.13


@st.composite
def random_ladder_states(draw):
    """A state on a random 2-5-rung ladder with jittered sizes and arbitrary qualities."""
    n_reps = draw(st.integers(min_value=2, max_value=5))
    rates = sorted(draw(st.lists(st.floats(100.0, 20000.0), min_size=n_reps, max_size=n_reps, unique=True)))
    segments = draw(st.integers(min_value=1, max_value=10))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ladder = tuple(Representation(i + 1, 320 * (i + 1), 180 * (i + 1), r) for i, r in enumerate(rates))
    cells = [[(r * 4000.0 * rng.uniform(0.8, 1.2), rng.uniform(0.0, 100.0)) for r in rates] for _ in range(segments)]
    return state_for(
        Manifest(4.0, ladder, [[size for size, _ in row] for row in cells], [[q for _, q in row] for row in cells]),
        chunk_index=draw(st.integers(min_value=1, max_value=segments)),
        buffer_s=draw(st.floats(0.0, 60.0)),
        last_rep=draw(st.integers(min_value=1, max_value=n_reps)),
        history=draw(st.lists(st.floats(50.0, 30000.0), min_size=1, max_size=6)),
    )


@given(
    random_ladder_states(),
    st.integers(min_value=1, max_value=4),
    st.floats(0.0, 5.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_enumeration_kernel_matches_oracles(state, horizon, lambda_switch, mu_rebuf, gamma_rate):
    tput = harmonic_mean_predict(state.throughput_history_kbps, 5)
    for manifest_sizes in (False, True):
        params = MpcObjectiveParams(
            lambda_switch=lambda_switch, mu_rebuf=mu_rebuf, horizon=horizon, use_manifest_sizes=manifest_sizes
        )
        assert mpc_select_exact(state, params) == mpc_enumerate(state, params, tput)[0]
    rdos = RdosParams(gamma_rate=gamma_rate, horizon=horizon)
    assert abr.RdosPolicy(rdos).select(state) == rdos_enumerate(state, rdos, tput)[0]


def test_table_extreme_cells():
    params = MpcObjectiveParams()
    rich = build_mpc_table(params, TableBinning(tput_bins=10, buffer_bins=10, tput_max_kbps=20000.0))
    # richest cell: top throughput, full buffer, already at the top rung
    assert rich.entries[-1, -1, 12] == 13
    # starved cell (100 kb/s center, near-empty buffer, the default
    # 100-bin layout's bottom corner): the floor wins for any history
    corner = mpc_table_cells(
        params, TableBinning(tput_bins=100, buffer_bins=100), [(0, 0, 1), (0, 0, 13)]
    )
    assert corner[(0, 0, 1)] == 1
    assert corner[(0, 0, 13)] == 1


def test_table_matches_exact_select_at_centers():
    m = media.synthetic_manifest(segments=400)
    binning = TableBinning(tput_bins=12, buffer_bins=9, tput_max_kbps=18000.0)
    params = MpcObjectiveParams()
    table = build_mpc_table(params, binning)
    tputs = binning.tput_centers()
    buffers = binning.buffer_centers()
    rng = random.Random(0)
    for _ in range(60):
        ti = rng.randrange(binning.tput_bins)
        bi = rng.randrange(binning.buffer_bins)
        prev = rng.randint(1, 13)
        st_ = state_for(m, chunk_index=2, buffer_s=float(buffers[bi]), last_rep=prev, history=[float(tputs[ti])])
        assert int(table.entries[ti, bi, prev - 1]) == mpc_select_exact(st_, params)


def test_table_cells_agree_with_full_build():
    binning = TableBinning(tput_bins=7, buffer_bins=5, tput_max_kbps=9000.0)
    params = MpcObjectiveParams(horizon=3)
    table = build_mpc_table(params, binning)
    rng = random.Random(4)
    cells = [
        (rng.randrange(7), rng.randrange(5), rng.randint(1, 13))
        for _ in range(30)
    ]
    got = mpc_table_cells(params, binning, cells)
    for (ti, bi, prev), rep in got.items():
        assert rep == int(table.entries[ti, bi, prev - 1])


@given(
    st.lists(st.floats(100.0, 20000.0), min_size=2, max_size=5, unique=True),
    st.integers(min_value=1, max_value=4),
    st.floats(0.0, 5.0),
    st.floats(0.0, 30.0),
    st.floats(0.0, 0.5),
    st.floats(0.1, 4.0),
    st.floats(1.0, 80.0),
    st.floats(1.5, 3.5),
    st.integers(min_value=2, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_table_cells_match_per_state_enumeration(
    rates, horizon, lambda_switch, mu_rebuf, rtt_s, tput_scale, cap, span, buffer_bins
):
    # the batched path (buffer rows enumerated in slabs, stall-free rows
    # sharing one enumeration) against one exhaustive scan per state;
    # the buffer bins straddle the stall-free threshold, and the buffer
    # cap of the objective is drawn apart from the binned buffer range
    seg = 4.0
    ladder = tuple(Representation(i + 1, 16, 9, r) for i, r in enumerate(sorted(rates)))
    params = MpcObjectiveParams(lambda_switch, mu_rebuf, horizon, rtt_s, max_buffer_s=cap)
    tput = ladder[-1].bitrate_kbps * tput_scale
    dt_max = ladder[-1].bitrate_kbps * 1000.0 * seg / (tput * 1000.0) + rtt_s
    threshold = max(dt_max, horizon * dt_max - (horizon - 1) * seg)
    binning = TableBinning(tput_bins=1, buffer_bins=buffer_bins, tput_max_kbps=2 * tput, max_buffer_s=span * threshold)
    buffers = binning.buffer_centers()
    assert buffers[0] < threshold <= buffers[-1]
    cells = [(0, bi, prev) for bi in range(buffer_bins) for prev in range(1, len(ladder) + 1)]
    got = mpc_table_cells(params, binning, cells, [r.bitrate_kbps for r in ladder], seg)
    nominal = [r.bitrate_kbps * 1000.0 * seg for r in ladder]
    manifest = Manifest(seg, ladder, [nominal] * horizon, [[50.0] * len(ladder)] * horizon)
    for ti, bi, prev in cells:
        state = state_for(manifest, chunk_index=1, buffer_s=float(buffers[bi]), last_rep=prev, history=[tput])
        assert got[(ti, bi, prev)] == mpc_enumerate(state, params, float(binning.tput_centers()[ti]))[0]


@given(
    st.lists(st.floats(100.0, 20000.0), min_size=2, max_size=6, unique=True),
    st.integers(min_value=4, max_value=6),
    st.one_of(st.just(0.0), st.floats(0.0, 5.0)),  # zero weights make near ties
    st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    st.floats(0.0, 0.5),
    st.floats(0.1, 4.0),
    st.floats(1.0, 80.0),
    st.floats(1.5, 3.5),
    st.integers(min_value=2, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_pruned_table_search_matches_the_full_one(
    rates, horizon, lambda_switch, mu_rebuf, rtt_s, tput_scale, cap, span, rows
):
    # the table builder's search, pruned for every previous rung at once, against
    # the unpruned one: the decision after each previous rung is the same and
    # every entry the pruned search scores is bit-identical; its buffer rows
    # straddle the stall-free threshold, as a table bin's do
    seg = 4.0
    rates = sorted(rates)
    params = MpcObjectiveParams(lambda_switch, mu_rebuf, horizon, rtt_s, max_buffer_s=cap)
    dt = np.array([r * 1000.0 * seg for r in rates]) / (rates[-1] * tput_scale * 1000.0) + rtt_s
    threshold = max(dt.max(), horizon * dt.max() - (horizon - 1) * seg)
    buffers = (np.arange(rows) + 0.5) * span * threshold / rows
    assert buffers[0] < threshold <= buffers[-1]
    step, score, prices, first = search._mpc_objective(rates, horizon, params)
    zero = np.zeros((1, 1))
    kernel_args = (buffers, [dt] * horizon, seg, cap, (zero, zero, zero), step, score)
    pruned = search._enumerate(*kernel_args, prices=prices, first=first)
    full = search._enumerate(*kernel_args)
    assert (np.argmax(pruned[:, None, :] + first, axis=2) == np.argmax(full[:, None, :] + first, axis=2)).all()
    scored = np.isfinite(pruned)
    assert pruned[scored].tobytes() == full[scored].tobytes()


def test_table_lookup_clamps(tmp_path):
    binning = TableBinning(tput_bins=6, buffer_bins=6, tput_max_kbps=6000.0)
    params = MpcObjectiveParams(horizon=2)
    table = build_mpc_table(params, binning)
    m = media.synthetic_manifest(segments=300)
    over = state_for(m, buffer_s=59.9, last_rep=13, history=[1e7])
    assert abr.MpcTablePolicy(table).select(over) == int(table.entries[-1, -1, 12])
    under = state_for(m, buffer_s=0.0, last_rep=1, history=[1.0])
    assert abr.MpcTablePolicy(table).select(under) == int(table.entries[0, 0, 0])


def probe_points(edges):
    """Every edge, the floats either side of each, the bin midpoints, 0 and values beyond both ends."""
    edges = [float(e) for e in edges]
    points = [0.0, edges[0] - 1.0, edges[0] / 2.0, edges[-1] + 1.0, edges[-1] * 2.0]
    for e in edges:
        points += [e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)]
    return points + [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("shape", ["saved_20x20x13", "2x2"])
def test_table_lookup_matches_searchsorted(tmp_path, shape):
    rng = np.random.default_rng(19)
    if shape == "2x2":
        ladder = media.ladder_default()[:2]
        tput_edges, buffer_edges = np.array([500.0, 1500.0, 4000.0]), np.array([2.0, 10.0, 30.0])
    else:
        ladder = media.ladder_default()
        binning = TableBinning(tput_bins=20, buffer_bins=20, tput_max_kbps=20000.0)
        tput_edges, buffer_edges = binning.tput_edges(), binning.buffer_edges()
    n = len(ladder)
    entries = rng.integers(1, n + 1, size=(len(tput_edges) - 1, len(buffer_edges) - 1, n), dtype=np.uint8)
    table = LookupTable(tput_edges, buffer_edges, entries, tuple(r.bitrate_kbps for r in ladder), 4.0,
                        MpcObjectiveParams(prediction_window=1))
    if shape != "2x2":
        save_table(table, tmp_path / "table.bin")
        table = load_table(tmp_path / "table.bin")
    tput_points, buffer_points = probe_points(table.tput_edges), probe_points(table.buffer_edges)
    lookup_tput, lookup_buffer, _ = table.lookup
    for edges, cached, points in ((table.tput_edges, lookup_tput, tput_points),
                                  (table.buffer_edges, lookup_buffer, buffer_points)):
        for x in points:
            assert search._bin_index(cached, x) == table_bin_reference(edges, x)
    m = Manifest(4.0, ladder, [[r.bitrate_kbps * 4000.0 for r in ladder]] * 2, [[50.0] * n] * 2)
    policy = abr.MpcTablePolicy(table)
    for k, (tput, buffer_s) in enumerate(itertools.product(tput_points, buffer_points)):
        if tput <= 0.0 or buffer_s < 0.0:
            continue  # no throughput sample or buffer level takes these
        state = state_for(m, buffer_s=buffer_s, last_rep=k % n + 1, history=[tput])
        predicted = harmonic_mean_predict([tput], 1)
        got = policy.select(state)
        assert type(got) is int and got == table_lookup_reference(table, predicted, buffer_s, k % n + 1)


def test_table_save_load_bit_exact(tmp_path):
    binning = TableBinning(tput_bins=5, buffer_bins=4, tput_max_kbps=8000.0)
    params = MpcObjectiveParams(horizon=2)
    table = build_mpc_table(params, binning)
    path = tmp_path / "table.bin"
    save_table(table, path)
    again = load_table(path)
    assert np.array_equal(again.entries, table.entries)
    assert np.array_equal(again.tput_edges, table.tput_edges)
    assert np.array_equal(again.buffer_edges, table.buffer_edges)
    assert again.params == table.params
    save_table(again, tmp_path / "table2.bin")
    assert (tmp_path / "table.bin").read_bytes() == (tmp_path / "table2.bin").read_bytes()


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_table_header_params_must_be_the_objective_fields(tmp_path, edit):
    # a dropped param was a KeyError, an extra one was ignored
    path = tmp_path / "table.bin"
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2)), path)
    header, blob = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    if edit == "drop":
        del doc["params"]["rtt_s"]
    else:
        doc["params"]["horizn"] = 3
    path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=str(path)):
        load_table(path)


@st.composite
def lookup_tables(draw):
    t, b, r = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ladder = tuple(sorted(draw(st.lists(st.floats(50.0, 50000.0), min_size=r, max_size=r, unique=True))))
    binning = TableBinning(tput_bins=t, buffer_bins=b, tput_max_kbps=draw(st.floats(100.0, 1e5)),
                           max_buffer_s=draw(st.floats(1.0, 120.0)))
    entries = draw(st.lists(st.integers(1, r), min_size=t * b * r, max_size=t * b * r))
    return LookupTable(
        tput_edges=binning.tput_edges(),
        buffer_edges=binning.buffer_edges(),
        entries=np.array(entries, dtype=np.uint8).reshape(t, b, r),
        ladder_kbps=ladder,
        segment_duration_s=draw(st.floats(0.5, 10.0)),
        params=MpcObjectiveParams(horizon=draw(st.integers(1, 5)), rtt_s=draw(st.floats(0.0, 1.0))),
    )


@settings(max_examples=60)
@given(lookup_tables())
def test_table_save_load_round_trip_property(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.bin"
        save_table(table, path)
        again = load_table(path)
        for name in ("tput_edges", "buffer_edges", "entries"):
            assert np.array_equal(getattr(again, name), getattr(table, name))
        assert (again.ladder_kbps, again.segment_duration_s, again.params) == (
            table.ladder_kbps, table.segment_duration_s, table.params)
        save_table(again, Path(tmp) / "again.bin")
        assert (Path(tmp) / "again.bin").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda header, blob: b"[1, 2]\n" + blob, "not a lookup-table artifact"),
        (lambda header, blob: b"not json\n" + blob, "Expecting value"),
        (lambda header, blob: json.dumps({k: v for k, v in json.loads(header).items() if k != "ladder_kbps"}).encode()
         + b"\n" + blob, "lacks ['ladder_kbps']"),
        (lambda header, blob: header + b"\n" + blob[:-1], "35 entry bytes for a 2x2x9 table"),
        (lambda header, blob: header + b"\n" + blob + b"\x01", "37 entry bytes"),
        (lambda header, blob: json.dumps({**json.loads(header), "ladder_kbps": 5}).encode() + b"\n" + blob,
         "ladder_kbps must be a list, got 5"),
    ],
    ids=["list_header", "not_json", "missing_field", "short_blob", "long_blob", "mistyped_field"],
)
def test_load_table_errors_name_the_path(tmp_path, edit, message):
    path = tmp_path / "table.bin"
    ladder_kbps = [r.bitrate_kbps for r in media.ladder_default()[:9]]
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2),
                               ladder_kbps=ladder_kbps), path)
    header, blob = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(header, blob))
    with pytest.raises(ValueError, match=str(path)) as info:
        load_table(path)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tput_edges", lambda doc: doc["tput_edges"][::-1]),  # MpcTablePolicy then read the wrong bins
        ("buffer_edges", lambda doc: [0.0, math.nan, doc["buffer_edges"][-1]]),
        ("tput_edges", lambda doc: [0.0, 5.0, 5.0]),
        ("segment_duration_s", lambda doc: "4"),
        ("segment_duration_s", lambda doc: -4.0),
        ("ladder_kbps", lambda doc: [str(r) for r in doc["ladder_kbps"]]),
        ("ladder_kbps", lambda doc: doc["ladder_kbps"][::-1]),
        ("tput_edges", lambda doc: 5),  # these two raised without naming the field
        ("buffer_edges", lambda doc: "x"),
    ],
    ids=["reversed_tput_edges", "nan_buffer_edge", "repeated_tput_edge", "string_segment_duration",
         "negative_segment_duration", "string_ladder", "decreasing_ladder", "number_tput_edges", "string_buffer_edges"],
)
def test_load_table_checks_the_axes(tmp_path, field, value):
    # each of these headers was loaded as it was
    path = tmp_path / "table.bin"
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2)), path)
    header, blob = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    path.write_bytes(json.dumps({**doc, field: value(doc)}).encode() + b"\n" + blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {field}")):
        load_table(path)


def test_table_parallel_build_matches_serial():
    binning = TableBinning(tput_bins=5, buffer_bins=6, tput_max_kbps=9000.0)
    params = MpcObjectiveParams(horizon=2)
    serial = build_mpc_table(params, binning)
    calls = []
    parallel = build_mpc_table(params, binning, progress=lambda done, total: calls.append((done, total)), jobs=2)
    assert np.array_equal(parallel.entries, serial.entries)
    assert calls == [(i, 5) for i in range(1, 6)]
    with pytest.raises(ValueError):
        build_mpc_table(params, binning, jobs=0)


def test_table_size_limits_are_checked_before_any_build():
    # the limits, not a size one past them, are accepted; nothing is built to check them
    search.check_table(TableBinning(tput_bins=1000, buffer_bins=10_000), [300], 64)  # 10^7 cells, 1^64 sequences
    search.check_table(TableBinning(), search.DEFAULT_LADDER_KBPS, 6)  # 13^6 = 4,826,809 sequences
    for binning, n_reps, horizon, key in (
        (TableBinning(tput_bins=1000, buffer_bins=10_001), 1, 1, "tput_bins x buffer_bins x ladder rungs"),
        (TableBinning(), 13, 7, "horizon 7"),
        (TableBinning(), 1, 65, "horizon 65"),
        (TableBinning(), 2, 10**12, "horizon 1000000000000"),  # refused before 2^h is formed
    ):
        with pytest.raises(ValueError, match=re.escape(key)):
            search.check_table(binning, list(range(1, n_reps + 1)), horizon)
    with pytest.raises(ValueError, match="horizon 7"):
        build_mpc_table(MpcObjectiveParams(horizon=7), TableBinning(tput_bins=1, buffer_bins=1))


def test_a_table_is_not_built_with_manifest_sizes():
    # a table has no manifest: it built the entries of use_manifest_sizes=False and wrote "true" into its header
    with pytest.raises(ValueError, match="use_manifest_sizes must be false"):
        build_mpc_table(MpcObjectiveParams(horizon=3, use_manifest_sizes=True), TableBinning(tput_bins=3, buffer_bins=4))


def test_a_table_header_with_manifest_sizes_is_refused_naming_its_path(tmp_path):
    # build_mpc_table refused use_manifest_sizes=True, but a saved header edited to say true loaded
    path = tmp_path / "table.bin"
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2)), path)
    header, blob = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    path.write_bytes(json.dumps({**doc, "params": {**doc["params"], "use_manifest_sizes": True}}).encode() + b"\n"
                     + blob)
    with pytest.raises(ValueError, match=re.escape(f"{path}: use_manifest_sizes must be false for a table")):
        load_table(path)


@pytest.mark.parametrize(
    "segment_duration_s, sizes, message",
    [
        (math.nan, False, "segment_duration_s must be finite and > 0, got nan"),
        (math.inf, False, "segment_duration_s must be finite and > 0, got inf"),
        (0, False, "segment_duration_s must be finite and > 0, got 0"),
        (-4.0, False, "segment_duration_s must be finite and > 0, got -4.0"),
        (True, False, "segment_duration_s must be finite and > 0, got True"),
        (4.0, True, "use_manifest_sizes must be false for a table"),
    ],
    ids=["nan", "inf", "zero", "negative", "true", "manifest_sizes"],
)
def test_build_mpc_table_checks_its_arguments_before_any_bin(monkeypatch, segment_duration_s, sizes, message):
    # nan raised ZeroDivisionError in the fold; -4.0 and True built every bin before LookupTable refused them
    monkeypatch.setattr(search, "_table_bin", lambda *args, **kwargs: pytest.fail("a bin was solved"))
    with pytest.raises(ValueError, match=re.escape(message)):
        build_mpc_table(MpcObjectiveParams(horizon=2, use_manifest_sizes=sizes),
                        TableBinning(tput_bins=20, buffer_bins=20), segment_duration_s=segment_duration_s)


def test_load_table_refuses_an_empty_ladder(tmp_path):
    # it loaded as a (1, 1, 0) table
    path = tmp_path / "table.bin"
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=1, buffer_bins=1)), path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    path.write_bytes(json.dumps({**header, "ladder_kbps": []}).encode() + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ladder_kbps must hold one or more rungs")):
        load_table(path)


def test_policies_check_their_rung_and_search_against_a_manifest():
    manifest = media.synthetic_manifest(segments=8)  # 13 rungs, 7 decisions
    abr.FixedPolicy(13).check_fits(manifest)
    with pytest.raises(ValueError, match=re.escape("rep_index must be a ladder rung (1..13), got 14")):
        abr.FixedPolicy(14).check_fits(manifest)
    for policy in (abr.MpcExactPolicy(MpcObjectiveParams(horizon=7)), abr.RdosPolicy(abr.RdosParams(horizon=7))):
        policy.check_fits(media.synthetic_manifest(segments=7))  # its searches cover at most 6 chunks
        with pytest.raises(ValueError, match="horizon 7 is too long for 13 ladder rungs"):
            policy.check_fits(manifest)
    # a one-rung ladder enumerates one sequence, but no search is over 64 positions, as no table's is
    one_rung = media.synthetic_manifest(segments=70, ladder=media.ladder_default()[:1])
    params = MpcObjectiveParams(horizon=65)
    with pytest.raises(ValueError, match="horizon 65 is too long for 1 ladder rungs"):
        abr.MpcExactPolicy(params).check_fits(one_rung)
    with pytest.raises(ValueError, match="horizon 65"):
        mpc_select_exact(AbrState(1, 0.0, 1, [1000.0], one_rung), params)
    abr.MpcExactPolicy(params).check_fits(media.synthetic_manifest(segments=65, ladder=media.ladder_default()[:1]))


def test_table_artifact_digest_is_pinned(tmp_path):
    # default ladder and objective (h = 5), serial and in a pool: the artifact
    # bytes of a small build are the ones the kernel wrote before its fold
    # reused its arrays and before the table search was pruned
    binning = TableBinning(tput_bins=10, buffer_bins=25)
    for jobs in (1, 2):
        path = tmp_path / f"table{jobs}.bin"
        save_table(build_mpc_table(MpcObjectiveParams(), binning, jobs=jobs), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ba9f9d3c8e5f56944ea78031d746673512c2d31b1db5dad376b274b70589f98e"


@pytest.mark.slow
def test_default_table_artifact_digest_is_pinned(tmp_path):
    # the default 100x100x13 artifact, built in a pool of two, is the one the
    # unpruned table search wrote
    path = tmp_path / "table.bin"
    save_table(build_mpc_table(MpcObjectiveParams(), jobs=2), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "d4e048668331bff5ed433abf97503be7419450208d39cdde4a7ce195be4af6ff"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the default start method is not fork")
def test_table_pool_runs_from_a_script_without_main_guard(tmp_path):
    # a spawned worker re-ran the unguarded script as ``__mp_main__`` and the pool broke
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import numpy as np\n"
        "from abrbench import MpcObjectiveParams, TableBinning, build_mpc_table\n"
        "binning = TableBinning(tput_bins=4, buffer_bins=5, tput_max_kbps=9000.0)\n"
        "params = MpcObjectiveParams(horizon=2)\n"
        "serial = build_mpc_table(params, binning)\n"
        "pooled = build_mpc_table(params, binning, jobs=2)\n"
        "print(np.array_equal(serial.entries, pooled.entries))\n"
    )
    src = str(Path(abr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.parametrize(
    "cell, field",
    [
        ((0, 0, 0), "prev_rep"),  # answered for the top rung through index -1
        ((0, 0, 14), "prev_rep"),
        ((-1, 0, 1), "tput_bin"),  # answered for the last throughput bin
        ((4, 0, 1), "tput_bin"),  # numpy IndexError
        ((0, 5, 1), "buffer_bin"),
        ((1.5, 0, 1), "tput_bin"),
        ((0, True, 1), "buffer_bin"),
        ((0, 0, 2.0), "prev_rep"),
    ],
)
def test_table_cells_outside_the_table_are_rejected(cell, field):
    binning = TableBinning(tput_bins=4, buffer_bins=5, tput_max_kbps=9000.0)
    with pytest.raises(ValueError, match=rf"cell {re.escape(repr(cell))}: {field} must be an integer in"):
        mpc_table_cells(MpcObjectiveParams(horizon=2), binning, [(0, 0, 1), cell])


@pytest.mark.parametrize("cell", [(0, 0), (0, 0, 1, 1), (), 7], ids=["pair", "quadruple", "empty", "int"])
def test_table_cells_that_are_not_triples_are_named(cell):
    # a pair failed in zip() without naming the cell, an int with a TypeError
    binning = TableBinning(tput_bins=4, buffer_bins=5, tput_max_kbps=9000.0)
    triple = r"must be a \(tput_bin, buffer_bin, prev_rep\) triple"
    with pytest.raises(ValueError, match=rf"cell {re.escape(repr(cell))} {triple}"):
        mpc_table_cells(MpcObjectiveParams(horizon=2), binning, [(0, 0, 1), cell])


_TABLE_BUILDS = {
    "build_mpc_table": lambda ladder: build_mpc_table(
        MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2), ladder_kbps=ladder),
    "mpc_table_cells": lambda ladder: mpc_table_cells(
        MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2), [(0, 0, 1)], ladder),
}


@pytest.mark.parametrize(
    "ladder, message",
    [
        # numpy's "zero-size array to reduction operation maximum"; the decreasing one built a table
        ((), "ladder is empty"),
        ((500.0, 300.0), "bitrates must be strictly increasing"),
    ],
    ids=["empty", "decreasing"],
)
@pytest.mark.parametrize("build", _TABLE_BUILDS.values(), ids=_TABLE_BUILDS.keys())
def test_table_ladders_are_checked_as_a_manifest_ladder_is(build, ladder, message):
    with pytest.raises(ValueError, match=message):
        build(ladder)


def test_table_cells_accept_numpy_indices_and_an_iterator():
    binning = TableBinning(tput_bins=4, buffer_bins=5, tput_max_kbps=9000.0)
    params = MpcObjectiveParams(horizon=2)
    cells = [(0, 0, 1), (3, 4, 13), (np.int64(2), np.int32(1), np.int64(7))]
    got = mpc_table_cells(params, binning, iter(cells))  # an iterator used to give an empty dict
    table = build_mpc_table(params, binning)
    assert got == {(int(t), int(b), int(p)): int(table.entries[t, b, p - 1]) for t, b, p in cells}


# --- RDOS --------------------------------------------------------------------

def test_rdos_objective_hand_value():
    ladder = (Representation(1, 320, 180, 500.0), Representation(2, 640, 360, 2000.0))
    m = Manifest(4.0, ladder, [[500.0 * 4000.0, 2000.0 * 4000.0]] * 6, [[40.0, 80.0]] * 6)
    kp = KsqiParams()
    params = RdosParams(gamma_rate=0.1, horizon=3)
    # ample buffer: up 40, flat, down 40; no stall
    st_ = state_for(m, chunk_index=2, buffer_s=50.0, last_rep=1, history=[2000.0])
    expect = 200.0 / 3 - (kp.beta_pos * 40.0 + kp.beta_neg * 40.0) / 3 - 0.1 * 4.5
    assert rdos_objective([2, 2, 1], st_, 2000.0, params) == pytest.approx(expect)
    # empty buffer: a 4.08 s stall charged against the 40-quality chunk on screen
    empty = state_for(m, chunk_index=2, buffer_s=0.0, last_rep=1, history=[2000.0])
    stall = 2000.0 * 4000.0 / 2e6 + params.rtt_s
    penalty = kp.c0 * np.log1p(stall) * (kp.c1 + kp.c2 * 60.0) + kp.beta_pos * 40.0
    assert rdos_objective([2], empty, 2000.0, params) == pytest.approx(80.0 - penalty - 0.1 * 2.0)


def test_rdos_degenerate_objective_prefers_lowest():
    # equal qualities everywhere and no bitrate term: every sequence
    # with enough headroom ties, so the tie-break lands on rung 1
    ladder = tuple(Representation(i + 1, 320, 180, 300.0 * (i + 1)) for i in range(3))
    m = Manifest(4.0, ladder, [[r.bitrate_kbps * 4000.0 for r in ladder]] * 8, [[70.0] * len(ladder)] * 8)
    st_ = state_for(m, buffer_s=55.0, last_rep=2, history=[1e6])
    params = RdosParams(gamma_rate=0.0, horizon=3)
    assert abr.RdosPolicy(params).select(st_) == 1


def test_rdos_two_rep_exhaustive():
    ladder = (Representation(1, 320, 180, 500.0), Representation(2, 640, 360, 2000.0))
    rng = random.Random(8)
    qualities = [[40.0 + rng.uniform(-5, 5), 80.0 + rng.uniform(-5, 5)] for _ in range(6)]
    m = Manifest(4.0, ladder, [[500.0 * 4000.0, 2000.0 * 4000.0]] * 6, qualities)
    params = RdosParams(horizon=2)
    for chunk in (2, 3, 4):
        for buf in (1.0, 6.0, 20.0):
            st_ = state_for(m, chunk_index=chunk, buffer_s=buf, last_rep=1, history=[1500.0])
            tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
            expect, _ = rdos_enumerate(st_, params, tput)
            assert abr.RdosPolicy(params).select(st_) == expect


def test_rdos_matches_enumeration_toy_ladder():
    m = toy_manifest(n_reps=4, segments=14, seed=6, quality_jitter=20.0)
    params = RdosParams(horizon=3, gamma_rate=0.2)
    rng = random.Random(12)
    for _ in range(20):
        st_ = state_for(
            m,
            chunk_index=rng.randint(2, 11),
            buffer_s=rng.uniform(0.0, 40.0),
            last_rep=rng.randint(1, 4),
            history=[rng.uniform(100.0, 9000.0) for _ in range(rng.randint(1, 5))],
        )
        tput = harmonic_mean_predict(st_.throughput_history_kbps, 5)
        expect, _ = rdos_enumerate(st_, params, tput)
        assert abr.RdosPolicy(params).select(st_) == expect


def test_rdos_gamma_pulls_bitrate_down():
    m = media.synthetic_manifest(segments=12)
    st_ = state_for(m, buffer_s=50.0, last_rep=13, history=[1e6])
    greedy = abr.RdosPolicy(RdosParams(gamma_rate=0.0)).select(st_)
    frugal = abr.RdosPolicy(RdosParams(gamma_rate=50.0)).select(st_)
    assert frugal <= greedy


# --- generic policy properties ----------------------------------------------

def test_all_selectors_return_valid_indices_fuzz():
    rng = random.Random(77)
    m = media.synthetic_manifest(segments=20, size_jitter=0.2, seed=1)
    table = build_mpc_table(MpcObjectiveParams(horizon=2), TableBinning(tput_bins=5, buffer_bins=5))
    policies = [
        abr.RateBasedPolicy(),
        abr.BufferBasedPolicy(),
        abr.MpcExactPolicy(MpcObjectiveParams(horizon=2)),
        abr.MpcTablePolicy(table),
        abr.RdosPolicy(RdosParams(horizon=2)),
    ]
    for _ in range(40):
        st_ = state_for(
            m,
            chunk_index=rng.randint(2, 19),
            buffer_s=rng.uniform(0.0, 60.0),
            last_rep=rng.randint(1, 13),
            history=[rng.uniform(10.0, 30000.0) for _ in range(rng.randint(1, 8))],
        )
        for pol in policies:
            rep = pol.select(st_)
            assert 1 <= rep <= 13


def test_external_policy_round_trip(tmp_path):
    script = tmp_path / "echo_policy.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(min(req['last_rep'] + 1, len(req['ladder_kbps'])), flush=True)\n"
    )
    m = media.synthetic_manifest(segments=5)
    with ExternalPolicy([sys.executable, str(script)]) as pol:
        st_ = state_for(m, last_rep=3, history=[1000.0])
        assert pol.select(st_) == 4
        st2 = state_for(m, last_rep=13, history=[1000.0])
        assert pol.select(st2) == 13
    assert pol._proc.stdin.closed and pol._proc.stdout.closed
    # a child that has already exited still gets both pipes closed
    gone = ExternalPolicy([sys.executable, "-c", "pass"])
    with pytest.raises((RuntimeError, BrokenPipeError)):  # it exits before or after reading the request
        gone.select(st_)
    gone._proc.wait(timeout=10)
    gone.close()
    assert gone._proc.stdin.closed and gone._proc.stdout.closed


def test_external_policy_drives_a_session(tmp_path):
    from abrbench import nettrace
    from abrbench.simulator import PlayerConfig, run_session

    script = tmp_path / "constant3.py"
    script.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    print(3, flush=True)\n"
    )
    m = media.synthetic_manifest(segments=5)
    tr = nettrace.parse_trace("0,5000", "pairs", duration_s=1000.0)
    with ExternalPolicy([sys.executable, str(script)]) as pol:
        log = run_session(m, tr, pol, PlayerConfig())
    assert log.choices == (1, 3, 3, 3, 3)


def test_policies_reject_non_finite_samples_in_their_window(tmp_path):
    m = media.synthetic_manifest(segments=5)
    table = build_mpc_table(MpcObjectiveParams(horizon=2), TableBinning(tput_bins=2, buffer_bins=2))
    script = tmp_path / "rung1.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    print(1, flush=True)\n")
    with ExternalPolicy([sys.executable, str(script)]) as external:
        policies = [
            abr.RateBasedPolicy(),
            abr.MpcExactPolicy(MpcObjectiveParams(horizon=2)),
            abr.MpcTablePolicy(table),
            abr.RdosPolicy(RdosParams(horizon=2)),
            external,
        ]
        for bad in (math.nan, math.inf, -1000.0):
            state = state_for(m, history=(1000.0, bad, 2000.0))
            for policy in policies:
                with pytest.raises(ValueError, match="finite and > 0"):
                    policy.select(state)
        assert external.select(state_for(m, history=(1000.0, 2000.0))) == 1


def test_state_rejects_bad_buffer_or_rung():
    m = media.synthetic_manifest(segments=5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="buffer_s"):
            state_for(m, buffer_s=bad)
    for bad in (0, 14):
        with pytest.raises(ValueError, match="last_rep"):
            state_for(m, last_rep=bad)


def test_make_policy_registry():
    assert isinstance(make_policy({"id": "rate_based"}), abr.RateBasedPolicy)
    assert isinstance(make_policy({"id": "buffer_based", "reservoir_s": 4}), abr.BufferBasedPolicy)
    assert isinstance(make_policy({"id": "fixed", "rep_index": 5}), abr.FixedPolicy)
    assert isinstance(make_policy({"id": "mpc_exact", "params": {"horizon": 3}}), abr.MpcExactPolicy)
    rdos = make_policy({"id": "rdos", "ksqi": {"beta_neg": 0.7}, "params": {"horizon": 2}})
    assert isinstance(rdos, abr.RdosPolicy)
    assert rdos.params.ksqi.beta_neg == 0.7
    with pytest.raises(ValueError):
        make_policy({"id": "nonsense"})



def test_checked_policies_pickle_and_copy(tmp_path):
    # simulate --jobs sends each cell's policy, checked once, to a worker process, which decides with a copy of it
    table = tmp_path / "t.bin"
    save_table(build_mpc_table(MpcObjectiveParams(horizon=1), TableBinning(tput_bins=2, buffer_bins=2)), table)
    specs = [{"id": "fixed", "rep_index": 5}, {"id": "rate_based"}, {"id": "buffer_based"}, {"id": "rdos"},
             {"id": "mpc_exact", "params": {"horizon": 3}}, {"id": "mpc_table", "table": str(table)},
             {"id": "external", "command": ["policy"]}]
    for spec in specs:
        policy = dataclasses.replace(pickle.loads(pickle.dumps(make_policy(spec))))
        if spec["id"] == "mpc_table":  # the policy carries the table it read
            assert np.array_equal(policy.table.entries, load_table(table).entries)
        else:  # an external policy starts no child until its first decision
            assert vars(policy) == vars(make_policy(spec))


def test_policy_classes_check_their_own_fields():
    # each ran as if valid: rung 1 for a whole session, rung 1, and strict
    for build, key in (
        (lambda: abr.BufferBasedPolicy(reservoir_s=math.nan), "reservoir_s"),
        (lambda: abr.FixedPolicy(True), "rep_index"),
        (lambda: abr.RateBasedPolicy(strict="no"), "strict"),
    ):
        with pytest.raises(ValueError, match=key):
            build()
    # positional order and defaults are the config's; reals are stored as floats
    assert abr.RateBasedPolicy(3, False) == make_policy({"id": "rate_based", "window": 3, "strict": False})
    policy = abr.BufferBasedPolicy(4)
    assert policy == make_policy({"id": "buffer_based", "reservoir_s": 4.0}) and type(policy.reservoir_s) is float
    assert abr.FixedPolicy() == abr.FixedPolicy(1) and abr.MpcExactPolicy() == abr.MpcExactPolicy(MpcObjectiveParams())


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: abr.MpcExactPolicy([3]), "params must be a MpcObjectiveParams"),
        (lambda: abr.MpcExactPolicy(RdosParams()), "params must be a MpcObjectiveParams"),
        (lambda: abr.RdosPolicy({"horizon": 2}), "params must be a RdosParams"),
        (lambda: abr.RdosPolicy(MpcObjectiveParams()), "params must be a RdosParams"),
        (lambda: abr.MpcTablePolicy("table.bin"), "table must be a LookupTable"),
    ],
)
def test_policy_parameter_fields_are_checked_for_type(build, name):
    # MpcExactPolicy([3]) was built and failed at its first decision with an AttributeError
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("kind", abr.POLICIES)
def test_policy_options_are_their_class_fields(kind):
    with pytest.raises(ValueError, match="unknown key 'bogus'") as err:
        make_policy({"id": kind, "bogus": 1})
    keys = {"id", "name", *(f.name for f in dataclasses.fields(abr.POLICIES[kind]))}
    keys |= {"ksqi"} if kind == "rdos" else set()  # the block of rdos's params
    assert f"expected one of {sorted(keys)}" in str(err.value)


def test_external_policy_options_are_checked_before_any_child_starts(monkeypatch):
    started = []
    monkeypatch.setattr(abr.subprocess, "Popen", lambda *a, **k: started.append(a))
    with pytest.raises(ValueError, match="lookahead"):
        ExternalPolicy(["policy"], lookahead=0)
    for bad in ([], "python policy.py", ["python", 3]):
        with pytest.raises(ValueError, match="command must be a non-empty list of strings"):
            ExternalPolicy(bad)
    policy = make_policy({"id": "external", "command": ["policy"], "lookahead": 2})
    assert policy.lookahead == 2 and started == []
    assert "_proc" not in {f.name for f in dataclasses.fields(policy)}  # never a config option
    policy.close()  # before any decision: nothing to close
    assert started == []


def test_external_policy_starts_its_child_at_the_first_decision(tmp_path):
    script = tmp_path / "rung2.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    print(2, flush=True)\n")
    policy = ExternalPolicy([sys.executable, str(script)])
    assert policy._proc is None
    state = state_for(media.synthetic_manifest(segments=5))
    assert policy.select(state) == 2
    child = policy._proc
    assert child is not None and child.poll() is None
    assert policy.select(state) == 2 and policy._proc is child  # one child for every decision
    policy.close()
    assert child.returncode == 0


def test_params_invariants():
    with pytest.raises(ValueError):
        MpcObjectiveParams(lambda_switch=-1.0)
    with pytest.raises(ValueError):
        MpcObjectiveParams(horizon=0)
    with pytest.raises(ValueError):
        RdosParams(gamma_rate=-0.1)
    with pytest.raises(ValueError):
        KsqiParams(beta_neg=0.1, beta_pos=0.5)


_WEIGHT = (math.nan, math.inf, -1.0)
_COUNT = (0, -1, 2.5)
_POSITIVE = (math.nan, math.inf, 0.0, -1.0)
_BAD_PARAMS = [  # (class, field, rejected values, an accepted value)
    (MpcObjectiveParams, "lambda_switch", _WEIGHT, 0.0),
    (MpcObjectiveParams, "mu_rebuf", _WEIGHT, 0.0),
    (MpcObjectiveParams, "horizon", _COUNT, np.int64(3)),
    (MpcObjectiveParams, "rtt_s", _WEIGHT, 0.0),
    (MpcObjectiveParams, "max_buffer_s", _POSITIVE, 4.0),
    (MpcObjectiveParams, "prediction_window", _COUNT, 1),
    (RdosParams, "gamma_rate", _WEIGHT, 0.0),
    (RdosParams, "horizon", _COUNT, 1),
    (RdosParams, "rtt_s", _WEIGHT, 0.0),
    (RdosParams, "max_buffer_s", _POSITIVE, 4.0),
    (RdosParams, "prediction_window", _COUNT, 1),
    (KsqiParams, "c0", _WEIGHT, 0.0),
    (KsqiParams, "c1", _WEIGHT, 0.0),
    (KsqiParams, "c2", _WEIGHT, 0.0),
    (KsqiParams, "beta_neg", _WEIGHT, 2.0),
    (KsqiParams, "beta_pos", _WEIGHT, 0.0),
    (TableBinning, "tput_bins", _COUNT, 1),
    (TableBinning, "buffer_bins", _COUNT, 1),
    (TableBinning, "tput_max_kbps", _POSITIVE, 1.0),
    (TableBinning, "max_buffer_s", _POSITIVE, 1.0),
]


@pytest.mark.parametrize("make, field, bads, good", _BAD_PARAMS, ids=[f"{c.__name__}.{f}" for c, f, *_ in _BAD_PARAMS])
def test_params_reject_bad_values(make, field, bads, good):
    # NaN weights used to pass and turn every score into NaN (rung 1 won)
    for bad in bads:
        with pytest.raises(ValueError, match=field):
            make(**{field: bad})
    make(**{field: good})
