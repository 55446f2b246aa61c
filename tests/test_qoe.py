import dataclasses
import math
import random
import sys

import pytest

from abrbench import qoe
from abrbench.media import Manifest, Representation
from abrbench.qoe import KsqiParams, evaluate
from abrbench.simulator import PlayerConfig, SessionLog, SessionRecord, to_record


def rec(qualities, bitrates=None, stalls=(), startup=0.0, seg=4.0):
    if bitrates is None:
        bitrates = [q * 40.0 for q in qualities]
    return SessionRecord(
        segment_duration_s=seg,
        qualities=tuple(qualities),
        bitrates_kbps=tuple(bitrates),
        stalls=tuple(stalls),
        startup_delay_s=startup,
    )


# --- hand-computed values under default parameters ---------------------------

def test_yin2015_hand_value():
    r = rec([50, 50, 50], bitrates=[1050.0, 1750.0, 1050.0], stalls=[(4.0, 2.0)])
    # 3.85 - 1.4 - 4.3*2 = -6.15
    assert qoe.qoe_yin2015(r) == pytest.approx(-6.15)


def test_yin2015_stall_free_sum():
    r = rec([50] * 4, bitrates=[2000.0] * 4)
    assert qoe.qoe_yin2015(r) == pytest.approx(8.0)


def test_yin2015_permutation_moves_only_switching():
    a = rec([50, 50, 50], bitrates=[1000.0, 3000.0, 2000.0])
    b = rec([50, 50, 50], bitrates=[1000.0, 2000.0, 3000.0])
    assert qoe.qoe_yin2015(a, lam=0.0) == pytest.approx(qoe.qoe_yin2015(b, lam=0.0))
    assert qoe.qoe_yin2015(a) != qoe.qoe_yin2015(b)


def test_bentaleb2016_hand_value():
    r = rec([60, 80, 60], stalls=[(4.0, 1.0)])
    # 200 - 0.5*40 - 50*1 = 130
    assert qoe.qoe_bentaleb2016(r) == pytest.approx(130.0)


def test_bentaleb2016_constant_quality_sum():
    r = rec([70, 70, 70])
    assert qoe.qoe_bentaleb2016(r) == pytest.approx(210.0)


def test_bentaleb_differs_from_yin_only_by_quality_substitution():
    r = rec([60, 80, 60], bitrates=[60.0, 80.0, 60.0], stalls=[(4.0, 1.0)])
    # with bitrates (in Mb/s terms) numerically equal to qualities/1000 the
    # forms coincide once the coefficients match
    yin = qoe.qoe_yin2015(r, lam=0.5, mu=50.0, mu_s=0.0)
    ben = qoe.qoe_bentaleb2016(r, lam=0.5, mu=50.0, mu_s=0.0)
    assert ben - yin == pytest.approx(sum(r.qualities) - sum(b / 1000 for b in r.bitrates_kbps)
                                      - 0.5 * (40.0 - 0.04))


def test_ftw_values():
    assert qoe.qoe_ftw(rec([50] * 4)) == pytest.approx(5.0)
    one_stall = rec([50] * 4, stalls=[(8.0, 2.0)])
    assert qoe.qoe_ftw(one_stall) == pytest.approx(3.5 * math.exp(-0.49) + 1.5)
    # the formula value is 3.64419...; 3.645 is its loose rounding
    assert qoe.qoe_ftw(one_stall) == pytest.approx(3.644, abs=1e-3)


def test_ftw_decreases_with_stall_count():
    prev = qoe.qoe_ftw(rec([50] * 8))
    for n in range(1, 5):
        cur = qoe.qoe_ftw(rec([50] * 8, stalls=[(4.0 * k, 1.5) for k in range(1, n + 1)]))
        assert cur < prev
        prev = cur


def test_mok2011_values():
    pristine = rec([50] * 4)
    assert qoe.qoe_mok2011(pristine) == pytest.approx(4.23)
    worst = rec([50] * 4, stalls=[(4.0, 6.0), (8.0, 7.0), (12.0, 8.0)], startup=9.0)
    # all levels at 2: 4.23 - 2*(0.0672 + 0.742 + 0.106) = 2.3996
    assert qoe.qoe_mok2011(worst) == pytest.approx(4.23 - 2 * (0.0672 + 0.742 + 0.106))
    assert qoe.qoe_mok2011(worst) == pytest.approx(2.3996)


def test_mok2011_levels_clamp():
    desperate = rec([50] * 2, stalls=[(0.0, 500.0)] * 4, startup=500.0)
    assert qoe.qoe_mok2011(desperate) == pytest.approx(2.3996)


def test_model_params_check_values_once_and_return_floats():
    assert qoe.model_params("yin2015", {"lam": 2, "mu": 0}) == {"lam": 2.0, "mu": 0.0}
    assert type(qoe.model_params("ftw", {"a": 3})["a"]) is float
    assert qoe.model_params("sqi", {"tau_memory_s": math.inf}) == {"tau_memory_s": math.inf}  # its default: no decay
    assert qoe.model_params("sqi", {"tau_memory_s": 30}) == {"tau_memory_s": 30.0}
    assert qoe.model_params("mok2011", {}) == {}
    for model_id, params, key in (
        ("yin2015", {"mu": True}, "mu"),
        ("yin2015", {"lam": "2"}, "lam"),
        ("bentaleb2016", {"mu": -1.0}, "mu"),
        ("ftw", {"c": math.nan}, "c"),
        ("liu2012", {"c1": math.inf}, "c1"),
        ("xue2014", {"r_min_kbps": 0}, "r_min_kbps"),
        ("spiteri2016", {"r_min_kbps": math.inf}, "r_min_kbps"),
        ("sqi", {"tau_memory_s": -1}, "tau_memory_s"),
        ("sqi", {"tau_memory_s": 0}, "tau_memory_s"),
        ("sqi", {"tau_memory_s": -math.inf}, "tau_memory_s"),
        ("mok2011", {"coeffs": (4.0, 0.0, 0.0, 0.0)}, "coeffs"),
    ):
        with pytest.raises(ValueError, match=key):
            qoe.model_params(model_id, params)


def test_liu2012_values():
    assert qoe.qoe_liu2012(rec([50] * 3, bitrates=[2000.0] * 3)) == pytest.approx(2.0)
    # 30 s content, 10 s stall, mean 2 Mb/s -> 2 - 4*0.25 = 1.0
    r = SessionRecord(5.0, (50.0,) * 6, (2000.0,) * 6, ((5.0, 10.0),), 0.0)
    assert qoe.qoe_liu2012(r) == pytest.approx(1.0)


def test_liu2012_ratio_bounded():
    r = rec([50] * 3, bitrates=[1000.0] * 3, stalls=[(4.0, 500.0)])
    ratio = 500.0 / (500.0 + 12.0)
    assert qoe.qoe_liu2012(r) == pytest.approx(1.0 - 4.0 * ratio)
    assert 0 <= ratio < 1


def test_xue2014_values():
    base = rec([50] * 3, bitrates=[235.0] * 3)
    assert qoe.qoe_xue2014(base) == pytest.approx(0.0)
    r = rec([50] * 2, bitrates=[470.0, 470.0], stalls=[(4.0, 1.0)])
    assert qoe.qoe_xue2014(r) == pytest.approx(2 * math.log(2) - 1.0)


def test_xue2014_scale_invariance():
    r1 = rec([50] * 3, bitrates=[500.0, 900.0, 700.0])
    r2 = rec([50] * 3, bitrates=[5000.0, 9000.0, 7000.0])
    assert qoe.qoe_xue2014(r1, r_min_kbps=235.0) == pytest.approx(qoe.qoe_xue2014(r2, r_min_kbps=2350.0))


def test_spiteri2016_values():
    base = rec([50] * 3, bitrates=[235.0] * 3)
    assert qoe.qoe_spiteri2016(base) == pytest.approx(0.0)
    stalled = rec([50] * 3, bitrates=[235.0] * 3, stalls=[(4.0, 3.0)])
    assert qoe.qoe_spiteri2016(stalled) == pytest.approx(-6.0)
    r = rec([50] * 4, bitrates=[700.0, 900.0, 500.0, 235.0], stalls=[(4.0, 2.0)])
    assert qoe.qoe_spiteri2016(r, gamma=0.0) == pytest.approx(qoe.qoe_xue2014(r, rho=0.0))


def test_sqi_values():
    assert qoe.qoe_sqi(rec([40, 60, 80, 100])) == pytest.approx(70.0)
    r = rec([40, 60, 80, 100], stalls=[(0.0, 2.0)])
    assert qoe.qoe_sqi(r) == pytest.approx(70.0 - 0.5)


def test_sqi_decay_non_increasing_in_position():
    prev = None
    for pos in (0.0, 4.0, 8.0, 12.0):
        r = rec([50] * 5, stalls=[(pos, 2.0)])
        score = qoe.qoe_sqi(r, u0=1.0, u1=0.0, tau_memory_s=10.0)
        if prev is not None:
            assert score >= prev  # smaller penalty later
        prev = score


def test_ksqi_values():
    assert qoe.qoe_ksqi(rec([70, 70, 70])) == pytest.approx(70.0)
    r = rec([80, 60, 80])
    # mean 73.333 - (0.5*20 + 0.1*20)/3 = 69.333
    assert qoe.qoe_ksqi(r) == pytest.approx(69.33333333333333)


def test_ksqi_invariant_enforced():
    with pytest.raises(ValueError):
        KsqiParams(beta_neg=0.1, beta_pos=0.2)
    with pytest.raises(ValueError):
        KsqiParams(c0=-1.0)


def test_ksqi_negative_switch_costs_at_least_positive():
    down = qoe.qoe_ksqi(rec([80, 60]))
    up = qoe.qoe_ksqi(rec([60, 80]))
    assert down <= up


def test_ksqi_stall_penalty_scales_with_quality_before():
    # the stall term grows with (100 - q_before): interrupting already
    # degraded playback compounds the damage
    good = rec([90, 90, 90], stalls=[(4.0, 2.0)])
    poor = rec([30, 30, 30], stalls=[(4.0, 2.0)])
    pen_good = 90.0 - qoe.qoe_ksqi(good)
    pen_poor = 30.0 - qoe.qoe_ksqi(poor)
    assert pen_poor > pen_good > 0.0


@pytest.mark.parametrize("seg", [0.3, 1.1])
def test_a_stall_charges_the_chunk_just_played_at_any_segment_duration(seg):
    # to_record writes the stall before each chunk at a multiple of seg
    # computed in floating point, which at 0.3 and 1.1 s may divide back to
    # just above its boundary; each stall still charges the chunk just
    # played, as in the same record at 4 s, whose multiples are exact
    n = 41
    qualities = [[10.0 + 2.0 * k] for k in range(n)]  # a different quality for every chunk
    manifest = Manifest(seg, (Representation(1, 320, 180, 1000.0),), [[1e6 * seg]] * n, qualities)
    stalls = tuple(((k - 1) * seg, 0.5 + 0.01 * k) for k in range(2, n + 1))  # run_session's, before chunks 2..n
    log = SessionLog(choices=(1,) * n, download_spans=((0.0, 1.0),) * n, startup_delay_s=0.5, stalls=stalls,
                     total_wall_time_s=100.0)
    record = to_record(log, manifest, PlayerConfig())
    assert len(record.stalls) == record.segment_count == n - 1
    whole = dataclasses.replace(record, segment_duration_s=4.0,
                                stalls=tuple((4.0 * j, d) for j, (_, d) in enumerate(record.stalls)))
    assert qoe.qoe_sqi(record, u1=0.5) == qoe.qoe_sqi(whole, u1=0.5)
    assert qoe.qoe_ksqi(record) == qoe.qoe_ksqi(whole)


# --- registry and shared properties -------------------------------------------

def test_evaluate_dispatch_matches_direct_calls():
    r = rec([60, 70, 80], bitrates=[1000.0, 2000.0, 1500.0], stalls=[(4.0, 1.0)])
    for model_id, fn in qoe.MODELS.items():
        assert evaluate(model_id, r) == pytest.approx(fn(r))


NON_DEFAULT_COEFFICIENTS = {  # every coefficient of every model moved off its default
    "yin2015": {"lam": 2.0, "mu": 1.5, "mu_s": 0.5},
    "bentaleb2016": {"lam": 0.25, "mu": 10.0, "mu_s": 1.0},
    "ftw": {"a": 3.0, "b_len": 0.2, "b_cnt": 0.1, "c": 1.0},
    "mok2011": {},
    "liu2012": {"c1": 2.0, "c2": 0.5},
    "xue2014": {"rho": 2.0, "r_min_kbps": 300.0},
    "spiteri2016": {"gamma": 3.0, "r_min_kbps": 300.0},
    "sqi": {"u0": 0.5, "u1": 0.02, "tau_memory_s": 30.0},
    "ksqi": {"c0": 0.8, "c1": 4.0, "c2": 0.1, "beta_neg": 0.6, "beta_pos": 0.2},
}


def test_evaluate_takes_model_params_for_every_model():
    r = rec([60, 70, 80], bitrates=[1000.0, 2000.0, 1500.0], stalls=[(4.0, 1.0)])
    assert NON_DEFAULT_COEFFICIENTS.keys() == qoe.MODELS.keys()
    assert qoe.model_params("ksqi", {}) == {"params": KsqiParams()}
    for model_id, params in NON_DEFAULT_COEFFICIENTS.items():
        fn = qoe.MODELS[model_id]
        direct = fn(r, KsqiParams(**params)) if model_id == "ksqi" else fn(r, **params)
        assert evaluate(model_id, r, qoe.model_params(model_id, params)) == direct, model_id
        assert (direct != fn(r)) == bool(params), model_id  # the coefficients reached the model


def test_evaluate_unknown_model():
    with pytest.raises(ValueError):
        evaluate("nope", rec([50]))


def test_empty_record_rejected():
    # a record is checked when it is built, so no model ever sees an empty one
    with pytest.raises(ValueError, match="at least one segment"):
        SessionRecord(4.0, (), (), (), 0.0)


def test_monotone_degradation_fuzz():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 10)
        qualities = [rng.uniform(20.0, 95.0) for _ in range(n)]
        bitrates = [rng.uniform(300.0, 12000.0) for _ in range(n)]
        stalls = []
        pos = 0.0
        for _ in range(rng.randint(0, 3)):
            pos += rng.uniform(0.0, 8.0)
            if pos < n * 4.0:
                stalls.append((pos, rng.uniform(0.2, 5.0)))
        base = rec(qualities, bitrates, stalls)

        extra = sorted(stalls + [(rng.uniform(0.0, n * 4.0), rng.uniform(0.5, 4.0))])
        stalled = rec(qualities, bitrates, extra)

        k = rng.randrange(n)
        dropped_q = list(qualities)
        dropped_q[k] = dropped_q[k] * rng.uniform(0.2, 0.9)
        dropped = rec(dropped_q, bitrates, stalls)

        for model_id in qoe.MODELS:
            s0 = evaluate(model_id, base)
            assert evaluate(model_id, stalled) <= s0 + 1e-9, model_id
            assert evaluate(model_id, dropped) <= s0 + 1e-9, model_id


def test_segment_duration_only_enters_time_ratio_models():
    # same per-segment values and stall events under a different
    # duration label: only the content-time models may move
    base = rec([60, 70, 80], bitrates=[1000.0, 2000.0, 1500.0], stalls=[(4.0, 1.5)], seg=4.0)
    slow = rec([60, 70, 80], bitrates=[1000.0, 2000.0, 1500.0], stalls=[(4.0, 1.5)], seg=8.0)
    for model_id in qoe.MODELS:
        a = evaluate(model_id, base)
        b = evaluate(model_id, slow)
        if model_id == "liu2012":
            assert a != pytest.approx(b)  # rebuffer ratio sees content time
        elif model_id == "mok2011":
            pass  # stall frequency enters, but ternary levels may absorb it
        else:
            assert a == pytest.approx(b)


def test_external_model_stub(tmp_path):
    script = tmp_path / "const_model.py"
    script.write_text("import sys, json\ndoc = json.load(sys.stdin)\nprint(41.5)\n")
    score = qoe.evaluate_external("stub_model", rec([50, 60]), [sys.executable, str(script)])
    assert type(score) is float and score == 41.5
    # nothing is registered: the id stays unknown to evaluate
    with pytest.raises(ValueError, match="unknown QoE model"):
        evaluate("stub_model", rec([50, 60]))


def test_an_external_entry_takes_the_built_in_path(tmp_path):
    # model_params checks an entry's command and evaluate runs it, as for a built-in model
    script = tmp_path / "mean_quality.py"
    script.write_text("import sys, json\nq = json.load(sys.stdin)['qualities']\nprint(sum(q) / len(q))\n")
    command = [sys.executable, str(script)]
    params = qoe.model_params("ext", {"command": command})
    assert params == {"command": command}
    for r in (rec([50, 60]), rec([20, 90, 40], stalls=((4.0, 1.5),))):
        assert evaluate("ext", r, params) == qoe.evaluate_external("ext", r, command)
    unknown = r"^unknown key 'lam' in an external model; expected one of \['command', 'id'\]$"
    with pytest.raises(ValueError, match=unknown):
        qoe.model_params("ext", {"command": command, "lam": 1.0})
    with pytest.raises(ValueError, match="^command must be a non-empty list of strings, got 'python x.py'$"):
        qoe.model_params("ksqi", {"command": "python x.py"})


@pytest.mark.parametrize("output", ["", "\n  \n"], ids=["nothing", "blank_lines"])
def test_external_model_that_prints_no_score_is_named(tmp_path, output):
    # an IndexError (list index out of range) named neither the model nor the cause
    script = tmp_path / "silent_model.py"
    script.write_text(f"import sys\nsys.stdin.read()\nsys.stdout.write({output!r})\n")
    with pytest.raises(ValueError, match="external QoE model silent printed no score"):
        qoe.evaluate_external("silent", rec([50, 60]), [sys.executable, str(script)])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_score_is_refused_on_both_paths(tmp_path, monkeypatch, value):
    script = tmp_path / "bad_model.py"
    script.write_text(f"import sys\nsys.stdin.read()\nprint({value!r})\n")
    with pytest.raises(ValueError, match="^non-finite QoE score from bad_external$"):
        qoe.evaluate_external("bad_external", rec([50, 60]), [sys.executable, str(script)])
    monkeypatch.setitem(qoe.MODELS, "bad_builtin", lambda record: float(value))
    with pytest.raises(ValueError, match="^non-finite QoE score from bad_builtin$"):
        evaluate("bad_builtin", rec([50, 60]))


# --- the models against the reference loops in tests/oracles.py ---------------

def oracle_records(seed, count=60):
    """Seeded records with stalls at position 0 and on segment boundaries, repeated qualities and ints."""
    rng = random.Random(seed)
    for k in range(count):
        n, seg = rng.randint(1, 90), rng.choice((1.0, 2.0, 4.0, 6.0))
        levels = [0.0, -0.0, 100.0, 37.5, 62.25, 80.0, 80, 45] + [rng.uniform(0.0, 100.0) for _ in range(4)]
        qualities = []
        for _ in range(n):  # runs of one level, so many switches are 0
            qualities.append(qualities[-1] if qualities and rng.random() < 0.4 else rng.choice(levels))
        bitrates = [rng.choice((235, 1050.0, 4300.0, rng.uniform(100.0, 20000.0))) for _ in range(n)]
        positions = sorted({0.0, *(seg * rng.randint(0, n) for _ in range(3)), rng.uniform(0.0, n * seg)})
        stalls = [(p, rng.choice((0.25, 1, rng.uniform(0.01, 9.0)))) for p in positions if rng.random() < 0.7]
        yield SessionRecord(seg, qualities, bitrates, stalls, rng.choice((0.0, 1, rng.uniform(0.0, 6.0))))
        if k % 5 == 0:
            yield SessionRecord(seg, qualities, bitrates, (), 0.0)  # no stall at all


ORACLE_PARAMS = [  # (model, library keywords, oracle keywords): defaults, the non-default set, and edge cases
    *((m, {}, {"params": KsqiParams()} if m == "ksqi" else {}) for m in qoe.MODELS),
    *((m, qoe.model_params(m, p), {"params": KsqiParams(**p)} if m == "ksqi" else p)
      for m, p in NON_DEFAULT_COEFFICIENTS.items()),
    ("ksqi", {"params": KsqiParams(0.0, 0.0, 0.0, 0.0, 0.0)}, {"params": KsqiParams(0.0, 0.0, 0.0, 0.0, 0.0)}),
    ("ksqi", {"params": KsqiParams(beta_neg=0.3, beta_pos=0.3)}, {"params": KsqiParams(beta_neg=0.3, beta_pos=0.3)}),
    ("ksqi", {"params": KsqiParams(beta_neg=0.7, beta_pos=0.0)}, {"params": KsqiParams(beta_neg=0.7, beta_pos=0.0)}),
    ("sqi", {"tau_memory_s": 5.0, "u1": 0.5}, {"tau_memory_s": 5.0, "u1": 0.5}),
]


def test_models_equal_the_reference_loops_bit_for_bit():
    import oracles

    records = list(oracle_records(seed=2024))
    assert any(r.stalls and r.stalls[0][0] == 0.0 for r in records)
    assert any(p % r.segment_duration_s == 0.0 < p for r in records for p, _ in r.stalls)
    for model_id, params, oracle_params in ORACLE_PARAMS:
        for r in records:
            got, want = qoe.MODELS[model_id](r, **params), oracles.QOE_MODELS[model_id](r, **oracle_params)
            assert repr(got) == repr(want), (model_id, params, r)
            assert evaluate(model_id, r, params) == want
