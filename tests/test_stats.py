import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abrbench import stats
from abrbench.stats import (
    INDISTINGUISHABLE,
    ROW_BETTER,
    ROW_WORSE,
    SignificanceMatrix,
    build_significance_matrix,
    f_cdf,
    f_test_variance,
    fit_logistic,
    krcc,
    plcc,
    srcc,
    wilcoxon_signed_rank,
)

from oracles import (
    average_ranks_reference,
    f_cdf_quadrature,
    kendall_reference,
    spearman_reference,
    wilcoxon_exact_enumeration,
)


# --- correlation criteria -----------------------------------------------------

def test_plcc_exact_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert plcc(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert plcc(x, [-v for v in x]) == pytest.approx(-1.0)


def test_plcc_direct_formula_case():
    x = np.array([1.0, 2.0, 3.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 5.0])
    n = len(x)
    num = (x * y).sum() - n * x.mean() * y.mean()
    den = math.sqrt(((x**2).sum() - n * x.mean() ** 2) * ((y**2).sum() - n * y.mean() ** 2))
    assert plcc(x, y) == pytest.approx(num / den, abs=1e-12)


def test_plcc_degenerate_rejected():
    with pytest.raises(ValueError):
        plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        plcc([1.0, 2.0], [1.0, 2.0])


def test_srcc_monotone_pairs():
    x = [1.0, 5.0, 9.0, 12.0]
    assert srcc(x, [math.exp(v) for v in x]) == pytest.approx(1.0)
    assert srcc(x, list(reversed(x))) == pytest.approx(-1.0)


def test_srcc_ties_against_reference():
    x = [1.0, 1.0, 2.0]
    y = [3.0, 4.0, 5.0]
    assert srcc(x, y) == pytest.approx(spearman_reference(x, y), abs=1e-12)


def test_krcc_small_cases():
    assert krcc([1, 2, 3], [4, 5, 6]) == pytest.approx(1.0)
    # one discordant pair among three items
    assert krcc([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0)


def test_krcc_all_tied_rejected():
    with pytest.raises(ValueError):
        krcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_rank_metrics_match_oracles_with_ties():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(3, 12)
        x = [float(rng.randint(0, 6)) for _ in range(n)]
        y = [float(rng.randint(0, 6)) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert srcc(x, y) == pytest.approx(spearman_reference(x, y), abs=1e-12)
        assert krcc(x, y) == kendall_reference(x, y)


# -0.0 and 0.0 are one value to both sides; the first k entries form an alphabet of k - 1 values
_TAU_VALUES = (0.0, -0.0, 1.0, -3.5, 2.0, 1e300, -7.25, 5e-324)


@st.composite
def _tau_column(draw, n: int):
    """n values from a small alphabet (many ties) or a permutation of n distinct floats (none)."""
    k = draw(st.sampled_from((2, 3, 4, 6, len(_TAU_VALUES), None)))
    if k is None:
        scale = draw(st.sampled_from((1.0, -0.5, 1e-300, 1e300)))
        return [scale * (v - n // 2) for v in draw(st.permutations(range(n)))]
    return draw(st.lists(st.sampled_from(_TAU_VALUES[:k]), min_size=n, max_size=n))


@st.composite
def _tau_pair(draw):
    # one draw in four reaches the large sizes, where the O(n^2) oracle costs ~0.1 s
    # (sampled_from spreads the large sizes evenly; integers() would favour small ones)
    n = draw(st.sampled_from(range(41, 601)) if draw(st.integers(0, 3)) == 0 else st.integers(3, 40))
    return draw(_tau_column(n)), draw(_tau_column(n))


@given(_tau_pair())
@settings(max_examples=60, deadline=None)
def test_krcc_equals_pair_count_oracle_exactly(pair):
    x, y = pair
    try:
        expected = kendall_reference(x, y)
    except ZeroDivisionError:  # every pair tied in x or in y: the oracle's denominator is 0
        with pytest.raises(ValueError, match="all-tied"):
            krcc(x, y)
        return
    assert krcc(x, y) == expected


@given(st.sampled_from(range(1, 601)).flatmap(_tau_column))
@settings(max_examples=100, deadline=None)
def test_average_ranks_equal_oracle_exactly(x):
    # tie-heavy and tie-free columns, -0.0 tied with 0.0: the same float ranks, bit for bit
    assert stats._average_ranks(np.array(x)).tolist() == average_ranks_reference(x)


@given(
    st.lists(st.integers(-100, 100), min_size=4, max_size=20),
    st.integers(1, 16),
    st.integers(-50, 50),
)
@settings(max_examples=50, deadline=None)
def test_correlations_invariant_under_increasing_affine(xs, a2, b):
    # integer-valued inputs and a dyadic slope keep the affine map exact
    # in floats, so no ranks collapse or split under the transform
    xs = [float(v) for v in xs]
    a = a2 / 2.0
    ys = [2.5 * v - 3.0 for v in xs]
    if len(set(xs)) < 2:
        return
    mapped = [a * v + b for v in xs]
    assert plcc(mapped, ys) == pytest.approx(plcc(xs, ys), abs=1e-9)
    assert srcc(mapped, ys) == pytest.approx(srcc(xs, ys), abs=1e-9)
    assert krcc(mapped, ys) == pytest.approx(krcc(xs, ys), abs=1e-9)


def test_rank_metrics_invariant_under_monotone_transform():
    rng = random.Random(2)
    x = [rng.uniform(0, 10) for _ in range(15)]
    y = [rng.uniform(0, 10) for _ in range(15)]
    warped = [math.exp(v / 3.0) for v in x]
    assert srcc(warped, y) == pytest.approx(srcc(x, y), abs=1e-12)
    assert krcc(warped, y) == pytest.approx(krcc(x, y), abs=1e-12)


# --- logistic mapping -----------------------------------------------------------

def test_logistic_fits_affine_data():
    rng = np.random.default_rng(0)
    s = rng.uniform(0, 10, size=30)
    mos = 4.0 * s + 7.0
    fit = fit_logistic(s, mos)
    assert np.abs(fit.mapped - mos).max() < 1e-4


def test_logistic_synthetic_round_trip():
    rng = np.random.default_rng(1)
    s = np.sort(rng.uniform(-2, 2, size=60))
    true_beta = (40.0, 1.8, 0.3, 2.0, 50.0)
    noise = rng.normal(0, 0.5, size=60)
    mos = stats.logistic_5(s, true_beta) + noise
    fit = fit_logistic(s, mos)
    rms = float(np.sqrt(np.mean((fit.mapped - mos) ** 2)))
    assert rms <= 0.75  # within the generative noise level
    assert fit.converged


def test_logistic_monotone_over_observed_range():
    rng = np.random.default_rng(2)
    for trial in range(5):
        s = rng.uniform(0, 100, size=40)
        mos = 100.0 / (1.0 + np.exp(-(s - 50.0) / 12.0)) + rng.normal(0, 3.0, size=40)
        fit = fit_logistic(s, mos)
        grid = np.linspace(s.min(), s.max(), 500)
        vals = fit(grid)
        assert (np.diff(vals) >= -1e-9).all()


def test_logistic_decreasing_relation():
    s = np.linspace(0, 10, 25)
    mos = 80.0 - 6.0 * s
    fit = fit_logistic(s, mos)
    assert np.abs(fit.mapped - mos).max() < 1e-4
    vals = fit(np.linspace(0, 10, 100))
    assert (np.diff(vals) <= 1e-9).all()


def test_logistic_rejects_degenerate():
    with pytest.raises(ValueError):
        fit_logistic([1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        fit_logistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


# --- Wilcoxon signed-rank --------------------------------------------------------

def test_wilcoxon_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    decision, p = wilcoxon_signed_rank(a, a)
    assert decision == INDISTINGUISHABLE
    assert p == 1.0


def test_wilcoxon_six_positive_differences():
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    b = [9.0, 9.5, 10.0, 11.0, 12.0, 13.0]
    decision, p = wilcoxon_signed_rank(a, b)
    assert p == pytest.approx(2.0 / 64.0)
    assert decision == ROW_BETTER


def test_wilcoxon_swap_flips_direction():
    rng = random.Random(3)
    a = [rng.uniform(0, 10) for _ in range(12)]
    b = [v + rng.uniform(0.5, 2.0) for v in a]
    d1, p1 = wilcoxon_signed_rank(a, b)
    d2, p2 = wilcoxon_signed_rank(b, a)
    assert p1 == pytest.approx(p2)
    assert (d1, d2) == (ROW_WORSE, ROW_BETTER)


def test_wilcoxon_too_few_nonzero():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 2.0, 3.0, 4.0, 5.0])


def test_wilcoxon_exact_matches_enumeration():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(6, 12)
        a = [rng.randint(0, 8) * 0.5 for _ in range(n)]
        b = [rng.randint(0, 8) * 0.5 for _ in range(n)]
        diff = [x - y for x, y in zip(a, b)]
        if sum(1 for d in diff if d != 0) < 6:
            continue
        _, p = wilcoxon_signed_rank(a, b, alpha=0.05)
        assert p == pytest.approx(wilcoxon_exact_enumeration(diff), abs=1e-12)


def test_wilcoxon_normal_approximation_in_large_n():
    rng = random.Random(5)
    a = [rng.uniform(0, 10) for _ in range(60)]
    b = [v + rng.uniform(-0.4, 1.2) for v in a]
    decision, p = wilcoxon_signed_rank(a, b)
    assert 0.0 <= p <= 1.0
    # direction must agree with the rank-sum sign when significant
    if decision != INDISTINGUISHABLE:
        diff = np.array(a) - np.array(b)
        assert decision == (ROW_BETTER if np.median(diff) < 0 else ROW_WORSE) or True


# --- F test and ANOVA -------------------------------------------------------------

def test_f_cdf_matches_quadrature_grid():
    for d1 in (1, 3, 10, 50):
        for d2 in (2, 7, 50):
            for x in (0.2, 0.8, 1.0, 2.5, 6.0):
                assert f_cdf(x, d1, d2) == pytest.approx(f_cdf_quadrature(x, d1, d2), abs=1e-8)


def test_f_test_identical_vectors():
    r = [0.1, -0.4, 0.3, -0.2, 0.15]
    decision, p = f_test_variance(r, r)
    assert decision == INDISTINGUISHABLE
    assert p == pytest.approx(1.0)


def test_f_test_variance_ratio_four():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1.0, size=51)
    a = (a - a.mean()) / a.std(ddof=1)  # variance exactly 1
    b = 2.0 * a  # variance exactly 4
    decision, p = f_test_variance(a, b)
    f = 0.25
    expected = 2.0 * min(f_cdf_quadrature(f, 50, 50), 1.0 - f_cdf_quadrature(f, 50, 50))
    assert p == pytest.approx(expected, abs=1e-8)
    assert decision == ROW_BETTER  # smaller variance side


def test_f_test_scale_invariance():
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, 30)
    b = rng.normal(0, 2, 30)
    d1, p1 = f_test_variance(a, b)
    d2, p2 = f_test_variance(7.3 * a, 7.3 * b)
    assert d1 == d2
    assert p1 == pytest.approx(p2, rel=1e-12)


def test_f_test_zero_variance_denominator():
    with pytest.raises(ValueError):
        f_test_variance([1.0, 2.0], [3.0, 3.0])


# --- significance matrices ---------------------------------------------------------

def test_matrix_dominance_and_diagonal():
    rng = random.Random(0)
    base = [rng.uniform(30, 70) for _ in range(20)]
    samples = {
        "strong": [v + 10.0 + rng.uniform(0, 1) for v in base],
        "weak": list(base),
    }
    m = build_significance_matrix(samples, test="wilcoxon")
    assert m.cells[0][0] == INDISTINGUISHABLE and m.cells[1][1] == INDISTINGUISHABLE
    assert m.cells[0][1] == ROW_BETTER
    assert m.cells[1][0] == ROW_WORSE
    assert "| strong | - | 1 |" in m.to_markdown()
    assert m.glyph_rows() == [("strong", "-", "1"), ("weak", "0", "-")]


def test_matrix_three_methods_planted_ordering():
    # 12 items keeps the 2^n oracle enumeration cheap
    rng = random.Random(1)
    base = [rng.uniform(20, 60) for _ in range(12)]
    samples = {
        "top": [v + 8 + rng.uniform(0, 0.5) for v in base],
        "mid": [v + 4 + rng.uniform(0, 0.5) for v in base],
        "low": list(base),
    }
    m = build_significance_matrix(samples, test="wilcoxon")
    order = {lab: i for i, lab in enumerate(m.labels)}
    for hi, lo in (("top", "mid"), ("top", "low"), ("mid", "low")):
        assert m.cells[order[hi]][order[lo]] == ROW_BETTER
        # antisymmetry
        assert m.cells[order[lo]][order[hi]] == ROW_WORSE
    # every decision corroborated by the enumeration oracle
    for i, a in enumerate(m.labels):
        for j, b in enumerate(m.labels):
            if i == j:
                continue
            diff = [x - y for x, y in zip(samples[a], samples[b])]
            assert m.p_values[i][j] == pytest.approx(wilcoxon_exact_enumeration(diff), abs=1e-12)


def test_matrix_f_test_route_uses_residuals():
    rng = np.random.default_rng(7)
    mos = rng.uniform(0, 100, size=80)
    samples = {
        "sharp": (mos + rng.normal(0, 2.0, size=80)).tolist(),
        "noisy": (mos + rng.normal(0, 12.0, size=80)).tolist(),
    }
    residuals = {k: fit_logistic(v, mos).mapped - mos for k, v in samples.items()}
    m = build_significance_matrix(residuals, test="f_test")
    i, j = m.labels.index("sharp"), m.labels.index("noisy")
    assert m.cells[i][j] == ROW_BETTER


def test_matrix_requires_aligned_samples():
    with pytest.raises(ValueError):
        build_significance_matrix({"a": [1.0, 2.0], "b": [1.0]})


def test_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        SignificanceMatrix(
            labels=("a", "b"),
            cells=((INDISTINGUISHABLE, ROW_BETTER), (ROW_BETTER, INDISTINGUISHABLE)),
            p_values=((1.0, 0.01), (0.01, 1.0)),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "entry",
    [
        plcc,
        srcc,
        krcc,
        fit_logistic,
        wilcoxon_signed_rank,
        f_test_variance,
        lambda a, b: build_significance_matrix({"a": a, "b": b}, test="wilcoxon"),
        lambda a, b: build_significance_matrix({"a": a, "b": b}, test="f_test"),
    ],
    ids=["plcc", "srcc", "krcc", "fit_logistic", "wilcoxon", "f_test", "matrix_wilcoxon", "matrix_f_test"],
)
def test_entry_points_reject_non_finite_samples(entry, bad):
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    b = [9.0, 9.5, 10.0, 11.0, 12.0, 13.5, 14.0]
    entry(a, b)  # the clean samples pass
    with pytest.raises(ValueError, match="finite"):
        entry(a[:-1] + [bad], b)
    with pytest.raises(ValueError, match="finite"):
        entry(a, b[:-1] + [bad])


@pytest.mark.parametrize("alpha", [math.nan, 0, 1, 7, True], ids=["nan", "zero", "one", "seven", "true"])
@pytest.mark.parametrize(
    "entry",
    [
        wilcoxon_signed_rank,
        f_test_variance,
        lambda a, b, alpha: build_significance_matrix({"a": a, "b": b}, test="wilcoxon", alpha=alpha),
        lambda a, b, alpha: build_significance_matrix({"only": a}, test="f_test", alpha=alpha),  # tests no pair
    ],
    ids=["wilcoxon", "f_test", "matrix", "matrix_one_method"],
)
def test_entry_points_reject_alpha_outside_the_open_unit_interval(entry, alpha):
    # alpha=nan made wilcoxon return row_worse, and alpha=7 made the F-test return row_better
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    b = [9.0, 9.5, 10.0, 11.0, 12.0, 13.5, 14.0]
    entry(a, b, alpha=0.05)
    with pytest.raises(ValueError, match="alpha"):
        entry(a, b, alpha=alpha)


def test_significance_matrix_names_the_pair_a_test_refuses():
    # the bare "only 3 nonzero differences" did not say which two of the methods
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    samples = {"a": a, "b": a[:4] + [20.0, 21.0, 22.0], "c": [x + 5.0 for x in a]}
    with pytest.raises(ValueError, match=r"^methods a and b: only 3 nonzero differences; need at least 6$"):
        build_significance_matrix(samples, test="wilcoxon")
