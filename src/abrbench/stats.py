"""Evaluation statistics: correlation criteria, the VQEG logistic
mapping, Wilcoxon signed-rank and variance-ratio tests, and pairwise
significance matrices.

Kendall's tau-b counts its pairs in O(n log n) by Knight's method (a
sort by (x, y), run lengths for ties, merge-sort inversions for
discordant pairs), with exact integer counts, so it scales to the
1,350-video panels of a full study. The Wilcoxon test uses the exact
null distribution (enumeration over sign patterns, computed by dynamic
programming over doubled ranks) up to n = 25 and a tie-corrected normal
approximation with continuity correction beyond. The F-distribution CDF
is evaluated through the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks

ROW_BETTER = "row_better"
ROW_WORSE = "row_worse"
INDISTINGUISHABLE = "indistinguishable"

_GLYPH = {ROW_BETTER: "1", ROW_WORSE: "0", INDISTINGUISHABLE: "-"}


def _finite_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValueError("inputs must be finite 1-D vectors")
    return x


def _clean_pair(x, y, min_len: int):
    x = _finite_vector(x)
    y = _finite_vector(y)
    if x.shape != y.shape:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < min_len:
        raise ValueError(f"need at least {min_len} samples, got {len(x)}")
    return x, y


def plcc(x, y) -> float:
    """Pearson linear correlation coefficient."""
    x, y = _clean_pair(x, y, 3)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("degenerate (zero-variance) input")
    return float(dx @ dy) / (sx * sy)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average rank."""
    order = np.argsort(x, kind="stable")
    first = np.flatnonzero(_run_starts(x[order]))  # sorted position where each run of ties begins
    last = np.append(first[1:], len(x)) - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def srcc(x, y) -> float:
    """Spearman rank-order correlation: Pearson on average ranks."""
    x, y = _clean_pair(x, y, 3)
    return plcc(_average_ranks(x), _average_ranks(y))


def _run_starts(v: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values begins."""
    starts = np.empty(len(v), dtype=bool)
    starts[0] = True
    np.not_equal(v[1:], v[:-1], out=starts[1:])
    return starts


def _tied_pairs(run_starts: np.ndarray) -> int:
    """Pairs inside runs of equal values, given the mask of run starts."""
    position = np.arange(len(run_starts))
    # the k-th element of a run is tied with the k - 1 before it
    return int((position - np.maximum.accumulate(np.where(run_starts, position, 0))).sum())


def _inversions(ranks: np.ndarray, m: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merge sort.

    Ranks are integers in [0, m). Each level merges pairs of sorted
    half-blocks with one stable sort keyed by ``block * m + rank``. An
    element of a right half moves left past exactly the larger elements
    of its left half, and one of a left half never moves left, so the
    level's inversions are the leftward moves summed.
    """
    position = np.arange(len(ranks))
    count = 0
    level = 0
    while (1 << level) < len(ranks):
        level += 1
        order = np.argsort((position >> level) * m + ranks, kind="stable")
        count += int(np.maximum(order - position, 0).sum())
        ranks = ranks[order]
    return count


def krcc(x, y) -> float:
    """Kendall tau-b with tie correction, in O(n log n) (Knight, JASA 1966).

    After a sort by (x, y), pairs tied in x, in y and in both come from
    run lengths, and the discordant pairs are the strict inversions of
    y in that order. Every count is an exact integer, so the value is
    the one an O(n^2) pair count gives, bit for bit:
    (C - D) / sqrt((n0 - tx)(n0 - ty)). All-tied input raises.
    """
    x, y = _clean_pair(x, y, 3)
    n = len(x)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    sorted_y = np.sort(y)
    new_x = _run_starts(xs)
    ties_x = _tied_pairs(new_x)
    ties_y = _tied_pairs(_run_starts(sorted_y))
    ties_xy = _tied_pairs(new_x | _run_starts(ys))
    discordant = _inversions(np.searchsorted(sorted_y, ys), n)
    n0 = n * (n - 1) // 2
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        raise ValueError("all-tied input")
    return (concordant - discordant) / denom


def logistic_5(s: np.ndarray, beta) -> np.ndarray:
    """VQEG 5-parameter monotone mapping."""
    b1, b2, b3, b4, b5 = beta
    with np.errstate(over="ignore"):  # exp overflow saturates to the correct limit
        return b1 * (0.5 - 1.0 / (1.0 + np.exp(b2 * (s - b3)))) + b4 * s + b5


@dataclass(frozen=True)
class LogisticFit:
    mapped: np.ndarray
    beta: tuple[float, float, float, float, float]
    converged: bool


LOGISTIC_MAX_NFEV = 2000  # the optimizer's evaluation budget per logistic fit


def fit_logistic(objective_scores, mos) -> LogisticFit:
    """Least-squares fit of the 5-parameter logistic from a deterministic start.

    Initialization: b3 = median score, |b1| = MOS range, b2 = 1/std of
    the scores, b4 = 0, b5 = mean MOS, with the sign of b1/b4 following
    the sign of the raw correlation. Sign bounds keep the fitted
    mapping monotone over the whole axis. Reports ``converged=False``
    when the optimizer hit its budget (``LOGISTIC_MAX_NFEV``
    evaluations); the best iterate is still returned.
    """
    from scipy.optimize import least_squares

    s, m = _clean_pair(objective_scores, mos, 5)
    std = s.std()
    if std == 0.0:
        raise ValueError("degenerate objective scores")
    rising = plcc(s, m) >= 0.0
    span = float(m.max() - m.min())
    x0 = np.array([span if rising else -span, 1.0 / std, float(np.median(s)), 0.0, float(m.mean())])
    if rising:
        lower = [0.0, 0.0, -np.inf, 0.0, -np.inf]
        upper = [np.inf, np.inf, np.inf, np.inf, np.inf]
    else:
        lower = [-np.inf, 0.0, -np.inf, -np.inf, -np.inf]
        upper = [0.0, np.inf, np.inf, 0.0, np.inf]
    x0 = np.clip(x0, lower, upper)

    def residuals(beta):
        return logistic_5(s, beta) - m

    result = least_squares(residuals, x0, bounds=(lower, upper), max_nfev=LOGISTIC_MAX_NFEV)
    beta = tuple(float(v) for v in result.x)
    return LogisticFit(mapped=logistic_5(s, beta), beta=beta, converged=bool(result.status > 0))


def _signed_rank_statistic(diff: np.ndarray) -> tuple[float, np.ndarray]:
    """W+ and the average ranks of |diff| (zero differences removed by caller)."""
    ranks = _average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    return w_plus, ranks


def _exact_signed_rank_p(w_plus: float, ranks: np.ndarray) -> float:
    """Two-sided exact p by DP over doubled ranks (handles tied ranks)."""
    doubled = [int(round(2.0 * r)) for r in ranks]
    total = sum(doubled)
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for d in doubled:
        shifted = np.zeros_like(counts)
        shifted[d:] = counts[: total + 1 - d]
        counts = counts + shifted
    denom = 2.0 ** len(ranks)
    w2 = int(round(2.0 * w_plus))
    p_le = counts[: w2 + 1].sum() / denom
    p_ge = counts[w2:].sum() / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_signed_rank_p(w_plus: float, ranks: np.ndarray) -> float:
    """Tie-corrected normal approximation with continuity correction."""
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var <= 0:
        return 1.0
    d = w_plus - mean
    z = (d - 0.5 * np.sign(d)) / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))


EXACT_SIGNED_RANK_LIMIT = 25  # up to this many nonzero differences the p-value is exact, beyond it normal


def wilcoxon_signed_rank(a, b, alpha: float = 0.05) -> tuple[str, float]:
    """Paired two-sided signed-rank test; direction from the rank sums.

    Zero differences are dropped first. If none remain the samples are
    identical: (indistinguishable, p = 1). Fewer than 6 nonzero
    differences cannot reach significance and raise instead.
    ``alpha`` lies strictly between 0 and 1.
    """
    alpha = checks.between("alpha", alpha, 0.0, 1.0, exclusive=True)
    a, b = _clean_pair(a, b, 0)
    diff = a - b
    diff = diff[diff != 0.0]
    n = len(diff)
    if n == 0:
        return INDISTINGUISHABLE, 1.0
    if n < 6:
        raise ValueError(f"only {n} nonzero differences; need at least 6")
    w_plus, ranks = _signed_rank_statistic(diff)
    if n <= EXACT_SIGNED_RANK_LIMIT:
        p = _exact_signed_rank_p(w_plus, ranks)
    else:
        p = _normal_signed_rank_p(w_plus, ranks)
    if p >= alpha:
        return INDISTINGUISHABLE, p
    mean = n * (n + 1) / 4.0
    return (ROW_BETTER if w_plus > mean else ROW_WORSE), p


def f_cdf(x: float, d1: float, d2: float) -> float:
    """CDF of the F distribution via the regularized incomplete beta."""
    from scipy.special import betainc

    if x <= 0:
        return 0.0
    return float(betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2)))


def f_test_variance(residuals_a, residuals_b, alpha: float = 0.05) -> tuple[str, float]:
    """Two-sided variance-ratio test; the smaller-variance side is better; ``alpha`` in (0, 1)."""
    alpha = checks.between("alpha", alpha, 0.0, 1.0, exclusive=True)
    a = _finite_vector(residuals_a)
    b = _finite_vector(residuals_b)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least 2 samples per side")
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    if var_b == 0.0:
        raise ValueError("zero variance in denominator")
    f = var_a / var_b
    cdf = f_cdf(f, len(a) - 1, len(b) - 1)
    p = min(1.0, 2.0 * min(cdf, 1.0 - cdf))
    if p >= alpha:
        return INDISTINGUISHABLE, p
    return (ROW_BETTER if var_a < var_b else ROW_WORSE), p


TESTS = ("wilcoxon", "f_test")  # the pairwise tests of ``build_significance_matrix``


@dataclass(frozen=True)
class SignificanceMatrix:
    """Pairwise better/worse/indistinguishable decisions between methods."""

    labels: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    p_values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.cells) != n or any(len(r) != n for r in self.cells):
            raise ValueError("cells must be square over labels")
        for i in range(n):
            if self.cells[i][i] != INDISTINGUISHABLE:
                raise ValueError("diagonal must be indistinguishable")
            for j in range(n):
                a, b = self.cells[i][j], self.cells[j][i]
                ok = (a == ROW_BETTER and b == ROW_WORSE) or (a == ROW_WORSE and b == ROW_BETTER) or (
                    a == b == INDISTINGUISHABLE
                )
                if not ok:
                    raise ValueError("matrix must be antisymmetric")

    def glyph_rows(self) -> list[tuple[str, ...]]:
        """One row per method: its label, then the glyph of each cell."""
        return [(label, *(_GLYPH[c] for c in row)) for label, row in zip(self.labels, self.cells)]

    def to_markdown(self) -> str:
        head = "| | " + " | ".join(self.labels) + " |"
        sep = "|" + "---|" * (len(self.labels) + 1)
        rows = [head, sep] + ["| " + " | ".join(row) + " |" for row in self.glyph_rows()]
        return "\n".join(rows) + "\n"


def build_significance_matrix(
    method_samples: dict[str, list[float]],
    test: str,
    alpha: float = 0.05,
) -> SignificanceMatrix:
    """Pairwise test over methods sampled on the same items.

    ``wilcoxon`` compares the per-item samples directly. ``f_test``
    compares the variances of per-item residuals, which the caller
    computes: each method's scores mapped through its own fitted
    logistic, minus MOS (``fit_logistic(scores, mos).mapped - mos``).
    A pair the test refuses raises ValueError naming both methods.
    """
    labels = tuple(method_samples.keys())
    lengths = {len(v) for v in method_samples.values()}
    if len(lengths) != 1:
        raise ValueError("all methods must be sampled over the same items")
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")
    alpha = checks.between("alpha", alpha, 0.0, 1.0, exclusive=True)  # also with one method and no pair
    pair_fn = wilcoxon_signed_rank if test == "wilcoxon" else f_test_variance
    data = {k: np.asarray(v, dtype=float) for k, v in method_samples.items()}

    n = len(labels)
    cells = [[INDISTINGUISHABLE] * n for _ in range(n)]
    ps = [[1.0] * n for _ in range(n)]
    flipped = {ROW_BETTER: ROW_WORSE, ROW_WORSE: ROW_BETTER, INDISTINGUISHABLE: INDISTINGUISHABLE}
    for i in range(n):
        for j in range(i + 1, n):
            with checks.naming(f"methods {labels[i]} and {labels[j]}"):
                decision, p = pair_fn(data[labels[i]], data[labels[j]], alpha)
            cells[i][j] = decision
            cells[j][i] = flipped[decision]
            ps[i][j] = ps[j][i] = p
    return SignificanceMatrix(
        labels=labels,
        cells=tuple(tuple(r) for r in cells),
        p_values=tuple(tuple(r) for r in ps),
    )
