"""Self-contained statistical kernel.

Implements the estimators the report pipeline needs (Spearman rank
correlation, ordinary least squares through ``LinearDesign``, one-way
ANOVA, a power-based sample size search) without runtime dependencies
beyond numpy.  Student-t and F tail probabilities are both routed
through one regularized incomplete beta implementation so every p-value
in the package shares a single numerical core.

Regression computes only what is read.  The rank check factors the
design by Householder QR, reads each column's dependence from R (the
prefix-SVD rank test is referee for any column R cannot settle), and
its last factor is the fit's; a fit keeps coefficients, standard errors,
t values and degrees of freedom, and a coefficient's t-test p-value is
evaluated when read.  Spearman's rho is one formula over centred ranks,
which can be taken within groups (sonnets, say) all in one sort; a
column's ranks r are constant exactly when r @ r == 0.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "AnovaResult",
    "CorrelationResult",
    "LinearDesign",
    "RegressionResult",
    "centred_ranks",
    "correlation_band",
    "group_mean",
    "min_sample_size",
    "one_way_anova",
    "rank_correlation",
    "ranking",
    "regularized_incomplete_beta",
    "spearman",
    "t_tail",
    "two_sample_power",
]

_BETA_MAX_ITER = 300
_BETA_EPS = 1e-15
_BETA_TINY = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for numer in (even, odd):
            d = 1.0 + numer * d
            if abs(d) < _BETA_TINY:
                d = _BETA_TINY
            c = 1.0 + numer / c
            if abs(c) < _BETA_TINY:
                c = _BETA_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Uses the continued fraction expansion with the standard symmetry
    switch at x = (a + 1) / (a + b + 2); either branch then converges
    quickly and the result is accurate to well below 1e-10 across the
    parameter ranges the t and F tails use.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def t_tail(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t.

    Evaluated as I_x(df/2, 1/2) with x = df / (df + t^2).
    """
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def _f_tail(f: float, df1: float, df2: float) -> float:
    """Upper tail P(F >= f) for the F distribution."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


_CORRELATION_BANDS = (
    (0.1, "negligible"),
    (0.4, "weak"),
    (0.7, "moderate"),
    (0.9, "strong"),
)


def correlation_band(rho: float) -> str:
    """Qualitative strength label for a correlation, judged on |rho|.

    Below 0.1 negligible, then weak, moderate, strong, and very strong
    from 0.9 upward.  Band edges belong to the higher band.
    """
    r = abs(rho)
    if r > 1.0 + 1e-9:
        raise ValueError("correlation outside [-1, 1]")
    for edge, label in _CORRELATION_BANDS:
        if r < edge:
            return label
    return "very strong"


def group_mean(groups: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per group 0..size-1, the mean of its values that are not NaN, and their count.

    ``groups[i]`` is the group of ``values[i]``.  A group's values are
    added in array order from 0.0, as a left-to-right ``sum`` adds them;
    a group with no value has mean NaN.
    """
    given = ~np.isnan(values)
    groups, values = groups[given], values[given]
    count = np.bincount(groups, minlength=size)
    with np.errstate(invalid="ignore"):
        return np.bincount(groups, values, size) / count, count


class CorrelationResult(NamedTuple):
    """Spearman correlation outcome; ``rho`` is None when undefined."""

    rho: float | None
    n: int
    band: str | None
    undefined_reason: str | None = None


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with average ranks for ties.

    NaN in either input raises ``ValueError``.  A constant input (its
    centred ranks r have r @ r == 0) leaves the coefficient undefined;
    the result then carries a reason instead of a value.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or yv.ndim != 1 or len(xv) != len(yv):
        raise ValueError("x and y must be one-dimensional and equally long")
    if len(xv) < 2:
        raise ValueError("need at least two paired observations")
    for name, values in (("x", xv), ("y", yv)):
        if np.isnan(values).any():
            raise ValueError(f"{name} holds NaN; drop the unpaired observations first")
    return rank_correlation(ranking(xv), ranking(yv))


def centred_ranks(values: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
    """Average ranks within each group, minus the group's mean rank (m + 1) / 2.

    ``groups[i]`` is the group of ``values[i]`` (one group by default).
    Ties are the runs of equal values in a sort by (group, value); NaN
    equals nothing, so each NaN is a run of its own.  A centred rank is
    an exact multiple of 0.5, so sums of their products are exact in any
    order.
    """
    groups = np.zeros(len(values), np.intp) if groups is None else groups
    order = np.lexsort((values, groups))
    sorted_vals, sorted_groups = values[order], groups[order]
    # run edges: 0, every position whose group or value differs from the one before, n
    is_edge = np.ones(len(values) + 1, dtype=bool)
    is_edge[1:-1] = (sorted_vals[1:] != sorted_vals[:-1]) | (sorted_groups[1:] != sorted_groups[:-1])
    edges = np.flatnonzero(is_edge)
    starts, sizes = edges[:-1], np.diff(edges)
    counts = np.bincount(groups)
    group = sorted_groups[starts]
    # a run at positions p..p+s-1 of its group of m: centred rank p + (s - m) / 2
    at = starts - (np.cumsum(counts) - counts)[group]
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat(0.5 * (2 * at + sizes - counts[group]), sizes)
    return ranks


def ranking(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The ``centred_ranks`` r of one column, and r @ r (0 exactly when the column is constant)."""
    ranks = centred_ranks(values)
    return ranks, float(ranks @ ranks)


def rank_correlation(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> CorrelationResult:
    """Spearman's rho of two equally long ``ranking``s.

    r @ r == 0 means that column is constant: the test is exact, since
    centred ranks are multiples of 0.5.  The result then says "x is
    constant" (checked first) or "y is constant" instead of a value.  A
    caller that pairs one column with many ranks it once.
    """
    (rx, rx_rx), (ry, ry_ry) = x, y
    if rx_rx == 0.0:
        return CorrelationResult(None, len(rx), None, "x is constant")
    if ry_ry == 0.0:
        return CorrelationResult(None, len(rx), None, "y is constant")
    rho = max(-1.0, min(1.0, float(rx @ ry) / math.sqrt(rx_rx * ry_ry)))
    return CorrelationResult(rho, len(rx), correlation_band(rho))


def _t_test_p_value(beta: float, se: float, t: float, dof: int) -> float:
    """Two-sided t-test p-value of one coefficient.

    A zero standard error (an exact fit) gives 0 for a non-zero
    coefficient and 1 for a zero one.
    """
    if se == 0.0:
        return 0.0 if beta != 0.0 else 1.0
    return t_tail(t, dof)


class RegressionResult(NamedTuple):
    """OLS fit summary.  Per-predictor vectors exclude the intercept.

    A fit keeps coefficients, standard errors and t values; the p-values
    are read-time views that evaluate one coefficient's two-sided t-test
    (``p_value``) on each read, so a caller that needs one predictor's
    p-value pays for that one only.
    """

    coefficients: tuple[float, ...]
    intercept: float
    std_errors: tuple[float, ...]
    intercept_std_error: float
    t_values: tuple[float, ...]
    intercept_t_value: float
    r_squared: float
    adjusted_r_squared: float
    n: int
    k: int

    @property
    def dof(self) -> int:
        """Residual degrees of freedom, n - k - 1."""
        return self.n - self.k - 1

    def p_value(self, j: int) -> float:
        """Two-sided t-test p-value of predictor ``j`` (its index in ``coefficients``)."""
        return _t_test_p_value(
            self.coefficients[j], self.std_errors[j], self.t_values[j], self.dof
        )

    @property
    def p_values(self) -> tuple[float, ...]:
        return tuple(self.p_value(j) for j in range(self.k))

    @property
    def intercept_p_value(self) -> float:
        return _t_test_p_value(
            self.intercept, self.intercept_std_error, self.intercept_t_value, self.dof
        )


# How far, as a factor, the bounds read from R must clear the rank test's
# threshold before they decide a column.  It absorbs the rounding of the
# QR factor and of the SVD whose decision they stand in for.
_RANK_MARGIN = 100.0
_RTOL = 1e-10  # the rank test's threshold, relative to the largest singular value


def _svd_rank(columns: np.ndarray, rtol: float) -> int:
    """Numerical rank: the singular values above rtol times the largest."""
    if columns.shape[1] == 0:
        return 0
    s = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(s > rtol * s[0])) if s[0] > 0.0 else 0


def _factor(columns: np.ndarray) -> tuple:
    """Householder QR of ``columns``: Q, R, R_s^-1 and two bounds per column p.

    R_s is R's leading block up to its first zero on the diagonal, or all
    of R.  The bounds are first |R_pp|, the distance of column p from the
    span of the columns before it; then 1 / ||R_p^-1||_F, with R_p the
    leading (p+1) x (p+1) block, a lower bound on the smallest singular
    value of the first p + 1 columns.  Where R has no such entry or block
    (more columns than rows, or a zero on the diagonal at or before p)
    they read inf and 0, which decide nothing.
    """
    m = columns.shape[1]
    q, r = np.linalg.qr(columns)
    distance = np.abs(np.diagonal(r))
    zeros = np.flatnonzero(distance == 0.0)
    size = int(zeros[0]) if len(zeros) else len(distance)
    with np.errstate(all="ignore"):
        inverse = np.linalg.inv(r[:size, :size])
        floor = 1.0 / np.sqrt(np.cumsum(np.einsum("ij,ij->j", inverse, inverse)))
    return q, r, inverse, (
        distance.tolist() + [math.inf] * (m - len(distance)),
        floor.tolist() + [0.0] * (m - size),
    )


def _dependent_columns(
    design: np.ndarray, factor: tuple | None = None
) -> tuple[list[int], tuple | None]:
    """Indices of design columns linearly dependent on earlier columns, and a QR factor.

    Column j is dependent when the columns up to j have the same
    numerical rank as the columns before j, a rank counting the singular
    values above ``_RTOL`` times the largest.  So the first occurrence of
    each direction is kept and later duplicates are the ones reported.

    One pass in column order over a Householder QR factor R decides most
    columns without an SVD (Golub & Van Loan, *Matrix Computations*,
    5.2 and 5.4).  With K the columns kept before j and E the summed
    squared distances of the columns found dependent from K's span, the
    prefix ending at j has:

    - a largest singular value between its largest column norm and its
      Frobenius norm;
    - at least |K| singular values of 1 / ||R_K^-1||_F or more, and
      |K| + 1 of 1 / ||R_(K+j)^-1||_F or more, since dropping columns
      lowers no singular value;
    - at most |K| singular values above sqrt(E + |R_jj|^2).

    Column j is decided from R when these settle both prefix ranks with
    the factor ``_RANK_MARGIN`` to spare; a zero column is dependent; any
    other column goes to the referee, which compares the SVD ranks of
    the two prefixes and so is the prefix-SVD test itself.  After a
    dependent column the columns still to decide are factored again,
    after K and without it, so R always describes K.  The last pass's
    ``_factor`` is returned: the design's without its dependent columns,
    or None if one ended that pass.  A ``factor`` given is the design's
    own, and the first pass reads it instead of factoring.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    largest = np.maximum.accumulate(norms).tolist()
    frobenius = np.sqrt(np.cumsum(norms * norms)).tolist()
    norms = norms.tolist()
    kept: list[int] = []
    dependent: list[int] = []
    residual2 = 0.0
    pending = list(range(design.shape[1]))
    while pending:
        columns = kept + pending
        factor = factor or _factor(design[:, columns])
        distance, floor = factor[3]
        pending = []
        for p in range(len(kept), len(columns)):
            j = columns[p]
            limit = _RANK_MARGIN * _RTOL * frobenius[j]
            settled = (p == 0 or floor[p - 1] > limit) and (
                residual2 == 0.0 or _RANK_MARGIN * math.sqrt(residual2) <= _RTOL * largest[j - 1]
            )
            if norms[j] == 0.0:
                independent = False
            elif settled and floor[p] > limit:
                independent = True
            elif settled and (
                _RANK_MARGIN * math.sqrt(residual2 + distance[p] ** 2) <= _RTOL * largest[j]
            ):
                independent = False
            else:
                independent = _svd_rank(design[:, :j + 1], _RTOL) != _svd_rank(design[:, :j], _RTOL)
            if independent:
                kept.append(j)
                continue
            dependent.append(j)
            if norms[j] != 0.0:
                residual2 += distance[p] ** 2
            pending = columns[p + 1:]
            factor = None
            break
    return dependent, factor


class LinearDesign:
    """A checked and factored OLS design: an implicit intercept plus X.

    The constructor does everything that depends on the predictors only:
    the shape checks and the rank check (see ``_dependent_columns``,
    relative tolerance 1e-10).  It drops the dependent columns a check
    finds and checks the rest again, reusing the factor that check handed
    on, until a check finds none; that last QR pass factors the design
    into Q, R and R^-1.  ``dropped`` holds each check's labels, in order,
    and ``columns`` the predictors kept.  ``fit`` then solves one response
    against that factorization, so several responses on one design share
    the work and each gets the same floats as a design of the kept
    columns alone; its p-values are evaluated on read.
    """

    def __init__(self, X: Sequence[Sequence[float]], column_names: Sequence[str] | None = None):
        Xm = np.asarray(X, dtype=float)
        if Xm.ndim == 1:
            Xm = Xm.reshape(-1, 1)
        if Xm.ndim != 2:
            raise ValueError("X must be n x k")
        n, k = Xm.shape
        if column_names is not None and len(column_names) != k:
            raise ValueError("column_names length must match the number of predictors")
        if n < k + 2:
            raise ValueError(
                f"need more observations than predictors plus intercept (n={n}, k={k})"
            )
        # C-ordered whatever X's layout: ``design @ beta`` rounds by the layout
        design = np.ascontiguousarray(np.column_stack([np.ones(n), Xm]))
        labels = ["intercept"] + (
            list(column_names) if column_names is not None else [f"x{j}" for j in range(k)]
        )
        self.dropped: list[list[str]] = []
        dependent, factor = _dependent_columns(design)
        while dependent:
            self.dropped.append([labels[j] for j in dependent])
            keep = [j for j in range(len(labels)) if j not in dependent]
            design = np.ascontiguousarray(design[:, keep])
            labels = [labels[j] for j in keep]
            dependent, factor = _dependent_columns(design, factor=factor)
        self.columns = labels[1:]
        self.n = n
        self.k = len(self.columns)
        self._design = design
        self._q, self._r, r_inv, _ = factor
        self._cov_diag = np.diag(r_inv @ r_inv.T)

    def fit(self, y: Sequence[float]) -> RegressionResult:
        """Least-squares fit of one response; its t-test p-values are read lazily."""
        yv = np.asarray(y, dtype=float)
        n, k = self.n, self.k
        if yv.ndim != 1 or len(yv) != n:
            raise ValueError(f"y must be one-dimensional of length n={n}")
        beta = np.linalg.solve(self._r, self._q.T @ yv)
        resid = yv - self._design @ beta
        ssr = float(resid @ resid)
        sst = float(np.sum((yv - yv.mean()) ** 2))
        if sst == 0.0:
            raise ValueError("response has zero variance")
        dof = n - k - 1
        sigma2 = ssr / dof
        se = np.sqrt(np.maximum(sigma2 * self._cov_diag, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_vals = beta / se
        # an exact fit: t is infinite with the coefficient's sign, or 0 for a zero one
        exact = se == 0.0
        t_vals[exact] = np.where(beta[exact] != 0.0, np.copysign(np.inf, beta[exact]), 0.0)
        r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
        adjusted = 1.0 - (1.0 - r2) * (n - 1) / dof
        return RegressionResult(
            coefficients=tuple(beta[1:].tolist()),
            intercept=float(beta[0]),
            std_errors=tuple(se[1:].tolist()),
            intercept_std_error=float(se[0]),
            t_values=tuple(t_vals[1:].tolist()),
            intercept_t_value=float(t_vals[0]),
            r_squared=r2,
            adjusted_r_squared=float(adjusted),
            n=n,
            k=k,
        )


class AnovaResult(NamedTuple):
    """One-way ANOVA outcome with a note set on degenerate inputs."""

    f_statistic: float
    p_value: float
    df_between: int
    df_within: int
    group_means: tuple[float, ...]
    group_sizes: tuple[int, ...]
    degenerate: str | None = None


def one_way_anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way fixed-effects ANOVA over two or more groups.

    Zero within-group variance is flagged rather than raised: with a
    between-group difference the F statistic is infinite (p = 0), and
    with all values identical the test carries no information (F = 0,
    p = 1, degenerate note set).
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) < 2 for g in arrays):
        raise ValueError("every group needs at least two values")
    sizes = [len(g) for g in arrays]
    means = [float(g.mean()) for g in arrays]
    grand = float(np.concatenate(arrays).mean())
    ss_between = sum(m * (mu - grand) ** 2 for m, mu in zip(sizes, means))
    ss_within = sum(float(np.sum((g - mu) ** 2)) for g, mu in zip(arrays, means))
    df_between = len(arrays) - 1
    df_within = sum(sizes) - len(arrays)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(
                0.0, 1.0, df_between, df_within, tuple(means), tuple(sizes),
                degenerate="no variation in any group",
            )
        return AnovaResult(
            math.inf, 0.0, df_between, df_within, tuple(means), tuple(sizes),
            degenerate="zero within-group variance",
        )
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(
        float(f), _f_tail(f, df_between, df_within),
        df_between, df_within, tuple(means), tuple(sizes),
    )


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _bisect(below: Callable[[float], bool], lo: float, hi: float) -> float:
    """The midpoint of [lo, hi] after 200 halvings that keep ``below`` true at lo, false at hi."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection (search seed only)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return _bisect(lambda z: _normal_cdf(z) < p, -40.0, 40.0)


def _t_critical(alpha: float, df: int) -> float:
    """Positive t whose two-sided tail probability equals alpha."""
    hi = 1.0
    while t_tail(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e8:
            raise ArithmeticError("t critical value search failed")
    return _bisect(lambda t: t_tail(t, df) > alpha, 0.0, hi)


_GAUSS_NODES = 400


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _noncentral_t_both_tails(tcrit: float, df: int, ncp: float) -> float:
    """P(T > tcrit) + P(T < -tcrit) for noncentral t, df >= 2.

    T = (Z + ncp) / sqrt(V / df) with V ~ chi-square(df), so conditioning
    on V gives P(T > t | V=v) = Phi(ncp - t sqrt(v/df)) and the two-tail
    mass is a smooth one-dimensional integral over the chi-square
    density, evaluated here by Gauss-Legendre quadrature over the region
    where that density is non-negligible.
    """
    nodes, weights = _gauss_legendre(_GAUSS_NODES)
    spread = math.sqrt(2.0 * df)
    lo = max(0.0, df - 14.0 * spread - 40.0)
    hi = df + 14.0 * spread + 40.0
    v = 0.5 * (hi - lo) * (nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * weights
    log_pdf = (
        (0.5 * df - 1.0) * np.log(v)
        - 0.5 * v
        - math.lgamma(0.5 * df)
        - 0.5 * df * math.log(2.0)
    )
    scale = np.sqrt(v / df)
    total = 0.0
    for wi, lp, sc in zip(w, log_pdf, scale):
        tails = _normal_cdf(ncp - tcrit * sc) + _normal_cdf(-ncp - tcrit * sc)
        total += wi * math.exp(lp) * tails
    return total


def two_sample_power(n_per_group: int, cohens_d: float, alpha: float) -> float:
    """Exact power of the two-sided two-sample t-test at equal group sizes."""
    if n_per_group < 2:
        raise ValueError("need at least two observations per group")
    df = 2 * n_per_group - 2
    ncp = cohens_d * math.sqrt(n_per_group / 2.0)
    tcrit = _t_critical(alpha, df)
    return _noncentral_t_both_tails(tcrit, df, ncp)


def min_sample_size(alpha: float, power: float, cohens_d: float) -> int:
    """Smallest per-group n reaching the target power, two-sample t-test.

    Starts just below the normal-approximation estimate (which slightly
    undershoots the exact t-based requirement) and walks upward, judging
    each candidate with the exact noncentral-t power.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < power < 1.0:
        raise ValueError("power must lie in (0, 1)")
    if cohens_d <= 0.0:
        raise ValueError("cohens_d must be positive")
    z_alpha = _normal_quantile(1.0 - alpha / 2.0)
    z_power = _normal_quantile(power)
    approx = 2.0 * ((z_alpha + z_power) / cohens_d) ** 2
    n = max(2, int(math.floor(approx)) - 2)
    while two_sample_power(n, cohens_d, alpha) < power:
        n += 1
        if n > 10_000_000:
            raise ArithmeticError("sample size search did not converge")
    return n
