"""Statistical kernel tests against frozen values, oracles, and scipy."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats

import oracles
from versemood import stats
from versemood.stats import (
    LinearDesign,
    correlation_band,
    min_sample_size,
    one_way_anova,
    regularized_incomplete_beta,
    spearman,
    t_tail,
    two_sample_power,
)


# ---------------------------------------------------------------------------
# regularized incomplete beta


def test_beta_symmetric_point():
    assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_beta_endpoints():
    assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
    assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0


def test_beta_frozen_values():
    # computed with mpmath.betainc at 30 digits
    cases = [
        (0.5, 0.5, 0.3, 0.3690101195655454),
        (1.0, 3.0, 0.2, 0.4880000000000000),
        (2.0, 5.0, 0.1, 0.1142650000000000),
        (8.0, 2.0, 0.9, 0.7748409780000001),
        (20.0, 20.0, 0.45, 0.2643150322574923),
        (100.0, 1.0, 0.99, 0.3660323412732292),
    ]
    for a, b, x, expected in cases:
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(expected, abs=1e-12)


def test_beta_matches_scipy_grid():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = float(rng.uniform(0.1, 50))
        b = float(rng.uniform(0.1, 50))
        x = float(rng.uniform(0, 1))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-12
        )


def test_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 2.0, 1.5)


def _cont_frac_or_error(cont_frac, a, b, x):
    try:
        return cont_frac(a, b, x)
    except ArithmeticError as exc:
        return str(exc)


def test_beta_cont_frac_equals_the_two_step_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(28)
    n = 5000
    df1, df2 = rng.integers(1, 600, n) / 2.0, rng.integers(1, 600, n) / 2.0
    halves = rng.integers(1, 1000, (2, n)) / 2.0
    a = np.concatenate([rng.uniform(0.05, 500, n), halves[0], df2, df2])
    b = np.concatenate([rng.uniform(0.05, 500, n), halves[1], np.full(n, 0.5), df1])
    x = rng.uniform(0, 1, 4 * n)
    cases = list(zip(a.tolist(), b.tolist(), x.tolist()))
    for case in cases:  # the t tails use (df/2, 1/2), the F tails (df2/2, df1/2)
        got = _cont_frac_or_error(stats._beta_cont_frac, *case)
        assert got == _cont_frac_or_error(oracles.beta_cont_frac_two_step, *case), case
    sample = cases[::20]
    ours = [regularized_incomplete_beta(*case) for case in sample]
    monkeypatch.setattr(stats, "_beta_cont_frac", oracles.beta_cont_frac_two_step)
    assert ours == [regularized_incomplete_beta(*case) for case in sample]


# ---------------------------------------------------------------------------
# t tail


def test_t_tail_at_zero_is_one():
    assert t_tail(0.0, 7.0) == 1.0


def test_t_tail_sign_symmetric():
    assert t_tail(1.7, 9.0) == t_tail(-1.7, 9.0)


def test_t_tail_monotone_in_magnitude():
    for df in (1.0, 4.0, 30.0):
        previous = 1.0
        for t in np.linspace(0.1, 8.0, 40):
            p = t_tail(float(t), df)
            assert p < previous
            previous = p


def test_t_tail_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = float(rng.uniform(-5, 5))
        df = float(rng.integers(1, 60))
        assert t_tail(t, df) == pytest.approx(oracles.t_tail(t, df), abs=1e-12)


def test_t_tail_matches_scipy():
    for t, df in [(2.086, 20), (1.0, 3), (4.5, 8), (0.3, 100)]:
        expected = 2 * scipy.stats.t.sf(abs(t), df)
        assert t_tail(t, df) == pytest.approx(expected, abs=1e-13)


# ---------------------------------------------------------------------------
# spearman


def test_spearman_perfect_monotone():
    result = spearman([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
    assert result.rho == pytest.approx(1.0)
    assert result.band == "very strong"


def test_spearman_perfect_reverse():
    result = spearman([1.0, 2.0, 3.0], [5.0, 4.0, 3.0])
    assert result.rho == pytest.approx(-1.0)


def test_spearman_hand_case_with_ties():
    # x ranks: 1, 2.5, 2.5, 4; y ranks: 2, 2, 2, 4
    result = spearman([1.0, 2.0, 2.0, 3.0], [7.0, 7.0, 7.0, 9.0])
    assert result.rho == pytest.approx(oracles.spearman([1, 2, 2, 3], [7, 7, 7, 9]))
    assert result.n == 4


def test_spearman_constant_input_undefined():
    result = spearman([2.0, 2.0, 2.0], [1.0, 5.0, 3.0])
    assert result.rho is None
    assert result.band is None
    assert "constant" in result.undefined_reason


def test_spearman_refuses_nan_naming_the_argument():
    # NaN is not ranked as a value above the rest: no rho for an unpaired observation
    with pytest.raises(ValueError, match="^x holds NaN"):
        spearman([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^y holds NaN"):
        spearman([1.0, 2.0, 3.0], [math.nan] * 3)


def test_spearman_constant_infinite_column_is_constant():
    # every value ties, so the centred ranks are all 0 however inf - inf reads
    for value in (math.inf, -math.inf):
        result = spearman([value, value], [1.0, 2.0])
        assert result == stats.CorrelationResult(None, 2, None, "x is constant")
        result = spearman([1.0, 2.0, 3.0], [value] * 3)
        assert result == stats.CorrelationResult(None, 3, None, "y is constant")


def test_spearman_requires_pairs():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        base = spearman(x, y).rho
        warped = spearman(np.exp(x), y * 3 + 2).rho
        assert warped == pytest.approx(base, abs=1e-12)


def test_spearman_reversal_antisymmetry():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.normal(size=n)
        if len(set(x.tolist())) < 2:
            continue
        forward = spearman(x, y).rho
        flipped = spearman(-x, y).rho
        assert flipped == pytest.approx(-forward, abs=1e-12)


def test_average_ranks_equal_brute_force_ranks_exactly():
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        x = rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float)
        ranks = stats.centred_ranks(x) + (n + 1) / 2
        assert ranks.tolist() == oracles._brute_ranks(x.tolist())
        # within groups, in any order: each group ranked on its own
        groups = rng.integers(0, 4, size=n)
        ranks = stats.centred_ranks(x, groups)
        for g in np.unique(groups).tolist():
            members = groups == g
            centre = (members.sum() + 1) / 2
            assert (ranks[members] + centre).tolist() == oracles._brute_ranks(x[members].tolist())


def test_spearman_matches_brute_force_and_scipy():
    rng = np.random.default_rng(13)
    for _ in range(250):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.normal(size=n).round(1)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        mine = spearman(x, y).rho
        assert mine == pytest.approx(oracles.spearman(x.tolist(), y.tolist()), abs=1e-12)
        assert mine == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)


def test_correlation_bands():
    assert correlation_band(0.05) == "negligible"
    assert correlation_band(0.1) == "weak"
    assert correlation_band(-0.39) == "weak"
    assert correlation_band(0.4) == "moderate"
    assert correlation_band(-0.7) == "strong"
    assert correlation_band(0.9) == "very strong"
    assert correlation_band(-1.0) == "very strong"
    with pytest.raises(ValueError):
        correlation_band(1.2)


# ---------------------------------------------------------------------------
# ordinary least squares


def test_ols_recovers_noiseless_coefficients():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 2))
    y = 3.0 + X @ np.array([2.0, -1.5])
    fit = LinearDesign(X).fit(y)
    assert fit.intercept == pytest.approx(3.0, abs=1e-10)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    assert fit.coefficients[1] == pytest.approx(-1.5, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # near-exact fit: the residual noise floor drives p toward zero
    assert fit.p_values[0] < 1e-50


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(8, 40))
        k = int(rng.integers(1, 5))
        X = rng.normal(size=(n, k))
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        fit = LinearDesign(X).fit(y)
        ref = oracles.ols(X, y)
        assert fit.intercept == pytest.approx(ref["intercept"], abs=1e-9)
        np.testing.assert_allclose(fit.coefficients, ref["coefficients"], atol=1e-9)
        np.testing.assert_allclose(fit.std_errors, ref["std_errors"], atol=1e-9)
        np.testing.assert_allclose(fit.p_values, ref["p_values"], atol=1e-9)
        assert fit.r_squared == pytest.approx(ref["r_squared"], abs=1e-10)
        assert fit.adjusted_r_squared == pytest.approx(
            ref["adjusted_r_squared"], abs=1e-10
        )


def test_ols_matches_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.api")
    rng = np.random.default_rng(23)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, 0.0, -2.0]) + rng.normal(size=30)
    fit = LinearDesign(X).fit(y)
    sm_fit = statsmodels.OLS(y, statsmodels.add_constant(X)).fit()
    np.testing.assert_allclose(fit.coefficients, sm_fit.params[1:], atol=1e-10)
    np.testing.assert_allclose(fit.p_values, sm_fit.pvalues[1:], atol=1e-10)
    assert fit.adjusted_r_squared == pytest.approx(sm_fit.rsquared_adj, abs=1e-10)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(10, 30))
        k = int(rng.integers(1, 4))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        fit = LinearDesign(X).fit(y)
        fitted = fit.intercept + X @ fit.coefficients
        residuals = y - fitted
        assert abs(float(residuals.sum())) < 1e-8
        for j in range(k):
            assert abs(float(residuals @ X[:, j])) < 1e-8


def test_ols_adjusted_never_exceeds_r_squared():
    rng = np.random.default_rng(25)
    for _ in range(50):
        n = int(rng.integers(10, 30))
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        fit = LinearDesign(X).fit(y)
        assert fit.adjusted_r_squared <= fit.r_squared + 1e-15


def test_ols_reports_dependent_columns():
    rng = np.random.default_rng(26)
    X = rng.normal(size=(20, 3))
    X = np.column_stack([X, X[:, 0] - X[:, 2]])
    design = LinearDesign(X, ["a", "b", "c", "a_minus_c"])
    assert design.dropped == [["a_minus_c"]]
    assert design.columns == ["a", "b", "c"]


def test_ols_input_validation():
    rng = np.random.default_rng(27)
    X = rng.normal(size=(4, 3))
    with pytest.raises(ValueError):
        LinearDesign(X)  # n < k + 2
    X = rng.normal(size=(10, 2))
    with pytest.raises(ValueError, match="zero variance"):
        LinearDesign(X).fit(np.full(10, 5.0))


def test_linear_design_fits_equal_separate_ols_bit_for_bit():
    rng = np.random.default_rng(28)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        k = int(rng.integers(1, 8))
        X = rng.normal(size=(n, k))
        names = [f"c{j}" for j in range(k)]
        design = LinearDesign(X, names)
        assert design.dropped == []
        for _ in range(5):
            y = X @ rng.normal(size=k) + rng.normal(size=n)
            assert design.fit(y) == LinearDesign(X, names).fit(y)
        with pytest.raises(ValueError, match="zero variance"):
            design.fit(np.full(n, 2.0))
        with pytest.raises(ValueError):
            design.fit(rng.normal(size=n + 1))


def test_lazy_p_values_equal_the_eager_loop():
    rng = np.random.default_rng(29)
    exact_fit_coefficients = set()
    for trial in range(300):
        if trial % 2:
            # few rows of small integers: many of these fits are exact, so se is 0
            n, k = int(rng.integers(4, 9)), int(rng.integers(1, 3))
            X = rng.integers(-2, 3, size=(n, k)).astype(float)
            y = rng.integers(-1, 2) + X @ rng.integers(-1, 2, size=k)
        else:
            n = int(rng.integers(4, 30))
            k = int(rng.integers(1, min(7, n - 1)))
            X = rng.normal(size=(n, k))
            y = X @ rng.normal(size=k) + rng.normal(size=n)
        design = LinearDesign(X)
        if design.dropped:
            continue
        try:
            fit = design.fit(y)
        except ValueError:  # constant y
            continue
        ref = oracles.ols_eager(X, y)
        assert {name: getattr(fit, name) for name in ref} == ref
        betas = (fit.intercept, *fit.coefficients)
        for beta, se in zip(betas, (fit.intercept_std_error, *fit.std_errors)):
            if se == 0.0:
                exact_fit_coefficients.add(beta != 0.0)
    # the se == 0 rule ran for a non-zero and for a zero coefficient
    assert exact_fit_coefficients == {True, False}


def _rank_scan_cases(seed):
    """Named designs, intercept first, with the structures the rank scan must tell apart."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 80))
    x = rng.normal(size=(n, 5)) * rng.uniform(0.1, 10.0, size=5)
    ones = np.ones(n)
    high, low = np.abs(x[:, 0]) + 1.0, -np.abs(x[:, 1])
    cases = [
        ("full rank", np.column_stack([ones, x])),
        ("duplicate", np.column_stack([ones, x[:, :2], x[:, 0], x[:, 2]])),
        ("span", np.column_stack([ones, high, low, high - low, x[:, 2]])),
        ("constant", np.column_stack([ones, x[:, 0], np.full(n, 3.0), x[:, 1]])),
        ("zero", np.column_stack([ones, x[:, 0], np.zeros(n), x[:, 1]])),
        ("scaled 1e-12", np.column_stack([ones, x[:, 0], 1e-12 * x[:, 1], x[:, 2]])),
    ]
    # around rtol = 1e-10: a column that is x0 up to a perturbation of relative size 10^-e
    for e in range(6, 14):
        near = x[:, 0] + 10.0 ** -e * np.linalg.norm(x[:, 0]) / np.linalg.norm(x[:, 2]) * x[:, 2]
        cases.append((f"near 1e-{e}", np.column_stack([ones, x[:, :2], near, x[:, 3]])))
    return cases


def test_rank_scan_equals_prefix_svd_oracle(monkeypatch):
    refereed = set()
    svd_rank = stats._svd_rank

    def counting(columns, rtol):
        refereed.add(name)
        return svd_rank(columns, rtol)

    monkeypatch.setattr(stats, "_svd_rank", counting)
    for seed in (40, 41, 42):
        for name, design in _rank_scan_cases(seed):
            assert stats._dependent_columns(design)[0] == oracles.dependent_columns(design), name
    # exact structure is read off R; only columns near the threshold need an SVD
    assert not refereed & {"full rank", "duplicate", "span", "constant", "zero"}
    assert any(name.startswith("near") for name in refereed)

    # Kahan's matrix: no |R_jj| is below 2% of its column's norm, yet the
    # prefix SVD finds a dependent column, so R's diagonal alone cannot decide
    name, k, c = "kahan", 80, 0.3
    kahan = np.diag(np.sqrt(1 - c * c) ** np.arange(k)) @ (
        np.eye(k) - c * np.triu(np.ones((k, k)), 1)
    )
    design = np.vstack([kahan, np.zeros((5, k))])
    r = np.linalg.qr(design, mode="r")
    assert np.min(np.abs(np.diagonal(r)) / np.linalg.norm(design, axis=0)) > 0.02
    assert oracles.dependent_columns(design) != []
    assert stats._dependent_columns(design)[0] == oracles.dependent_columns(design)
    assert "kahan" in refereed


def _mixed_design(rng):
    """An intercept, then 1-9 columns: random, combinations of earlier ones, near such
    combinations, zero, tiny, or small integers."""
    n = int(rng.integers(3, 40))
    columns = [np.ones(n)]
    for _ in range(int(rng.integers(1, 10))):
        kind = int(rng.integers(0, 6))
        a, b = rng.integers(len(columns), size=2)
        if kind == 0:
            column = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        elif kind == 1:
            column = columns[a] * rng.normal() - columns[b] * rng.normal()
        elif kind == 2:
            column = columns[a] - columns[b] + 10.0 ** rng.uniform(-15, -4) * (
                np.linalg.norm(columns[a]) * rng.normal(size=n)
            )
        elif kind == 3:
            column = np.zeros(n)
        elif kind == 4:
            column = rng.normal(size=n) * 10.0 ** rng.uniform(-14, -8)
        else:
            column = rng.integers(-2, 3, size=n).astype(float)
        columns.append(column)
    return np.column_stack(columns)


def test_rank_scan_equals_prefix_svd_oracle_on_mixed_designs():
    rng = np.random.default_rng(43)
    for _ in range(200):
        design = _mixed_design(rng)
        dependent, factor = stats._dependent_columns(design)
        assert dependent == oracles.dependent_columns(design)
        if factor is None:
            continue
        # the factor handed on is the remaining columns' own, and a scan started from it
        # decides as one that factors them afresh
        reduced = np.delete(design, dependent, axis=1)
        fresh = stats._factor(reduced)
        assert all(np.array_equal(a, b) for a, b in zip(factor[:3], fresh[:3]))
        assert factor[3] == fresh[3]
        rescan = stats._dependent_columns(reduced, factor=factor)[0]
        assert rescan == stats._dependent_columns(reduced)[0]


def test_linear_design_drops_what_the_drop_loop_dropped():
    rng = np.random.default_rng(44)
    shapes = Counter()
    for _ in range(400):
        X = _mixed_design(rng)[:, 1:]
        n, k = X.shape
        if n < k + 2:
            continue
        names = [f"c{j}" for j in range(k)]
        steps, kept, reduced = oracles.drop_dependent_columns(X, names)
        design = LinearDesign(X, names)
        assert design.dropped == steps
        assert design.columns == kept
        y = rng.normal(size=n)
        refit = LinearDesign(reduced, kept)
        assert refit.dropped == []
        assert design.fit(y) == refit.fit(y)
        dropped = [name for step in steps for name in step]
        shapes["dropped"] += bool(dropped)
        # a dropped column before a kept one: the kept columns are no leading block
        shapes["not last"] += any(names.index(c) < names.index(kept[-1]) for c in dropped if kept)
        shapes["two checks"] += len(steps) > 1
    assert min(shapes.values()) > 0, shapes


# ---------------------------------------------------------------------------
# one-way ANOVA


def test_anova_textbook_case():
    groups = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    result = one_way_anova(groups)
    assert result.f_statistic == pytest.approx(27.0, abs=1e-12)
    assert result.p_value == pytest.approx(0.001, abs=1e-9)
    assert result.df_between == 2
    assert result.df_within == 6
    assert result.group_means == pytest.approx((2.0, 5.0, 8.0))
    assert result.group_sizes == (3, 3, 3)
    assert not result.degenerate


def test_anova_two_groups_equals_t_test():
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = rng.normal(size=int(rng.integers(3, 15)))
        b = rng.normal(loc=0.5, size=int(rng.integers(3, 15)))
        result = one_way_anova([a.tolist(), b.tolist()])
        t_stat, t_p = scipy.stats.ttest_ind(a, b, equal_var=True)
        assert result.f_statistic == pytest.approx(t_stat**2, abs=1e-9)
        assert result.p_value == pytest.approx(t_p, abs=1e-9)


def test_anova_matches_oracle_and_scipy():
    rng = np.random.default_rng(32)
    for _ in range(25):
        n_groups = int(rng.integers(2, 6))
        groups = [
            rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(3, 12))).tolist()
            for _ in range(n_groups)
        ]
        result = one_way_anova(groups)
        ref_f, ref_p = oracles.one_way_anova(groups)
        assert result.f_statistic == pytest.approx(ref_f, abs=1e-9)
        assert result.p_value == pytest.approx(ref_p, abs=1e-9)
        sp = scipy.stats.f_oneway(*groups)
        assert result.f_statistic == pytest.approx(sp.statistic, abs=1e-9)


def test_anova_all_identical_is_degenerate():
    result = one_way_anova([[2.0, 2.0, 2.0], [2.0, 2.0]])
    assert result.degenerate
    assert result.f_statistic == 0.0
    assert result.p_value == 1.0


def test_anova_zero_within_variance():
    result = one_way_anova([[1.0, 1.0, 1.0], [2.0, 2.0]])
    assert result.degenerate
    assert math.isinf(result.f_statistic)
    assert result.p_value == 0.0


def test_anova_input_validation():
    with pytest.raises(ValueError):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(ValueError):
        one_way_anova([[1.0, 2.0], [3.0]])


# ---------------------------------------------------------------------------
# power and sample size


def test_power_matches_quadrature_oracle():
    for n, d, alpha in [(10, 0.5, 0.05), (26, 0.8, 0.05), (40, 0.3, 0.01), (5, 1.2, 0.1)]:
        mine = two_sample_power(n, d, alpha)
        ref = oracles.two_sample_power(alpha, d, n)
        assert mine == pytest.approx(ref, abs=1e-9)


def test_power_matches_scipy_noncentral_t():
    nct = scipy.stats.nct
    for n, d, alpha in [(15, 0.6, 0.05), (26, 0.8, 0.05), (50, 0.4, 0.05)]:
        df = 2 * n - 2
        ncp = d * math.sqrt(n / 2)
        t_crit = scipy.stats.t.isf(alpha / 2, df)
        expected = nct.sf(t_crit, df, ncp) + nct.cdf(-t_crit, df, ncp)
        assert two_sample_power(n, d, alpha) == pytest.approx(expected, abs=1e-9)


def test_power_monotone_in_sample_size():
    previous = 0.0
    for n in range(3, 60, 4):
        current = two_sample_power(n, 0.5, 0.05)
        assert current > previous
        previous = current


def test_min_sample_size_medium_large_effect():
    assert min_sample_size(0.05, 0.8, 0.8) == 26


def test_min_sample_size_brackets_the_target():
    n = min_sample_size(0.05, 0.8, 0.8)
    assert two_sample_power(n - 1, 0.8, 0.05) < 0.8 <= two_sample_power(n, 0.8, 0.05)


def test_min_sample_size_other_configurations():
    for alpha, target, d in [(0.05, 0.9, 0.5), (0.01, 0.8, 1.0), (0.1, 0.7, 0.3)]:
        n = min_sample_size(alpha, target, d)
        assert two_sample_power(n, d, alpha) >= target
        if n > 2:
            assert two_sample_power(n - 1, d, alpha) < target


def test_power_search_keeps_its_frozen_bits():
    # float.hex of each value as computed before the two bisections became one
    powers = {
        (2, 0.8, 0.05): "0x1.4453e226475dap-4",
        (26, 0.8, 0.05): "0x1.9d6ee2b8063c1p-1",
        (100, 0.3, 0.01): "0x1.4603641122216p-2",
        (13, 1.5, 0.1): "0x1.f61eb5d387d76p-1",
    }
    assert {case: two_sample_power(*case).hex() for case in powers} == powers
    assert stats._t_critical(0.05, 10).hex() == "0x1.1d33a7661d304p+1"
    assert stats._t_critical(0.01, 50).hex() == "0x1.56c1ee0e11e4ep+1"
    assert stats._normal_quantile(0.975).hex() == "0x1.f5c0331eeff80p+0"
    assert stats._normal_quantile(0.2).hex() == "-0x1.aee8fa73a1334p-1"
    sizes = {(0.05, 0.8, 0.8): 26, (0.01, 0.9, 0.5): 121, (0.1, 0.95, 1.2): 16}
    assert {case: min_sample_size(*case) for case in sizes} == sizes


def test_min_sample_size_input_validation():
    with pytest.raises(ValueError):
        min_sample_size(0.0, 0.8, 0.5)
    with pytest.raises(ValueError):
        min_sample_size(0.05, 1.0, 0.5)
    with pytest.raises(ValueError):
        min_sample_size(0.05, 0.8, -0.2)
