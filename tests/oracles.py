"""Independent reference implementations used to cross-check the kernels.

Everything here is deliberately written the slow, literal way: normal
equations instead of QR, O(n^2) rank counting, ordered-pair enumeration
instead of a coincidence matrix, adaptive arbitrary-precision quadrature
instead of continued fractions.  Agreement between these and the package
is the evidence the fast paths are right.
"""

from __future__ import annotations

import json
import math
from itertools import permutations

import mpmath as mp
import numpy as np

mp.mp.dps = 30


def beta_inc(a: float, b: float, x: float) -> float:
    return float(mp.betainc(a, b, 0, x, regularized=True))


def beta_cont_frac_two_step(a: float, b: float, x: float) -> float:
    """``stats._beta_cont_frac`` as it was written before its Lentz update
    was a loop: the update spelled out once for the even numerator and
    once for the odd one, so the two can be compared bit for bit.
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _t_pdf(u, df):
    df = mp.mpf(df)
    c = mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
    return c * (1 + u * u / df) ** (-(df + 1) / 2)


def t_tail(t: float, df: float) -> float:
    """Two-sided t tail probability by quadrature of the density."""
    if t == 0:
        return 1.0
    p = 2 * mp.quad(lambda u: _t_pdf(u, df), [abs(t), mp.inf])
    return float(p)


def f_tail(f: float, df1: float, df2: float) -> float:
    """Upper F tail probability by quadrature of the density."""
    if f <= 0:
        return 1.0
    d1, d2 = mp.mpf(df1), mp.mpf(df2)
    c = (d1 / d2) ** (d1 / 2) / mp.beta(d1 / 2, d2 / 2)

    def pdf(u):
        return c * u ** (d1 / 2 - 1) * (1 + d1 * u / d2) ** (-(d1 + d2) / 2)

    return float(mp.quad(pdf, [f, mp.inf]))


def ols(X: np.ndarray, y: np.ndarray) -> dict:
    """Textbook least squares through the normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    gram = design.T @ design
    beta = np.linalg.solve(gram, design.T @ y)
    residuals = y - design @ beta
    rss = float(residuals @ residuals)
    dof = n - k - 1
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(gram)
    se = np.sqrt(np.diag(cov))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss
    t_values = beta / se
    p_values = [t_tail(float(t), dof) for t in t_values]
    return {
        "intercept": float(beta[0]),
        "coefficients": beta[1:].copy(),
        "std_errors": se[1:].copy(),
        "intercept_std_error": float(se[0]),
        "t_values": t_values[1:].copy(),
        "p_values": np.array(p_values[1:]),
        "intercept_p_value": p_values[0],
        "r_squared": r2,
        "adjusted_r_squared": 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1),
    }


def one_way_anova(groups: list[list[float]]) -> tuple[float, float]:
    """F statistic and p value from the definitional sums of squares."""
    all_values = [v for g in groups for v in g]
    grand = math.fsum(all_values) / len(all_values)
    ss_between = math.fsum(
        len(g) * (math.fsum(g) / len(g) - grand) ** 2 for g in groups
    )
    ss_within = math.fsum(
        (v - math.fsum(g) / len(g)) ** 2 for g in groups for v in g
    )
    df_between = len(groups) - 1
    df_within = len(all_values) - len(groups)
    f = (ss_between / df_between) / (ss_within / df_within)
    return f, f_tail(f, df_between, df_within)


def _brute_ranks(values: list[float]) -> list[float]:
    ranks = []
    for vi in values:
        less = sum(1 for vj in values if vj < vi)
        equal = sum(1 for vj in values if vj == vi)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    """Pearson correlation of brute-force average ranks."""
    rx, ry = _brute_ranks(list(x)), _brute_ranks(list(y))
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def krippendorff_alpha(units: list[list[float]], level: str) -> float:
    """Alpha by literal enumeration of ordered value pairs.

    ``units`` holds the observed values per unit (missing cells already
    removed).  Units with fewer than two values are unpairable and drop
    out, exactly as in the coincidence construction.
    """
    pairable = [u for u in units if len(u) >= 2]
    pooled = [v for u in pairable for v in u]
    n = len(pooled)

    counts: dict[float, int] = {}
    for v in pooled:
        counts[v] = counts.get(v, 0) + 1
    cats = sorted(counts)

    def delta_sq(c: float, k: float) -> float:
        if level == "nominal":
            return 0.0 if c == k else 1.0
        if level == "interval":
            return (c - k) ** 2
        lo, hi = min(c, k), max(c, k)
        between = math.fsum(counts[g] for g in cats if lo <= g <= hi)
        return (between - (counts[c] + counts[k]) / 2) ** 2

    d_obs = math.fsum(
        delta_sq(u[i], u[j]) / (len(u) - 1)
        for u in pairable
        for i in range(len(u))
        for j in range(len(u))
        if i != j
    ) / n
    d_exp = math.fsum(
        delta_sq(pooled[i], pooled[j])
        for i in range(n)
        for j in range(n)
        if i != j
    ) / (n * (n - 1))
    return 1.0 - d_obs / d_exp


def alpha_per_cell(table, level):
    """``agreement.krippendorff_alpha`` of a units x raters array as it was
    before a feature's cells shared one count table: every call codes its
    own values with ``np.unique`` and scatters them with ``np.add.at``.

    Raises ``AgreementError`` when no unit has two or more values.
    """
    from versemood.agreement import AgreementError, AlphaResult, agreement_band

    present = ~np.isnan(table)
    m = present.sum(axis=1)
    pairable = m >= 2
    if not pairable.any():
        raise AgreementError("no unit has two or more values; alpha is not computable")
    table, present, m = table[pairable], present[pairable], m[pairable]

    units, _ = np.nonzero(present)
    categories, codes = np.unique(table[present], return_inverse=True)
    n = int(m.sum())
    # N[u, c]: values of category c in unit u
    counts = np.zeros((len(table), len(categories)))
    np.add.at(counts, (units, codes), 1.0)
    weighted = counts / (m - 1)[:, None]
    coincidence = weighted.T @ counts - np.diag(weighted.sum(axis=0))
    marginals = coincidence.sum(axis=1)

    if level == "nominal":
        delta_sq = 1.0 - np.eye(len(categories))
    elif level == "interval":
        delta_sq = np.subtract.outer(categories, categories) ** 2
    else:
        index = np.arange(len(categories))
        lo = np.minimum.outer(index, index)
        hi = np.maximum.outer(index, index)
        cumulative = np.concatenate(([0.0], np.cumsum(marginals)))
        between = cumulative[hi + 1] - cumulative[lo]
        delta_sq = (between - 0.5 * (marginals[lo] + marginals[hi])) ** 2

    observed = float((coincidence * delta_sq).sum()) / n
    expected = float((np.outer(marginals, marginals) * delta_sq).sum()) / (n * (n - 1))

    if expected == 0.0:
        return AlphaResult(
            alpha=1.0,
            n_pairable=n,
            band=agreement_band(1.0),
            degenerate=True,
            note="degenerate: no variation among pairable values",
        )
    alpha = 1.0 - observed / expected
    return AlphaResult(alpha=alpha, n_pairable=n, band=agreement_band(alpha))


def count_table_alphas(table, level, cells):
    """``agreement``'s kernel as it was when each feature had a count table
    of its own: N[r, c, u], 1.0 where rater r gave unit u category c, and
    every cell's coincidences from the table's product with itself.

    ``table`` is units x raters and ``cells`` lists column indices of
    it; yields each cell's AlphaResult, or None where no unit has two
    values.
    """
    from versemood.agreement import AlphaResult, agreement_band

    present = ~np.isnan(table)
    units, raters = np.nonzero(present)
    categories, codes = np.unique(table[present], return_inverse=True)
    shape = (table.shape[1], len(categories), table.shape[0])
    flat = (raters * shape[1] + codes) * shape[2] + units
    counts = np.bincount(flat, minlength=np.prod(shape)).reshape(shape).astype(float)
    n_raters, k, n_units = counts.shape
    flat = counts.reshape(n_raters * k, n_units)
    pairs = (flat @ flat.T).reshape(n_raters, k, n_raters, k)
    for cols in cells:
        if len(cols) <= 3:
            coincidence = sum(pairs[r, :, s] for r, s in permutations(cols, 2)) + np.zeros((k, k))
            if len(cols) == 3:  # a unit all three rated weighs 1/2, not 1
                rows = counts[cols].reshape(3 * k, n_units) * present[:, cols].all(axis=1)
                triples = (rows @ rows.T).reshape(3, k, 3, k)
                coincidence -= 0.5 * sum(triples[r, :, s] for r, s in permutations(range(3), 2))
            used = coincidence.any(axis=1)
            n = int(coincidence.sum())
            coincidence = coincidence[np.ix_(used, used)]
        else:
            m = present[:, cols].sum(axis=1)
            pairable = m >= 2
            cell_counts = counts[cols].sum(axis=0).compress(pairable, axis=1)
            used = cell_counts.any(axis=1)
            cell_counts = np.ascontiguousarray(cell_counts[used].T)  # N[u, c]
            n = int(m[pairable].sum())
            weighted = cell_counts / (m[pairable] - 1)[:, None]
            coincidence = weighted.T @ cell_counts - np.diag(weighted.sum(axis=0))
        if not n:
            yield None
            continue
        marginals = coincidence.sum(axis=1)
        if level == "nominal":
            delta_sq = 1.0 - np.eye(len(marginals))
        elif level == "interval":
            delta_sq = np.subtract.outer(categories[used], categories[used]) ** 2
        else:
            index = np.arange(len(marginals))
            lo = np.minimum.outer(index, index)
            hi = np.maximum.outer(index, index)
            cumulative = np.concatenate(([0.0], np.cumsum(marginals)))
            between = cumulative[hi + 1] - cumulative[lo]
            delta_sq = (between - 0.5 * (marginals[lo] + marginals[hi])) ** 2
        observed = float((coincidence * delta_sq).sum()) / n
        expected = float((np.outer(marginals, marginals) * delta_sq).sum()) / (n * (n - 1))
        if expected == 0.0:
            note = "degenerate: no variation among pairable values"
            yield AlphaResult(1.0, n, agreement_band(1.0), degenerate=True, note=note)
        else:
            alpha = 1.0 - observed / expected
            yield AlphaResult(alpha=alpha, n_pairable=n, band=agreement_band(alpha))


def load_corpus_by_rows(metadata_path, corpus_root):
    """``corpus.load_corpus`` as it was before it read the metadata as
    columns: one dict per row, checked and loaded row by row.  Returns
    each sonnet's (id, author, year, title, text).
    """
    import csv
    import io
    from pathlib import Path

    from versemood.corpus import _METADATA_COLUMNS, CorpusFormatError
    from versemood.textnorm import InputError, read_input

    reader = csv.reader(io.StringIO(read_input(metadata_path, "metadata file"), newline=""))

    def read_rows():
        try:
            yield from reader
        except csv.Error as exc:
            raise CorpusFormatError(f"{metadata_path}: line {reader.line_num}: {exc}") from None

    rows = read_rows()
    header = next(rows, [])
    missing = [c for c in _METADATA_COLUMNS if c not in header]
    if missing:
        raise CorpusFormatError(
            f"{metadata_path}: missing metadata columns: {', '.join(missing)}"
        )
    sonnets, first_line = [], {}
    for cells in filter(None, rows):
        lineno = reader.line_num
        row = dict(zip(header, cells))
        sonnet_id = row.get("id_sonnet", "").strip()
        if not sonnet_id:
            raise CorpusFormatError(f"{metadata_path}: line {lineno}: empty id_sonnet")
        if sonnet_id in first_line:
            raise CorpusFormatError(
                f"{metadata_path}: line {lineno}: duplicate sonnet id {sonnet_id!r} "
                f"(first on line {first_line[sonnet_id]})"
            )
        first_line[sonnet_id] = lineno
        text = None
        if corpus_root is not None:
            try:
                text_path = Path(corpus_root) / row.get("file_path", "").strip()
                text = read_input(text_path, "sonnet text")
            except InputError as exc:
                raise CorpusFormatError(f"{metadata_path}: line {lineno}: {exc}") from exc
        fields = (row.get(name, "").strip() for name in ("author", "year", "title"))
        sonnets.append((sonnet_id, *fields, text))
    if not sonnets:
        raise CorpusFormatError(f"{metadata_path}: no sonnets listed")
    return sonnets


def fill_missing_psych(cells, sonnet_ids):
    """The missing-tag fill the literal way: one dict lookup per cell.

    ``cells`` holds each of the three sets' present cells as
    {(sonnet_id, feature): value}.  Returns the filled cells per set, the
    unfilled (sonnet_id, tag, n_present) triples in emission order, and
    the log messages.
    """
    from versemood.corpus import PSYCHOLOGICAL_TAGS

    filled = [dict(c) for c in cells]
    unfilled = []
    for sid in sonnet_ids:
        for tag in PSYCHOLOGICAL_TAGS:
            key = (sid, tag)
            present = [key in c for c in cells]
            n_present = sum(present)
            if n_present == 2:
                for pos, has in enumerate(present):
                    if not has:
                        filled[pos][key] = 0.0
            elif n_present < 2:
                unfilled.append((sid, tag, n_present))
    messages = []
    if unfilled:
        messages.append(f"{len(unfilled)} psychological cells unfillable (missing in 2+ sets)")
    return filled, unfilled, messages


def build_median_annotator(cells, sonnet_ids):
    """The median annotator the literal way: sort each cell's present values.

    ``cells`` is as in ``fill_missing_psych``.  Returns the median's
    present cells and the log messages in emission order.
    """
    from versemood.corpus import ANNOTATED_FEATURES, PSYCHOLOGICAL_TAGS

    binary = set(PSYCHOLOGICAL_TAGS)
    values = {}
    messages = []
    for sid in sonnet_ids:
        for feature in ANNOTATED_FEATURES:
            key = (sid, feature)
            avail = sorted(c[key] for c in cells if key in c)
            if len(avail) == 3:
                values[key] = avail[1]
            elif len(avail) == 2:
                if feature in binary and avail[0] != avail[1]:
                    messages.append(
                        f"median {sid}/{feature}: 0/1 split over two values resolved to 0"
                    )
                    values[key] = 0.0
                else:
                    if avail[0] != avail[1]:
                        messages.append(
                            f"median {sid}/{feature}: averaging two ordinal values {avail}"
                        )
                    values[key] = 0.5 * (avail[0] + avail[1])
    return values, messages


def median_by_sort(sets):
    """``corpus.build_median_annotator`` as it was when it sorted a stacked
    3 x sonnets x features cube (NaN last) to take each cell's lowest and
    middle values.  Returns the median's values and its log messages.
    """
    from versemood.corpus import ANNOTATED_FEATURES, ORDINAL_FEATURES

    cube = np.sort(np.stack([s.values for s in sets]), axis=0)
    n_present = (~np.isnan(cube)).sum(axis=0)
    low, middle = cube[0], cube[1]
    two = n_present == 2
    split = two & (low != middle)
    binary = np.arange(len(ANNOTATED_FEATURES)) >= len(ORDINAL_FEATURES)
    values = np.where(n_present == 3, middle, np.nan)
    values[two] = 0.5 * (low[two] + middle[two])
    values[split & binary] = 0.0
    ids = sets[0].sonnet_ids
    messages = []
    for row, col in zip(*np.nonzero(split)):
        sid, feature = ids[row], ANNOTATED_FEATURES[col]
        if binary[col]:
            messages.append(f"median {sid}/{feature}: 0/1 split over two values resolved to 0")
        else:
            pair = [float(low[row, col]), float(middle[row, col])]
            messages.append(f"median {sid}/{feature}: averaging two ordinal values {pair}")
    return values, messages


def _t_cdf(t, df):
    return mp.quad(lambda u: _t_pdf(u, df), [-mp.inf, t])


def two_sample_power(alpha: float, cohens_d: float, n_per_group: int) -> float:
    """Power of the two-sided pooled t test, by quadrature.

    The test statistic under the alternative is noncentral t; its tail
    mass is integrated through the representation T = (Z + ncp) / sqrt(V/df)
    with V chi-square.
    """
    df = mp.mpf(2 * n_per_group - 2)
    ncp = mp.mpf(cohens_d) * mp.sqrt(mp.mpf(n_per_group) / 2)
    t_crit = mp.findroot(lambda t: 2 * (1 - _t_cdf(t, df)) - alpha, mp.mpf(2))

    def chi2_pdf(v):
        return v ** (df / 2 - 1) * mp.e ** (-v / 2) / (2 ** (df / 2) * mp.gamma(df / 2))

    def integrand(v):
        scale = mp.sqrt(v / df)
        upper = 1 - mp.ncdf(t_crit * scale - ncp)
        lower = mp.ncdf(-t_crit * scale - ncp)
        return chi2_pdf(v) * (upper + lower)

    return float(mp.quad(integrand, [0, df, mp.inf]))


# ---------------------------------------------------------------------------
# the regression kernel as it was before its rank check read a QR factor and
# its p-values were evaluated on read


def dependent_columns(design: np.ndarray, rtol: float = 1e-10) -> list[int]:
    """Dependent design columns by one SVD per prefix.

    A column is dependent when adding it leaves the prefix's numerical
    rank (singular values above rtol times the largest) unchanged.
    """
    dependent = []
    rank = 0
    for j in range(design.shape[1]):
        s = np.linalg.svd(design[:, : j + 1], compute_uv=False)
        new_rank = int(np.sum(s > rtol * s[0])) if s[0] > 0.0 else 0
        if new_rank == rank:
            dependent.append(j)
        else:
            rank = new_rank
    return dependent


def drop_dependent_columns(X: np.ndarray, column_names: list[str]):
    """The regression layer's drop loop from before ``LinearDesign`` dropped its own columns.

    Each pass builds the design (an intercept plus the active predictors)
    afresh, scans it with ``stats._dependent_columns`` from a fresh QR
    and drops what the scan names, until a scan finds nothing.  Returns
    the labels each scan dropped, the predictors kept, and X on those.
    """
    from versemood.stats import _dependent_columns

    steps = []
    active = list(column_names)
    while True:
        reduced = np.ascontiguousarray(X[:, [column_names.index(p) for p in active]])
        dependent = _dependent_columns(np.column_stack([np.ones(len(X)), reduced]))[0]
        if not dependent:
            return steps, active, reduced
        # The intercept is column 0, so it is never dependent on earlier columns.
        steps.append([active[j - 1] for j in dependent])
        active = [p for p in active if p not in steps[-1]]


def ols_eager(X: np.ndarray, y: np.ndarray) -> dict:
    """Every field of a full-rank ``LinearDesign`` fit, each p-value computed up front.

    The same QR arithmetic as ``stats.LinearDesign``; t values and
    p-values come from one loop over the coefficients, with the package's
    ``t_tail``.
    """
    from versemood.stats import t_tail as package_t_tail

    X = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    q, r = np.linalg.qr(design)
    r_inv = np.linalg.solve(r, np.eye(k + 1))
    cov_diag = np.diag(r_inv @ r_inv.T)
    beta = np.linalg.solve(r, q.T @ yv)
    resid = yv - design @ beta
    ssr = float(resid @ resid)
    sst = float(np.sum((yv - yv.mean()) ** 2))
    dof = n - k - 1
    se = np.sqrt(np.maximum(ssr / dof * cov_diag, 0.0))
    t_vals = np.empty(k + 1)
    p_vals = np.empty(k + 1)
    for j in range(k + 1):
        if se[j] == 0.0:
            t_vals[j] = math.copysign(math.inf, beta[j]) if beta[j] != 0.0 else 0.0
            p_vals[j] = 0.0 if beta[j] != 0.0 else 1.0
        else:
            t_vals[j] = beta[j] / se[j]
            p_vals[j] = package_t_tail(float(t_vals[j]), dof)
    r2 = min(1.0, max(0.0, 1.0 - ssr / sst))
    return {
        "coefficients": tuple(float(b) for b in beta[1:]),
        "intercept": float(beta[0]),
        "std_errors": tuple(float(s) for s in se[1:]),
        "intercept_std_error": float(se[0]),
        "t_values": tuple(float(t) for t in t_vals[1:]),
        "p_values": tuple(float(p) for p in p_vals[1:]),
        "intercept_p_value": float(p_vals[0]),
        "r_squared": r2,
        "adjusted_r_squared": float(1.0 - (1.0 - r2) * (n - 1) / dof),
        "n": n,
        "k": k,
    }


def partial_dependence(matrix, median):
    """Partial dependence rows the literal way: a design per pairing, fitted
    only at full rank.

    Every pairing lists its rows, prunes, drops dependent columns and
    refits on its own, exactly as ``validation.partial_dependence_report``
    did before its categories shared one design.  Returns the rows and
    the pruned/dropped decision messages in emission order.
    """
    from versemood.corpus import ALL_CATEGORY, PSYCHOLOGICAL_TAGS
    from versemood.features import FEATURE_INDEX, FEATURE_NAMES, MEAN_SD_FEATURES
    from versemood.stats import LinearDesign
    from versemood.validation import (
        FEATURE_PAIRINGS,
        SIGNIFICANCE_LEVEL,
        PartialDependenceRow,
    )

    messages = []
    row_of = {sid: i for i, sid in enumerate(matrix.sonnet_ids)}

    def value(sid, feature):
        return float(matrix.values[row_of[sid], FEATURE_INDEX[feature]])

    median_row = {sid: i for i, sid in enumerate(median.sonnet_ids)}

    def target(sid, feature):
        return float(median.column(feature)[median_row[sid]])

    def not_computable(category, annotated, gam_feature, n, reason):
        return PartialDependenceRow(
            category, annotated, gam_feature, n, 0, None, None, None, None,
            False, False, (), reason,
        )

    def listwise(ids, predictors):
        return [
            sid for sid in ids
            if not any(math.isnan(value(sid, p)) for p in predictors)
        ]

    def fit_pairing(category, ids, annotated, gam_feature):
        predictors = FEATURE_NAMES
        rows = listwise(ids, predictors)
        pruned = False
        if len(rows) <= len(predictors) + 1:
            predictors = MEAN_SD_FEATURES
            pruned = True
            rows = listwise(ids, predictors)
            messages.append(
                f"partial dependence {category}/{annotated}: "
                f"pruned predictors to mean/sd set (n={len(rows)})"
            )
        if len(rows) <= len(predictors) + 1:
            return not_computable(
                category, annotated, gam_feature, len(rows),
                f"insufficient rows for regression ({len(rows)} sonnets, "
                f"{len(predictors)} predictors)",
            )
        y = [target(sid, annotated) for sid in rows]
        dropped = []
        active = list(predictors)
        while True:
            X = [[value(sid, p) for p in active] for sid in rows]
            try:
                design = LinearDesign(X, active)
                if not design.dropped:
                    fit = design.fit(y)
                    break
            except ValueError as exc:
                return not_computable(category, annotated, gam_feature, len(rows), str(exc))
            # drop the first rank check's columns and build the design again
            bad = [c for c in design.dropped[0] if c != "intercept"]
            if not bad:
                return not_computable(
                    category, annotated, gam_feature, len(rows),
                    "design matrix not usable (intercept degenerate)",
                )
            messages.append(
                f"partial dependence {category}/{annotated}: "
                f"dropped dependent columns {', '.join(bad)}"
            )
            dropped.extend(bad)
            active = [p for p in active if p not in bad]
            if gam_feature not in active:
                return not_computable(
                    category, annotated, gam_feature, len(rows),
                    f"paired feature {gam_feature} is collinear in this category",
                )
        idx = active.index(gam_feature)
        coefficient = fit.coefficients[idx]
        p_value = fit.p_values[idx]
        return PartialDependenceRow(
            category, annotated, gam_feature, fit.n, fit.k, fit.r_squared,
            fit.adjusted_r_squared, coefficient, p_value,
            p_value < SIGNIFICANCE_LEVEL and coefficient > 0.0,
            pruned, tuple(dropped), None,
        )

    categories = [(ALL_CATEGORY, matrix.sonnet_ids)]
    for tag in PSYCHOLOGICAL_TAGS:
        tagged = (median.column(tag) == 1.0).tolist()
        categories.append((tag, [sid for sid, t in zip(median.sonnet_ids, tagged) if t]))
    rows = [
        fit_pairing(category, ids, annotated, gam_feature)
        for category, ids in categories
        for annotated, gam_feature in FEATURE_PAIRINGS
    ]
    return rows, messages


# ---------------------------------------------------------------------------
# lexicons and the feature fold, as dicts of dicts
#
# A lexicon here is {word: {dimension: (mean, sd or None)}}.  The loaders
# read rows through csv.DictReader over an io.StringIO copy of the text and
# check each cell as they go; the merge takes statistics.median per surface
# word and dimension; the fold computes one sonnet's features from its word
# observations with Python sums.  This is how the package computed all
# three before its lexicons became arrays.


def _lexicon_error(message):
    from versemood.lexicon import LexiconFormatError

    return LexiconFormatError(message)


def _parse_float(cell, where):
    try:
        value = float(cell)
    except ValueError:
        raise _lexicon_error(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise _lexicon_error(f"{where}: not a finite number: {cell!r}")
    return value


def _check_sd_fits(sd, dim, scale, where):
    """Reject an sd whose value on its dimension's canonical scale no float holds."""
    from versemood.lexicon import CANONICAL_SCALES

    width = CANONICAL_SCALES[dim][1] - CANONICAL_SCALES[dim][0]
    native = scale[1] - scale[0]
    if math.isinf(sd * width / native) and math.isinf(sd / native * width):
        raise _lexicon_error(f"{where}: sd {sd} exceeds a float on the canonical scale")


def _dict_rows(path, delimiter=","):
    import csv
    import io

    from versemood.textnorm import read_input

    text = read_input(path, "lexicon file")
    return csv.DictReader(io.StringIO(text, newline=""), delimiter=delimiter)


def _check_width(reader, row, where):
    if None in row or None in row.values():
        n = len(reader.fieldnames or ())
        surplus = len(row.get(None, ()))
        missing = sum(1 for key, cell in row.items() if key is not None and cell is None)
        raise _lexicon_error(f"{where}: {n + surplus - missing} cells, but the header has {n}")


def _finish_source(raw):
    """Average duplicate rows; returns the entries and the number of duplicated cells."""
    entries = {}
    n_dupes = 0
    for word, dims in raw.items():
        out = {}
        for dim, pairs in dims.items():
            if len(pairs) > 1:
                n_dupes += 1
            mean = sum(p[0] for p in pairs) / len(pairs)
            sds = [p[1] for p in pairs if p[1] is not None]
            sd = sum(sds) / len(sds) if sds else None
            out[dim] = (mean, sd)
        entries[word] = out
    return entries, n_dupes


def load_canonical(path):
    """A canonical long-format file: (scales, entries, n_dupes)."""
    from versemood.lexicon import CANONICAL_SCALES

    reader = _dict_rows(path)
    required = {"word", "dimension", "mean", "sd", "scale_min", "scale_max"}
    have = set(reader.fieldnames or [])
    if not required <= have:
        raise _lexicon_error(f"{path}: missing columns: {', '.join(sorted(required - have))}")
    scales = {}
    raw = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        _check_width(reader, row, where)
        word = row["word"].strip().lower()
        dim = row["dimension"].strip()
        if not word:
            raise _lexicon_error(f"{where}: empty word")
        if dim not in CANONICAL_SCALES:
            raise _lexicon_error(f"{where}: unknown dimension {dim!r}")
        lo = _parse_float(row["scale_min"], where)
        hi = _parse_float(row["scale_max"], where)
        if hi <= lo:
            raise _lexicon_error(f"{where}: scale_min must be below scale_max")
        if math.isinf(hi - lo):
            raise _lexicon_error(f"{where}: scale [{lo}, {hi}] is wider than a float holds")
        if dim in scales and scales[dim] != (lo, hi):
            raise _lexicon_error(
                f"{where}: conflicting scale for {dim}: {scales[dim]} vs {(lo, hi)}"
            )
        scales.setdefault(dim, (lo, hi))
        mean = _parse_float(row["mean"], where)
        if not lo <= mean <= hi:
            raise _lexicon_error(f"{where}: mean {mean} outside declared scale [{lo}, {hi}]")
        sd_cell = row["sd"].strip()
        sd = None
        if sd_cell:
            sd = _parse_float(sd_cell, where)
            if sd < 0:
                raise _lexicon_error(f"{where}: negative sd {sd}")
            _check_sd_fits(sd, dim, (lo, hi), where)
        raw.setdefault(word, {}).setdefault(dim, []).append((mean, sd))
    if not raw:
        raise _lexicon_error(f"{path}: no entries")
    return (scales, *_finish_source(raw))


def load_described(path, descriptor):
    """A published layout through a valid descriptor mapping: (scales, entries, n_dupes)."""
    word_column = descriptor["word_column"]
    dims_spec = descriptor["dimensions"]
    scales = {dim: tuple(map(float, spec["scale"])) for dim, spec in dims_spec.items()}
    for dim, (lo, hi) in scales.items():
        if math.isinf(hi - lo):
            raise _lexicon_error(
                f"descriptor of {path}: dimension {dim}: scale [{lo}, {hi}] is wider than a float holds"
            )
    reader = _dict_rows(path, descriptor.get("delimiter", ","))
    header = set(reader.fieldnames or [])
    needed = {word_column} | {spec["mean"] for spec in dims_spec.values()}
    needed |= {spec["sd"] for spec in dims_spec.values() if spec.get("sd")}
    missing = needed - header
    if missing:
        raise _lexicon_error(
            f"{path}: columns named by descriptor are absent: {', '.join(sorted(missing))}"
        )
    raw = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        _check_width(reader, row, where)
        word = row[word_column].strip().lower()
        if not word:
            raise _lexicon_error(f"{where}: empty word")
        for dim, spec in dims_spec.items():
            cell = row[spec["mean"]].strip()
            if not cell:
                continue
            mean = _parse_float(cell, where)
            lo, hi = scales[dim]
            if not lo <= mean <= hi:
                raise _lexicon_error(
                    f"{where}: {dim} mean {mean} outside declared scale [{lo}, {hi}]"
                )
            sd = None
            sd_col = spec.get("sd")
            if sd_col:
                sd_cell = row[sd_col].strip()
                if sd_cell:
                    sd = _parse_float(sd_cell, where)
                    if sd < 0:
                        raise _lexicon_error(f"{where}: negative sd {sd}")
                    _check_sd_fits(sd, dim, (lo, hi), where)
            raw.setdefault(word, {}).setdefault(dim, []).append((mean, sd))
    if not raw:
        raise _lexicon_error(f"{path}: no entries")
    return (scales, *_finish_source(raw))


def _rescale(value, from_scale, to_scale):
    lo, hi = from_scale
    new_lo, new_hi = to_scale
    if (lo, hi) == (new_lo, new_hi):
        return value
    return new_lo + (value - lo) * (new_hi - new_lo) / (hi - lo)


def merge_lexicons(sources, config):
    """Merge [(scales, entries)] onto keys: (entries by key, number of key collisions)."""
    import statistics

    from versemood.lexicon import CANONICAL_SCALES

    by_surface = {}
    for scales, entries in sources:
        for word, dims in entries.items():
            slot = by_surface.setdefault(word, {})
            for dim, (mean, sd) in dims.items():
                native, canonical = scales[dim], CANONICAL_SCALES[dim]
                means, sds = slot.setdefault(dim, ([], []))
                means.append(_rescale(mean, native, canonical))
                if sd is not None:
                    sds.append(sd * (canonical[1] - canonical[0]) / (native[1] - native[0]))
    by_key = {}
    n_collisions = 0
    for word in sorted(by_surface):
        slot = by_key.setdefault(config.key(word), {})
        if slot:
            n_collisions += 1
        for dim, (means, sds) in by_surface[word].items():
            key_means, key_sds = slot.setdefault(dim, ([], []))
            key_means.append(statistics.median(means))
            if sds:
                key_sds.append(statistics.median(sds))
    entries = {}
    for key, dims in by_key.items():
        entries[key] = {
            dim: (sum(means) / len(means), sum(sds) / len(sds) if sds else None)
            for dim, (means, sds) in dims.items()
        }
    return entries, n_collisions


def _median(cube):
    """Median over axis 1 of the values that are not NaN; NaN where there are none."""
    ordered = np.sort(cube, axis=1)
    count = (~np.isnan(cube)).sum(axis=1, keepdims=True)
    lower = np.take_along_axis(ordered, np.maximum(count - 1, 0) // 2, axis=1)
    upper = np.take_along_axis(ordered, count // 2, axis=1)
    return np.where(count % 2 == 1, upper, (lower + upper) / 2)[:, 0]


def merge_cubes(sources, config):
    """``lexicon.merge_lexicons`` as it was before it merged one dimension at a time.

    Two dense surface word x source x dimension cubes on the canonical
    scales, a median over the sources, then one ``group_mean`` over every
    (key, dimension) cell.  Returns (rows by key, mean, sd).
    """
    from versemood.lexicon import CANONICAL_SCALES, DIMENSIONS, rescale_value
    from versemood.stats import group_mean

    surfaces = sorted(set().union(*(s.entries for s in sources)))
    at = {word: i for i, word in enumerate(surfaces)}
    means = np.full((len(surfaces), len(sources), len(DIMENSIONS)), np.nan)
    sds = np.full_like(means, np.nan)
    for k, source in enumerate(sources):
        rows = np.fromiter(map(at.__getitem__, source.entries), np.intp, len(source))
        for dim, native in source.scales.items():
            j = DIMENSIONS.index(dim)
            lo, hi = CANONICAL_SCALES[dim]
            means[rows, k, j] = rescale_value(source.mean[:, j], native, (lo, hi))
            sds[rows, k, j] = source.sd[:, j] * (hi - lo) / (native[1] - native[0])
    key_rows = {}
    codes = np.array([key_rows.setdefault(config.key(w), len(key_rows)) for w in surfaces], np.intp)
    cells = (codes[:, None] * len(DIMENSIONS) + np.arange(len(DIMENSIONS))).ravel()
    size = len(key_rows) * len(DIMENSIONS)
    shape = (len(key_rows), len(DIMENSIONS))
    mean, _ = group_mean(cells, _median(means).ravel(), size)
    sd, _ = group_mean(cells, _median(sds).ravel(), size)
    return key_rows, mean.reshape(shape), sd.reshape(shape)


class WordObservation:
    """One lexicon-matched token: its key, its position and its norms by dimension."""

    def __init__(self, key, position, dims):
        self.key, self.position, self.dims = key, position, dims


def _position_correlation(observations, dim):
    from versemood.stats import spearman

    pairs = [(float(o.position), o.dims[dim][0]) for o in observations if dim in o.dims]
    if len(pairs) < 2:
        return None, f"fewer than two matched words with {dim}"
    result = spearman([m for _, m in pairs], [p for p, _ in pairs])
    if result.rho is None:
        return None, f"{dim} values are constant across the sonnet"
    return result.rho, None


def features_from_observations(observations):
    """One sonnet's 32 features: ``values`` {name: value or None} and their ``reasons``."""
    from types import SimpleNamespace

    from versemood.features import _DIM_PREFIX
    from versemood.lexicon import DIMENSIONS

    values, reasons = {}, {}

    def set_value(name, value, reason=None):
        values[name] = value
        if value is None:
            reasons[name] = reason or "undefined"

    for dim in DIMENSIONS:
        prefix = _DIM_PREFIX[dim]
        means = [o.dims[dim][0] for o in observations if dim in o.dims]
        sds = [
            o.dims[dim][1]
            for o in observations
            if dim in o.dims and o.dims[dim][1] is not None
        ]
        if means:
            set_value(f"{prefix}_mean", sum(means) / len(means))
        else:
            set_value(f"{prefix}_mean", None, f"no matched words with {dim}")
        if sds:
            set_value(f"{prefix}_sd", sum(sds) / len(sds))
        else:
            set_value(f"{prefix}_sd", None, f"no word standard deviations for {dim}")
    for dim, short in (("arousal", "aro"), ("valence", "val")):
        means = [o.dims[dim][0] for o in observations if dim in o.dims]
        if means:
            set_value(f"max_{dim}", max(means))
            set_value(f"min_{dim}", min(means))
            set_value(f"{dim}_span", max(means) - min(means))
        else:
            reason = f"no matched words with {dim}"
            set_value(f"max_{dim}", None, reason)
            set_value(f"min_{dim}", None, reason)
            set_value(f"{dim}_span", None, reason)
        rho, reason = _position_correlation(observations, dim)
        set_value(f"cor_{short}", rho, reason)
        set_value(f"abs_cor_{short}", abs(rho) if rho is not None else None, reason)
        mean_value = values[f"{dim}_mean"]
        if mean_value is not None:
            set_value(f"sigma_{short}", mean_value * math.sqrt(len(means)))
        else:
            set_value(f"sigma_{short}", None, f"no matched words with {dim}")
    return SimpleNamespace(values=values, reasons=reasons)


# ---------------------------------------------------------------------------
# word counts, coverage and missing words over key tuples
#
# Each sonnet's keys are a tuple of strings; every category builds the set
# of its sonnets' keys, and missing words count tokens in a dict.  This is
# how the package computed the three reports before its tokens became
# integer codes.


def _categories(keys, median):
    """Each category of the median annotator, with its sonnet ids."""
    from itertools import compress

    from versemood.corpus import categories

    if median.sonnet_ids != tuple(keys):
        raise ValueError("the median annotator and the corpus keys cover different sonnets")
    return [
        (category, list(compress(median.sonnet_ids, members.tolist())))
        for category, members in categories(median)
    ]


def coverage_report(keys, sources, merged, config, median):
    """Coverage rows from {sonnet_id: keys}, as ``lexicon.coverage_report`` gives them."""
    from versemood.lexicon import CoverageRow

    source_rows = {s.source_id: set(rows.tolist()) for s, rows in zip(sources, merged.source_rows)}
    rows = []
    for category, ids in _categories(keys, median):
        distinct = {k for sid in ids for k in keys[sid]}
        if not distinct:  # no keys: every fraction is 0/0, undefined
            rows.append(
                CoverageRow(category, config.mode, 0, None, {s: None for s in source_rows})
            )
            continue
        hit = [merged.rows[k] for k in distinct if k in merged.rows]
        per_source = {
            sid: sum(1 for r in hit if r in sr) / len(distinct)
            for sid, sr in source_rows.items()
        }
        rows.append(
            CoverageRow(
                category=category,
                mode=config.mode,
                n_keys=len(distinct),
                merged=len(hit) / len(distinct),
                per_source=per_source,
            )
        )
    return rows


def word_count_report(raw, stem, lemma, median):
    """Word-count rows from {sonnet_id: keys} per mode, as ``lexicon.word_count_report``."""
    from versemood.lexicon import WordCountRow

    rows = []
    for category, ids in _categories(raw, median):
        raw_n, stem_n, lemma_n = (
            None if keys is None else len({k for sid in ids for k in keys[sid]})
            for keys in (raw, stem, lemma)
        )
        rows.append(WordCountRow(category, raw_n, stem_n, lemma_n))
    return rows


def missing_word_report(keys, merged):
    """Missing-word rows from {sonnet_id: keys}, as ``lexicon.missing_word_report``."""
    from versemood.lexicon import MissingWordRow

    counts = {}
    for sonnet_keys in keys.values():
        for key in sonnet_keys:
            if key not in merged.rows:
                counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [MissingWordRow(key, n) for key, n in ranked]


# ---------------------------------------------------------------------------
# the Spanish Snowball stemmer as it was before its steps looked suffixes up
# in tables: NLTK's transcription, which scans each step's suffix tuple in
# order and takes the first suffix the word (or its RV region) ends with


_VOWELS = "aeiou\xe1\xe9\xed\xf3\xfa\xfc"

_STEP0_SUFFIXES = (
    "selas", "selos", "sela", "selo", "las", "les", "los", "nos",
    "me", "se", "la", "le", "lo",
)

_STEP0_PRECEDING = (
    "ando", "\xe1ndo", "ar", "\xe1r", "er", "\xe9r", "iendo", "i\xe9ndo",
    "ir", "\xedr",
)

_STEP1_SUFFIXES = (
    "amientos", "imientos", "amiento", "imiento", "acion", "aciones",
    "uciones", "adoras", "adores", "ancias", "log\xedas", "encias",
    "amente", "idades", "anzas", "ismos", "ables", "ibles", "istas",
    "adora", "aci\xf3n", "antes", "ancia", "log\xeda", "uci\xf3n",
    "encia", "mente", "anza", "icos", "icas", "ismo", "able", "ible",
    "ista", "osos", "osas", "ador", "ante", "idad", "ivas", "ivos",
    "ico", "ica", "oso", "osa", "iva", "ivo",
)

_STEP1_AGENT_SUFFIXES = (
    "adora", "ador", "aci\xf3n", "adoras", "adores", "acion", "aciones",
    "ante", "antes", "ancia", "ancias",
)

_STEP2A_SUFFIXES = (
    "yeron", "yendo", "yamos", "yais", "yan", "yen", "yas", "yes",
    "ya", "ye", "yo", "y\xf3",
)

_STEP2B_SUFFIXES = (
    "ar\xedamos", "er\xedamos", "ir\xedamos", "i\xe9ramos", "i\xe9semos",
    "ar\xedais", "aremos", "er\xedais", "eremos", "ir\xedais", "iremos",
    "ierais", "ieseis", "asteis", "isteis", "\xe1bamos", "\xe1ramos",
    "\xe1semos", "ar\xedan", "ar\xedas", "ar\xe9is", "er\xedan",
    "er\xedas", "er\xe9is", "ir\xedan", "ir\xedas", "ir\xe9is", "ieran",
    "iesen", "ieron", "iendo", "ieras", "ieses", "abais", "arais",
    "aseis", "\xe9amos", "ar\xe1n", "ar\xe1s", "ar\xeda", "er\xe1n",
    "er\xe1s", "er\xeda", "ir\xe1n", "ir\xe1s", "ir\xeda", "iera",
    "iese", "aste", "iste", "aban", "aran", "asen", "aron", "ando",
    "abas", "adas", "idas", "aras", "ases", "\xedais", "ados", "idos",
    "amos", "imos", "emos", "ar\xe1", "ar\xe9", "er\xe1", "er\xe9",
    "ir\xe1", "ir\xe9", "aba", "ada", "ida", "ara", "ase", "\xedan",
    "ado", "ido", "\xedas", "\xe1is", "\xe9is", "\xeda", "ad", "ed",
    "id", "an", "i\xf3", "ar", "er", "ir", "as", "\xeds", "en", "es",
)

_STEP3_SUFFIXES = ("os", "a", "e", "o", "\xe1", "\xe9", "\xed", "\xf3")


def _replace_accented(word: str) -> str:
    """Replace accented vowels with their plain counterparts."""
    return (
        word.replace("\xe1", "a")
        .replace("\xe9", "e")
        .replace("\xed", "i")
        .replace("\xf3", "o")
        .replace("\xfa", "u")
    )


def _r1_r2(word: str) -> tuple[str, str]:
    """Standard R1/R2 regions: after the first non-vowel following a vowel."""
    r1 = ""
    r2 = ""
    for i in range(1, len(word)):
        if word[i] not in _VOWELS and word[i - 1] in _VOWELS:
            r1 = word[i + 1 :]
            break
    for i in range(1, len(r1)):
        if r1[i] not in _VOWELS and r1[i - 1] in _VOWELS:
            r2 = r1[i + 1 :]
            break
    return r1, r2


def _rv(word: str) -> str:
    """RV region per the standard Snowball definition for Romance languages."""
    rv = ""
    if len(word) >= 2:
        if word[1] not in _VOWELS:
            for i in range(2, len(word)):
                if word[i] in _VOWELS:
                    rv = word[i + 1 :]
                    break
        elif word[0] in _VOWELS and word[1] in _VOWELS:
            for i in range(2, len(word)):
                if word[i] not in _VOWELS:
                    rv = word[i + 1 :]
                    break
        else:
            rv = word[3:]
    return rv


def _suffix_replace(original: str, old: str, new: str) -> str:
    return original[: -len(old)] + new


def stem_scan(word: str) -> str:
    """Stem one Spanish word by scanning each step's suffix tuple in order."""
    word = word.lower()
    step1_success = False

    r1, r2 = _r1_r2(word)
    rv = _rv(word)

    # Step 0: attached pronoun, removed after a gerund or infinitive.
    for suffix in _STEP0_SUFFIXES:
        if not (word.endswith(suffix) and rv.endswith(suffix)):
            continue
        if rv[: -len(suffix)].endswith(_STEP0_PRECEDING) or (
            rv[: -len(suffix)].endswith("yendo")
            and word[: -len(suffix)].endswith("uyendo")
        ):
            word = _replace_accented(word[: -len(suffix)])
            r1 = _replace_accented(r1[: -len(suffix)])
            r2 = _replace_accented(r2[: -len(suffix)])
            rv = _replace_accented(rv[: -len(suffix)])
        break

    # Step 1: standard suffix removal.
    for suffix in _STEP1_SUFFIXES:
        if not word.endswith(suffix):
            continue

        if suffix == "amente" and r1.endswith(suffix):
            step1_success = True
            word = word[:-6]
            r2 = r2[:-6]
            rv = rv[:-6]
            if r2.endswith("iv"):
                word = word[:-2]
                r2 = r2[:-2]
                rv = rv[:-2]
                if r2.endswith("at"):
                    word = word[:-2]
                    rv = rv[:-2]
            elif r2.endswith(("os", "ic", "ad")):
                word = word[:-2]
                rv = rv[:-2]

        elif r2.endswith(suffix):
            step1_success = True
            if suffix in _STEP1_AGENT_SUFFIXES:
                word = word[: -len(suffix)]
                r2 = r2[: -len(suffix)]
                rv = rv[: -len(suffix)]
                if r2.endswith("ic"):
                    word = word[:-2]
                    rv = rv[:-2]
            elif suffix in ("log\xeda", "log\xedas"):
                word = _suffix_replace(word, suffix, "log")
                rv = _suffix_replace(rv, suffix, "log")
            elif suffix in ("uci\xf3n", "uciones"):
                word = _suffix_replace(word, suffix, "u")
                rv = _suffix_replace(rv, suffix, "u")
            elif suffix in ("encia", "encias"):
                word = _suffix_replace(word, suffix, "ente")
                rv = _suffix_replace(rv, suffix, "ente")
            elif suffix == "mente":
                word = word[: -len(suffix)]
                r2 = r2[: -len(suffix)]
                rv = rv[: -len(suffix)]
                if r2.endswith(("ante", "able", "ible")):
                    word = word[:-4]
                    rv = rv[:-4]
            elif suffix in ("idad", "idades"):
                word = word[: -len(suffix)]
                r2 = r2[: -len(suffix)]
                rv = rv[: -len(suffix)]
                for pre_suff in ("abil", "ic", "iv"):
                    if r2.endswith(pre_suff):
                        word = word[: -len(pre_suff)]
                        rv = rv[: -len(pre_suff)]
            elif suffix in ("ivo", "iva", "ivos", "ivas"):
                word = word[: -len(suffix)]
                r2 = r2[: -len(suffix)]
                rv = rv[: -len(suffix)]
                if r2.endswith("at"):
                    word = word[:-2]
                    rv = rv[:-2]
            else:
                word = word[: -len(suffix)]
                rv = rv[: -len(suffix)]
        break

    # Step 2a: verb suffixes beginning with y, only after u.
    if not step1_success:
        for suffix in _STEP2A_SUFFIXES:
            if rv.endswith(suffix) and word[-len(suffix) - 1 : -len(suffix)] == "u":
                word = word[: -len(suffix)]
                rv = rv[: -len(suffix)]
                break

        # Step 2b: other verb suffixes.
        for suffix in _STEP2B_SUFFIXES:
            if rv.endswith(suffix):
                word = word[: -len(suffix)]
                rv = rv[: -len(suffix)]
                if suffix in ("en", "es", "\xe9is", "emos"):
                    if word.endswith("gu"):
                        word = word[:-1]
                    if rv.endswith("gu"):
                        rv = rv[:-1]
                break

    # Step 3: residual suffix.
    for suffix in _STEP3_SUFFIXES:
        if rv.endswith(suffix):
            word = word[: -len(suffix)]
            if suffix in ("e", "\xe9"):
                rv = rv[: -len(suffix)]
                if word[-2:] == "gu" and rv.endswith("u"):
                    word = word[:-1]
            break

    return _replace_accented(word)


# ---------------------------------------------------------------------------
# tokens and report text as the package made them before tokenizing took a
# fast path for chunks with nothing to trim and reports were streamed: the
# trim loops for every chunk, a CSV cell by isinstance checks, and each JSON
# mirror converted whole, then encoded by one indented ``json.dumps``


def tokenize(text):
    tokens = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and not chunk[start].isalnum():
            start += 1
        while end > start and not chunk[end - 1].isalnum():
            end -= 1
        chunk = chunk[start:end]
        if not chunk:
            continue
        tokens.append(chunk.lower())
    return tokens


def csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def json_safe(value):
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a named tuple
        return {name: json_safe(v) for name, v in zip(value._fields, value)}
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def report_json(mirror):
    """The text of a report's JSON file."""
    return json.dumps(json_safe(mirror), indent=2, ensure_ascii=False) + "\n"


def report_table(row_type, rows):
    """A report's CSV header and cells and its JSON rows, as one helper
    derived them from a list of rows before the writer took them from the
    row type: fields in order; a dict field one column per key of the
    first row's, a tuple one ';'-joined cell, and no column for a field
    the row type lists in ``json_only``; an agreement cell shows its alpha.
    """
    from versemood.agreement import AlphaResult

    names = row_type._fields
    csv_names = [name for name in names if name not in getattr(row_type, "json_only", ())]
    columns = {}
    if rows:
        for name in csv_names:
            value = getattr(rows[0], name)
            if isinstance(value, dict):
                columns[name] = list(value)
    header = [col for name in csv_names for col in columns.get(name, [name])]
    cells = []
    for row in rows:
        line = []
        for name in csv_names:
            value = getattr(row, name)
            if name in columns:
                line.extend(value[key] for key in columns[name])
            elif isinstance(value, tuple):
                line.append(";".join(csv_cell(v) for v in value))
            else:
                line.append(value)
        cells.append([cell.alpha if isinstance(cell, AlphaResult) else cell for cell in line])
    mirror = [{name: getattr(row, name) for name in names} for row in rows]
    return header, cells, mirror


def report_mirror(rows, wrapper):
    """A report's JSON document: its JSON rows, or ``wrapper`` with them in
    place of its ``...`` value (a wrapper without one is the whole document).
    """
    if wrapper is None:
        return rows
    return {key: rows if value is ... else value for key, value in wrapper.items()}
