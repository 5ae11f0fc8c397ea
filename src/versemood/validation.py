"""Validation battery: annotated features against the lexical profile.

Three views of the same question (do the lexicon-derived features track
what the experts annotated?): a bivariate rank-correlation matrix,
per-category regressions reporting the paired feature's partial
dependence, and per-tag ANOVA of every mean feature between tagged and
untagged sonnets.

Regressions use all 32 features as predictors.  Two of them are exact
linear combinations by construction (each span is its max minus its
min), so the regression design drops whatever columns the rank check
reports, keeping the first occurrence of every direction; every removal
is recorded as a decision.  The rank check is one QR pass per design,
with the prefix-SVD test as referee on columns R cannot settle.
Categories too small for the full predictor set fall back to the 20
mean/sd features.

Only what the reports read is computed: a row reads its paired
feature's p-value alone, and the correlation matrix ranks each column
once per set of paired sonnets it is used with.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import ORDINAL_FEATURES, AnnotationSet, categories
from .features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    MEAN_FEATURES,
    MEAN_SD_FEATURES,
    FeatureMatrix,
)
from .stats import LinearDesign, one_way_anova, rank_correlation, ranking
from .textnorm import decide

__all__ = [
    "AnovaReport",
    "AnovaRow",
    "BivariateCell",
    "FEATURE_PAIRINGS",
    "PartialDependenceRow",
    "SIGNIFICANCE_LEVEL",
    "anova_report",
    "bivariate_report",
    "partial_dependence_report",
]

SIGNIFICANCE_LEVEL = 0.05

# Each ordinal feature with the mean of its lexicon dimension: the two share one order.
FEATURE_PAIRINGS: tuple[tuple[str, str], ...] = tuple(zip(ORDINAL_FEATURES, MEAN_FEATURES))


class BivariateCell(NamedTuple):
    """Rank correlation of one annotated feature with one lexical feature."""

    annotated_feature: str
    gam_feature: str
    n: int
    rho: float | None
    band: str | None
    note: str | None = None


def _require_aligned(matrix: FeatureMatrix, median: AnnotationSet) -> None:
    if median.sonnet_ids != matrix.sonnet_ids:
        raise ValueError("the median annotator and the feature matrix cover different sonnets")


def bivariate_report(matrix: FeatureMatrix, median: AnnotationSet) -> list[BivariateCell]:
    """Spearman rho for every annotated feature against all 32 features.

    The median covers the matrix's sonnets in the same order.  Each cell
    ranks its two columns over the sonnets where both are defined, so a
    sonnet is dropped pairwise, cell by cell; a column is ranked once per
    set of paired sonnets it is used with.
    """
    _require_aligned(matrix, median)
    Ranking = tuple[np.ndarray, float]
    rankings: dict[tuple[str, bytes | None], Ranking] = {}

    def ranked(name: str, values: np.ndarray, subset: np.ndarray | None) -> Ranking:
        # keyed by the subset's mask; None (every sonnet) skips the mask's bytes
        key = (name, None if subset is None else subset.tobytes())
        if key not in rankings:
            rankings[key] = ranking(values if subset is None else values[subset])
        return rankings[key]

    columns = [(f, matrix.column(f)) for f in FEATURE_NAMES]
    defined = [~np.isnan(values) for _, values in columns]
    cells = []
    for annotated in ORDINAL_FEATURES:
        x = median.column(annotated)
        x_defined = ~np.isnan(x)
        for (gam_feature, y), y_defined in zip(columns, defined):
            paired = x_defined & y_defined
            n = int(np.count_nonzero(paired))
            if n < 2:
                note = "fewer than two paired sonnets"
                cells.append(BivariateCell(annotated, gam_feature, n, None, None, note=note))
                continue
            subset = None if n == len(x) else paired
            result = rank_correlation(ranked(annotated, x, subset), ranked(gam_feature, y, subset))
            cells.append(BivariateCell(
                annotated, gam_feature, n, result.rho, result.band, result.undefined_reason
            ))
    return cells


class PartialDependenceRow(NamedTuple):
    """One category-by-pairing regression outcome.

    The regression fits the annotated feature on the whole predictor
    set; ``coefficient`` and ``p_value`` belong to the paired lexical
    feature.  ``note`` is set when the row was not computable, and the
    fields after ``n`` then keep their defaults.
    """

    category: str
    annotated_feature: str
    gam_feature: str
    n: int
    n_predictors: int = 0
    r_squared: float | None = None
    adjusted_r_squared: float | None = None
    coefficient: float | None = None
    p_value: float | None = None
    significant: bool = False
    pruned: bool = False
    dropped_columns: tuple[str, ...] = ()
    note: str | None = None


def _category_rows(
    values: np.ndarray,
    index: np.ndarray,
    median: AnnotationSet,
    category: str,
) -> list[PartialDependenceRow]:
    """The 10 pairing rows of one category, all fitted on one design.

    The rows, predictors and dropped columns depend on the category
    only, so the pruning and the design (which drops its own dependent
    columns) are built once; a pairing then gets a note, as a separate
    fit per pairing would, when its paired feature was dropped as
    collinear or its fit fails.  A category's decisions are recorded
    once, a pairing's note once per pairing.
    """
    sub = values[index]
    predictors = FEATURE_NAMES
    # undefined feature values are NaN, so one mask drops sonnets listwise
    keep = ~np.isnan(sub).any(axis=1)
    pruned = False
    if keep.sum() <= len(predictors) + 1:
        predictors = MEAN_SD_FEATURES
        pruned = True
        keep = ~np.isnan(sub[:, [FEATURE_INDEX[p] for p in predictors]]).any(axis=1)
        n = keep.sum()
        decide(__name__, f"partial dependence {category}: pruned predictors to mean/sd set (n={n})")
    rows = index[keep]
    sub = sub[keep]
    if len(rows) <= len(predictors) + 1:
        note = (
            f"insufficient rows for regression ({len(rows)} sonnets, {len(predictors)} predictors)"
        )
        decide(__name__, f"partial dependence {category}: {note}", len(FEATURE_PAIRINGS))
        return [
            PartialDependenceRow(category, annotated, gam_feature, len(rows), note=note)
            for annotated, gam_feature in FEATURE_PAIRINGS
        ]
    design = LinearDesign(sub[:, [FEATURE_INDEX[p] for p in predictors]], predictors)
    for bad in design.dropped:
        columns = ", ".join(bad)
        decide(__name__, f"partial dependence {category}: dropped dependent columns {columns}")
    dropped = tuple(column for bad in design.dropped for column in bad)

    out = []
    for annotated, gam_feature in FEATURE_PAIRINGS:
        note = None
        if gam_feature in dropped:
            note = f"paired feature {gam_feature} is collinear in this category"
        else:
            try:
                fit = design.fit(median.column(annotated)[rows])
            except ValueError as exc:
                note = str(exc)
        if note is not None:
            decide(__name__, f"partial dependence {category}/{annotated}: {note}", 1)
            out.append(PartialDependenceRow(category, annotated, gam_feature, len(rows), note=note))
            continue
        idx = design.columns.index(gam_feature)
        coefficient = fit.coefficients[idx]
        p_value = fit.p_value(idx)
        out.append(PartialDependenceRow(
            category=category,
            annotated_feature=annotated,
            gam_feature=gam_feature,
            n=fit.n,
            n_predictors=fit.k,
            r_squared=fit.r_squared,
            adjusted_r_squared=fit.adjusted_r_squared,
            coefficient=coefficient,
            p_value=p_value,
            significant=p_value < SIGNIFICANCE_LEVEL and coefficient > 0.0,
            pruned=pruned,
            dropped_columns=dropped,
        ))
    return out


def partial_dependence_report(
    matrix: FeatureMatrix, median: AnnotationSet
) -> list[PartialDependenceRow]:
    """Per-category regressions of each annotated feature on the profile.

    The median covers the matrix's sonnets in the same order.
    Categories are the whole corpus and every psychological tag's tagged
    subset.  Sonnets with any undefined value among the active
    predictors are dropped listwise per category.
    """
    _require_aligned(matrix, median)
    rows = []
    for category, members in categories(median):
        rows.extend(_category_rows(matrix.values, np.flatnonzero(members), median, category))
    return rows


class AnovaRow(NamedTuple):
    """A tag/feature combination whose group difference is significant."""

    category: str
    gam_feature: str
    n_in: int
    n_out: int
    mean_in: float
    mean_out: float
    f_statistic: float
    p_value: float


class AnovaReport(NamedTuple):
    """Significant rows plus the size of the grid they were drawn from."""

    rows: tuple[AnovaRow, ...]
    n_total: int
    n_significant: int
    skipped: tuple[tuple[str, str, str], ...]


def anova_report(matrix: FeatureMatrix, median: AnnotationSet) -> AnovaReport:
    """One-way ANOVA of every mean feature between tagged and untagged.

    The median covers the matrix's sonnets in the same order.  All
    tag-by-feature combinations are tested; only those significant at
    the 0.05 level become rows.  Combinations that cannot run (a group
    with fewer than two defined values) are listed as skipped; each skip,
    and each combination without within-group variance, is a degenerate
    decision.
    """
    _require_aligned(matrix, median)
    rows: list[AnovaRow] = []
    skipped: list[tuple[str, str, str]] = []
    n_total = 0
    for tag, tagged in categories(median)[1:]:
        for feature in MEAN_FEATURES:
            n_total += 1
            column = matrix.column(feature)
            defined = ~np.isnan(column)
            in_vals = column[defined & tagged]
            out_vals = column[defined & ~tagged]
            if len(in_vals) < 2 or len(out_vals) < 2:
                reason = "a group has fewer than two values"
                skipped.append((tag, feature, reason))
                decide(__name__, f"anova {tag}/{feature}: skipped: {reason}", 1)
                continue
            result = one_way_anova([in_vals, out_vals])
            if result.degenerate is not None:
                decide(__name__, f"anova {tag}/{feature}: {result.degenerate}", 1)
            if result.p_value < SIGNIFICANCE_LEVEL:
                rows.append(AnovaRow(
                    tag, feature, len(in_vals), len(out_vals), *result.group_means,
                    result.f_statistic, result.p_value,
                ))
    return AnovaReport(
        rows=tuple(rows),
        n_total=n_total,
        n_significant=len(rows),
        skipped=tuple(skipped),
    )
