"""Inter-annotator agreement via Krippendorff's alpha.

Alpha is computed from the coincidence matrix: every unit rated by m >= 2
annotators contributes its ordered value pairs with weight 1/(m - 1), so
partially missing data needs no imputation.  Observed disagreement over
expected disagreement then gives alpha = 1 - D_o / D_e.  Distance between
categories follows the chosen level: identity for nominal data, squared
difference for interval data, and the squared gap between cumulative
marginals for ordinal data.

Alpha can legitimately fall below zero when annotators disagree more than
chance would; values are reported as computed, without clamping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .corpus import DEFAULT_CATALOG, AnnotationSet, FeatureCatalog

__all__ = [
    "AgreementError",
    "AgreementRow",
    "AlphaResult",
    "LEVELS",
    "ReliabilityMatrix",
    "agreement_band",
    "agreement_report",
    "krippendorff_alpha",
    "reliability_from_sets",
]

LEVELS = ("nominal", "ordinal", "interval")

AGREEMENT_THRESHOLD = 0.21


class AgreementError(ValueError):
    """Alpha is not computable (no unit carries two or more values)."""


@dataclass(frozen=True)
class ReliabilityMatrix:
    """Units-by-raters value table with missing cells simply absent."""

    level: str
    raters: tuple[int, ...]
    units: tuple[str, ...]
    values: dict[tuple[str, int], float]

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}; expected one of {LEVELS}")


@dataclass(frozen=True)
class AlphaResult:
    """Alpha plus the context needed to read it.

    ``n_pairable`` counts the values inside units with at least two of
    them.  ``degenerate`` marks the no-variation case where expected
    disagreement is zero and alpha is reported as 1.
    """

    alpha: float
    n_pairable: int
    band: str
    degenerate: bool = False
    note: str | None = None


def agreement_band(alpha: float) -> str:
    """Qualitative label for an agreement coefficient.

    Below zero is worse than chance; from there the scale steps at 0.21,
    0.41, 0.61 and 0.81, each boundary belonging to the higher band.
    """
    if alpha < 0.0:
        return "Very low"
    if alpha < 0.21:
        return "Light"
    if alpha < 0.41:
        return "Acceptable"
    if alpha < 0.61:
        return "Moderate"
    if alpha < 0.81:
        return "Substantial"
    return "Perfect"


def reliability_from_sets(
    sets: Sequence[AnnotationSet], feature: str, level: str
) -> ReliabilityMatrix:
    """Collect one feature across annotation sets into a reliability matrix."""
    if not sets:
        raise ValueError("need at least one annotation set")
    raters = tuple(s.annotator_id for s in sets)
    if len(set(raters)) != len(raters):
        raise ValueError("annotator ids are not unique")
    units = sets[0].sonnet_ids
    values: dict[tuple[str, int], float] = {}
    for s in sets:
        for sid in s.sonnet_ids:
            v = s.values.get((sid, feature))
            if v is not None:
                values[(sid, s.annotator_id)] = v
    all_units: list[str] = list(units)
    seen = set(units)
    for s in sets[1:]:
        for sid in s.sonnet_ids:
            if sid not in seen:
                seen.add(sid)
                all_units.append(sid)
    return ReliabilityMatrix(level=level, raters=raters, units=tuple(all_units), values=values)


def _ordinal_delta_sq(categories: list[float], marginals: list[float]):
    """Squared ordinal distance from cumulative coincidence marginals.

    For categories c <= k (by rank) the distance is the total marginal
    mass from c through k minus half the mass at the two endpoints,
    squared.  Identical categories are at distance zero.
    """
    index = {c: i for i, c in enumerate(categories)}
    prefix = [0.0]
    for m in marginals:
        prefix.append(prefix[-1] + m)

    def delta_sq(c: float, k: float) -> float:
        i, j = sorted((index[c], index[k]))
        if i == j:
            return 0.0
        between = prefix[j + 1] - prefix[i]
        return (between - 0.5 * (marginals[i] + marginals[j])) ** 2

    return delta_sq


def krippendorff_alpha(matrix: ReliabilityMatrix) -> AlphaResult:
    """Krippendorff's alpha for the matrix's measurement level.

    Units with fewer than two values are excluded.  When the pairable
    values show no variation at all, expected disagreement is zero and
    the result is alpha = 1 flagged as degenerate.
    """
    unit_values = []
    for unit in matrix.units:
        vals = [
            matrix.values[(unit, rater)]
            for rater in matrix.raters
            if (unit, rater) in matrix.values
        ]
        if len(vals) >= 2:
            unit_values.append(vals)
    if not unit_values:
        raise AgreementError("no unit has two or more values; alpha is not computable")

    n = sum(len(vals) for vals in unit_values)
    coincidence: dict[tuple[float, float], float] = defaultdict(float)
    for vals in unit_values:
        weight = 1.0 / (len(vals) - 1)
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                if i != j:
                    coincidence[(vi, vj)] += weight

    categories = sorted({c for pair in coincidence for c in pair})
    marginals = [
        sum(coincidence.get((c, k), 0.0) for k in categories) for c in categories
    ]

    if matrix.level == "nominal":
        delta_sq = lambda c, k: 0.0 if c == k else 1.0  # noqa: E731
    elif matrix.level == "interval":
        delta_sq = lambda c, k: (c - k) ** 2  # noqa: E731
    else:
        delta_sq = _ordinal_delta_sq(categories, marginals)

    observed = sum(
        weight * delta_sq(c, k) for (c, k), weight in coincidence.items()
    ) / n
    expected = sum(
        marginals[i] * marginals[j] * delta_sq(categories[i], categories[j])
        for i in range(len(categories))
        for j in range(len(categories))
        if i != j
    ) / (n * (n - 1))

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


@dataclass(frozen=True)
class AgreementRow:
    """One annotated feature's agreement cells.

    ``cells`` maps a column label ('all', 'a1-a2', 'a1-m', ...) to an
    AlphaResult, or None when that cell was not computable.  Columns
    under the reliability threshold are listed in ``below_threshold``.
    """

    feature: str
    level: str
    cells: dict[str, AlphaResult | None]
    below_threshold: tuple[str, ...]


def _alpha_cell(sets: Sequence[AnnotationSet], feature: str, level: str) -> AlphaResult | None:
    try:
        return krippendorff_alpha(reliability_from_sets(sets, feature, level))
    except AgreementError:
        return None


def agreement_report(
    sets: Sequence[AnnotationSet],
    median: AnnotationSet | None = None,
    catalog: FeatureCatalog = DEFAULT_CATALOG,
) -> list[AgreementRow]:
    """Alpha table over every annotated feature.

    Ordinal features use the ordinal metric, binary tags the nominal
    one.  Columns cover the joint coefficient, every annotator pair, and,
    when a median set is supplied, each annotator against it.
    """
    if len(sets) < 2:
        raise ValueError("need at least two annotation sets")
    rows = []
    for feature in catalog.all_features:
        level = "ordinal" if feature in catalog.ordinal else "nominal"
        cells: dict[str, AlphaResult | None] = {}
        cells["all"] = _alpha_cell(sets, feature, level)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                label = f"a{sets[i].annotator_id}-a{sets[j].annotator_id}"
                cells[label] = _alpha_cell([sets[i], sets[j]], feature, level)
        if median is not None:
            for s in sets:
                label = f"a{s.annotator_id}-m"
                cells[label] = _alpha_cell([s, median], feature, level)
        below = tuple(
            label
            for label, result in cells.items()
            if result is not None and result.alpha < AGREEMENT_THRESHOLD
        )
        rows.append(
            AgreementRow(feature=feature, level=level, cells=cells, below_threshold=below)
        )
    return rows
