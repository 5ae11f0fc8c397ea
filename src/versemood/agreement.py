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

A feature is coded once: ``ReliabilityMatrix.counts`` holds every rater's
unit-by-category counts, and every alpha over some of the raters (all, a
pair, an annotator against the median) takes its coincidences from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from .corpus import ANNOTATED_FEATURES, ORDINAL_FEATURES, AnnotationSet

__all__ = [
    "AGREEMENT_THRESHOLD", "AgreementError", "AgreementRow", "AlphaResult", "LEVELS",
    "ReliabilityMatrix", "agreement_band", "agreement_report", "krippendorff_alpha",
    "reliability_from_sets",
]

LEVELS = ("nominal", "ordinal", "interval")

AGREEMENT_THRESHOLD = 0.21

_BANDS = ((0.0, "Very low"), (0.21, "Light"), (0.41, "Acceptable"), (0.61, "Moderate"),
          (0.81, "Substantial"))


class AgreementError(ValueError):
    """Alpha is not computable (no unit carries two or more values)."""


@dataclass(frozen=True, eq=False)
class ReliabilityMatrix:
    """Units-by-raters value table.

    ``values`` is a len(units) x len(raters) float array: rows follow
    ``units``, columns follow ``raters``, and NaN marks a missing value.
    No generated ``__eq__``: an array field has no single truth value.
    """

    level: str
    raters: tuple[int, ...]
    units: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}; expected one of {LEVELS}")
        if self.values.shape != (len(self.units), len(self.raters)):
            raise ValueError(
                f"values must be {len(self.units)} x {len(self.raters)} "
                f"(units x raters), got {self.values.shape}"
            )

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct values, and N[r, c, u]: 1.0 where rater r gave unit u category c."""
        present = ~np.isnan(self.values)
        units, raters = np.nonzero(present)
        categories, codes = np.unique(self.values[present], return_inverse=True)
        shape = (len(self.raters), len(categories), len(self.units))
        flat = (raters * shape[1] + codes) * shape[2] + units
        return categories, np.bincount(flat, minlength=np.prod(shape)).reshape(shape).astype(float)


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
    return next((band for bound, band in _BANDS if alpha < bound), "Perfect")


def reliability_from_sets(
    sets: Sequence[AnnotationSet], feature: str, level: str
) -> ReliabilityMatrix:
    """Collect one feature across annotation sets into a reliability matrix.

    Units are the sets' sonnets, which every set covers in the same order.
    """
    if not sets:
        raise ValueError("need at least one annotation set")
    raters = tuple(s.annotator_id for s in sets)
    if len(set(raters)) != len(raters):
        raise ValueError("annotator ids are not unique")
    units = sets[0].sonnet_ids
    if any(s.sonnet_ids != units for s in sets[1:]):
        raise ValueError("annotation sets cover different sonnets")
    values = np.column_stack([s.column(feature) for s in sets])
    return ReliabilityMatrix(level=level, raters=raters, units=units, values=values)


def krippendorff_alpha(
    matrix: ReliabilityMatrix, raters: Sequence[int] | None = None
) -> AlphaResult:
    """Krippendorff's alpha over the named raters' columns (all when None).

    Units with fewer than two of those values are excluded.  When the
    pairable values show no variation at all, expected disagreement is
    zero and the result is alpha = 1 flagged as degenerate.  A rater id
    not in ``matrix.raters`` raises ValueError.  The result is bit for
    bit that of a matrix of just these columns (see ``_alphas``).
    """
    raters = matrix.raters if raters is None else tuple(raters)
    if not set(raters) <= set(matrix.raters):
        raise ValueError(f"raters {raters} are not all among {matrix.raters}")
    result = next(_alphas(matrix, [raters]))
    if result is None:
        raise AgreementError("no unit has two or more values; alpha is not computable")
    return result


def _alphas(
    matrix: ReliabilityMatrix, cells: Sequence[Sequence[int]]
) -> Iterator[AlphaResult | None]:
    """Alpha over each cell's raters of ``matrix``, None where no unit has two values.

    Up to three raters each weight 1/(m - 1) is 1 or 1/2: the coincidences,
    multiples of 1/2, are exact in any order, so a cell sums its rater
    pairs' blocks of the count table's product with itself.  More raters
    weight their slices unit by unit.  Either way the cell's arrays are
    those of its columns coded alone, bit for bit.
    """
    categories, counts = matrix.counts
    n_raters, k, n_units = counts.shape
    flat = counts.reshape(n_raters * k, n_units)
    pairs = (flat @ flat.T).reshape(n_raters, k, n_raters, k)
    present = ~np.isnan(matrix.values)
    for raters in cells:
        cols = [matrix.raters.index(r) for r in raters]
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
        if matrix.level == "nominal":
            delta_sq = 1.0 - np.eye(len(marginals))
        elif matrix.level == "interval":
            delta_sq = np.subtract.outer(categories[used], categories[used]) ** 2
        else:
            # the marginal mass from category i through j, less half the mass
            # at both ends; identical categories are at distance zero
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


def agreement_report(
    sets: Sequence[AnnotationSet], median: AnnotationSet | None = None
) -> list[AgreementRow]:
    """Alpha table over every annotated feature.

    Ordinal features use the ordinal metric, binary tags the nominal
    one.  Columns cover the joint coefficient, every annotator pair, and,
    when a median set is supplied, each annotator against it, all from
    one reliability matrix per feature.
    """
    if len(sets) < 2:
        raise ValueError("need at least two annotation sets")
    ids = [s.annotator_id for s in sets]
    columns = {"all": ids, **{f"a{i}-a{j}": [i, j] for i, j in combinations(ids, 2)}}
    raters = list(sets)
    if median is not None:
        columns.update({f"a{i}-m": [i, median.annotator_id] for i in ids})
        raters.append(median)
    rows = []
    for feature in ANNOTATED_FEATURES:
        level = "ordinal" if feature in ORDINAL_FEATURES else "nominal"
        matrix = reliability_from_sets(raters, feature, level)
        cells = dict(zip(columns, _alphas(matrix, list(columns.values()))))
        below = tuple(
            label for label, cell in cells.items()
            if cell is not None and cell.alpha < AGREEMENT_THRESHOLD
        )
        rows.append(AgreementRow(feature, level, cells, below))
    return rows
