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

``krippendorff_alpha`` takes one units x raters array and
``agreement_report`` the annotation sets; both run one kernel.  A report
is one pass (``_alphas``): each rater's table is coded once, a loaded
set's uint8 codes by one lookup, and each rater pair's coincidences,
every feature at once, are one ``np.bincount`` of their code pairs.  The
disagreement sums are taken over cells grouped by the categories they
use, each over its own contiguous square, so every alpha is bit for bit
that of its columns computed alone.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import ANNOTATED_FEATURES, CODE_VALUES, ORDINAL_FEATURES, AnnotationSet

__all__ = [
    "AGREEMENT_THRESHOLD", "AgreementError", "AgreementRow", "AlphaResult", "LEVELS",
    "agreement_band", "agreement_report", "krippendorff_alpha",
]

LEVELS = ("nominal", "ordinal", "interval")

AGREEMENT_THRESHOLD = 0.21

_BANDS = ((0.0, "Very low"), (0.21, "Light"), (0.41, "Acceptable"), (0.61, "Moderate"),
          (0.81, "Substantial"))


class AgreementError(ValueError):
    """Alpha is not computable (no unit carries two or more values)."""


class AlphaResult(NamedTuple):
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


def krippendorff_alpha(values: np.ndarray, level: str) -> AlphaResult:
    """Krippendorff's alpha of a units x raters float array (NaN: missing, ±inf: ValueError).

    Units with fewer than two values are excluded.  When the pairable
    values show no variation at all, expected disagreement is zero and
    the result is alpha = 1 flagged as degenerate.  For some raters
    only, pass their columns.  The result is bit for bit that of the
    same columns in an ``agreement_report`` cell (see ``_alphas``).
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or not values.shape[1]:
        raise ValueError(f"values must be units x raters, got shape {values.shape}")
    if np.isinf(values).any():
        raise ValueError("values must be finite or NaN (missing), not infinite")
    result = _alphas(np.hsplit(values, values.shape[1]), [level], [range(values.shape[1])])[0][0]
    if result is None:
        raise AgreementError("no unit has two or more values; alpha is not computable")
    return result


# Units per block of the kernel's temporaries (127 KiB of intp at 31 features),
# so that they do not grow with the corpus.
_BLOCK = 512


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values present (not NaN), sorted."""
    values = np.sort(values, axis=None)
    values = values[:np.searchsorted(values, np.nan)]  # NaN sorts last
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _code(table: np.ndarray, categories: np.ndarray) -> np.ndarray:
    """Each value's index in the sorted ``categories``; len(categories) where it is missing."""
    dtype = np.min_scalar_type(len(categories))
    if table.dtype == np.uint8:  # codes: one lookup (``categories`` holds their values)
        return np.searchsorted(categories, CODE_VALUES).astype(dtype)[table]
    codes = np.zeros(table.shape, dtype)
    for category in categories[:-1]:
        codes += table > category
    codes[np.isnan(table)] = len(categories)
    return codes


def _alphas(
    tables: Sequence[np.ndarray], levels: Sequence[str], cells: Sequence[Sequence[int]]
) -> list[list[AlphaResult | None]]:
    """Alpha of each feature over each cell's raters, None where no unit has two values.

    ``tables[r]`` is rater r's units x features values (NaN: missing) or codes,
    ``levels[f]`` the level of feature f, and a cell lists the indices of its
    raters' tables; the result is indexed [feature][cell].  The categories are
    the code values and the floats' (one no cell uses enters no sum).  Up to
    three raters a cell sums its pairs' code tables, less half of them over the
    units all three rated.  More raters weight their units one by one.  Either
    way a cell's arrays are those of its columns alone, bit for bit, and so are
    its sums: the cells of a level that use the same categories are reduced
    together, each over its own k x k block.
    """
    n_units, n_features = tables[0].shape
    blocks = range(0, max(n_units, 1), _BLOCK)  # one empty block when there is no unit
    distinct = [_distinct(t[u:u + _BLOCK]) for t in tables if t.dtype != np.uint8 for u in blocks]
    categories = _distinct(np.concatenate([CODE_VALUES, *distinct]))
    k = len(categories)
    codes = [_code(t, categories) for t in tables]

    def tally(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """[f, i, j]: units where one gave feature f category i and the other j, both ways."""
        counts = np.zeros(n_features * (k + 1) ** 2, np.intp)
        for u in blocks:
            at = np.arange(n_features) * (k + 1) + first[u:u + _BLOCK]  # built in place
            at *= k + 1
            at += second[u:u + _BLOCK]
            counts += np.bincount(at.ravel(), minlength=len(counts))
        counts = counts.reshape(n_features, k + 1, k + 1)[:, :k, :k]  # less the missing code
        return counts + counts.transpose(0, 2, 1)

    pair = cache(lambda a, b: tally(codes[a], codes[b]))
    coincidence = np.zeros((n_features, len(cells), k, k))
    n = np.zeros((n_features, len(cells)), np.intp)
    for c, cell in enumerate(cells):
        if len(cell) <= 3:
            block = coincidence[:, c]
            for a, b in combinations(cell, 2):
                block += pair(a, b)
            if len(cell) == 3:  # a unit all three rated weighs 1/2, not 1
                rated = np.logical_and.reduce([codes[r] < k for r in cell])
                for a, b in combinations(cell, 2):
                    block -= 0.5 * tally(np.where(rated, codes[a], k), codes[b])
            n[:, c] = block.sum(axis=(1, 2))
            continue
        for f in range(n_features):
            counts = sum(codes[r][:, f, None] == np.arange(k) for r in cell)  # N[u, c]
            m = counts.sum(axis=1)
            pairable = m >= 2
            used = counts[pairable].any(axis=0)
            counts = np.ascontiguousarray(counts[pairable][:, used], dtype=float)
            weighted = counts / (m[pairable] - 1)[:, None]
            coincidence[f, c][np.ix_(used, used)] = (
                weighted.T @ counts - np.diag(weighted.sum(axis=0))
            )
            n[f, c] = m[pairable].sum()

    flat, n = coincidence.reshape(n.size, k, k), n.ravel().tolist()
    used = flat.any(axis=2)
    groups: dict[tuple[str, bytes], list[int]] = {}
    for i in np.flatnonzero(n).tolist():
        groups.setdefault((levels[i // len(cells)], used[i].tobytes()), []).append(i)
    results: list[AlphaResult | None] = [None] * len(n)
    for (level, key), members in groups.items():
        kept = np.flatnonzero(np.frombuffer(key, bool))
        block = flat[np.ix_(members, kept, kept)]
        marginals = block.sum(axis=2)
        if level == "nominal":
            delta_sq = 1.0 - np.eye(len(kept))
        elif level == "interval":
            delta_sq = np.subtract.outer(categories[kept], categories[kept]) ** 2
        else:
            # the marginal mass from category i through j, less half the mass
            # at both ends; identical categories are at distance zero
            order = np.arange(len(kept))
            lo = np.minimum.outer(order, order)
            hi = np.maximum.outer(order, order)
            cumulative = np.zeros((len(members), len(kept) + 1))
            np.cumsum(marginals, axis=1, out=cumulative[:, 1:])
            between = cumulative[:, hi + 1] - cumulative[:, lo]
            delta_sq = (between - 0.5 * (marginals[:, lo] + marginals[:, hi])) ** 2
        observed = (block * delta_sq).sum(axis=(1, 2)).tolist()
        expected = (marginals[:, :, None] * marginals[:, None, :] * delta_sq).sum(axis=(1, 2))
        for i, d_o, d_e in zip(members, observed, expected.tolist()):
            d_o, d_e = d_o / n[i], d_e / (n[i] * (n[i] - 1))
            if d_e == 0.0:
                note = "degenerate: no variation among pairable values"
                results[i] = AlphaResult(1.0, n[i], agreement_band(1.0), degenerate=True, note=note)
            else:
                alpha = 1.0 - d_o / d_e
                results[i] = AlphaResult(alpha=alpha, n_pairable=n[i], band=agreement_band(alpha))
    return [results[f * len(cells):(f + 1) * len(cells)] for f in range(n_features)]


class AgreementRow(NamedTuple):
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
    when a median set is supplied, each annotator against it, all in
    one pass over the raters' tables.
    """
    if len(sets) < 2:
        raise ValueError("need at least two annotation sets")
    ids = [s.annotator_id for s in sets]
    columns = {"all": ids, **{f"a{i}-a{j}": [i, j] for i, j in combinations(ids, 2)}}
    raters = list(sets)
    if median is not None:
        columns.update({f"a{i}-m": [i, median.annotator_id] for i in ids})
        raters.append(median)
    if len({r.annotator_id for r in raters}) != len(raters):
        raise ValueError("annotator ids are not unique")
    if any(r.sonnet_ids != sets[0].sonnet_ids for r in raters[1:]):
        raise ValueError("annotation sets cover different sonnets")
    position = {r.annotator_id: i for i, r in enumerate(raters)}
    levels = ["ordinal" if f in ORDINAL_FEATURES else "nominal" for f in ANNOTATED_FEATURES]
    members = [tuple(map(position.get, cell)) for cell in columns.values()]
    rows = []
    for feature, level, alphas in zip(
        ANNOTATED_FEATURES, levels, _alphas([r.table for r in raters], levels, members)
    ):
        cells = dict(zip(columns, alphas))
        below = tuple(
            label for label, cell in cells.items()
            if cell is not None and cell.alpha < AGREEMENT_THRESHOLD
        )
        rows.append(AgreementRow(feature, level, cells, below))
    return rows
