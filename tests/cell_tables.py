"""Annotation sets and reliability matrices to and from {cell: value} dicts.

Tests state their data as cells keyed (sonnet_id, feature) or
(unit, rater); the package stores one float array per table with NaN
for a missing cell.  An absent key is a missing cell both ways.
"""

import math

import numpy as np

from versemood.agreement import ReliabilityMatrix
from versemood.corpus import AnnotationSet


def _array(rows, cols, cells):
    values = np.full((len(rows), len(cols)), np.nan)
    row_of = {r: i for i, r in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(cols)}
    for (r, c), value in cells.items():
        values[row_of[r], col_of[c]] = value
    return values


def annotation_set(annotator_id, sonnet_ids, features, cells):
    """An AnnotationSet holding ``cells[(sonnet_id, feature)]``."""
    sonnet_ids, features = tuple(sonnet_ids), tuple(features)
    return AnnotationSet(
        annotator_id=annotator_id,
        sonnet_ids=sonnet_ids,
        features=features,
        values=_array(sonnet_ids, features, cells),
    )


def reliability_matrix(level, raters, units, cells):
    """A ReliabilityMatrix holding ``cells[(unit, rater)]``."""
    raters, units = tuple(raters), tuple(units)
    return ReliabilityMatrix(
        level=level, raters=raters, units=units, values=_array(units, raters, cells)
    )


def cells_of(table):
    """The present cells of an AnnotationSet or a ReliabilityMatrix."""
    if isinstance(table, AnnotationSet):
        rows, cols = table.sonnet_ids, table.features
    else:
        rows, cols = table.units, table.raters
    return {
        (r, c): value
        for r, line in zip(rows, table.values.tolist())
        for c, value in zip(cols, line)
        if not math.isnan(value)
    }
