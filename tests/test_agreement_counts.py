"""Agreement cells from one pass over the raters' code tables.

``agreement_report`` codes each rater's table once and takes every
cell's coincidences from rater-pair code tables.  Two earlier kernels
are kept as references, and every cell must equal both exactly:
``oracles.alpha_per_cell``, one ``np.unique`` and one ``np.add.at`` per
cell, and ``oracles.count_table_alphas``, one count table per feature.
"""

import numpy as np
import pytest

import oracles
from versemood import agreement
from versemood.agreement import AgreementError, agreement_report, krippendorff_alpha
from versemood.corpus import (
    ANNOTATED_FEATURES,
    MEDIAN_ANNOTATOR_ID,
    ORDINAL_FEATURES,
    AnnotationSet,
)
from versemood.pipeline import Session

ORDINAL = np.array([f in ORDINAL_FEATURES for f in ANNOTATED_FEATURES])


def _random_sets(rng, n_sets, n_units, with_median):
    """Annotation sets (and a median with half-integer values) over random data.

    Each feature draws one layout: ordinary values with a random share
    missing, one rater's column all missing, a single category
    everywhere, or no unit with two values.
    """
    ids = tuple(f"s{i}" for i in range(n_units))
    n_raters = n_sets + with_median
    values = np.empty((n_raters, n_units, len(ANNOTATED_FEATURES)))
    layouts = []
    for f, ordinal in enumerate(ORDINAL):
        top = 5 if ordinal else 1
        column = rng.integers(0 if top == 1 else 1, top + 1, (n_raters, n_units)).astype(float)
        if with_median:  # half-integer medians, as fusion averages an even count
            column[-1] = rng.integers(2 * (top == 5), 2 * top + 1, n_units) / 2
        layout = rng.choice(["ordinary", "empty column", "one category", "unpairable"])
        if layout == "ordinary":
            column[rng.random(column.shape) < rng.uniform(0.0, 0.6)] = np.nan
        elif layout == "empty column":
            column[rng.integers(n_raters)] = np.nan
        elif layout == "one category":
            column[:] = float(top)
            column[rng.random(column.shape) < 0.3] = np.nan
        else:
            keep = rng.integers(n_raters, size=n_units)
            column[np.arange(n_raters)[:, None] != keep] = np.nan
        values[:, :, f] = column
        layouts.append(layout)
    sets = [AnnotationSet(i + 1, ids, values[i]) for i in range(n_sets)]
    median = AnnotationSet(MEDIAN_ANNOTATOR_ID, ids, values[-1]) if with_median else None
    return sets, median, layouts


def _cell_sets(label, sets, median):
    if label == "all":
        return sets
    by_id = {f"a{s.annotator_id}": s for s in sets}
    first, second = label.split("-")
    return [by_id[first], median if second == "m" else by_id[second]]


def _table(sets, feature):
    """One feature's units x raters array, a column per set."""
    return np.column_stack([s.column(feature) for s in sets])


def _count_table_cells(sets, median, row):
    """A row's cells by the count-table kernel, over a table of every rater."""
    raters = [*sets, median] if median is not None else list(sets)
    cells = [[raters.index(s) for s in _cell_sets(label, sets, median)] for label in row.cells]
    table = _table(raters, row.feature)
    return dict(zip(row.cells, oracles.count_table_alphas(table, row.level, cells)))


def _oracle(cell_sets, feature, level):
    try:
        return oracles.alpha_per_cell(_table(cell_sets, feature), level)
    except AgreementError:
        return None


@pytest.mark.parametrize("with_median", [False, True], ids=["pairwise", "median"])
@pytest.mark.parametrize("n_sets", [2, 3, 4])
def test_every_cell_equals_the_per_cell_kernel(n_sets, with_median):
    rng = np.random.default_rng(1300 + 10 * n_sets + with_median)
    outcomes, layouts_seen = set(), set()
    for _ in range(12):
        sets, median, layouts = _random_sets(rng, n_sets, int(rng.integers(1, 40)), with_median)
        layouts_seen.update(layouts)
        for row in agreement_report(sets, median):
            expected_labels = 1 + n_sets * (n_sets - 1) // 2 + (n_sets if with_median else 0)
            assert len(row.cells) == expected_labels
            for label, result in row.cells.items():
                expected = _oracle(_cell_sets(label, sets, median), row.feature, row.level)
                assert result == expected, (row.feature, label)
                outcomes.add(
                    "none" if result is None else "degenerate" if result.degenerate else "alpha"
                )
            assert row.cells == _count_table_cells(sets, median, row), row.feature
            # the whole table of the sets alone
            try:
                whole = krippendorff_alpha(_table(sets, row.feature), row.level)
            except AgreementError:
                whole = None
            assert whole == row.cells["all"]
    assert outcomes == {"none", "degenerate", "alpha"}
    assert layouts_seen == {"ordinary", "empty column", "one category", "unpairable"}


@pytest.mark.parametrize("n_units", [2000, 10000])
def test_a_large_report_equals_the_count_table_kernel(n_units):
    """Ordinal features fully rated, as annotation files hold them, tags 20%
    missing, and a median with half-integer values.

    Up to three raters a cell's disagreement sums are multiples of 1/4 of
    at most n**4 for n pairable values, so below about 6,900 values they
    are exact in any order: 2000 units are the stress size of the
    benchmark.  The 'all' cell of 10,000 units holds 30,000 values; there
    only each cell's own summation order gives the reference's bits.
    """
    rng = np.random.default_rng(n_units)
    ids = tuple(f"s{i}" for i in range(n_units))
    shape = (4, n_units, len(ANNOTATED_FEATURES))
    values = np.where(ORDINAL, rng.integers(1, 5, shape), rng.integers(0, 2, shape)).astype(float)
    values[-1][:, ORDINAL] = rng.integers(2, 9, (n_units, ORDINAL.sum())) / 2
    values[(rng.random(shape) < 0.2) & ~ORDINAL] = np.nan
    sets = [AnnotationSet(i + 1, ids, values[i]) for i in range(3)]
    median = AnnotationSet(MEDIAN_ANNOTATOR_ID, ids, values[-1])
    for row in agreement_report(sets, median):
        assert row.cells == _count_table_cells(sets, median, row), row.feature


def test_each_feature_is_coded_once(workspace_config, monkeypatch):
    """No table per feature: each rater's whole table is coded once, the
    loaded sets' value codes as they are held and the median's floats."""
    session = Session(workspace_config, ["agreement"])
    sets, median = session.annotations[0], session.median
    expected = agreement_report(sets, median)
    coded, code = [], agreement._code

    def counted_code(table, categories):
        coded.append(table)
        return code(table, categories)

    monkeypatch.setattr(agreement, "_code", counted_code)
    report = agreement_report(sets, median)
    assert [(r.feature, r.cells) for r in report] == [(r.feature, r.cells) for r in expected]
    assert sum(len(r.cells) for r in report) == 7 * len(ANNOTATED_FEATURES)
    assert len(coded) == 4
    assert all(table is s.table for table, s in zip(coded, [*sets, median]))
    assert [table.dtype for table in coded] == [np.uint8] * 3 + [np.float64]
