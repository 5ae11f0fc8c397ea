"""Agreement cells from one count table per feature.

``agreement_report`` codes each feature once and gives every cell its
counts by summing raters' slices.  The per-cell kernel it replaced, one
``np.unique`` and one ``np.add.at`` per cell, is kept as
``oracles.alpha_per_cell``; every cell must equal it exactly.
"""

import numpy as np
import pytest

import oracles
from versemood import agreement
from versemood.agreement import (
    AgreementError,
    agreement_report,
    krippendorff_alpha,
    reliability_from_sets,
)
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


def _oracle(cell_sets, feature, level):
    try:
        return oracles.alpha_per_cell(reliability_from_sets(cell_sets, feature, level))
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
            # the whole matrix of the sets alone, raters=None
            matrix = reliability_from_sets(sets, row.feature, row.level)
            try:
                whole = krippendorff_alpha(matrix)
            except AgreementError:
                whole = None
            assert whole == row.cells["all"]
    assert outcomes == {"none", "degenerate", "alpha"}
    assert layouts_seen == {"ordinary", "empty column", "one category", "unpairable"}


def test_each_feature_is_coded_once(workspace_config, monkeypatch):
    session = Session(workspace_config, ["agreement"])
    sets, median = session.annotations[0], session.median
    expected = agreement_report(sets, median)
    calls = {"unique": 0, "matrices": 0}
    unique, from_sets = np.unique, agreement.reliability_from_sets

    def counted_unique(*args, **kwargs):
        calls["unique"] += 1
        return unique(*args, **kwargs)

    def counted_from_sets(*args, **kwargs):
        calls["matrices"] += 1
        return from_sets(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(agreement, "reliability_from_sets", counted_from_sets)
    report = agreement_report(sets, median)
    assert [(r.feature, r.cells) for r in report] == [(r.feature, r.cells) for r in expected]
    assert sum(len(r.cells) for r in report) == 7 * len(ANNOTATED_FEATURES)
    assert calls["matrices"] == len(ANNOTATED_FEATURES) == 31
    assert calls["unique"] <= len(ANNOTATED_FEATURES)


def test_unknown_rater_raises_value_error(workspace_config):
    sets = Session(workspace_config, ["agreement"]).annotations[0]
    matrix = reliability_from_sets(sets, "valence", "ordinal")
    assert krippendorff_alpha(matrix, (1, 2)) == krippendorff_alpha(
        reliability_from_sets(sets[:2], "valence", "ordinal")
    )
    with pytest.raises(ValueError, match="not all among") as raised:
        krippendorff_alpha(matrix, (1, MEDIAN_ANNOTATOR_ID))
    assert not isinstance(raised.value, AgreementError)
