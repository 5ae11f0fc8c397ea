"""Agreement coefficient tests: hand cases, invariances, oracle equivalence."""

import numpy as np
import pytest

import oracles
from cell_tables import alpha_of, annotation_set, cells_of
from versemood.agreement import (
    AGREEMENT_THRESHOLD,
    LEVELS,
    AgreementError,
    agreement_band,
    agreement_report,
    krippendorff_alpha,
)
from versemood.corpus import (
    ANNOTATED_FEATURES,
    ORDINAL_FEATURES,
    PSYCHOLOGICAL_TAGS,
    build_median_annotator,
    fill_missing_psych,
)


def test_perfect_agreement_is_one():
    result = alpha_of([[1, 1], [2, 2], [3, 3]])
    assert result.alpha == 1.0
    assert result.band == "Perfect"
    assert not result.degenerate


def test_systematic_swap_goes_negative():
    result = alpha_of([[1, 2], [2, 1]])
    assert result.alpha == pytest.approx(-0.5, abs=1e-12)
    assert result.band == "Very low"


def test_two_category_levels_coincide():
    rows = [[1, 1], [1, 2], [2, 2]]
    alphas = [
        alpha_of(rows, level).alpha
        for level in ("nominal", "ordinal", "interval")
    ]
    assert alphas[0] == pytest.approx(alphas[1], abs=1e-12)
    assert alphas[1] == pytest.approx(alphas[2], abs=1e-12)
    assert alphas[0] == pytest.approx(0.4444444444444444, abs=1e-12)


def test_short_units_are_excluded():
    a = alpha_of([[1, 1], [2, 2], [3, None]])
    b = alpha_of([[1, 1], [2, 2]])
    assert a.alpha == b.alpha
    assert a.n_pairable == 4


def test_no_pairable_units_raises():
    with pytest.raises(AgreementError):
        alpha_of([[1, None], [None, 2]])


def test_unknown_level_and_bad_shape_raise_value_error():
    with pytest.raises(ValueError, match="unknown level 'ratio'; expected one of") as raised:
        krippendorff_alpha(np.ones((2, 2)), "ratio")
    assert not isinstance(raised.value, AgreementError)
    for shape in ((3,), (2, 0), (2, 2, 2)):
        with pytest.raises(ValueError, match="values must be units x raters, got shape"):
            krippendorff_alpha(np.ones(shape), "nominal")


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("infinite", [np.inf, -np.inf])
def test_infinite_value_raises_value_error(level, infinite):
    # NaN still means missing; an infinite value is refused, not read as alpha = nan
    values = np.array([[1, 1], [2, infinite], [3, np.nan]])
    with pytest.raises(ValueError, match="not infinite") as raised:
        krippendorff_alpha(values, level)
    assert not isinstance(raised.value, AgreementError)


def test_no_variation_flagged_degenerate():
    result = alpha_of([[2, 2], [2, 2]])
    assert result.alpha == 1.0
    assert result.degenerate
    assert "no variation" in result.note


def test_nominal_relabeling_invariance():
    rng = np.random.default_rng(50)
    for _ in range(200):
        rows = rng.integers(1, 5, size=(6, 3)).tolist()
        base = alpha_of(rows, "nominal").alpha
        relabel = {1: 9.0, 2: 3.5, 3: 7.0, 4: 1.0}
        mapped = [[relabel[v] for v in row] for row in rows]
        again = alpha_of(mapped, "nominal").alpha
        assert again == pytest.approx(base, abs=1e-12)


def test_ordinal_monotone_relabeling_invariance():
    rng = np.random.default_rng(51)
    for _ in range(200):
        rows = rng.integers(1, 5, size=(7, 3)).tolist()
        base = alpha_of(rows, "ordinal").alpha
        mapped = [[v**2 + 10 for v in row] for row in rows]
        again = alpha_of(mapped, "ordinal").alpha
        assert again == pytest.approx(base, abs=1e-12)


def test_row_and_column_permutation_invariance():
    rng = np.random.default_rng(52)
    for _ in range(100):
        rows = rng.integers(1, 4, size=(6, 4)).tolist()
        for level in ("nominal", "ordinal", "interval"):
            base = alpha_of(rows, level).alpha
            shuffled_units = [rows[i] for i in rng.permutation(6)]
            order = rng.permutation(4)
            shuffled_both = [[row[j] for j in order] for row in shuffled_units]
            again = alpha_of(shuffled_both, level).alpha
            assert again == pytest.approx(base, abs=1e-12)


def test_added_consensus_unit_never_lowers_alpha():
    rng = np.random.default_rng(53)
    for _ in range(100):
        rows = rng.integers(1, 4, size=(5, 3)).tolist()
        base = alpha_of(rows, "nominal")
        if base.degenerate:
            continue
        seen = rows[0][0]  # reuse an existing category
        extended = rows + [[seen, seen, seen]]
        grown = alpha_of(extended, "nominal")
        assert grown.alpha >= base.alpha - 1e-12


def test_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(54)
    checked = 0
    while checked < 300:
        n_units = int(rng.integers(2, 7))
        n_raters = int(rng.integers(2, 5))
        rows = rng.integers(1, 5, size=(n_units, n_raters)).astype(float)
        mask = rng.random(size=rows.shape) < 0.15
        cells = [
            [None if mask[i, j] else rows[i, j] for j in range(n_raters)]
            for i in range(n_units)
        ]
        units = [[v for v in row if v is not None] for row in cells]
        pooled = [v for u in units if len(u) >= 2 for v in u]
        if len(pooled) < 2 or len(set(pooled)) < 2:
            continue
        level = ("nominal", "ordinal", "interval")[checked % 3]
        mine = alpha_of(cells, level)
        assert mine.alpha == pytest.approx(
            oracles.krippendorff_alpha(units, level), abs=1e-12
        )
        checked += 1


def test_two_rater_interval_against_oracle_tightly():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n_units = int(rng.integers(2, 7))
        rows = rng.integers(1, 6, size=(n_units, 2)).astype(float).tolist()
        pooled = [v for row in rows for v in row]
        if len(set(pooled)) < 2:
            continue
        mine = alpha_of(rows, "interval")
        ref = oracles.krippendorff_alpha(rows, "interval")
        assert mine.alpha == pytest.approx(ref, abs=1e-12)


def test_band_boundaries():
    assert agreement_band(-0.01) == "Very low"
    assert agreement_band(0.0) == "Light"
    assert agreement_band(0.2099) == "Light"
    assert agreement_band(0.21) == "Acceptable"
    assert agreement_band(0.41) == "Moderate"
    assert agreement_band(0.61) == "Substantial"
    assert agreement_band(0.81) == "Perfect"
    assert agreement_band(1.0) == "Perfect"
    assert AGREEMENT_THRESHOLD == 0.21


def small_sets(values_by_annotator, feature="valence", ids=("s1", "s2", "s3", "s4")):
    sets = []
    for annotator_id, values in values_by_annotator.items():
        cells = {
            (sid, feature): float(v)
            for sid, v in zip(ids, values)
            if v is not None
        }
        sets.append(annotation_set(annotator_id, ids, (feature,), cells))
    return sets


def test_agreement_report_leaves_missing_cells_out():
    sets = small_sets({1: [1, 2, 3, 4], 2: [1, 2, 3, None]})
    cell = next(r for r in agreement_report(sets) if r.feature == "valence").cells["a1-a2"]
    assert cell.n_pairable == 6
    assert cell == krippendorff_alpha(np.array([[1, 1], [2, 2], [3, 3], [4, np.nan]]), "ordinal")


def test_agreement_report_of_sets_covering_different_sonnets():
    sets = [
        small_sets({1: [1, 2, 3]}, ids=("s1", "s2", "s3"))[0],
        small_sets({2: [4, None]}, ids=("s4", "s2"))[0],
        small_sets({3: [2, 1]}, ids=("s5", "s1"))[0],
    ]
    with pytest.raises(ValueError, match="different sonnets"):
        agreement_report(sets)
    with pytest.raises(ValueError, match="annotator ids are not unique"):
        agreement_report(small_sets({1: [1, 2, 3, 4]}) * 2)


def test_agreement_report_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(57)
    outcomes = set()
    for _ in range(20):
        ids = tuple(f"s{i}" for i in range(int(rng.integers(2, 9))))
        sets = []
        for annotator_id in (1, 2, 3):
            values = {}
            for sid in ids:
                for feat in ORDINAL_FEATURES:
                    values[(sid, feat)] = float(rng.integers(1, 5))
                for feat in PSYCHOLOGICAL_TAGS:
                    if rng.random() < 0.3:
                        continue
                    values[(sid, feat)] = float(rng.integers(0, 2))
            sets.append(annotation_set(annotator_id, ids, ANNOTATED_FEATURES, values))
        median = build_median_annotator(fill_missing_psych(sets)[0])
        raters = {f"a{s.annotator_id}": cells_of(s) for s in sets}
        raters["m"] = cells_of(median)
        for row in agreement_report(sets, median):
            assert len(row.cells) == 7
            for label, result in row.cells.items():
                names = ("a1", "a2", "a3") if label == "all" else label.split("-")
                units = [
                    [raters[name][(sid, row.feature)] for name in names
                     if (sid, row.feature) in raters[name]]
                    for sid in ids
                ]
                pooled = [v for unit in units if len(unit) >= 2 for v in unit]
                if not pooled:
                    outcomes.add("not computable")
                    assert result is None
                elif len(set(pooled)) == 1:
                    outcomes.add("degenerate")
                    assert result.alpha == 1.0 and result.degenerate
                else:
                    outcomes.add("alpha")
                    assert result.alpha == pytest.approx(
                        oracles.krippendorff_alpha(units, row.level), abs=1e-12
                    )
    assert outcomes == {"not computable", "degenerate", "alpha"}


def test_pairwise_alpha_keys_and_all():
    sets = small_sets({1: [1, 2, 3, 4], 2: [1, 2, 3, 4], 3: [4, 3, 2, 1]})
    row = next(r for r in agreement_report(sets) if r.feature == "valence")
    assert set(row.cells) == {"a1-a2", "a1-a3", "a2-a3", "all"}
    assert row.cells["all"] is not None
    assert row.cells["a1-a2"].alpha == 1.0
    assert row.cells["a1-a3"].alpha < 0


def test_agreement_report_levels_and_columns():
    rng = np.random.default_rng(56)
    ids = tuple(f"s{i}" for i in range(8))
    sets = []
    for annotator_id in (1, 2, 3):
        values = {}
        for sid in ids:
            for feat in ORDINAL_FEATURES:
                values[(sid, feat)] = float(rng.integers(1, 5))
            for feat in PSYCHOLOGICAL_TAGS:
                values[(sid, feat)] = float(rng.integers(0, 2))
        sets.append(annotation_set(annotator_id, ids, ANNOTATED_FEATURES, values))
    rows = agreement_report(sets)
    assert len(rows) == len(ANNOTATED_FEATURES)
    by_feature = {r.feature: r for r in rows}
    assert by_feature["valence"].level == "ordinal"
    assert by_feature["Anxiety"].level == "nominal"
    for row in rows:
        assert set(row.cells) == {"all", "a1-a2", "a1-a3", "a2-a3"}
    # random annotations agree poorly, so the threshold flag must fire somewhere
    assert any(row.below_threshold for row in rows)


def test_agreement_report_median_columns():
    ids = ("s1", "s2", "s3")
    sets = []
    for annotator_id in (1, 2, 3):
        values = {}
        for sid_idx, sid in enumerate(ids):
            for feat in ORDINAL_FEATURES:
                values[(sid, feat)] = float(1 + (sid_idx + annotator_id) % 4)
            for feat in PSYCHOLOGICAL_TAGS:
                values[(sid, feat)] = float((sid_idx + annotator_id) % 2)
        sets.append(annotation_set(annotator_id, ids, ANNOTATED_FEATURES, values))
    median_values = {}
    for sid_idx, sid in enumerate(ids):
        for feat in ANNOTATED_FEATURES:
            triple = sorted(cells_of(sets[k])[(sid, feat)] for k in range(3))
            median_values[(sid, feat)] = triple[1]
    median = annotation_set(0, ids, ANNOTATED_FEATURES, median_values)
    rows = agreement_report(sets, median)
    for row in rows:
        assert set(row.cells) == {
            "all", "a1-a2", "a1-a3", "a2-a3", "a1-m", "a2-m", "a3-m",
        }
