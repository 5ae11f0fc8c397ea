"""Validation reports: correlation grid, regression table, per-tag ANOVA."""

import math
import re
from collections import Counter

import numpy as np
import pytest

import oracles
from cell_tables import annotation_set, cells_of
from versemood import validation
from versemood.corpus import (
    ANNOTATED_FEATURES,
    ORDINAL_FEATURES,
    PSYCHOLOGICAL_TAGS,
    AnnotationSet,
)
from versemood.features import FEATURE_NAMES, MEAN_FEATURES, FeatureMatrix
from versemood.lexicon import DIMENSIONS
from versemood.stats import ranking, spearman
from versemood.textnorm import recording
from versemood.validation import (
    FEATURE_PAIRINGS,
    SIGNIFICANCE_LEVEL,
    BivariateCell,
    anova_report,
    bivariate_report,
    partial_dependence_report,
)


def synthetic_matrix(rng, n_sonnets, pair_signal=None):
    """A feature matrix with every feature defined and consistent spans.

    ``pair_signal`` maps a gam feature to a callable producing the
    annotated value from that feature, letting tests plant regression
    or correlation structure.
    """
    ids = tuple(f"s{i:03d}" for i in range(1, n_sonnets + 1))
    rows = []
    for sid in ids:
        values = {}
        for name in FEATURE_NAMES:
            values[name] = float(rng.uniform(1, 7))
        for short in ("arousal", "valence"):
            lo = float(rng.uniform(1, 4))
            hi = lo + float(rng.uniform(0.5, 4))
            values[f"min_{short}"] = lo
            values[f"max_{short}"] = hi
            values[f"{short}_span"] = hi - lo
        for short in ("aro", "val"):
            rho = float(rng.uniform(-1, 1))
            values[f"cor_{short}"] = rho
            values[f"abs_cor_{short}"] = abs(rho)
        rows.append([values[name] for name in FEATURE_NAMES])
    return FeatureMatrix(
        sonnet_ids=ids, values=np.array(rows), reasons={sid: {} for sid in ids}
    )


def median_for(matrix, rng, tag_members=None, annotated_from=None):
    """Median-annotator values aligned with the matrix's sonnets."""
    values = {}
    tag_members = tag_members or {}
    annotated_from = annotated_from or {}
    for sid, row in zip(matrix.sonnet_ids, matrix.values):
        for feature in ORDINAL_FEATURES:
            if feature in annotated_from:
                values[(sid, feature)] = annotated_from[feature](
                    dict(zip(FEATURE_NAMES, row))
                )
            else:
                values[(sid, feature)] = float(rng.integers(1, 5))
        for tag in PSYCHOLOGICAL_TAGS:
            members = tag_members.get(tag)
            if members is None:
                values[(sid, tag)] = float(rng.integers(0, 2))
            else:
                values[(sid, tag)] = 1.0 if sid in members else 0.0
    return annotation_set(0, matrix.sonnet_ids, ANNOTATED_FEATURES, values)


def test_feature_pairings_inventory():
    # each ordinal feature, in order, with the mean of the lexicon dimension of its name
    assert [annotated for annotated, _ in FEATURE_PAIRINGS] == list(ORDINAL_FEATURES)
    for annotated, gam_feature in FEATURE_PAIRINGS:
        dimension = DIMENSIONS.index(annotated.replace(" ", "_"))
        assert gam_feature == MEAN_FEATURES[dimension], annotated
    assert len(FEATURE_PAIRINGS) == 10
    assert ("valence", "valence_mean") in FEATURE_PAIRINGS
    assert ("context availability", "cont_ava_mean") in FEATURE_PAIRINGS


# ---------------------------------------------------------------------------
# bivariate grid


def test_bivariate_grid_shape_and_pairwise_n():
    rng = np.random.default_rng(90)
    matrix = synthetic_matrix(rng, 15)
    median = median_for(matrix, rng)
    cells = bivariate_report(matrix, median)
    assert len(cells) == len(ORDINAL_FEATURES) * len(FEATURE_NAMES)
    for cell in cells:
        assert cell.n == 15
        if cell.rho is not None:
            assert -1.0 - 1e-12 <= cell.rho <= 1.0 + 1e-12


def test_bivariate_matches_direct_spearman():
    rng = np.random.default_rng(91)
    matrix = synthetic_matrix(rng, 12)
    median = median_for(matrix, rng)
    cells = {
        (c.annotated_feature, c.gam_feature): c for c in bivariate_report(matrix, median)
    }
    cell = cells[("valence", "arousal_mean")]
    xs = list(matrix.column("arousal_mean"))
    ys = [cells_of(median)[(sid, "valence")] for sid in matrix.sonnet_ids]
    assert cell.rho == pytest.approx(spearman(xs, ys).rho, abs=1e-12)


def test_bivariate_pairwise_deletion_counts_shared_rows():
    rng = np.random.default_rng(92)
    matrix = synthetic_matrix(rng, 10)
    # knock one feature out on three sonnets
    matrix.column("fear_mean")[:3] = np.nan
    for sid in matrix.sonnet_ids[:3]:
        matrix.reasons[sid]["fear_mean"] = "no matched words with fear"
    median = median_for(matrix, rng)
    cells = {
        (c.annotated_feature, c.gam_feature): c for c in bivariate_report(matrix, median)
    }
    assert cells[("valence", "fear_mean")].n == 7
    assert cells[("valence", "valence_mean")].n == 10


def test_bivariate_constant_series_noted():
    rng = np.random.default_rng(93)
    matrix = synthetic_matrix(rng, 8)
    matrix.column("anger_mean")[:] = 3.0
    median = median_for(matrix, rng)
    cells = {
        (c.annotated_feature, c.gam_feature): c for c in bivariate_report(matrix, median)
    }
    cell = cells[("anger", "anger_mean")]
    assert cell.rho is None
    assert cell.note is not None


def test_bivariate_equals_spearman_on_each_masked_pair(monkeypatch):
    ranked = []

    def counting(values):
        ranked.append(len(values))
        return ranking(values)

    monkeypatch.setattr(validation, "ranking", counting)
    notes = Counter()
    for seed in range(94, 100):
        rng = np.random.default_rng(seed)
        matrix = synthetic_matrix(rng, int(rng.integers(8, 20)))
        median = median_for(matrix, rng)
        n = len(matrix.sonnet_ids)
        features = rng.permutation(len(FEATURE_NAMES))
        # two columns each drop three sonnets, not the same three
        dropped = rng.choice(n, 6, replace=False)
        matrix.values[dropped[:3], features[0]] = np.nan
        matrix.values[dropped[3:], features[3]] = np.nan
        matrix.values[:, features[1]] = 4.0
        matrix.values[1:, features[2]] = np.nan
        annotated = rng.permutation(len(ORDINAL_FEATURES))
        median.values[:, annotated[0]] = 2.0
        median.values[rng.choice(n, 2, replace=False), annotated[1]] = np.nan
        ranked.clear()
        cells = bivariate_report(matrix, median)
        rankings = set()
        for cell in cells:
            xs = median.column(cell.annotated_feature)
            ys = matrix.column(cell.gam_feature)
            paired = ~np.isnan(xs) & ~np.isnan(ys)
            if paired.sum() < 2:
                expected = BivariateCell(
                    cell.annotated_feature, cell.gam_feature, int(paired.sum()), None, None,
                    note="fewer than two paired sonnets",
                )
            else:
                rankings.add((cell.annotated_feature, paired.tobytes()))
                rankings.add((cell.gam_feature, paired.tobytes()))
                result = spearman(xs[paired], ys[paired])
                expected = BivariateCell(
                    cell.annotated_feature, cell.gam_feature, result.n, result.rho,
                    result.band, result.undefined_reason,
                )
            assert cell == expected
            notes[cell.note] += 1
        # each column ranked once per set of paired sonnets it is used with
        assert len(ranked) == len(rankings)
        assert min(ranked) < n
    # every note
    assert set(notes) == {
        None, "x is constant", "y is constant", "fewer than two paired sonnets"
    }


# ---------------------------------------------------------------------------
# partial dependence regressions


def test_collinear_spans_dropped_then_fit_succeeds():
    rng = np.random.default_rng(94)
    matrix = synthetic_matrix(rng, 60)
    median = median_for(matrix, rng, annotated_from={
        "valence": lambda v: 2.0 * v["valence_mean"] + rng.normal(scale=0.1),
    })
    rows = partial_dependence_report(matrix, median)
    all_rows = {r.annotated_feature: r for r in rows if r.category == "all"}
    row = all_rows["valence"]
    assert row.note is None
    assert not row.pruned
    assert set(row.dropped_columns) == {"arousal_span", "valence_span"}
    assert row.n_predictors == len(FEATURE_NAMES) - 2
    assert row.coefficient > 0
    assert row.p_value < SIGNIFICANCE_LEVEL
    assert row.significant


def test_significant_requires_positive_coefficient():
    rng = np.random.default_rng(95)
    matrix = synthetic_matrix(rng, 60)
    median = median_for(matrix, rng, annotated_from={
        "arousal": lambda v: -2.0 * v["arousal_mean"] + rng.normal(scale=0.1),
    })
    rows = partial_dependence_report(matrix, median)
    row = next(
        r for r in rows if r.category == "all" and r.annotated_feature == "arousal"
    )
    assert row.p_value < SIGNIFICANCE_LEVEL
    assert row.coefficient < 0
    assert not row.significant


def test_significance_flag_is_exactly_p_and_sign():
    rng = np.random.default_rng(96)
    matrix = synthetic_matrix(rng, 60)
    median = median_for(matrix, rng)
    for row in partial_dependence_report(matrix, median):
        if row.note is not None:
            assert not row.significant
            continue
        expected = row.p_value < SIGNIFICANCE_LEVEL and row.coefficient > 0
        assert row.significant == expected


def test_midsize_category_prunes_to_mean_sd():
    rng = np.random.default_rng(97)
    matrix = synthetic_matrix(rng, 26)
    median = median_for(matrix, rng)
    rows = partial_dependence_report(matrix, median)
    row = next(
        r for r in rows if r.category == "all" and r.annotated_feature == "valence"
    )
    assert row.pruned
    assert row.note is None
    assert row.n_predictors == 20
    assert row.gam_feature == "valence_mean"


def test_tiny_category_not_computable():
    rng = np.random.default_rng(98)
    matrix = synthetic_matrix(rng, 40)
    members = set(matrix.sonnet_ids[:4])
    median = median_for(matrix, rng, tag_members={"Solitude": members})
    rows = partial_dependence_report(matrix, median)
    solitude = [r for r in rows if r.category == "Solitude"]
    assert len(solitude) == 10
    for row in solitude:
        assert row.note is not None
        assert "insufficient rows" in row.note
        assert not row.significant


def test_category_rows_cover_all_plus_tags():
    rng = np.random.default_rng(99)
    matrix = synthetic_matrix(rng, 30)
    median = median_for(matrix, rng)
    rows = partial_dependence_report(matrix, median)
    categories = {r.category for r in rows}
    assert categories == {"all", *PSYCHOLOGICAL_TAGS}
    assert len(rows) == (1 + len(PSYCHOLOGICAL_TAGS)) * 10


def test_listwise_deletion_drops_incomplete_sonnets():
    rng = np.random.default_rng(100)
    matrix = synthetic_matrix(rng, 60)
    matrix.column("disgust_sd")[:5] = np.nan
    median = median_for(matrix, rng)
    rows = partial_dependence_report(matrix, median)
    row = next(
        r for r in rows if r.category == "all" and r.annotated_feature == "valence"
    )
    assert row.n == 55


def _spans_dropped():
    rng = np.random.default_rng(94)
    matrix = synthetic_matrix(rng, 60)
    return matrix, median_for(matrix, rng, annotated_from={
        "valence": lambda v: 2.0 * v["valence_mean"] + rng.normal(scale=0.1),
    })


def _pruned():
    rng = np.random.default_rng(97)
    matrix = synthetic_matrix(rng, 26)
    return matrix, median_for(matrix, rng)


def _paired_feature_collinear():
    rng = np.random.default_rng(105)
    matrix = synthetic_matrix(rng, 60)
    matrix.column("arousal_mean")[:] = 2.0 * matrix.column("valence_mean") - 1.0
    return matrix, median_for(matrix, rng)


def _zero_variance_response():
    rng = np.random.default_rng(106)
    matrix = synthetic_matrix(rng, 60)
    return matrix, median_for(matrix, rng, annotated_from={"fear": lambda v: 3.0})


def _category_too_small():
    rng = np.random.default_rng(98)
    matrix = synthetic_matrix(rng, 40)
    members = set(matrix.sonnet_ids[:4])
    return matrix, median_for(matrix, rng, tag_members={"Solitude": members})


def _listwise_incomplete():
    rng = np.random.default_rng(100)
    matrix = synthetic_matrix(rng, 60)
    matrix.column("disgust_sd")[:5] = np.nan
    return matrix, median_for(matrix, rng)


@pytest.mark.parametrize("build, shows", [
    (_spans_dropped, lambda r: r.dropped_columns == ("arousal_span", "valence_span")),
    (_pruned, lambda r: r.pruned),
    (_paired_feature_collinear, lambda r: "arousal_mean is collinear" in (r.note or "")),
    (_zero_variance_response, lambda r: r.note == "response has zero variance"),
    (_category_too_small, lambda r: "insufficient rows" in (r.note or "")),
    (_listwise_incomplete, lambda r: r.n == 55),
], ids=["spans", "pruned", "collinear", "zero-variance", "too-small", "listwise"])
def test_partial_dependence_matches_one_fit_per_pairing(build, shows):
    matrix, median = build()
    with recording([]) as decisions:
        rows = partial_dependence_report(matrix, median)
    messages = [d.text for d in decisions if d.module == "versemood.validation"]
    ref_rows, ref_messages = oracles.partial_dependence(matrix, median)
    assert any(shows(row) for row in rows)
    assert rows == ref_rows
    assert messages == logged_decisions(ref_rows, ref_messages)
    # --strict counts each row with a note once
    assert sum(d.degenerate for d in decisions) == sum(row.note is not None for row in rows)


def logged_decisions(rows, messages):
    """What the report logs, from the oracle's rows and its per-pairing messages.

    A category's pruning and dropped columns are logged once, without a
    pairing's name; then its insufficient-rows note once, or else the
    note of each pairing that has one.
    """
    decisions = [re.fullmatch(r"partial dependence ([^/]+)/[^/]+: (.*)", m).groups() for m in messages]
    out = []
    for category in dict.fromkeys(row.category for row in rows):
        out.extend(dict.fromkeys(
            f"partial dependence {category}: {decision}"
            for named, decision in decisions if named == category
        ))
        noted = [row for row in rows if row.category == category and row.note]
        if noted and noted[0].note.startswith("insufficient rows"):
            out.append(f"partial dependence {category}: {noted[0].note}")
        else:
            out.extend(
                f"partial dependence {category}/{row.annotated_feature}: {row.note}" for row in noted
            )
    return out


# ---------------------------------------------------------------------------
# per-tag ANOVA


def test_anova_grid_totals_and_significance_filter():
    rng = np.random.default_rng(101)
    matrix = synthetic_matrix(rng, 24)
    median = median_for(matrix, rng)
    report = anova_report(matrix, median)
    assert report.n_total == len(PSYCHOLOGICAL_TAGS) * 10
    assert report.n_significant == len(report.rows)
    for row in report.rows:
        assert row.p_value < SIGNIFICANCE_LEVEL


def test_anova_detects_planted_group_difference():
    rng = np.random.default_rng(102)
    matrix = synthetic_matrix(rng, 30)
    members = set(matrix.sonnet_ids[:15])
    for i, sid in enumerate(matrix.sonnet_ids):
        base = 6.0 if sid in members else 2.0
        matrix.column("sadness_mean")[i] = base + float(rng.normal(scale=0.2))
    median = median_for(matrix, rng, tag_members={"Depression": members})
    report = anova_report(matrix, median)
    row = next(
        r for r in report.rows
        if r.category == "Depression" and r.gam_feature == "sadness_mean"
    )
    assert row.n_in == 15
    assert row.n_out == 15
    assert row.mean_in == pytest.approx(6.0, abs=0.3)
    assert row.mean_out == pytest.approx(2.0, abs=0.3)
    assert row.p_value < 1e-6


def test_anova_skips_underfilled_groups():
    rng = np.random.default_rng(103)
    matrix = synthetic_matrix(rng, 12)
    median = median_for(matrix, rng, tag_members={"Grandeur": {matrix.sonnet_ids[0]}})
    with recording([]) as decisions:
        report = anova_report(matrix, median)
    skipped_combos = {(s[0], s[1]) for s in report.skipped}
    assert ("Grandeur", "valence_mean") in skipped_combos
    assert all(r.category != "Grandeur" for r in report.rows)
    # each skipped cell is named in the decisions log, with its reason, and counted once
    skips = [d for d in decisions if "skipped" in d.text]
    assert [d.text for d in skips] == [
        f"anova {tag}/{feature}: skipped: {reason}" for tag, feature, reason in report.skipped
    ]
    assert [d.degenerate for d in skips] == [1] * len(report.skipped)


def test_anova_means_are_group_means():
    rng = np.random.default_rng(104)
    matrix = synthetic_matrix(rng, 20)
    members = set(matrix.sonnet_ids[:8])
    for i, sid in enumerate(matrix.sonnet_ids):
        matrix.column("anger_mean")[i] = 5.5 if sid in members else 1.5
    median = median_for(matrix, rng, tag_members={"Anger": members})
    report = anova_report(matrix, median)
    row = next(
        r for r in report.rows
        if r.category == "Anger" and r.gam_feature == "anger_mean"
    )
    assert row.mean_in == pytest.approx(5.5)
    assert row.mean_out == pytest.approx(1.5)
    assert math.isinf(row.f_statistic) or row.f_statistic > 0


@pytest.mark.parametrize(
    "report", [bivariate_report, partial_dependence_report, anova_report],
    ids=["bivariate", "partial-dependence", "anova"],
)
def test_reports_reject_a_misaligned_median(report):
    rng = np.random.default_rng(105)
    matrix = synthetic_matrix(rng, 12)
    median = median_for(matrix, rng)
    reversed_median = AnnotationSet(0, median.sonnet_ids[::-1], median.values[::-1])
    with pytest.raises(ValueError, match="cover different sonnets"):
        report(matrix, reversed_median)
