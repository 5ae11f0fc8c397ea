"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail
line under ``pytest -v``:

1. statistical kernels against independent oracles,
2. the power-analysis minimum group size,
3. randomized property suites (seven families, >=1000 cases each),
4. golden annotation tables for the DISCO PAL distribution,
5. golden lexicon/coverage/regression tables for that distribution,
6. honesty of the data-conditional skips.

Criteria 4 and 5 need the published corpus and lexicon files.  Those
are not shipped here, so the tests skip with an explicit reason; they
run for real when ``data/config.json`` points at the published inputs.
They are never replaced by synthetic stand-ins.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from cell_tables import alpha_of, annotation_set, cells_of, profile
from versemood.agreement import agreement_report
from versemood.corpus import (
    build_median_annotator,
    corpus_statistics,
    fill_missing_psych,
    reverse_ordinal_scale,
)
from oracles import WordObservation
from versemood.features import FEATURE_NAMES
from versemood.lexicon import DIMENSIONS, coverage_report, word_count_report
from versemood.pipeline import Session
from versemood.stats import (
    LinearDesign,
    min_sample_size,
    one_way_anova,
    regularized_incomplete_beta,
    spearman,
    two_sample_power,
)
from versemood.validation import anova_report, partial_dependence_report

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
PUBLISHED_CONFIG = DATA_DIR / "config.json"

SKIP_REASON = (
    "published DISCO PAL inputs are not present (expected data/config.json "
    "naming the metadata, annotation, and lexicon files); golden-table "
    "reproduction needs the real files and is never run on synthetic stand-ins"
)


def _published_config() -> Path | None:
    return PUBLISHED_CONFIG if PUBLISHED_CONFIG.is_file() else None


# ---------------------------------------------------------------------------
# reference tables for the published DISCO PAL distribution

REFERENCE_N_SONNETS = 274

REFERENCE_TAG_COUNTS = {
    "Anxiety": 76, "Aversion": 99, "Depression": 39, "Disappointment": 47,
    "Dramatisation": 108, "Illusion": 73, "Helplessness": 62, "Instability": 64,
    "Insecurity": 44, "Anger": 57, "Obsession": 32, "Pride": 72,
    "Prejudice": 30, "Fear (binary)": 94, "Vulnerability": 129, "Compulsion": 56,
    "Daydream": 46, "Grandeur": 105, "Idealization": 107, "Irritability": 36,
    "Solitude": 63,
}

# columns: all, a1-a2, a1-a3, a2-a3, a1-m, a2-m, a3-m
REFERENCE_AGREEMENT = {
    "Anxiety": (0.49, 0.72, 0.30, 0.36, 0.85, 0.85, 0.48),
    "Aversion": (0.57, 0.72, 0.50, 0.47, 0.89, 0.82, 0.64),
    "Depression": (0.61, 0.69, 0.53, 0.57, 0.82, 0.85, 0.71),
    "Disappointment": (0.52, 0.69, 0.39, 0.50, 0.80, 0.89, 0.60),
    "Dramatisation": (0.33, 0.49, 0.22, 0.27, 0.72, 0.75, 0.50),
    "Illusion": (0.60, 0.79, 0.41, 0.55, 0.84, 0.95, 0.60),
    "Helplessness": (0.50, 0.66, 0.37, 0.47, 0.77, 0.87, 0.58),
    "Instability": (0.43, 0.65, 0.22, 0.33, 0.79, 0.85, 0.46),
    "Insecurity": (0.49, 0.60, 0.39, 0.46, 0.79, 0.79, 0.64),
    "Anger": (0.57, 0.82, 0.41, 0.44, 0.92, 0.89, 0.53),
    "Obsession": (0.42, 0.75, 0.13, 0.23, 0.85, 0.89, 0.29),
    "Pride": (0.62, 0.76, 0.51, 0.58, 0.85, 0.89, 0.68),
    "Prejudice": (0.55, 0.69, 0.41, 0.53, 0.83, 0.85, 0.64),
    "Fear (binary)": (0.51, 0.66, 0.39, 0.45, 0.81, 0.84, 0.60),
    "Vulnerability": (0.49, 0.65, 0.34, 0.45, 0.78, 0.87, 0.58),
    "concreteness": (0.26, 0.55, 0.06, 0.15, 0.75, 0.78, 0.27),
    "context availability": (0.25, 0.64, 0.09, 0.02, 0.88, 0.76, 0.17),
    "Compulsion": (0.44, 0.63, 0.35, 0.30, 0.89, 0.72, 0.52),
    "Daydream": (0.44, 0.55, 0.29, 0.45, 0.66, 0.86, 0.58),
    "Grandeur": (0.53, 0.66, 0.35, 0.56, 0.72, 0.94, 0.62),
    "Idealization": (0.48, 0.58, 0.39, 0.45, 0.78, 0.79, 0.64),
    "Irritability": (0.50, 0.69, 0.40, 0.37, 0.87, 0.79, 0.53),
    "Solitude": (0.58, 0.76, 0.44, 0.51, 0.83, 0.92, 0.59),
    "anger": (0.38, 0.60, 0.27, 0.26, 0.77, 0.80, 0.45),
    "arousal": (0.21, 0.37, 0.12, 0.11, 0.66, 0.64, 0.37),
    "disgust": (0.40, 0.61, 0.28, 0.28, 0.77, 0.81, 0.45),
    "fear": (0.34, 0.53, 0.22, 0.28, 0.67, 0.80, 0.47),
    "happiness": (0.11, 0.33, 0.05, -0.06, 0.77, 0.56, 0.20),
    "imageability": (0.26, 0.62, 0.09, 0.06, 0.85, 0.77, 0.20),
    "sadness": (0.26, 0.43, 0.19, 0.16, 0.70, 0.70, 0.38),
    "valence": (0.26, 0.74, 0.02, 0.02, 0.82, 0.88, 0.11),
}
_AGREEMENT_COLUMNS = ("all", "a1-a2", "a1-a3", "a2-a3", "a1-m", "a2-m", "a3-m")

# columns: distinct raw keys, distinct stems, distinct lemmas
REFERENCE_WORD_COUNTS = {
    "all": (5898, 3651, 4613),
    "Anxiety": (2278, 1690, 1927), "Aversion": (2846, 2054, 2356),
    "Depression": (1352, 1080, 1198), "Disappointment": (1624, 1284, 1395),
    "Dramatisation": (3055, 2159, 2509), "Illusion": (2261, 1682, 1904),
    "Helplessness": (1987, 1484, 1668), "Instability": (2003, 1505, 1703),
    "Insecurity": (1492, 1184, 1297), "Anger": (1904, 1497, 1640),
    "Obsession": (1170, 955, 1025), "Pride": (2264, 1725, 1934),
    "Prejudice": (1181, 995, 1067), "Fear (binary)": (2756, 1990, 2291),
    "Vulnerability": (3319, 2286, 2724), "Compulsion": (1821, 1412, 1566),
    "Daydream": (1636, 1277, 1400), "Grandeur": (3076, 2200, 2550),
    "Idealization": (3040, 2166, 2514), "Irritability": (1308, 1086, 1164),
    "Solitude": (1978, 1518, 1694),
}

REFERENCE_MERGED_COVERAGE = {"stem": 0.68, "lemma": 0.56}

# whole-corpus regressions: annotated feature -> (adjusted r2, coefficient)
REFERENCE_REGRESSION_ALL = {
    "valence": (0.92, 1.71), "arousal": (0.90, 2.10), "happiness": (0.80, 1.28),
    "anger": (0.79, 0.89), "sadness": (0.85, 0.68), "fear": (0.84, 1.08),
    "disgust": (0.82, 0.70), "concreteness": (0.80, 1.69),
    "imageability": (0.78, 1.84), "context availability": (0.78, 2.03),
}

REFERENCE_SOLITUDE_VALENCE_MEANS = (5.23, 5.34)
REFERENCE_SIGNIFICANT_COMBINATIONS = 127
REFERENCE_TOTAL_COMBINATIONS = 210


# ---------------------------------------------------------------------------
# criterion: kernel equivalence against independent oracles


def test_statistical_kernels_match_independent_oracles():
    """Spearman, OLS, ANOVA, incomplete beta, and alpha agree with
    brute-force oracles on >=20 fixtures each, |diff| <= 1e-8
    (1e-6 for tail probabilities)."""
    rng = np.random.default_rng(20260817)

    checked = 0
    while checked < 20:
        a = float(rng.uniform(0.3, 25.0))
        b = float(rng.uniform(0.3, 25.0))
        x = float(rng.uniform(0.01, 0.99))
        assert abs(regularized_incomplete_beta(a, b, x) - oracles.beta_inc(a, b, x)) <= 1e-8
        checked += 1

    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 15))
        x = rng.integers(1, 5, n).astype(float)
        y = rng.normal(size=n) + x * rng.uniform(-1, 1)
        result = spearman(x.tolist(), y.tolist())
        if result.rho is None:
            continue
        assert abs(result.rho - oracles.spearman(x.tolist(), y.tolist())) <= 1e-8
        checked += 1

    checked = 0
    while checked < 20:
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k + 4, k + 16))
        X = rng.normal(size=(n, k))
        y = X @ rng.uniform(-2, 2, k) + rng.normal(scale=0.5, size=n)
        fit = LinearDesign(X.tolist()).fit(y.tolist())
        ref = oracles.ols(X, y)
        assert abs(fit.intercept - ref["intercept"]) <= 1e-8
        assert np.max(np.abs(np.array(fit.coefficients) - ref["coefficients"])) <= 1e-8
        assert abs(fit.adjusted_r_squared - ref["adjusted_r_squared"]) <= 1e-8
        assert np.max(np.abs(np.array(fit.p_values) - ref["p_values"])) <= 1e-6
        assert abs(fit.intercept_p_value - ref["intercept_p_value"]) <= 1e-6
        checked += 1

    checked = 0
    while checked < 20:
        groups = [
            (rng.normal(loc=float(rng.uniform(-1, 1)), size=int(rng.integers(3, 8))))
            .tolist()
            for _ in range(int(rng.integers(2, 5)))
        ]
        result = one_way_anova(groups)
        if result.degenerate:
            continue
        f_ref, p_ref = oracles.one_way_anova(groups)
        assert abs(result.f_statistic - f_ref) <= 1e-8
        assert abs(result.p_value - p_ref) <= 1e-6
        checked += 1

    for level in ("nominal", "ordinal", "interval"):
        checked = 0
        while checked < 20:
            n_units = int(rng.integers(4, 9))
            n_raters = int(rng.integers(2, 5))
            rows = [
                [
                    int(rng.integers(1, 5)) if rng.random() > 0.2 else None
                    for _ in range(n_raters)
                ]
                for _ in range(n_units)
            ]
            units = [[v for v in row if v is not None] for row in rows]
            if sum(1 for u in units if len(u) >= 2) < 2:
                continue
            result = alpha_of(rows, level)
            if result.degenerate:
                continue
            assert abs(result.alpha - oracles.krippendorff_alpha(units, level)) <= 1e-8
            checked += 1


# ---------------------------------------------------------------------------
# criterion: power-analysis minimum group size


def test_power_analysis_minimum_group_size_is_26():
    """min_sample_size(0.05, 0.8, 0.8) must be 26; a different minimum is
    an open finding to report, not to paper over."""
    n = min_sample_size(0.05, 0.8, 0.8)
    assert n == 26, (
        f"open finding: the iterative minimum sample size procedure yields {n}, "
        f"the reference value is 26"
    )
    assert two_sample_power(26, 0.8, 0.05) >= 0.8
    assert two_sample_power(25, 0.8, 0.05) < 0.8


# ---------------------------------------------------------------------------
# criterion: randomized property suites


def _random_observations(rng):
    n = int(rng.integers(2, 26))
    position = 0
    observations = []
    for i in range(n):
        position += int(rng.integers(1, 4))
        dims = {
            d: (float(rng.uniform(1, 9)), float(rng.uniform(0.1, 2.5)))
            for d in DIMENSIONS
            if rng.random() < 0.85
        }
        if not dims:
            dims["valence"] = (float(rng.uniform(1, 9)), float(rng.uniform(0.1, 2.5)))
        observations.append(
            WordObservation(key=f"w{i}", position=position, dims=dims)
        )
    return observations


_ORDER_SENSITIVE = {"cor_aro", "cor_val", "abs_cor_aro", "abs_cor_val"}


def test_profile_features_hold_order_and_scale_properties():
    """Order invariance, reversal negation, extrema sandwiching, and the
    sigma identity each hold on >=1000 random observation sets."""
    rng = np.random.default_rng(99)
    cases = [_random_observations(rng) for _ in range(1000)]

    for observations in cases:
        base = profile(observations)
        positions = [o.position for o in observations]

        shuffled_positions = list(positions)
        rng.shuffle(shuffled_positions)
        shuffled = sorted(
            (
                WordObservation(o.key, p, o.dims)
                for o, p in zip(observations, shuffled_positions)
            ),
            key=lambda o: o.position,
        )
        permuted = profile(shuffled)
        for name in FEATURE_NAMES:
            if name in _ORDER_SENSITIVE:
                continue
            left, right = base.values[name], permuted.values[name]
            if left is None or right is None:
                assert left == right, name
            else:
                assert left == pytest.approx(right, abs=1e-9), name

        top = max(positions)
        reflected = sorted(
            (
                WordObservation(o.key, top - o.position, o.dims)
                for o in observations
            ),
            key=lambda o: o.position,
        )
        reversed_vec = profile(reflected)
        for cor, abs_cor in (("cor_aro", "abs_cor_aro"), ("cor_val", "abs_cor_val")):
            left, right = base.values[cor], reversed_vec.values[cor]
            if left is None or right is None:
                assert left == right, cor
            else:
                assert left == pytest.approx(-right, abs=1e-9), cor
                assert base.values[abs_cor] == pytest.approx(
                    reversed_vec.values[abs_cor], abs=1e-9
                )

        for dim, prefix in (("arousal", "arousal"), ("valence", "valence")):
            lo = base.values[f"min_{prefix}"]
            hi = base.values[f"max_{prefix}"]
            span = base.values[f"{prefix}_span"]
            dim_means = [o.dims[dim][0] for o in observations if dim in o.dims]
            if not dim_means:
                assert lo is None and hi is None and span is None
                continue
            assert lo <= min(dim_means) + 1e-12
            assert hi >= max(dim_means) - 1e-12
            assert span == hi - lo

        for dim, sigma_name, mean_name in (
            ("arousal", "sigma_aro", "arousal_mean"),
            ("valence", "sigma_val", "valence_mean"),
        ):
            count = sum(1 for o in observations if dim in o.dims)
            sigma = base.values[sigma_name]
            if count == 0:
                assert sigma is None
            else:
                assert sigma == base.values[mean_name] * math.sqrt(count)


def test_alpha_relabeling_and_perfect_agreement_properties():
    """Alpha is invariant under label relabeling (1000 cases) and equals
    one on perfect agreement (1000 cases)."""
    rng = np.random.default_rng(412)

    checked = 0
    while checked < 1000:
        level = "nominal" if checked % 2 == 0 else "ordinal"
        n_units = int(rng.integers(5, 11))
        rows = [
            [
                int(rng.integers(1, 5)) if rng.random() > 0.15 else None
                for _ in range(3)
            ]
            for _ in range(n_units)
        ]
        if sum(1 for row in rows if sum(v is not None for v in row) >= 2) < 2:
            continue
        base = alpha_of(rows, level)
        if base.degenerate:
            continue
        if level == "nominal":
            perm = rng.permutation([1, 2, 3, 4])
            relabel = {c + 1: float(perm[c]) for c in range(4)}
        else:
            steps = np.cumsum(rng.uniform(0.5, 3.0, 4))
            relabel = {c + 1: float(steps[c]) for c in range(4)}
        mapped = [[None if v is None else relabel[v] for v in row] for row in rows]
        again = alpha_of(mapped, level)
        assert abs(base.alpha - again.alpha) <= 1e-12
        checked += 1

    checked = 0
    while checked < 1000:
        n_units = int(rng.integers(3, 9))
        unit_values = rng.integers(1, 5, n_units)
        if len(set(unit_values.tolist())) < 2:
            continue
        rows = []
        for v in unit_values:
            row = [int(v) if rng.random() > 0.2 else None for _ in range(3)]
            if sum(cell is not None for cell in row) < 2:
                row[0] = row[1] = int(v)
            rows.append(row)
        result = alpha_of(rows, "ordinal")
        assert result.alpha == 1.0
        checked += 1


def test_median_fusion_and_scale_reversal_properties():
    """The median of three fully present values is one of them (and the
    binary majority); reversing an ordinal scale twice is the identity.
    1000 cases each."""
    rng = np.random.default_rng(513)
    features = ("valence", "Anxiety")

    for _ in range(1000):
        ordinal = [int(v) for v in rng.integers(1, 5, 3)]
        binary = [int(v) for v in rng.integers(0, 2, 3)]
        sets = [
            annotation_set(i + 1, ("s1",), features, {
                ("s1", "valence"): float(ordinal[i]),
                ("s1", "Anxiety"): float(binary[i]),
            })
            for i in range(3)
        ]
        filled, unfilled = fill_missing_psych(sets)
        assert not [c for c in unfilled if c.feature == "Anxiety"]
        median = build_median_annotator(filled)
        assert cells_of(median)[("s1", "valence")] in {float(v) for v in ordinal}
        assert cells_of(median)[("s1", "valence")] == float(sorted(ordinal)[1])
        majority = 1.0 if sum(binary) >= 2 else 0.0
        assert cells_of(median)[("s1", "Anxiety")] == majority

    for _ in range(1000):
        n = int(rng.integers(1, 6))
        sids = tuple(f"s{i}" for i in range(n))
        values = {(sid, "valence"): float(rng.integers(1, 5)) for sid in sids}
        original = annotation_set(1, sids, ("valence",), values)
        twice = reverse_ordinal_scale(
            reverse_ordinal_scale(original, "valence"), "valence"
        )
        assert cells_of(twice) == cells_of(original)


# ---------------------------------------------------------------------------
# criteria: golden tables for the published distribution (data-conditional)


def test_published_annotation_tables_reproduce():
    """Tag counts exact, agreement cells within +-0.03, and the share of
    features at or above 0.21 overall agreement reproduced."""
    config = _published_config()
    if config is None:
        pytest.skip(SKIP_REASON)

    session = Session(config)
    filled, median = session.annotations[0], session.median
    assert len(session.corpus) == REFERENCE_N_SONNETS

    stats = corpus_statistics(session.keys(session.norm.mode), median)
    assert stats.tag_counts == REFERENCE_TAG_COUNTS

    report = {row.feature: row for row in agreement_report(filled, median)}
    for feature, expected in REFERENCE_AGREEMENT.items():
        row = report[feature]
        for label, value in zip(_AGREEMENT_COLUMNS, expected):
            cell = row.cells[label]
            assert cell.alpha == pytest.approx(value, abs=0.03), (feature, label)

    overall = [report[f].cells["all"].alpha for f in REFERENCE_AGREEMENT]
    share = sum(1 for a in overall if a >= 0.21) / len(overall)
    assert share == pytest.approx(0.97, abs=0.01)


def test_published_lexicon_tables_reproduce():
    """Distinct-key counts within 5 percent, merged coverage 0.68/0.56
    within +-0.03, whole-corpus pairings all significant with positive
    coefficients and adjusted R^2 within +-0.05, Solitude valence means
    within +-0.05, and 127 +- 10 significant tag combinations."""
    config = _published_config()
    if config is None:
        pytest.skip(SKIP_REASON)

    session = Session(config)
    median = session.median
    assert session.config.lemma_table, "the published lemma table is required here"

    word_counts = word_count_report(
        session.keys("raw"), session.keys("stem"), session.keys("lemma"), median
    )
    counts = {r.category: r for r in word_counts}
    for category, (raw, stem, lemma) in REFERENCE_WORD_COUNTS.items():
        got = counts[category]
        assert abs(got.raw - raw) <= 0.05 * raw, category
        assert abs(got.stem - stem) <= 0.05 * stem, category
        assert abs(got.lemma - lemma) <= 0.05 * lemma, category

    for mode, expected in REFERENCE_MERGED_COVERAGE.items():
        by_mode = Session(config, mode=mode)
        rows = coverage_report(
            by_mode.keys(mode), by_mode.sources, by_mode.merged, by_mode.norm, by_mode.median
        )
        all_row = next(r for r in rows if r.category == "all")
        assert all_row.merged == pytest.approx(expected, abs=0.03), mode

    matrix = session.matrix
    pd_rows = {
        r.annotated_feature: r
        for r in partial_dependence_report(matrix, median)
        if r.category == "all"
    }
    for annotated, (adj_r2, _coeff) in REFERENCE_REGRESSION_ALL.items():
        row = pd_rows[annotated]
        assert row.note is None, (annotated, row.note)
        assert row.significant and row.coefficient > 0.0, annotated
        assert row.adjusted_r_squared == pytest.approx(adj_r2, abs=0.05), annotated

    anova = anova_report(matrix, median)
    assert anova.n_total == REFERENCE_TOTAL_COMBINATIONS
    assert abs(anova.n_significant - REFERENCE_SIGNIFICANT_COMBINATIONS) <= 10
    solitude = next(
        r for r in anova.rows
        if r.category == "Solitude" and r.gam_feature == "valence_mean"
    )
    assert solitude.mean_in == pytest.approx(
        REFERENCE_SOLITUDE_VALENCE_MEANS[0], abs=0.05
    )
    assert solitude.mean_out == pytest.approx(
        REFERENCE_SOLITUDE_VALENCE_MEANS[1], abs=0.05
    )


def test_golden_table_checks_skip_only_when_inputs_are_truly_absent():
    """A skip of the two golden-table tests must always mean the
    published files are genuinely missing; present files must run."""
    config = _published_config()
    if config is None:
        assert not PUBLISHED_CONFIG.is_file()
    else:
        cfg = json.loads(config.read_text(encoding="utf-8"))
        for key in ("metadata", "annotations", "lexicons"):
            assert key in cfg, f"published config must name {key!r}"
