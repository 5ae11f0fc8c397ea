"""Feature vector computation: hand-checked values and structural invariants."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from cell_tables import entries_of, merged_lexicon, profile, source_lexicon
from oracles import WordObservation
from versemood.features import FEATURE_NAMES, MEAN_SD_FEATURES, compute_corpus_matrix
from versemood.lexicon import CANONICAL_SCALES, merge_lexicons
from versemood.pipeline import Session
from versemood.textnorm import NormalizationConfig, TokenTable, normalize

from conftest import build_workspace

ORDER_FREE = tuple(n for n in FEATURE_NAMES if not n.startswith(("cor_", "abs_cor_")))


def obs(position, **dims):
    """Observation with dims given as name=(mean, sd) pairs."""
    return WordObservation(
        key=f"w{position}",
        position=position,
        dims={k: v for k, v in dims.items()},
    )


def random_observations(rng, n=None, with_sd=True):
    n = n or int(rng.integers(2, 30))
    out = []
    for position in range(1, n + 1):
        dims = {}
        for dim in CANONICAL_SCALES:
            if rng.random() < 0.2:
                continue
            lo, hi = CANONICAL_SCALES[dim]
            sd = float(rng.uniform(0.05, 1.5)) if with_sd and rng.random() < 0.8 else None
            dims[dim] = (float(rng.uniform(lo, hi)), sd)
        out.append(
            WordObservation(key=f"w{position}", position=position, dims=dims)
        )
    return out


def renumbered(observations):
    return [
        WordObservation(o.key, i + 1, o.dims)
        for i, o in enumerate(observations)
    ]


def test_feature_name_inventory():
    assert len(FEATURE_NAMES) == 32
    assert len(MEAN_SD_FEATURES) == 20
    assert "cont_ava_mean" in FEATURE_NAMES
    assert "context_availability_mean" not in FEATURE_NAMES


def test_hand_computed_vector():
    observations = [
        obs(1, valence=(8.0, 1.0), arousal=(6.0, 0.5)),
        obs(2, valence=(2.0, 0.5), arousal=(4.0, None)),
        obs(3, valence=(3.0, None), arousal=(5.0, 1.5)),
    ]
    vec = profile(observations)
    v = vec.values
    assert v["valence_mean"] == pytest.approx(13.0 / 3.0)
    assert v["valence_sd"] == pytest.approx(0.75)
    assert v["arousal_mean"] == pytest.approx(5.0)
    assert v["arousal_sd"] == pytest.approx(1.0)
    assert v["max_valence"] == 8.0
    assert v["min_valence"] == 2.0
    assert v["valence_span"] == 6.0
    assert v["max_arousal"] == 6.0
    assert v["min_arousal"] == 4.0
    assert v["arousal_span"] == 2.0
    # value ranks against positions 1,2,3 give rho = -1/2 for both series
    assert v["cor_val"] == pytest.approx(-0.5)
    assert v["cor_aro"] == pytest.approx(-0.5)
    assert v["abs_cor_val"] == pytest.approx(0.5)
    assert v["abs_cor_aro"] == pytest.approx(0.5)
    assert v["sigma_val"] == pytest.approx((13.0 / 3.0) * math.sqrt(3))
    assert v["sigma_aro"] == pytest.approx(5.0 * math.sqrt(3))
    # dimensions with no observations carry reasons, not zeros
    assert v["happiness_mean"] is None
    assert "happiness" in vec.reasons["happiness_mean"]


def test_empty_observations_all_undefined():
    vec = profile([])
    assert all(value is None for value in vec.values.values())
    assert set(vec.reasons) == set(FEATURE_NAMES)


def test_single_word_correlation_undefined():
    vec = profile([obs(1, arousal=(5.0, 0.2))])
    assert vec.values["cor_aro"] is None
    assert "fewer than two" in vec.reasons["cor_aro"]
    assert vec.values["sigma_aro"] == pytest.approx(5.0)
    assert vec.values["arousal_span"] == 0.0


def test_constant_values_correlation_undefined():
    vec = profile([
        obs(1, valence=(4.0, None)),
        obs(2, valence=(4.0, None)),
        obs(3, valence=(4.0, None)),
    ])
    assert vec.values["cor_val"] is None
    assert "constant" in vec.reasons["cor_val"]
    assert vec.values["abs_cor_val"] is None


def test_order_permutation_moves_only_correlations():
    rng = np.random.default_rng(80)
    for _ in range(100):
        observations = random_observations(rng)
        base = profile(observations).values
        order = rng.permutation(len(observations))
        shuffled = renumbered([observations[i] for i in order])
        permuted = profile(shuffled).values
        for name in ORDER_FREE:
            if base[name] is None:
                assert permuted[name] is None
            else:
                assert permuted[name] == pytest.approx(base[name], abs=1e-9)


def test_reversal_negates_position_correlations():
    rng = np.random.default_rng(81)
    for _ in range(100):
        observations = random_observations(rng)
        base = profile(observations).values
        flipped = profile(
            renumbered(list(reversed(observations)))
        ).values
        for short in ("aro", "val"):
            cor, cor_rev = base[f"cor_{short}"], flipped[f"cor_{short}"]
            if cor is None:
                assert cor_rev is None
                continue
            assert cor_rev == pytest.approx(-cor, abs=1e-9)
            assert flipped[f"abs_cor_{short}"] == pytest.approx(
                base[f"abs_cor_{short}"], abs=1e-9
            )


def test_extrema_sandwich_means():
    rng = np.random.default_rng(82)
    for _ in range(100):
        vec = profile(random_observations(rng)).values
        for dim, short in (("arousal", "arousal"), ("valence", "valence")):
            mean = vec[f"{dim}_mean"]
            if mean is None:
                continue
            assert vec[f"min_{short}"] - 1e-12 <= mean <= vec[f"max_{short}"] + 1e-12
            assert vec[f"{short}_span"] == vec[f"max_{short}"] - vec[f"min_{short}"]


def test_sigma_is_mean_times_root_count():
    rng = np.random.default_rng(83)
    for _ in range(100):
        observations = random_observations(rng)
        vec = profile(observations).values
        for dim, short in (("arousal", "aro"), ("valence", "val")):
            count = sum(1 for o in observations if dim in o.dims)
            mean = vec[f"{'arousal' if dim == 'arousal' else 'valence'}_mean"]
            if count == 0:
                assert vec[f"sigma_{short}"] is None
            else:
                assert vec[f"sigma_{short}"] == mean * math.sqrt(count)


def test_duplicating_observations_preserves_means_and_extrema():
    rng = np.random.default_rng(84)
    for _ in range(50):
        observations = random_observations(rng)
        base = profile(observations).values
        doubled = profile(
            renumbered(observations + observations)
        ).values
        for name in MEAN_SD_FEATURES + (
            "max_arousal", "min_arousal", "max_valence", "min_valence",
            "arousal_span", "valence_span",
        ):
            if base[name] is None:
                assert doubled[name] is None
            else:
                assert doubled[name] == pytest.approx(base[name], abs=1e-9)


# ---------------------------------------------------------------------------
# corpus-level plumbing


def small_merged():
    entries = {
        "amor": {"valence": (8.0, 1.0), "arousal": (6.0, 0.5)},
        "muert": {"valence": (2.0, 0.5), "arousal": (4.0, 1.0)},
        "ceniz": {"valence": (3.0, None), "arousal": (5.0, 1.5)},
    }
    src = source_lexicon("mini", entries)
    return merge_lexicons([src], NormalizationConfig(mode="raw", stopwords=frozenset()))


def matrix_of(text, merged, config):
    return compute_corpus_matrix(TokenTable.of([("s1", normalize(text, config))]), merged)


def test_corpus_matrix_skips_unknown_tokens():
    merged = small_merged()
    config = NormalizationConfig(mode="raw", stopwords=frozenset({"el"}))
    matrix = matrix_of("el amor desconocido muert", merged, config)
    expected = oracles.features_from_observations([
        WordObservation(key, position, entries_of(merged)[key])
        for key, position in [("amor", 1), ("muert", 3)]
    ])
    row = [None if np.isnan(v) else v for v in matrix.values[0].tolist()]
    assert dict(zip(FEATURE_NAMES, row)) == expected.values
    assert matrix.reasons["s1"] == expected.reasons


def test_corpus_matrix_end_to_end():
    merged = small_merged()
    config = NormalizationConfig(mode="raw", stopwords=frozenset())
    matrix = matrix_of("amor muert ceniz", merged, config)
    assert matrix.column("valence_mean")[0] == pytest.approx(13.0 / 3.0)
    assert matrix.column("cor_val")[0] == pytest.approx(-0.5)


def test_compute_corpus_matrix_order_and_undefined_counts():
    merged = small_merged()
    keys = {"s1": ("amor", "muert"), "s2": ("sin", "palabras", "conocidas")}
    matrix = compute_corpus_matrix(TokenTable.of(keys.items()), merged)
    assert matrix.sonnet_ids == ("s1", "s2")
    assert matrix.undefined_counts["valence_mean"] == 1  # s2 matched nothing
    assert np.isnan(matrix.column("valence_mean")).tolist() == [False, True]


def test_compute_corpus_matrix_requires_texts(workspace_config):
    # A session whose reports need no texts loads the metadata only.
    session = Session(workspace_config, ["agreement"])
    with pytest.raises(ValueError, match="without text"):
        session.matrix


def test_corpus_matrix_holds_less_than_three_token_by_dimension_arrays(tmp_path):
    # Summing one dimension at a time holds a few matched-token arrays at once,
    # never a matched-token x 10 float array (80 bytes per token) or its copies.
    workspace = build_workspace(tmp_path / "workspace", n_sonnets=120)
    session = Session(workspace / "config.json")
    keys, merged = session.keys(session.norm.mode), session.merged
    matched = int((merged.rows_of(keys.words)[keys.codes] >= 0).sum())
    tracemalloc.start()
    try:
        compute_corpus_matrix(keys, merged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matched > 2000
    assert peak < 3 * matched * 80


def random_lexicon(rng):
    """Up to 12 keys with random dimensions; few distinct values, so some sonnets are constant."""
    entries = {}
    for i in range(int(rng.integers(1, 13))):
        dims = {}
        n_dims = int(rng.integers(1, 11))
        for dim in rng.choice(list(CANONICAL_SCALES), size=n_dims, replace=False):
            lo, hi = CANONICAL_SCALES[dim]
            tied = rng.random() < 0.3
            mean = float(rng.choice([lo, (lo + hi) / 2]) if tied else rng.uniform(lo, hi))
            dims[str(dim)] = (mean, float(rng.uniform(0.1, 2)) if rng.random() < 0.7 else None)
        entries[f"k{i}"] = dims
    return entries


def test_corpus_matrix_matches_fold_oracle():
    rng = np.random.default_rng(85)
    reached = set()
    for _ in range(300):
        entries = random_lexicon(rng)
        vocabulary = list(entries) + ["unknown", "otro"]
        keys = {
            f"s{i}": tuple(rng.choice(vocabulary, size=int(rng.integers(0, 25))).tolist())
            for i in range(int(rng.integers(1, 8)))
        }
        matrix = compute_corpus_matrix(TokenTable.of(keys.items()), merged_lexicon(entries))
        assert matrix.sonnet_ids == tuple(keys)
        for i, (sid, sonnet_keys) in enumerate(keys.items()):
            expected = oracles.features_from_observations([
                WordObservation(key, position, entries[key])
                for position, key in enumerate(sonnet_keys, start=1)
                if key in entries
            ])
            row = [None if np.isnan(v) else v for v in matrix.values[i].tolist()]
            assert dict(zip(FEATURE_NAMES, row)) == expected.values
            assert list(matrix.reasons[sid].items()) == list(expected.reasons.items())
            reached.update(reason.split(" ")[0] for reason in expected.reasons.values())
            reached.add("defined" if expected.values["cor_val"] is not None else "undefined")
    # every kind of reason, and defined correlations
    assert reached == {"no", "fewer", "valence", "arousal", "defined", "undefined"}


def test_position_correlations_equal_spearman_per_sonnet():
    # 274 sonnets at once: arousal and valence from few levels (ties, and sonnets whose
    # values are all equal), keys without either dimension (NaN), unknown keys, and
    # sonnets of zero or one word; each correlation must be the per-sonnet spearman's
    rng = np.random.default_rng(12)
    entries = {}
    for i in range(40):
        levels = rng.choice([2.0, 3.5, 5.0], size=2) if i < 20 else rng.uniform(1, 9, size=2)
        entries[f"k{i}"] = {
            dim: (float(level), None)
            for dim, level in zip(("arousal", "valence"), levels)
            if rng.random() < 0.8
        }
    # a sonnet drawn from these two alone has constant arousal and valence
    flat = ["k0", "k1"]
    entries["k0"] = entries["k1"] = {"arousal": (2.0, 0.5), "valence": (2.0, None)}
    vocabulary = [*entries, "unknown"]
    keys = {}
    for i in range(274):
        pool = flat if i % 9 == 0 else vocabulary
        keys[f"s{i}"] = tuple(rng.choice(pool, size=int(rng.integers(0, 40))).tolist())
    keys["s1"], keys["s2"] = (), ("k3",)
    matrix = compute_corpus_matrix(TokenTable.of(keys.items()), merged_lexicon(entries))
    reached = set()
    for i, (sid, sonnet_keys) in enumerate(keys.items()):
        observations = [
            WordObservation(key, position, entries[key])
            for position, key in enumerate(sonnet_keys, start=1)
            if key in entries
        ]
        for dim, short in (("arousal", "aro"), ("valence", "val")):
            rho, reason = oracles._position_correlation(observations, dim)
            value = matrix.values[i, FEATURE_NAMES.index(f"cor_{short}")]
            if rho is None:
                assert math.isnan(value)
                assert matrix.reasons[sid][f"cor_{short}"] == reason
                assert matrix.reasons[sid][f"abs_cor_{short}"] == reason
                reached.add(reason.split(" ")[0])
            else:
                assert value == rho
                assert f"cor_{short}" not in matrix.reasons[sid]
                values = [o.dims[dim][0] for o in observations if dim in o.dims]
                reached.add("ties" if len(set(values)) < len(values) else "distinct")
    assert reached == {"fewer", "arousal", "valence", "ties", "distinct"}
