"""Per-sonnet affective profile: the 32-feature vector.

Each sonnet is reduced to the tokens that survive normalization and are
found in the merged lexicon.  From those word observations come, per
dimension, the mean of the word means and the mean of the word standard
deviations, then arousal and valence extremes and spans, rank
correlations of arousal and valence against token position (how feeling
moves across the poem), and a dispersion term scaling the mean by the
square root of the number of matched observations.

Any feature whose inputs are absent is carried as undefined with a
reason rather than silently zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .lexicon import DIMENSIONS, MergedLexicon
from .stats import spearman

__all__ = [
    "FEATURE_INDEX",
    "FEATURE_NAMES",
    "MEAN_SD_FEATURES",
    "MEAN_FEATURES",
    "FeatureMatrix",
    "GamFeatureVector",
    "WordObservation",
    "compute_corpus_matrix",
    "features_from_observations",
]

_DIM_PREFIX = {dim: dim for dim in DIMENSIONS}
_DIM_PREFIX["context_availability"] = "cont_ava"

MEAN_FEATURES: tuple[str, ...] = tuple(f"{_DIM_PREFIX[d]}_mean" for d in DIMENSIONS)

MEAN_SD_FEATURES: tuple[str, ...] = tuple(
    name for d in DIMENSIONS for name in (f"{_DIM_PREFIX[d]}_mean", f"{_DIM_PREFIX[d]}_sd")
)

FEATURE_NAMES: tuple[str, ...] = MEAN_SD_FEATURES + (
    "max_arousal",
    "min_arousal",
    "max_valence",
    "min_valence",
    "arousal_span",
    "valence_span",
    "cor_aro",
    "cor_val",
    "abs_cor_aro",
    "abs_cor_val",
    "sigma_aro",
    "sigma_val",
)

# Feature name -> its column in FeatureMatrix.values.
FEATURE_INDEX: dict[str, int] = {name: j for j, name in enumerate(FEATURE_NAMES)}


@dataclass(frozen=True)
class WordObservation:
    """One lexicon-matched token: its key, where it sits and what the norms say."""

    key: str
    position: int
    dims: dict[str, tuple[float, float | None]]


@dataclass
class GamFeatureVector:
    """The 32 features of one sonnet.

    ``values`` holds a float (or None) per feature name; ``reasons``
    explains every None.  Every feature name is always present in
    ``values``.
    """

    values: dict[str, float | None] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)


def _observe_keys(keys: Sequence[str], merged: MergedLexicon) -> list[WordObservation]:
    observations = []
    for position, key in enumerate(keys, start=1):
        entry = merged.lookup(key)
        if entry is not None:
            observations.append(WordObservation(key=key, position=position, dims=entry))
    return observations


def _position_correlation(
    observations: Sequence[WordObservation], dim: str
) -> tuple[float | None, str | None]:
    pairs = [
        (float(o.position), o.dims[dim][0]) for o in observations if dim in o.dims
    ]
    if len(pairs) < 2:
        return None, f"fewer than two matched words with {dim}"
    positions = [p for p, _ in pairs]
    means = [m for _, m in pairs]
    result = spearman(means, positions)
    if result.rho is None:
        return None, f"{dim} values are constant across the sonnet"
    return result.rho, None


def features_from_observations(
    observations: Sequence[WordObservation],
) -> GamFeatureVector:
    """Fold word observations into the 32-feature vector."""
    vec = GamFeatureVector()

    def set_value(name: str, value: float | None, reason: str | None = None) -> None:
        vec.values[name] = value
        if value is None:
            vec.reasons[name] = reason or "undefined"

    for dim in DIMENSIONS:
        prefix = _DIM_PREFIX[dim]
        means = [o.dims[dim][0] for o in observations if dim in o.dims]
        sds = [
            o.dims[dim][1]
            for o in observations
            if dim in o.dims and o.dims[dim][1] is not None
        ]
        if means:
            set_value(f"{prefix}_mean", sum(means) / len(means))
        else:
            set_value(f"{prefix}_mean", None, f"no matched words with {dim}")
        if sds:
            set_value(f"{prefix}_sd", sum(sds) / len(sds))
        else:
            set_value(f"{prefix}_sd", None, f"no word standard deviations for {dim}")

    for dim, label in (("arousal", "arousal"), ("valence", "valence")):
        means = [o.dims[dim][0] for o in observations if dim in o.dims]
        count = len(means)
        if means:
            set_value(f"max_{label}", max(means))
            set_value(f"min_{label}", min(means))
            set_value(f"{label}_span", max(means) - min(means))
        else:
            reason = f"no matched words with {dim}"
            set_value(f"max_{label}", None, reason)
            set_value(f"min_{label}", None, reason)
            set_value(f"{label}_span", None, reason)
        short = "aro" if dim == "arousal" else "val"
        rho, reason = _position_correlation(observations, dim)
        set_value(f"cor_{short}", rho, reason)
        set_value(f"abs_cor_{short}", abs(rho) if rho is not None else None, reason)
        mean_value = vec.values[f"{_DIM_PREFIX[dim]}_mean"]
        if mean_value is not None:
            set_value(f"sigma_{short}", mean_value * math.sqrt(count))
        else:
            set_value(f"sigma_{short}", None, f"no matched words with {dim}")

    return vec


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """The 32 features of a whole corpus, one row per sonnet in corpus order.

    ``values`` is an n x 32 float array whose columns follow
    ``FEATURE_NAMES`` (``FEATURE_INDEX`` maps a name to its column); an
    undefined value is NaN.  ``reasons[sonnet_id]`` explains each of
    that sonnet's undefined values.  No generated ``__eq__``: an array
    field has no single truth value.
    """

    sonnet_ids: tuple[str, ...]
    values: np.ndarray
    reasons: dict[str, dict[str, str]]

    def column(self, feature: str) -> np.ndarray:
        """One feature's values in corpus order (a view; NaN where undefined)."""
        return self.values[:, FEATURE_INDEX[feature]]

    @property
    def undefined_counts(self) -> dict[str, int]:
        """Number of sonnets with each feature undefined."""
        counts = np.isnan(self.values).sum(axis=0)
        return {name: int(count) for name, count in zip(FEATURE_NAMES, counts)}


def compute_corpus_matrix(
    keys: Mapping[str, Sequence[str]], merged: MergedLexicon
) -> FeatureMatrix:
    """The feature matrix of every sonnet.

    ``keys`` holds each sonnet's normalized keys in corpus order; a key's
    position is its index + 1.  Positions are the post-stopword-removal
    token positions, so the observations' positions may have gaps where
    unmatched words sat.
    """
    vectors = [features_from_observations(_observe_keys(k, merged)) for k in keys.values()]
    # dtype=float turns an undefined (None) value into NaN
    values = np.array(
        [[vec.values[name] for name in FEATURE_NAMES] for vec in vectors], dtype=float
    ).reshape(len(vectors), len(FEATURE_NAMES))
    return FeatureMatrix(
        sonnet_ids=tuple(keys),
        values=values,
        reasons={sid: vec.reasons for sid, vec in zip(keys, vectors)},
    )
