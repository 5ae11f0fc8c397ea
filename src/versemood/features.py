"""Per-sonnet affective profile: the 32-feature vector.

Each sonnet is reduced to the tokens that survive normalization and are
found in the merged lexicon.  From those matched words come, per
dimension, the mean of the word means and the mean of the word standard
deviations, then arousal and valence extremes and spans, rank
correlations of arousal and valence against token position (how feeling
moves across the poem), and a dispersion term scaling the mean by the
square root of the number of matched words.

The corpus is computed at once: each distinct key is looked up once,
every token gathers its key's row of the merged lexicon's arrays (-1
when unmatched), the per-sonnet means, extremes and spans are reductions
over the gathered rows, and one sort ranks every sonnet's words for the
correlations.  An undefined feature is NaN with a reason rather than
silently zeroed.
"""

from __future__ import annotations

import numpy as np

from .lexicon import DIMENSIONS, MergedLexicon
from .stats import centred_ranks, group_mean
from .textnorm import TokenTable

__all__ = [
    "FEATURE_INDEX",
    "FEATURE_NAMES",
    "MEAN_SD_FEATURES",
    "MEAN_FEATURES",
    "FeatureMatrix",
    "compute_corpus_matrix",
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

# The dimensions with extremes, spans, position correlations and sigma.
_TRACKED = (("arousal", "aro"), ("valence", "val"))


def _undefined_reasons() -> dict[str, str]:
    reasons = {}
    for dim in DIMENSIONS:
        reasons[f"{_DIM_PREFIX[dim]}_mean"] = f"no matched words with {dim}"
        reasons[f"{_DIM_PREFIX[dim]}_sd"] = f"no word standard deviations for {dim}"
    for dim, short in _TRACKED:
        none, few = f"no matched words with {dim}", f"fewer than two matched words with {dim}"
        reasons.update({f"max_{dim}": none, f"min_{dim}": none, f"{dim}_span": none})
        reasons.update({f"cor_{short}": few, f"abs_cor_{short}": few, f"sigma_{short}": none})
    return reasons


# Feature name -> why it is undefined, in the order a sonnet's reasons are
# listed.  A position correlation over two or more words that is undefined
# has the other reason: the values are constant.
_REASONS: dict[str, str] = _undefined_reasons()


class FeatureMatrix:
    """The 32 features of a whole corpus, one row per sonnet in corpus order.

    ``values`` is an n x 32 float array whose columns follow
    ``FEATURE_NAMES`` (``FEATURE_INDEX`` maps a name to its column); an
    undefined value is NaN.  ``reasons[sonnet_id]`` explains each of
    that sonnet's undefined values.  Equality is identity: an array
    field has no single truth value.
    """

    __slots__ = ("sonnet_ids", "values", "reasons")

    def __init__(
        self, sonnet_ids: tuple[str, ...], values: np.ndarray, reasons: dict[str, dict[str, str]]
    ):
        self.sonnet_ids, self.values, self.reasons = sonnet_ids, values, reasons

    def column(self, feature: str) -> np.ndarray:
        """One feature's values in corpus order (a view; NaN where undefined)."""
        return self.values[:, FEATURE_INDEX[feature]]

    @property
    def undefined_counts(self) -> dict[str, int]:
        """Number of sonnets with each feature undefined."""
        counts = np.isnan(self.values).sum(axis=0)
        return {name: int(count) for name, count in zip(FEATURE_NAMES, counts)}


def compute_corpus_matrix(keys: TokenTable, merged: MergedLexicon) -> FeatureMatrix:
    """The feature matrix of every sonnet.

    ``keys`` holds the corpus's normalized keys; a key's position is its
    index in its sonnet + 1.  Positions are the post-stopword-removal
    token positions, so the matched words' positions may have gaps where
    unmatched words sat.  Means are summed word by word in position order,
    one dimension at a time.  Position correlations rank every sonnet at
    once (``centred_ranks`` by sonnet); their sums are exact, so each is
    ``spearman``'s, bit for bit.
    """
    n, n_dims = len(keys.sonnet_ids), len(DIMENSIONS)
    rows = merged.rows_of(keys.words)[keys.codes]
    matched = rows >= 0
    sonnet, rows = keys.sonnets()[matched], rows[matched]
    values = np.full((n, len(FEATURE_NAMES)), np.nan)
    count = np.empty((n, n_dims), np.intp)
    for j in range(n_dims):
        values[:, 2 * j], count[:, j] = group_mean(sonnet, merged.mean[rows, j], n)
        values[:, 2 * j + 1] = group_mean(sonnet, merged.sd[rows, j], n)[0]

    def column(name: str) -> np.ndarray:
        return values[:, FEATURE_INDEX[name]]  # a view: writing it fills ``values``

    constant: dict[int, dict[str, str]] = {}  # sonnet -> reasons of its constant correlations
    for dim, short in _TRACKED:
        j = DIMENSIONS.index(dim)
        # this dimension's words, sonnet by sonnet and in position order
        has = ~np.isnan(merged.mean[rows, j])
        dim_values, dim_sonnet = merged.mean[rows[has], j], sonnet[has]
        m = count[:, j]
        starts = np.cumsum(m) - m
        some = m > 0
        if some.any():
            column(f"max_{dim}")[some] = np.maximum.reduceat(dim_values, starts[some])
            column(f"min_{dim}")[some] = np.minimum.reduceat(dim_values, starts[some])
        column(f"{dim}_span")[:] = column(f"max_{dim}") - column(f"min_{dim}")
        column(f"sigma_{short}")[:] = column(f"{dim}_mean") * np.sqrt(m)
        # Spearman's rho of value ranks against position ranks, every sonnet at once;
        # positions are in order, so the i-th of a sonnet's m words ranks i - (m - 1) / 2
        rx = centred_ranks(dim_values, dim_sonnet)
        ry = np.arange(len(dim_values)) - (starts + (m - 1) / 2)[dim_sonnet]
        sums = [np.bincount(dim_sonnet, r, n) for r in (rx * ry, rx * rx, ry * ry)]
        cor = column(f"cor_{short}")
        with np.errstate(invalid="ignore"):  # 0 / 0 where every rx is 0: NaN
            cor[:] = np.clip(sums[0] / np.sqrt(sums[1] * sums[2]), -1.0, 1.0)
        for i in np.flatnonzero((m >= 2) & (sums[1] == 0.0)).tolist():
            reason = f"{dim} values are constant across the sonnet"
            constant.setdefault(i, {}).update({f"cor_{short}": reason, f"abs_cor_{short}": reason})
        column(f"abs_cor_{short}")[:] = np.abs(cor)

    names = tuple(_REASONS)
    undefined = np.isnan(values[:, [FEATURE_INDEX[name] for name in names]]).tolist()
    reasons = {}
    for i, (sid, flags) in enumerate(zip(keys.sonnet_ids, undefined)):
        reasons[sid] = {name: _REASONS[name] for name, flag in zip(names, flags) if flag}
        reasons[sid].update(constant.get(i, {}))
    return FeatureMatrix(sonnet_ids=keys.sonnet_ids, values=values, reasons=reasons)
