"""Annotation sets, rater tables and lexicons to and from plain data.

Tests state their data as cells keyed (sonnet_id, feature), rater tables
as per-unit lists, and lexicons as {word: {dimension: (mean, sd or
None)}}; the package stores one float array per table with NaN for a
missing cell.  An absent key, or a None, is a missing cell.
"""

import math
from types import SimpleNamespace

import numpy as np

from versemood.agreement import krippendorff_alpha
from versemood.corpus import ANNOTATED_FEATURES, AnnotationSet
from versemood.features import FEATURE_NAMES, compute_corpus_matrix
from versemood.lexicon import CANONICAL_SCALES, DIMENSIONS, MergedLexicon, SourceLexicon
from versemood.textnorm import TokenTable


def _array(rows, cols, cells):
    values = np.full((len(rows), len(cols)), np.nan)
    row_of = {r: i for i, r in enumerate(rows)}
    col_of = {c: j for j, c in enumerate(cols)}
    for (r, c), value in cells.items():
        values[row_of[r], col_of[c]] = value
    return values


def annotation_set(annotator_id, sonnet_ids, features, cells):
    """An AnnotationSet holding ``cells[(sonnet_id, feature)]``.

    Each of ``features`` sits in its ANNOTATED_FEATURES column; every
    other cell is missing.
    """
    sonnet_ids = tuple(sonnet_ids)
    assert {feature for _, feature in cells} <= set(features), "a cell of an unnamed feature"
    return AnnotationSet(
        annotator_id=annotator_id,
        sonnet_ids=sonnet_ids,
        values=_array(sonnet_ids, ANNOTATED_FEATURES, cells),
    )


def alpha_of(rows, level="nominal"):
    """``krippendorff_alpha`` of per-unit lists, a column per rater."""
    return krippendorff_alpha(np.array(rows, dtype=float), level)  # None becomes NaN


def cells_of(aset):
    """The present cells of an AnnotationSet."""
    return {
        (sid, feature): value
        for sid, line in zip(aset.sonnet_ids, aset.values.tolist())
        for feature, value in zip(ANNOTATED_FEATURES, line)
        if not math.isnan(value)
    }


def _lexicon_arrays(entries):
    mean = np.full((len(entries), len(DIMENSIONS)), np.nan)
    sd = np.full_like(mean, np.nan)
    for i, dims in enumerate(entries.values()):
        for dim, (m, s) in dims.items():
            mean[i, DIMENSIONS.index(dim)] = m
            if s is not None:
                sd[i, DIMENSIONS.index(dim)] = s
    return tuple(entries), mean, sd


def source_lexicon(source_id, entries, scales=None):
    """A SourceLexicon holding ``entries``, on the canonical scales except ``scales``."""
    words, mean, sd = _lexicon_arrays(entries)
    return SourceLexicon(source_id, {**CANONICAL_SCALES, **(scales or {})}, words, mean, sd)


def merged_lexicon(entries):
    """A MergedLexicon holding ``entries`` by key, each key its own surface word."""
    keys, mean, sd = _lexicon_arrays(entries)
    rows = {key: i for i, key in enumerate(keys)}
    return MergedLexicon(rows=rows, mean=mean, sd=sd, source_rows=(np.arange(len(rows)),))


def entries_of(lexicon):
    """The {word: {dimension: (mean, sd or None)}} of a SourceLexicon, or by key of a merge."""
    if isinstance(lexicon, SourceLexicon):
        words = enumerate(lexicon.entries)
    else:
        words = ((row, key) for key, row in lexicon.rows.items())
    return {
        word: {
            dim: (m, None if math.isnan(s) else s)
            for dim, m, s in zip(DIMENSIONS, lexicon.mean[i].tolist(), lexicon.sd[i].tolist())
            if not math.isnan(m)
        }
        for i, word in words
    }


def profile(observations):
    """One sonnet's features from its word observations, by ``compute_corpus_matrix``.

    Each observation gets a lexicon key of its own, placed at its
    position among the sonnet's keys; a key the lexicon lacks fills each
    gap.  Positions are shifted to start at 1, which moves no rank.
    Returns ``values`` {name: value or None} and ``reasons``.
    """
    ordered = sorted(observations, key=lambda o: o.position)
    positions = [o.position for o in ordered]
    assert len(set(positions)) == len(positions), "two observations share a position"
    first = positions[0] if positions else 1
    keys = [""] * (positions[-1] - first + 1 if positions else 0)
    entries = {}
    for i, o in enumerate(ordered):
        keys[o.position - first] = f"obs{i}"
        entries[f"obs{i}"] = o.dims
    matrix = compute_corpus_matrix(TokenTable.of([("s", keys)]), merged_lexicon(entries))
    values = [None if math.isnan(v) else v for v in matrix.values[0].tolist()]
    return SimpleNamespace(values=dict(zip(FEATURE_NAMES, values)), reasons=matrix.reasons["s"])
