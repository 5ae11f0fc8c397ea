"""Affective lexicons: loading, rescaling, merging, and corpus coverage.

Published word-norm datasets disagree on rating scales, so every source
is first mapped onto one canonical scale per dimension (1..9 for valence
and arousal, 1..5 for the five discrete emotions, 1..7 for the
lexico-semantic norms).  Sources are then merged per surface word by the
median across sources, and finally the surface words are collapsed onto
normalization keys (stems or lemmas), averaging whatever collides.

Two input shapes are supported: a canonical long format (one row per
word and dimension, scale declared inline) and arbitrary published
layouts adapted through a small descriptor that names the word column
and the mean/sd columns per dimension.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import DEFAULT_CATALOG, AnnotationSet, FeatureCatalog, subset_by_tag
from .textnorm import InputError, NormalizationConfig, read_input

__all__ = [
    "CANONICAL_SCALES",
    "CoverageRow",
    "DIMENSIONS",
    "LexiconFormatError",
    "MergedLexicon",
    "MissingWordRow",
    "SourceLexicon",
    "WordCountRow",
    "coverage_report",
    "load_lexicon",
    "merge_lexicons",
    "missing_word_report",
    "rescale_value",
    "word_count_report",
]

logger = logging.getLogger(__name__)

CANONICAL_SCALES: dict[str, tuple[float, float]] = {
    "valence": (1.0, 9.0),
    "arousal": (1.0, 9.0),
    "happiness": (1.0, 5.0),
    "anger": (1.0, 5.0),
    "sadness": (1.0, 5.0),
    "fear": (1.0, 5.0),
    "disgust": (1.0, 5.0),
    "concreteness": (1.0, 7.0),
    "imageability": (1.0, 7.0),
    "context_availability": (1.0, 7.0),
}

DIMENSIONS: tuple[str, ...] = tuple(CANONICAL_SCALES)


class LexiconFormatError(InputError):
    """Malformed lexicon file or descriptor (coordinates in the message)."""


@dataclass(frozen=True)
class SourceLexicon:
    """One published lexicon on its native scales.

    ``entries`` maps surface word to a per-dimension (mean, sd) pair; sd
    may be None when the source does not publish it.  ``scales`` holds
    the declared native range per dimension.
    """

    source_id: str
    scales: dict[str, tuple[float, float]]
    entries: dict[str, dict[str, tuple[float, float | None]]]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MergedLexicon:
    """Sources fused onto canonical scales and keyed by normalized form."""

    entries: dict[str, dict[str, tuple[float, float | None]]]

    def lookup(self, key: str) -> dict[str, tuple[float, float | None]] | None:
        return self.entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def rescale_value(
    value: float,
    from_scale: tuple[float, float],
    to_scale: tuple[float, float],
) -> float:
    """Affinely map a value between two declared scales.

    Equal scales pass the value through untouched so canonical-scale
    sources stay bit-identical across a merge.
    """
    lo, hi = from_scale
    if hi <= lo:
        raise ValueError(f"degenerate scale ({lo}, {hi})")
    new_lo, new_hi = to_scale
    if (lo, hi) == (new_lo, new_hi):
        return value
    return new_lo + (value - lo) * (new_hi - new_lo) / (hi - lo)


def _rescale_sd(sd: float | None, from_scale, to_scale) -> float | None:
    if sd is None:
        return None
    lo, hi = from_scale
    new_lo, new_hi = to_scale
    return sd * (new_hi - new_lo) / (hi - lo)


def _parse_float(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise LexiconFormatError(f"{where}: not a number: {cell!r}") from None
    # NaN marks an undefined feature downstream, so no input may carry one
    if not math.isfinite(value):
        raise LexiconFormatError(f"{where}: not a finite number: {cell!r}")
    return value


def _read_rows(path: Path, delimiter: str = ",") -> csv.DictReader:
    text = read_input(path, "lexicon file")
    return csv.DictReader(io.StringIO(text, newline=""), delimiter=delimiter)


def _check_width(reader: csv.DictReader, row: dict, where: str) -> None:
    """Reject a row with more or fewer cells than the header.

    DictReader files surplus cells under the key None and fills missing
    ones with None.
    """
    if None in row or None in row.values():
        n = len(reader.fieldnames or ())
        surplus = len(row.get(None, ()))
        missing = sum(1 for key, cell in row.items() if key is not None and cell is None)
        raise LexiconFormatError(
            f"{where}: {n + surplus - missing} cells, but the header has {n}"
        )


def _finish_source(
    source_id: str,
    scales: dict[str, tuple[float, float]],
    raw: dict[str, dict[str, list[tuple[float, float | None]]]],
) -> SourceLexicon:
    """Collapse duplicate rows (same word and dimension) by averaging."""
    entries: dict[str, dict[str, tuple[float, float | None]]] = {}
    n_dupes = 0
    for word, dims in raw.items():
        out: dict[str, tuple[float, float | None]] = {}
        for dim, pairs in dims.items():
            if len(pairs) > 1:
                n_dupes += 1
            mean = sum(p[0] for p in pairs) / len(pairs)
            sds = [p[1] for p in pairs if p[1] is not None]
            sd = sum(sds) / len(sds) if sds else None
            out[dim] = (mean, sd)
        entries[word] = out
    if n_dupes:
        logger.info("%s: averaged %d duplicate word/dimension rows", source_id, n_dupes)
    return SourceLexicon(source_id=source_id, scales=scales, entries=entries)


def _load_canonical(path: Path, source_id: str) -> SourceLexicon:
    reader = _read_rows(path)
    required = {"word", "dimension", "mean", "sd", "scale_min", "scale_max"}
    have = set(reader.fieldnames or [])
    if not required <= have:
        raise LexiconFormatError(
            f"{path}: missing columns: {', '.join(sorted(required - have))}"
        )
    scales: dict[str, tuple[float, float]] = {}
    raw: dict[str, dict[str, list[tuple[float, float | None]]]] = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        _check_width(reader, row, where)
        word = row["word"].strip().lower()
        dim = row["dimension"].strip()
        if not word:
            raise LexiconFormatError(f"{where}: empty word")
        if dim not in CANONICAL_SCALES:
            raise LexiconFormatError(f"{where}: unknown dimension {dim!r}")
        lo = _parse_float(row["scale_min"], where)
        hi = _parse_float(row["scale_max"], where)
        if hi <= lo:
            raise LexiconFormatError(f"{where}: scale_min must be below scale_max")
        if dim in scales and scales[dim] != (lo, hi):
            raise LexiconFormatError(
                f"{where}: conflicting scale for {dim}: {scales[dim]} vs {(lo, hi)}"
            )
        scales.setdefault(dim, (lo, hi))
        mean = _parse_float(row["mean"], where)
        if not lo <= mean <= hi:
            raise LexiconFormatError(
                f"{where}: mean {mean} outside declared scale [{lo}, {hi}]"
            )
        sd_cell = row["sd"].strip()
        sd = None
        if sd_cell:
            sd = _parse_float(sd_cell, where)
            if sd < 0:
                raise LexiconFormatError(f"{where}: negative sd {sd}")
        raw.setdefault(word, {}).setdefault(dim, []).append((mean, sd))
    if not raw:
        raise LexiconFormatError(f"{path}: no entries")
    return _finish_source(source_id, scales, raw)


def _load_described(path: Path, descriptor: Mapping, source_id: str, label: str) -> SourceLexicon:
    """Read a published layout through its descriptor; ``label`` names the descriptor."""
    word_column = descriptor.get("word_column")
    if not isinstance(word_column, str) or not word_column:
        raise LexiconFormatError(f"{label}: 'word_column' must be a column name")
    dims_spec = descriptor.get("dimensions")
    if not isinstance(dims_spec, Mapping) or not dims_spec:
        raise LexiconFormatError(f"{label}: 'dimensions' must be a non-empty mapping")
    delimiter = descriptor.get("delimiter", ",")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise LexiconFormatError(f"{label}: 'delimiter' must be one character, not {delimiter!r}")
    scales: dict[str, tuple[float, float]] = {}
    for dim, spec in dims_spec.items():
        where = f"{label}: dimension {dim}"
        if dim not in CANONICAL_SCALES:
            raise LexiconFormatError(f"{label}: unknown dimension {dim!r}")
        if not isinstance(spec, Mapping):
            raise LexiconFormatError(f"{where}: must map 'mean', 'sd' and 'scale'")
        scale = spec.get("scale")
        if (
            not isinstance(scale, Sequence)
            or len(scale) != 2
            or not all(isinstance(v, (int, float)) for v in scale)
        ):
            raise LexiconFormatError(f"{where}: scale must be [low, high]")
        lo, hi = float(scale[0]), float(scale[1])
        if hi <= lo:
            raise LexiconFormatError(f"{where}: scale low must be below high")
        if "mean" not in spec:
            raise LexiconFormatError(f"{where}: needs a mean column")
        for key in ("mean", "sd"):
            if spec.get(key) and not isinstance(spec[key], str):
                raise LexiconFormatError(f"{where}: '{key}' must be a column name")
        scales[dim] = (lo, hi)

    reader = _read_rows(path, delimiter)
    header = set(reader.fieldnames or [])
    needed = {word_column} | {spec["mean"] for spec in dims_spec.values()}
    needed |= {spec["sd"] for spec in dims_spec.values() if spec.get("sd")}
    missing = needed - header
    if missing:
        raise LexiconFormatError(
            f"{path}: columns named by descriptor are absent: {', '.join(sorted(missing))}"
        )
    raw: dict[str, dict[str, list[tuple[float, float | None]]]] = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        _check_width(reader, row, where)
        word = row[word_column].strip().lower()
        if not word:
            raise LexiconFormatError(f"{where}: empty word")
        for dim, spec in dims_spec.items():
            cell = row[spec["mean"]].strip()
            if not cell:
                continue
            mean = _parse_float(cell, where)
            lo, hi = scales[dim]
            if not lo <= mean <= hi:
                raise LexiconFormatError(
                    f"{where}: {dim} mean {mean} outside declared scale [{lo}, {hi}]"
                )
            sd = None
            sd_col = spec.get("sd")
            if sd_col:
                sd_cell = row[sd_col].strip()
                if sd_cell:
                    sd = _parse_float(sd_cell, where)
                    if sd < 0:
                        raise LexiconFormatError(f"{where}: negative sd {sd}")
            raw.setdefault(word, {}).setdefault(dim, []).append((mean, sd))
    if not raw:
        raise LexiconFormatError(f"{path}: no entries")
    return _finish_source(source_id, scales, raw)


def load_lexicon(
    path: str | Path,
    descriptor: Mapping | str | Path | None = None,
    source_id: str | None = None,
) -> SourceLexicon:
    """Load one lexicon file.

    Without a descriptor the file must be in the canonical long format
    (columns word, dimension, mean, sd, scale_min, scale_max).  With a
    descriptor (mapping or path to a JSON file) the named columns of the
    published layout are read instead.  The source id defaults to the
    descriptor's, or the file stem.
    """
    path = Path(path)
    if not path.exists():
        raise LexiconFormatError(f"lexicon file not found: {path}")
    if descriptor is None:
        return _load_canonical(path, source_id or path.stem)
    if isinstance(descriptor, Mapping):
        label = f"descriptor of {path}"
    else:
        label = str(descriptor)
        try:
            descriptor = json.loads(read_input(descriptor, "lexicon descriptor"))
        except json.JSONDecodeError as exc:
            raise LexiconFormatError(f"{label}: invalid JSON: {exc}") from exc
        if not isinstance(descriptor, Mapping):
            raise LexiconFormatError(f"{label}: descriptor must be a JSON object")
    sid = source_id or descriptor.get("source_id") or path.stem
    if not isinstance(sid, str):
        raise LexiconFormatError(f"{label}: 'source_id' must be a string")
    return _load_described(path, descriptor, sid, label)


def merge_lexicons(
    sources: Sequence[SourceLexicon], config: NormalizationConfig
) -> MergedLexicon:
    """Fuse sources onto canonical scales, then onto normalization keys.

    Per surface word and dimension the merged value is the median of the
    rescaled source values (mean of the two middle ones when the count
    is even); standard deviations are combined the same way over the
    sources that publish them.  Surface words whose normalized keys
    collide are averaged per dimension.
    """
    if not sources:
        raise ValueError("need at least one source lexicon")
    ids = [s.source_id for s in sources]
    if len(set(ids)) != len(ids):
        raise ValueError("source ids are not unique")

    by_surface: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    for source in sources:
        for word, dims in source.entries.items():
            slot = by_surface.setdefault(word, {})
            for dim, (mean, sd) in dims.items():
                native = source.scales[dim]
                canonical = CANONICAL_SCALES[dim]
                means, sds = slot.setdefault(dim, ([], []))
                means.append(rescale_value(mean, native, canonical))
                rescaled_sd = _rescale_sd(sd, native, canonical)
                if rescaled_sd is not None:
                    sds.append(rescaled_sd)

    by_key: dict[str, dict[str, tuple[list[float], list[float]]]] = {}
    n_collisions = 0
    for word in sorted(by_surface):
        key = config.key(word)
        slot = by_key.setdefault(key, {})
        if slot:
            n_collisions += 1
        for dim, (means, sds) in by_surface[word].items():
            key_means, key_sds = slot.setdefault(dim, ([], []))
            key_means.append(statistics.median(means))
            if sds:
                key_sds.append(statistics.median(sds))
    if n_collisions:
        logger.info(
            "merge: %d surface words collapsed onto existing keys (%s mode)",
            n_collisions,
            config.mode,
        )

    entries: dict[str, dict[str, tuple[float, float | None]]] = {}
    for key, dims in by_key.items():
        entry: dict[str, tuple[float, float | None]] = {}
        for dim, (means, sds) in dims.items():
            mean = sum(means) / len(means)
            sd = sum(sds) / len(sds) if sds else None
            entry[dim] = (mean, sd)
        entries[key] = entry
    return MergedLexicon(entries=entries)


@dataclass(frozen=True)
class CoverageRow:
    """Coverage of one corpus category's distinct keys."""

    category: str
    mode: str
    n_keys: int
    merged: float
    per_source: dict[str, float]


def _categories(
    sonnet_ids: Sequence[str],
    median: AnnotationSet | None,
    catalog: FeatureCatalog,
) -> list[tuple[str, Sequence[str]]]:
    cats: list[tuple[str, Sequence[str]]] = [("all", sonnet_ids)]
    if median is not None:
        for tag in catalog.psychological:
            cats.append((tag, subset_by_tag(median, tag, catalog)[0]))
    return cats


def coverage_report(
    keys: Mapping[str, Sequence[str]],
    sources: Sequence[SourceLexicon],
    merged: MergedLexicon,
    config: NormalizationConfig,
    median: AnnotationSet | None = None,
    catalog: FeatureCatalog = DEFAULT_CATALOG,
) -> list[CoverageRow]:
    """Fraction of distinct corpus keys found in the merged lexicon.

    ``keys`` holds each sonnet's keys under ``config.mode``.  One row
    for the whole corpus and, when a median annotation set is given, one
    per psychological tag (over its tagged sonnets only).  Per-source
    fractions check the same keys against each source's words normalized
    under the same mode.
    """
    source_keys = {s.source_id: {config.key(w) for w in s.entries} for s in sources}
    rows = []
    for category, ids in _categories(tuple(keys), median, catalog):
        distinct = {k for sid in ids for k in keys[sid]}
        if not distinct:
            rows.append(
                CoverageRow(category, config.mode, 0, 0.0, {s: 0.0 for s in source_keys})
            )
            continue
        hit = sum(1 for k in distinct if k in merged)
        per_source = {
            sid: sum(1 for k in distinct if k in sk) / len(distinct)
            for sid, sk in source_keys.items()
        }
        rows.append(
            CoverageRow(
                category=category,
                mode=config.mode,
                n_keys=len(distinct),
                merged=hit / len(distinct),
                per_source=per_source,
            )
        )
    return rows


@dataclass(frozen=True)
class WordCountRow:
    """Distinct-key counts per normalization mode for one category."""

    category: str
    raw: int
    stem: int
    lemma: int | None


def word_count_report(
    raw: Mapping[str, Sequence[str]],
    stem: Mapping[str, Sequence[str]],
    lemma: Mapping[str, Sequence[str]] | None = None,
    median: AnnotationSet | None = None,
    catalog: FeatureCatalog = DEFAULT_CATALOG,
) -> list[WordCountRow]:
    """Distinct keys per category under raw, stem, and lemma modes.

    Each mapping holds every sonnet's keys under that mode, normalized
    with the same stopword list.  The lemma column is None when no lemma
    keys are given (no lemma table is configured).
    """
    rows = []
    for category, ids in _categories(tuple(raw), median, catalog):
        raw_n, stem_n, lemma_n = (
            None if keys is None else len({k for sid in ids for k in keys[sid]})
            for keys in (raw, stem, lemma)
        )
        rows.append(WordCountRow(category, raw_n, stem_n, lemma_n))
    return rows


@dataclass(frozen=True)
class MissingWordRow:
    """A corpus key absent from the merged lexicon."""

    key: str
    occurrences: int


def missing_word_report(
    keys: Mapping[str, Sequence[str]], merged: MergedLexicon
) -> list[MissingWordRow]:
    """Corpus keys absent from the merged lexicon, with occurrence counts.

    Counts are token occurrences (not distinct sonnets), stopwords
    already removed by normalization.  Sorted by count descending, then
    alphabetically.
    """
    counts: dict[str, int] = {}
    for sonnet_keys in keys.values():
        for key in sonnet_keys:
            if key not in merged:
                counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [MissingWordRow(key, n) for key, n in ranked]
