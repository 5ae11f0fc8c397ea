"""Corpus model: sonnets, expert annotation sets, and their fusion.

Annotation files are delimited text with one header row naming the
annotated features and one row per sonnet in metadata order.  The three
expert sets are fused into a median annotator after two repairs that the
annotation campaign made necessary: a valence scale reversal for the
annotators who used the scale upside down, and a zero fill for
psychological tags missing in exactly one of the three sets.

A loaded set holds uint8 codes (each cell's value, or MISSING) from the reader
to the agreement kernel; the median annotator, which can hold halves, floats.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .textnorm import InputError, TokenTable, csv_rows, decide, kept_rows, read_input, split_lines

__all__ = [
    "ALL_CATEGORY",
    "ANNOTATED_FEATURES",
    "AnnotationFormatError",
    "AnnotationSet",
    "Corpus",
    "CorpusFormatError",
    "CorpusStats",
    "HistogramBin",
    "MEDIAN_ANNOTATOR_ID",
    "ORDINAL_FEATURES",
    "PSYCHOLOGICAL_TAGS",
    "Sonnet",
    "UnfilledCell",
    "build_median_annotator",
    "categories",
    "corpus_statistics",
    "fill_missing_psych",
    "load_annotation_set",
    "load_corpus",
    "reverse_ordinal_scale",
]

MEDIAN_ANNOTATOR_ID = 0
MISSING = 255  # the code of a missing cell

ORDINAL_MIN = 1
ORDINAL_MAX = 4


class AnnotationFormatError(InputError):
    """Malformed annotation file (bad header, cell value, or row count)."""


class CorpusFormatError(InputError):
    """Malformed corpus metadata or unreadable sonnet text."""


# The annotated features.  The seven affective and three lexico-semantic
# features are ordinal on a 1..4 scale and are never missing; the
# psychological tags are binary 0/1 and may be missing.  Names are
# case-sensitive: the ordinal 'fear' and 'anger' are distinct from the
# capitalized tags 'Fear (binary)' and 'Anger'.
ORDINAL_FEATURES: tuple[str, ...] = (
    "valence", "arousal", "happiness", "anger", "sadness", "fear", "disgust",
    "concreteness", "imageability", "context availability",
)
PSYCHOLOGICAL_TAGS: tuple[str, ...] = (
    "Anxiety",
    "Aversion",
    "Depression",
    "Disappointment",
    "Dramatisation",
    "Illusion",
    "Helplessness",
    "Instability",
    "Insecurity",
    "Anger",
    "Obsession",
    "Pride",
    "Prejudice",
    "Fear (binary)",
    "Vulnerability",
    "Compulsion",
    "Daydream",
    "Grandeur",
    "Idealization",
    "Irritability",
    "Solitude",
)
# The columns of every annotation set: ordinal features, then tags.
ANNOTATED_FEATURES = ORDINAL_FEATURES + PSYCHOLOGICAL_TAGS
_COLUMN = {feature: j for j, feature in enumerate(ANNOTATED_FEATURES)}

# The category of the whole corpus, beside one per psychological tag.
ALL_CATEGORY = "all"
_BINS = 10  # of the word-count histogram, equal in width


class Sonnet(NamedTuple):
    """One poem: identity, bibliographic fields, and (optionally) text."""

    sonnet_id: str
    author: str
    year: str
    title: str
    text: str | None


class Corpus:
    """The sonnets in metadata order; ``sonnet_ids`` holds their ids, one tuple for every reader."""

    __slots__ = ("sonnets", "sonnet_ids")

    def __init__(self, sonnets: tuple[Sonnet, ...]):
        self.sonnets, self.sonnet_ids = sonnets, tuple(s.sonnet_id for s in sonnets)

    def __len__(self) -> int:
        return len(self.sonnets)


class AnnotationSet:
    """One annotator's matrix of sonnet-by-feature values.

    ``table`` is an n x len(ANNOTATED_FEATURES) array: rows follow
    ``sonnet_ids``, columns follow ``ANNOTATED_FEATURES``.  The loaders give
    uint8 codes, a cell's value or MISSING; a table built from floats stays
    float, NaN where missing; ``values`` reads both as floats.  The median
    annotator produced by fusion reuses this type with ``annotator_id`` 0
    and may hold half-integer values where an even count had to be
    averaged.  Equality is identity: an array field has no single truth value.
    """

    __slots__ = ("annotator_id", "sonnet_ids", "table")

    def __init__(self, annotator_id: int, sonnet_ids: tuple[str, ...], values: np.ndarray):
        if values.shape != (len(sonnet_ids), len(ANNOTATED_FEATURES)):
            raise ValueError(
                f"values must be {len(sonnet_ids)} x {len(ANNOTATED_FEATURES)} "
                f"(sonnets x features), got {values.shape}"
            )
        self.annotator_id, self.sonnet_ids, self.table = annotator_id, sonnet_ids, values

    @property
    def values(self) -> np.ndarray:
        """The values as floats, NaN where missing: a float table itself."""
        return CODE_VALUES[self.table] if self.table.dtype == np.uint8 else self.table

    def column(self, feature: str) -> np.ndarray:
        """One feature's values in ``sonnet_ids`` order, NaN where missing."""
        return self.values[:, _COLUMN[feature]]


def _missing(table: np.ndarray) -> np.ndarray:
    """Where a table of codes (any code above ORDINAL_MAX) or of floats (NaN) is missing."""
    return table > ORDINAL_MAX if table.dtype == np.uint8 else np.isnan(table)


class UnfilledCell(NamedTuple):
    """A psychological cell missing in two or more annotation sets."""

    sonnet_id: str
    feature: str
    n_present: int


class HistogramBin(NamedTuple):
    low: float
    high: float
    count: int


class CorpusStats(NamedTuple):
    """Word-count summary plus per-tag sonnet counts from the median set."""

    n_sonnets: int
    word_mean: float
    word_sd: float | None
    histogram: tuple[HistogramBin, ...]
    tag_counts: dict[str, int]


_METADATA_COLUMNS = ("author", "year", "title", "id_sonnet", "file_path")


def load_corpus(metadata_path: str | Path, corpus_root: str | Path | None) -> Corpus:
    """Load sonnet metadata and, when a root directory is given, the texts.

    The metadata file is delimited text with at least the columns
    author, year, title, id_sonnet and file_path.  Texts are read from
    file_path resolved against ``corpus_root``; passing None skips text
    loading for commands that only need identities.
    """
    metadata_path = Path(metadata_path)
    text = read_input(metadata_path, "metadata file")
    rows = csv_rows(split_lines(text), metadata_path, CorpusFormatError)
    header = next(rows, (0, []))[1]
    missing = [c for c in _METADATA_COLUMNS if c not in header]
    if missing:
        raise CorpusFormatError(f"{metadata_path}: missing metadata columns: {', '.join(missing)}")
    lines, table, stop = kept_rows(rows)  # a blank line is no row
    if not table:
        raise stop or CorpusFormatError(f"{metadata_path}: no sonnets listed")
    # each header name's column (a repeated name's last); a short row's last cells are blank
    named_columns = zip_longest(header, *table, fillvalue="")
    columns = {name: list(map(str.strip, cells)) for name, *cells in named_columns}
    ids, first = columns["id_sonnet"], {}  # each id's first row
    bad = next(  # the first row with an empty or repeated id
        (i for i, sid in enumerate(ids) if not sid or first.setdefault(sid, i) != i), len(ids)
    )
    texts: list[str | None] = [None] * len(ids)
    for i, name in enumerate(columns["file_path"][:bad] if corpus_root is not None else ()):
        try:
            texts[i] = read_input(Path(corpus_root) / name, "sonnet text")
        except InputError as exc:
            raise CorpusFormatError(f"{metadata_path}: line {lines[i]}: {exc}") from exc
    if bad < len(ids):
        sid, at = ids[bad], f"{metadata_path}: line {lines[bad]}"
        if not sid:
            raise CorpusFormatError(f"{at}: empty id_sonnet")
        first_line = lines[first[sid]]
        raise CorpusFormatError(f"{at}: duplicate sonnet id {sid!r} (first on line {first_line})")
    if stop is not None:
        raise stop
    fields = columns["author"], columns["year"], columns["title"]
    return Corpus(sonnets=tuple(map(Sonnet, ids, *fields, texts)))


def load_annotation_set(
    path: str | Path,
    annotator_id: int,
    sonnet_ids: Sequence[str] | None = None,
) -> AnnotationSet:
    """Read one annotator's delimited file and validate every cell.

    The header must name exactly the annotated features (any order).  Rows
    follow metadata order; when ``sonnet_ids`` is given the row count
    must match and rows are keyed by those ids, otherwise synthetic ids
    s0001, s0002, ... are assigned.  Ordinal cells must be integers in
    1..4 and may not be empty; binary cells must be 0 or 1 and may be
    empty.  All violations report row and column coordinates.
    """
    path = Path(path)
    text = read_input(path, "annotation file")
    codes = _plain_values(text, sonnet_ids)
    if codes is None:  # only the csv reader reports errors
        codes = _csv_values(path, text, sonnet_ids)
    if sonnet_ids is None:
        sonnet_ids = [f"s{i:04d}" for i in range(1, len(codes) + 1)]
    return AnnotationSet(annotator_id=annotator_id, sonnet_ids=tuple(sonnet_ids), values=codes)


def _plain_values(text: str, sonnet_ids: Sequence[str] | None) -> np.ndarray | None:
    """The codes of a plain annotation file, parsed as bytes; None for ``_csv_values``.

    Plain: ASCII without quote or CR, the feature names as header, and a row per
    sonnet (any number without ids) of cells spelled as in _ORDINAL_CELLS and
    _BINARY_CELLS, which are one byte or none.
    """
    text = text if text.endswith("\n") else text + "\n"
    header = text[:text.index("\n")]
    names = header.split(",")
    if len(text) == len(header) + 1 or not text.isascii() or '"' in text or "\r" in text:
        return None
    n = len(sonnet_ids) if sonnet_ids is not None else text.count("\n") - 1
    raw = np.frombuffer(text.encode(), np.uint8)[len(header):]  # the header's line end, the body
    data = raw[1:]
    ends = (data == ord(",")) | (data == ord("\n"))
    row_ends = np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8)
    if (
        sorted(names) != sorted(ANNOTATED_FEATURES)
        or not np.array_equal(data[ends], np.tile(row_ends, n))  # rows of other width or number
        or np.count_nonzero(ends[1:] | ends[:-1]) != len(data) - 1  # a cell of two bytes
    ):
        return None
    # each cell's byte, or the comma or line end before it where it is blank
    cells = raw[:-1][ends].reshape(n, len(names))
    codes = _CELL_CODES[_KINDS, cells[:, [names.index(f) for f in ANNOTATED_FEATURES]]]
    return None if (codes == _INVALID).any() else codes


def _csv_values(path: Path, text: str, sonnet_ids: Sequence[str] | None) -> np.ndarray:
    """The codes of any annotation file by the csv reader, checked cell by cell."""
    rows = csv_rows(split_lines(text), path, AnnotationFormatError)
    lines, table, stop = kept_rows(rows, lambda row: any(map(str.strip, row)))  # not blank
    if not table:
        raise stop or AnnotationFormatError(f"{path}: file is empty")
    header_line, header = lines[0], [h.strip() for h in table[0]]
    for col, name in enumerate(header, start=1):
        if name not in _COLUMN:
            raise AnnotationFormatError(
                f"{path}: row {header_line}, column {col}: unknown feature name {name!r}"
            )
    if len(set(header)) != len(header):
        raise AnnotationFormatError(f"{path}: duplicate feature columns in header")
    absent = [f for f in ANNOTATED_FEATURES if f not in header]
    if absent:
        raise AnnotationFormatError(f"{path}: missing feature columns: {', '.join(absent)}")

    data_rows = list(zip(lines[1:], table[1:]))
    # a count cut short by an unreadable line is no count
    if stop is None and sonnet_ids is not None and len(data_rows) != len(sonnet_ids):
        raise AnnotationFormatError(
            f"{path}: {len(data_rows)} data rows but {len(sonnet_ids)} sonnets in metadata"
        )

    spellings = [
        _ORDINAL_CELLS if feature in ORDINAL_FEATURES else _BINARY_CELLS for feature in header
    ]
    parsed = []
    for lineno, row in data_rows:
        if len(row) != len(header):
            raise AnnotationFormatError(
                f"{path}: row {lineno}: expected {len(header)} cells, found {len(row)}"
            )
        cells = list(map(dict.get, spellings, row))
        if None in cells:  # a spelling off the tables: check the row cell by cell
            cells = []
            for col, (feature, cell) in enumerate(zip(header, row), start=1):
                try:
                    cells.append(_annotation_cell(cell, feature in ORDINAL_FEATURES))
                except ValueError as exc:
                    raise AnnotationFormatError(
                        f"{path}: row {lineno}, column {col} ({feature}): {exc}"
                    ) from None
        parsed.append(cells)
    if stop is not None:
        raise stop
    codes = np.array(parsed, dtype=np.uint8).reshape(len(data_rows), len(header))
    return codes[:, [header.index(f) for f in ANNOTATED_FEATURES]]


# The code of every valid cell's canonical spelling; _annotation_cell reads any other.
_ORDINAL_CELLS = {str(v): v for v in range(ORDINAL_MIN, ORDINAL_MAX + 1)}
_BINARY_CELLS = {"0": 0, "1": 1, "": MISSING}
# A cell's code by its byte (a blank cell's is the comma or line end before it),
# in an ordinal column (row 0) and a binary one (row 1); _INVALID: no valid cell
_INVALID = MISSING - 1
_CELL_CODES = np.array([
    [cells.get("" if chr(b) in ",\n" else chr(b), _INVALID) for b in range(256)]
    for cells in (_ORDINAL_CELLS, _BINARY_CELLS)
], np.uint8)
_KINDS = (np.arange(len(ANNOTATED_FEATURES)) >= len(ORDINAL_FEATURES)).astype(np.intp)
# Each code's value, NaN where it is missing
CODE_VALUES = np.where(np.arange(256) <= ORDINAL_MAX, np.arange(256.0), np.nan)


def _annotation_cell(cell: str, is_ordinal: bool) -> int:
    """One annotation cell's code; a blank binary cell is MISSING.

    Raises ValueError naming the problem; the caller adds the coordinates.
    """
    cell = cell.strip()
    if not cell:
        if is_ordinal:
            raise ValueError("ordinal features may not be missing")
        return MISSING
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"not an integer: {cell!r}") from None
    if is_ordinal:
        if not ORDINAL_MIN <= value <= ORDINAL_MAX:
            raise ValueError(f"value {value} outside {ORDINAL_MIN}..{ORDINAL_MAX}")
    elif value not in (0, 1):
        raise ValueError(f"binary tag value must be 0 or 1, found {value}")
    return value


def reverse_ordinal_scale(annotation_set: AnnotationSet, feature: str) -> AnnotationSet:
    """Map an ordinal feature through x -> 5 - x (1..4 scale flip).

    Used for annotators who applied the scale in the opposite direction.
    Applying it twice is the identity.
    """
    if feature not in ORDINAL_FEATURES:
        raise ValueError(f"{feature!r} is not an ordinal feature")
    table, col = annotation_set.table.copy(), _COLUMN[feature]
    table[:, col] = ORDINAL_MIN + ORDINAL_MAX - table[:, col]  # a missing code stays missing
    return AnnotationSet(annotation_set.annotator_id, annotation_set.sonnet_ids, table)


def _aligned(sets: Sequence[AnnotationSet]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sonnet ids of three sets that cover the same sonnets, and their codes or values."""
    if len(sets) != 3:
        raise ValueError(f"expected exactly 3 annotation sets, got {len(sets)}")
    first = sets[0].sonnet_ids
    if any(s.sonnet_ids != first for s in sets[1:]):
        raise ValueError("annotation sets cover different sonnets")
    codes = all(s.table.dtype == np.uint8 for s in sets)
    return first, [s.table if codes else s.values for s in sets]


def fill_missing_psych(
    sets: Sequence[AnnotationSet],
) -> tuple[list[AnnotationSet], list[UnfilledCell]]:
    """Fill psychological cells missing in exactly one of three sets with 0.

    A tag left blank by a single annotator is read as 'not confirmed'
    rather than unknown.  Cells missing in two or all three sets are
    left missing and returned for reporting, sonnet by sonnet.
    """
    ids, tables = _aligned(sets)
    cube = np.stack(tables)
    # psychological tags are the last columns (a view)
    tags = cube[:, :, len(ORDINAL_FEATURES):]
    present = ~_missing(tags)
    n_present = present.sum(axis=0, dtype=np.uint8)
    tags[~present & (n_present == 2)] = 0
    unfilled = [
        UnfilledCell(ids[row], PSYCHOLOGICAL_TAGS[col], int(n_present[row, col]))
        for row, col in zip(*np.nonzero(n_present < 2))
    ]
    result = [AnnotationSet(s.annotator_id, s.sonnet_ids, table) for s, table in zip(sets, cube)]
    if unfilled:
        decide(__name__, f"{len(unfilled)} psychological cells unfillable (missing in 2+ sets)")
    return result, unfilled


def build_median_annotator(sets: Sequence[AnnotationSet]) -> AnnotationSet:
    """Fuse three aligned annotation sets into a median annotator.

    Cells with three values take the middle one; the median of a binary
    tag is then the majority vote.  A cell with two values (one was
    unfillable) resolves a 0/1 split to 0 and averages ordinals, which
    can yield half-integers.  Cells with fewer than two values stay
    missing.  Scale reversal and the missing fill are expected to have
    been applied already.
    """
    ids, (a, b, c) = _aligned(sets)
    # the lowest and middle present values, a missing one ranking above all (fmin
    # passes over NaN, maximum keeps it; MISSING is the top code), as np.sort puts NaN last
    low, middle = np.fmin(a, b), np.maximum(a, b)
    np.maximum(low, np.fmin(middle, c, out=middle), out=middle)
    np.fmin(low, c, out=low)
    n_present = 3 - (_missing(a).astype(np.int8) + _missing(b) + _missing(c))
    two = n_present == 2
    split = two & (low != middle)
    binary = np.arange(len(ANNOTATED_FEATURES)) >= len(ORDINAL_FEATURES)
    values = np.where(n_present == 3, middle, np.nan)
    values[two] = 0.5 * (low[two] + middle[two])
    values[split & binary] = 0.0
    for row, col in zip(*np.nonzero(split)):
        sid, feature = ids[row], ANNOTATED_FEATURES[col]
        if binary[col]:
            decide(__name__, f"median {sid}/{feature}: 0/1 split over two values resolved to 0")
        else:
            pair = [float(low[row, col]), float(middle[row, col])]
            decide(__name__, f"median {sid}/{feature}: averaging two ordinal values {pair}")
    return AnnotationSet(MEDIAN_ANNOTATOR_ID, ids, values)


def categories(median: AnnotationSet) -> list[tuple[str, np.ndarray]]:
    """The corpus categories, each with the mask of its rows of ``median``.

    First ALL_CATEGORY with every row, then each psychological tag in
    ``PSYCHOLOGICAL_TAGS`` order with the rows whose median tag value is
    1.  A missing median cell counts as untagged.
    """
    tagged = median.values[:, len(ORDINAL_FEATURES):] == 1.0
    return [(ALL_CATEGORY, np.ones(len(median.sonnet_ids), bool))] + [
        (tag, tagged[:, j]) for j, tag in enumerate(PSYCHOLOGICAL_TAGS)
    ]


def corpus_statistics(keys: TokenTable, median: AnnotationSet) -> CorpusStats:
    """Word-count distribution and per-tag counts.

    ``keys`` holds the corpus's normalized keys.  Word counts are
    surviving tokens after stopword removal (repeats included).  The
    standard deviation is the sample one (n-1 in the denominator), None
    for a single sonnet; the histogram uses ``_BINS`` equal-width bins
    over the observed range with the last bin closed on the right.  The
    median covers ``keys``'s sonnets in the same order.
    """
    if median.sonnet_ids != keys.sonnet_ids:
        raise ValueError("the median annotator and the corpus keys cover different sonnets")
    counts = keys.lengths.tolist()
    n = len(counts)
    mean = sum(counts) / n
    sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (n - 1)) if n > 1 else None
    lo, hi = float(min(counts)), float(max(counts))
    if hi == lo:
        bins = [HistogramBin(lo, hi, n)]
    else:
        width = (hi - lo) / _BINS
        at = np.minimum(((keys.lengths - lo) / width).astype(np.intp), _BINS - 1)
        tally = np.bincount(at, minlength=_BINS).tolist()
        bins = [HistogramBin(lo + i * width, lo + (i + 1) * width, k) for i, k in enumerate(tally)]
    tag_counts = {tag: int(rows.sum()) for tag, rows in categories(median)[1:]}
    return CorpusStats(n, mean, sd, tuple(bins), tag_counts)
