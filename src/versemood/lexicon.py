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

A lexicon is held as arrays, one row per word and one column per
dimension, NaN where a word has no value.  Loaders read a file a block of
lines at a time and check whole columns; a file they cannot take goes to the
csv reader, which keeps each row's line to name the first bad one.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import sys
from contextlib import suppress
from functools import partial
from itertools import compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import ALL_CATEGORY, AnnotationSet, categories
from .stats import group_mean
from .textnorm import (
    InputError, NormalizationConfig, TokenTable, csv_rows, decide, kept_rows, read_input,
    split_lines,
)

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

# Dimension name -> its column in the lexicon arrays.
_COLUMN: dict[str, int] = {dim: j for j, dim in enumerate(DIMENSIONS)}
_WIDTHS = np.array([hi - lo for lo, hi in CANONICAL_SCALES.values()])


class LexiconFormatError(InputError):
    """Malformed lexicon file or descriptor (coordinates in the message)."""


class _Planes:
    """``mean`` and ``sd`` as given, or by ``values()`` on the first read of either, once."""

    __slots__ = ("_values",)

    def _planes(self) -> tuple[np.ndarray, np.ndarray]:
        if callable(self._values):
            self._values = self._values()  # and drops what computing them held
        return self._values

    mean = property(lambda self: self._planes()[0])
    sd = property(lambda self: self._planes()[1])


class SourceLexicon(_Planes):
    """One published lexicon on its native scales.

    ``entries`` holds the distinct surface words in the order the file
    first gives them.  ``mean`` and ``sd`` are len(entries) x
    len(DIMENSIONS) arrays, row i for ``entries[i]`` and columns in
    ``DIMENSIONS`` order; NaN marks a dimension the source gives no value
    for, and in ``sd`` also a standard deviation it does not publish.
    A loaded source computes them on the first read.  ``scales`` holds the
    declared native range per dimension.  Equality is identity: an array
    field has no single truth value.
    """

    __slots__ = ("source_id", "scales", "entries")

    def __init__(
        self, source_id: str, scales: dict[str, tuple[float, float]], entries: tuple[str, ...],
        mean: np.ndarray | None = None, sd: np.ndarray | None = None,
        values: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        self.source_id, self.scales, self.entries = source_id, scales, entries
        self._values = values or (mean, sd)

    def __len__(self) -> int:
        return len(self.entries)


class MergedLexicon(_Planes):
    """Sources fused onto canonical scales and keyed by normalized form.

    ``rows`` maps each key to its row of ``mean`` and ``sd``, which are
    len(rows) x len(DIMENSIONS) arrays on the canonical scales (NaN
    where no source word of the key has a value).  ``source_rows[k][i]``
    is the row of the key of entry i of the k-th merged source.
    """

    __slots__ = ("rows", "source_rows")

    def __init__(
        self, rows: dict[str, int], mean: np.ndarray | None = None, sd: np.ndarray | None = None,
        source_rows: tuple[np.ndarray, ...] = (),
        values: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        self.rows, self.source_rows = rows, source_rows
        self._values = values or (mean, sd)

    def __len__(self) -> int:
        return len(self.rows)

    def rows_of(self, keys: Sequence[str]) -> np.ndarray:
        """The row of each of ``keys``, -1 for a key the merge lacks."""
        return np.fromiter(map(self.rows.get, keys, repeat(-1)), np.intp, len(keys))


def rescale_value(
    value: float | np.ndarray,
    from_scale: tuple[float, float],
    to_scale: tuple[float, float],
) -> float | np.ndarray:
    """Affinely map a value, or an array of values, between two declared scales.

    Equal scales pass the value through untouched so canonical-scale
    sources stay bit-identical across a merge.
    """
    lo, hi = from_scale
    if not 0.0 < float(hi) - float(lo) < math.inf:  # empty, or wider than a float holds
        raise ValueError(f"degenerate scale ({lo}, {hi})")
    new_lo, new_hi = to_scale
    if (lo, hi) == (new_lo, new_hi):
        return value
    return new_lo + _scaled(value - lo, new_hi - new_lo, hi - lo)


def _scaled(x: float | np.ndarray, to_width: float, from_width: float) -> float | np.ndarray:
    """x * to_width / from_width, dividing first where the product passes the float range."""
    with np.errstate(over="ignore"):  # a result no float holds stays infinite
        scaled = x * to_width / from_width
        return np.where(np.isinf(scaled), x / from_width * to_width, scaled)


# ---------------------------------------------------------------------------
# loading


class _Table:
    """One delimited lexicon file by the csv reader: the referee of ``_Columns``.

    The rows end at the first that cannot be used: ``stop`` is then the
    error for a line the csv reader cannot parse, or the message for a
    row whose width differs from the header's; it is None when every row
    was read.  A blank line is no row, as csv.DictReader skips it.
    ``lines`` holds the physical line of each row read, the unusable one too.
    """

    def __init__(self, path: Path, text: str, delimiter: str, strings: Mapping[str, Callable]):
        self.path = path
        rows = csv_rows(split_lines(text), path, LexiconFormatError, delimiter)
        header = next(rows, (0, []))[1]
        self.column = {name: j for j, name in enumerate(header)}  # a repeated name: its last
        self.stop: str | LexiconFormatError | None
        self.lines, self.rows, self.stop = kept_rows(rows)
        widths = np.fromiter(map(len, self.rows), np.intp, len(self.rows))
        wrong = np.flatnonzero(widths != len(header))
        if wrong.size:
            self.stop = f"{widths[wrong[0]]} cells, but the header has {len(header)}"
            del self.rows[wrong[0] :]
        self.cells = list(zip(*self.rows)) or [()] * len(header)
        self.converted = {
            self.column[name]: convert(self.cells[self.column[name]])
            for name, convert in strings.items() if name in self.column
        }

    def numbers(
        self, j: int, wanted: np.ndarray | bool | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column j as floats (NaN where not a number), and the mask of those not finite numbers.

        With ``wanted`` (a mask, or True for every cell) the cells are optional:
        each is stripped, and a blank or unwanted one is NaN without being bad.
        """
        cells = self.cells[j]
        if wanted is None:
            wanted = np.ones(len(cells), bool)
        else:
            cells = list(map(str.strip, cells))
            wanted = wanted & np.fromiter(map(bool, cells), bool, len(cells))
        picked = list(compress(cells, wanted))
        values = np.full(len(cells), np.nan)
        try:
            values[wanted] = np.fromiter(map(float, picked), float, len(picked))
        except ValueError:
            values[wanted] = [v if isinstance(v, float) else math.nan for v in map(_parse, picked)]
        return values, wanted & ~np.isfinite(values)

    def raise_first(self, checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
        """Raise the error of the first bad row, naming its physical line, if there is one.

        Each check pairs the mask of the rows that fail it with the
        message for row i, in the order the checks apply within a row;
        ``stop`` comes after every row.
        """
        failing = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks) if bad.any()]
        if failing:
            row, k = min(failing)
            message = checks[k][1](row)
        elif isinstance(self.stop, str):
            row, message = len(self.rows), self.stop
        elif self.stop is not None:
            raise self.stop
        else:
            return
        raise LexiconFormatError(f"{self.path}: line {self.lines[row]}: {message}")


# Characters of text a plain file is read by: each block also takes the rest of its last line.
_BLOCK = 1 << 16


class _Columns:
    """A lexicon file split at its delimiter, where the csv reader would split it the same way.

    Its text has no quote and no CR.  It is read a block of lines at a
    time: np.loadtxt parses the ``numeric`` columns as float() does but
    takes less, no blank cell among it, so ``wanted`` changes nothing, and
    each ``strings`` column is converted at once; only these are kept.
    Any ValueError sends the file to ``_Table``, the only one to name a bad row.
    """

    def __init__(self, text: str, delimiter: str, numeric: Sequence[str], strings: Mapping):
        end = text.find("\n")
        self.column = column = {name: j for j, name in enumerate(text[:end].split(delimiter))}
        if end <= 0 or end > csv.field_size_limit() or not column.keys() >= {*numeric, *strings}:
            raise ValueError("not a plain delimited file")
        usecols = sorted({column[name] for name in numeric})
        converters = {column[name]: convert for name, convert in strings.items()}
        numbers, converted = {j: [] for j in usecols}, {j: [] for j in converters}
        width, start = text.count(delimiter, 0, end), end + 1
        while start < len(text):
            end = text.find("\n", start + _BLOCK) % (len(text) + 1)  # none: the end of the text
            rows = list(filter(None, text[start:end].split("\n")))
            start = end + 1
            if not rows:
                continue
            widths = map(str.count, rows, repeat(delimiter))
            if any(map(width.__ne__, widths)) or max(map(len, rows)) > csv.field_size_limit():
                raise ValueError("not a plain delimited file")
            values = np.loadtxt(rows, delimiter=delimiter, usecols=usecols, comments=None, ndmin=2)
            if len(values) != len(rows):
                raise ValueError("loadtxt skipped a row")
            for j, values_j in zip(usecols, values.T):
                numbers[j].append(values_j)
            for j, convert in converters.items():
                cells = map(str.split, rows, repeat(delimiter), repeat(j + 1))
                converted[j].append(convert(map(operator.itemgetter(j), cells)))
        # without a row, np.concatenate raises ValueError
        self.values = {j: np.concatenate(parts) for j, parts in numbers.items()}
        self.converted = {j: np.concatenate(parts) for j, parts in converted.items()}

    def numbers(self, j: int, wanted: object = None) -> tuple[np.ndarray, np.ndarray]:
        return self.values[j], ~np.isfinite(self.values[j])

    def raise_first(self, checks: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
        if any(bad.any() for bad, _ in checks):
            raise ValueError("a row fails a check")


def _read(
    path: Path, delimiter: str, numeric: Sequence[str], strings: Mapping[str, Callable],
    load: Callable,
) -> SourceLexicon:
    """``load`` of the file by ``_Columns``, or else ``_Table``; ``strings``: name -> converter."""
    text = read_input(path, "lexicon file")
    if '"' not in text and "\r" not in text:  # else csv quoting and line ends apply
        with suppress(ValueError):  # LexiconFormatError too: only the referee reports errors
            return load(_Columns(text, delimiter, numeric, strings))
    return load(_Table(path, text, delimiter, strings))


def _words(cells: Iterable[str]) -> np.ndarray:
    """Each cell's word, stripped, lowercased and interned."""
    return np.array(list(map(sys.intern, map(str.lower, map(str.strip, cells)))), object)


def _dimensions(cells: Iterable[str]) -> np.ndarray:
    """Each cell's dimension as its array column, -1 for an unknown one."""
    return np.array(list(map(_COLUMN.get, map(str.strip, cells), repeat(-1))), np.intp)


def _parse(cell: str) -> float | str:
    """The cell's value by float(), or what is wrong with it."""
    try:
        value = float(cell)
    except ValueError:
        return f"not a number: {cell!r}"
    # NaN marks an undefined feature downstream, so no input may carry one
    return value if math.isfinite(value) else f"not a finite number: {cell!r}"


def _collapse(
    path: Path,
    source_id: str,
    scales: dict[str, tuple[float, float]],
    words: np.ndarray,
    columns: np.ndarray,
    means: np.ndarray,
    sds: np.ndarray,
) -> SourceLexicon:
    """One source from its values, in file order: value i gives ``words[i]``
    the mean ``means[i]`` and sd ``sds[i]`` (NaN: none) in array column
    ``columns[i]``.  Duplicates (same word and dimension) are averaged when
    the source's ``mean`` or ``sd`` is first read.
    """
    index = {word: i for i, word in enumerate(dict.fromkeys(words))}
    if not index:
        raise LexiconFormatError(f"{path}: no entries")
    cells = np.fromiter(map(index.__getitem__, words), np.intp, len(words)) * len(DIMENSIONS)
    cells += columns
    n_dupes = int((np.unique(cells, return_counts=True)[1] > 1).sum())
    if n_dupes:
        decide(__name__, f"{source_id}: averaged {n_dupes} duplicate word/dimension rows")
    values = partial(_source_planes, cells, means, sds, len(index))
    return SourceLexicon(source_id, scales, tuple(index), values=values)


def _source_planes(cells: np.ndarray, means: np.ndarray, sds: np.ndarray, n: int) -> tuple:
    """The n x len(DIMENSIONS) mean and sd planes of ``_collapse``'s values, duplicates averaged."""
    return tuple(group_mean(cells, v, n * len(DIMENSIONS))[0].reshape(n, -1) for v in (means, sds))


_CANONICAL_COLUMNS = ("word", "dimension", "mean", "sd", "scale_min", "scale_max")


def _canonical(path: Path, source_id: str, table: _Table | _Columns) -> SourceLexicon:
    missing = set(_CANONICAL_COLUMNS) - table.column.keys()
    if missing:
        raise LexiconFormatError(f"{path}: missing columns: {', '.join(sorted(missing))}")
    word_j, dim_j, mean_j, sd_j, lo_j, hi_j = map(table.column.__getitem__, _CANONICAL_COLUMNS)
    words, dims = table.converted[word_j], table.converted[dim_j]
    lo, lo_bad = table.numbers(lo_j)
    hi, hi_bad = table.numbers(hi_j)
    mean, mean_bad = table.numbers(mean_j)
    sd, sd_bad = table.numbers(sd_j, True)
    # each row's dimension's first row, whose scale the row must repeat (an
    # unknown dimension, -1, reads the spare last slot)
    present, first = np.unique(dims, return_index=True)
    first_row = np.zeros(len(DIMENSIONS) + 1, np.intp)
    first_row[present] = first
    first_row = first_row[dims]

    def scale(i: int) -> tuple[float, float]:
        return float(lo[i]), float(hi[i])

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # bad rows fail below
        wide = ~np.isfinite(hi - lo)
        huge_sd = np.isinf(_scaled(sd, _WIDTHS[dims], hi - lo))

    table.raise_first([
        (words == "", lambda i: "empty word"),
        (dims < 0, lambda i: f"unknown dimension {table.cells[dim_j][i].strip()!r}"),
        (lo_bad, lambda i: _parse(table.cells[lo_j][i])),
        (hi_bad, lambda i: _parse(table.cells[hi_j][i])),
        (~(lo < hi), lambda i: "scale_min must be below scale_max"),
        (wide, lambda i: "scale [{}, {}] is wider than a float holds".format(*scale(i))),
        (
            (lo != lo[first_row]) | (hi != hi[first_row]),
            lambda i: (
                f"conflicting scale for {DIMENSIONS[dims[i]]}: {scale(first_row[i])} vs {scale(i)}"
            ),
        ),
        (mean_bad, lambda i: _parse(table.cells[mean_j][i])),
        (
            (mean < lo) | (mean > hi),
            lambda i: "mean {} outside declared scale [{}, {}]".format(float(mean[i]), *scale(i)),
        ),
        (sd_bad, lambda i: _parse(table.cells[sd_j][i].strip())),
        (sd < 0, lambda i: f"negative sd {float(sd[i])}"),
        (huge_sd, lambda i: f"sd {float(sd[i])} exceeds a float on the canonical scale"),
    ])
    scales = {DIMENSIONS[dims[i]]: scale(i) for i in sorted(first)}
    return _collapse(path, source_id, scales, words, dims, mean, sd)


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
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max for v in scale  # finite as a float too
            )
        ):
            raise LexiconFormatError(f"{where}: scale must be [low, high]")
        lo, hi = float(scale[0]), float(scale[1])
        if hi <= lo:
            raise LexiconFormatError(f"{where}: scale low must be below high")
        if math.isinf(hi - lo):
            raise LexiconFormatError(f"{where}: scale [{lo}, {hi}] is wider than a float holds")
        if "mean" not in spec:
            raise LexiconFormatError(f"{where}: needs a mean column")
        for key in ("mean", "sd"):  # a falsy sd is none; a mean is required
            if (key == "mean" or spec.get(key)) and not (spec[key] and isinstance(spec[key], str)):
                raise LexiconFormatError(f"{where}: '{key}' must be a column name")
        scales[dim] = (lo, hi)

    means = [spec["mean"] for spec in dims_spec.values()]
    sds = [spec["sd"] for spec in dims_spec.values() if spec.get("sd")]

    def load(table: _Table | _Columns) -> SourceLexicon:
        missing = {word_column, *means, *sds} - table.column.keys()
        if missing:
            raise LexiconFormatError(
                f"{path}: columns named by descriptor are absent: {', '.join(sorted(missing))}"
            )
        column = table.column
        words = table.converted[column[word_column]]
        n, checks = len(words), [(words == "", lambda i: "empty word")]

        def dimension(dim: str, spec: Mapping) -> tuple[np.ndarray, np.ndarray]:
            """The dimension's means and sds (NaN where blank); its checks join ``checks``."""
            lo, hi = scales[dim]
            mean_j = column[spec["mean"]]
            mean, mean_bad = table.numbers(mean_j, True)
            sd_j = column[spec["sd"]] if spec.get("sd") else None
            sd, sd_bad = np.full(n, np.nan), np.zeros(n, bool)  # no sd column: all blank
            if sd_j is not None:
                sd, sd_bad = table.numbers(sd_j, ~np.isnan(mean))
            huge_sd = np.isinf(_scaled(sd, _WIDTHS[_COLUMN[dim]], hi - lo))
            checks.extend([
                (mean_bad, lambda i: _parse(table.cells[mean_j][i].strip())),
                (
                    (mean < lo) | (mean > hi),
                    lambda i: f"{dim} mean {float(mean[i])} outside declared scale [{lo}, {hi}]",
                ),
                (sd_bad, lambda i: _parse(table.cells[sd_j][i].strip())),
                (sd < 0, lambda i: f"negative sd {float(sd[i])}"),
                (huge_sd, lambda i: f"sd {float(sd[i])} exceeds a float on the canonical scale"),
            ])
            return mean, sd

        mean, sd = map(np.column_stack, zip(*(dimension(d, s) for d, s in dims_spec.items())))
        table.raise_first(checks)
        # A word enters at its first row with a mean; a row with none adds nothing.
        given = ~np.isnan(mean)
        value_rows, value_dims = np.nonzero(given)
        dim_columns = np.array([_COLUMN[dim] for dim in dims_spec], np.intp)
        return _collapse(
            path,
            source_id,
            scales,
            words[value_rows],
            dim_columns[value_dims],
            mean[given],
            sd[given],
        )

    return _read(path, delimiter, means + sds, {word_column: _words}, load)


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
        load = partial(_canonical, path, source_id or path.stem)
        strings = {"word": _words, "dimension": _dimensions}
        return _read(path, ",", _CANONICAL_COLUMNS[2:], strings, load)
    if isinstance(descriptor, Mapping):
        label = f"descriptor of {path}"
    else:
        label = str(descriptor)
        try:
            descriptor = json.loads(read_input(descriptor, "lexicon descriptor"))
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
            raise LexiconFormatError(f"{label}: invalid JSON: {exc}") from exc
        if not isinstance(descriptor, Mapping):
            raise LexiconFormatError(f"{label}: descriptor must be a JSON object")
    sid = source_id or descriptor.get("source_id") or path.stem
    if not isinstance(sid, str):
        raise LexiconFormatError(f"{label}: 'source_id' must be a string")
    return _load_described(path, descriptor, sid, label)


# ---------------------------------------------------------------------------
# merging


def _median(cube: np.ndarray) -> np.ndarray:
    """Median over axis 1 of the values that are not NaN; NaN where there are none.

    As statistics.median takes it: the middle value, or the mean of the
    two middle ones.  NaN sorts last, so with k values the two middle
    ones sit at (k - 1) // 2 and k // 2, one place when k is odd.
    """
    ordered = np.sort(cube, axis=1)
    count = (~np.isnan(cube)).sum(axis=1, keepdims=True)
    lower = np.take_along_axis(ordered, np.maximum(count - 1, 0) // 2, axis=1)
    upper = np.take_along_axis(ordered, count // 2, axis=1)
    return np.where(count % 2 == 1, upper, (lower + upper) / 2)[:, 0]


def _merge_values(
    sources: Sequence[SourceLexicon], rows: list[np.ndarray], codes: np.ndarray, n_keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """The merged mean and sd, n_keys x len(DIMENSIONS) each.

    Source k's entry i is surface word ``rows[k][i]``, whose key is row
    ``codes`` of that word.
    """
    mean, sd = np.empty((2, n_keys, len(DIMENSIONS)))
    # one dimension at a time: surface word x source, on the canonical scale
    means, sds = planes = np.empty((2, len(codes), len(sources)))
    for j, (dim, (lo, hi)) in enumerate(CANONICAL_SCALES.items()):
        planes.fill(np.nan)
        for k, source in enumerate(sources):
            if native := source.scales.get(dim):
                means[rows[k], k] = rescale_value(source.mean[:, j], native, (lo, hi))
                sds[rows[k], k] = _scaled(source.sd[:, j], hi - lo, native[1] - native[0])
        mean[:, j] = group_mean(codes, _median(means), n_keys)[0]
        sd[:, j] = group_mean(codes, _median(sds), n_keys)[0]
    return mean, sd


def merge_lexicons(
    sources: Sequence[SourceLexicon], config: NormalizationConfig
) -> MergedLexicon:
    """Fuse sources onto canonical scales, then onto normalization keys.

    Per surface word and dimension the merged value is the median of the
    rescaled source values (mean of the two middle ones when the count
    is even); standard deviations are combined the same way over the
    sources that publish them.  Each distinct surface word is keyed
    once, in sorted order, and surface words whose keys collide are
    averaged per dimension in that order.  The keys are merged here; the
    values when the merge's ``mean`` or ``sd`` is first read.
    """
    if not sources:
        raise ValueError("need at least one source lexicon")
    ids = [s.source_id for s in sources]
    if len(set(ids)) != len(ids):
        raise ValueError("source ids are not unique")
    for lo, hi in (s.scales[dim] for s in sources for dim in DIMENSIONS if dim in s.scales):
        if not 0.0 < float(hi) - float(lo) < math.inf:  # as rescale_value would raise later
            raise ValueError(f"degenerate scale ({lo}, {hi})")

    surfaces = sorted(set().union(*(s.entries for s in sources)))
    at = {word: i for i, word in enumerate(surfaces)}
    rows = [np.fromiter(map(at.__getitem__, s.entries), np.intp, len(s)) for s in sources]
    key_rows: dict[str, int] = {}
    codes = np.fromiter(
        (key_rows.setdefault(config.key(w), len(key_rows)) for w in surfaces),
        np.intp,
        len(surfaces),
    )
    n_collisions = len(surfaces) - len(key_rows)
    if n_collisions:
        collapsed = f"{n_collisions} surface words collapsed onto existing keys"
        decide(__name__, f"merge: {collapsed} ({config.mode} mode)")
    values = partial(_merge_values, tuple(sources), rows, codes, len(key_rows))
    return MergedLexicon(key_rows, source_rows=tuple(codes[r] for r in rows), values=values)


class CoverageRow(NamedTuple):
    """Coverage of one corpus category's distinct keys."""

    category: str
    mode: str
    n_keys: int
    merged: float | None  # None for a category without keys: 0/0
    per_source: dict[str, float | None]


def _category_keys(keys: TokenTable, median: AnnotationSet | None) -> tuple[list[str], np.ndarray]:
    """The categories, and per category the mask over ``keys.words`` of the keys its sonnets use.

    Without a median, all of ``keys``'s sonnets only; a median must cover
    them in the same order.
    """
    if median is not None and median.sonnet_ids != keys.sonnet_ids:
        raise ValueError("the median annotator and the corpus keys cover different sonnets")
    everything = [(ALL_CATEGORY, np.ones(len(keys.lengths), bool))]
    members = everything if median is None else categories(median)
    used = np.zeros((len(members), len(keys.words)), bool)
    sonnet = keys.sonnets()
    for j, (_, rows) in enumerate(members):
        used[j, keys.codes[rows[sonnet]]] = True
    return [category for category, _ in members], used


def coverage_report(
    keys: TokenTable,
    sources: Sequence[SourceLexicon],
    merged: MergedLexicon,
    config: NormalizationConfig,
    median: AnnotationSet | None = None,
) -> list[CoverageRow]:
    """Fraction of distinct corpus keys found in the merged lexicon.

    ``keys`` holds the corpus's keys under ``config.mode``.  One row
    for the whole corpus and, when a median annotation set is given, one
    per psychological tag (over its tagged sonnets only).  Per-source
    fractions check the same keys against each source's words normalized
    under the same mode.  ``merged`` is the merge of ``sources`` under
    ``config``, and its ``source_rows`` are the keys of the source words.
    """
    # each source's words, marked on the rows of their keys in the merge
    in_source = np.zeros((len(sources), len(merged)), bool)
    for j, source_rows in enumerate(merged.source_rows):
        in_source[j, source_rows] = True
    row_of_key = merged.rows_of(keys.words)
    rows = []
    for category, used in zip(*_category_keys(keys, median)):
        hit = row_of_key[used]
        hit = hit[hit >= 0]
        n_keys = int(used.sum())
        counts = [len(hit), *in_source[:, hit].sum(axis=1).tolist()]
        share, *shares = [n / n_keys if n_keys else None for n in counts]
        per_source = dict(zip([s.source_id for s in sources], shares))
        rows.append(CoverageRow(category, config.mode, n_keys, share, per_source))
    return rows


class WordCountRow(NamedTuple):
    """Distinct-key counts per normalization mode for one category."""

    category: str
    raw: int
    stem: int
    lemma: int | None


def word_count_report(
    raw: TokenTable,
    stem: TokenTable,
    lemma: TokenTable | None = None,
    median: AnnotationSet | None = None,
) -> list[WordCountRow]:
    """Distinct keys per category under raw, stem, and lemma modes.

    Each table holds the corpus's keys under that mode, normalized with
    the same stopword list.  The lemma column is None when no lemma keys
    are given (no lemma table is configured).
    """
    names, raw_used = _category_keys(raw, median)
    stem_n, lemma_n = (
        repeat(None) if keys is None else _category_keys(keys, median)[1].sum(axis=1).tolist()
        for keys in (stem, lemma)
    )
    return list(map(WordCountRow, names, raw_used.sum(axis=1).tolist(), stem_n, lemma_n))


class MissingWordRow(NamedTuple):
    """A corpus key absent from the merged lexicon."""

    key: str
    occurrences: int


def missing_word_report(keys: TokenTable, merged: MergedLexicon) -> list[MissingWordRow]:
    """Corpus keys absent from the merged lexicon, with occurrence counts.

    Counts are token occurrences (not distinct sonnets), stopwords
    already removed by normalization.  Sorted by count descending, then
    alphabetically.
    """
    codes = keys.codes[merged.rows_of(keys.words)[keys.codes] < 0]
    counts = np.bincount(codes, minlength=len(keys.words))
    missing = np.flatnonzero(counts).tolist()
    ranked = sorted(
        zip(map(keys.words.__getitem__, missing), counts[missing].tolist()),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return [MissingWordRow(key, n) for key, n in ranked]
