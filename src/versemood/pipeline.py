"""Pipeline session: one run config, its inputs, and the reports drawn from them.

A :class:`Session` reads the JSON run config and, before any computation
starts, checks the inputs that its reports need.  It then loads each
input on first use and computes each derived artifact once: the
corpus's words and their keys per normalization mode (token tables),
the filled annotation sets and the median annotator, the merged lexicon,
and the feature matrix.

``REPORTS`` defines every report once: the inputs it needs, its row
type (a named tuple) and a builder of its rows, with the JSON wrapper
where it has one.  ``COMMANDS`` names the reports of each subcommand.
``ReportWriter.emit`` derives a report's CSV header and cells and its
JSON rows from the row type's fields by one rule, and writes each row to
both files as it arrives.  The repairs and fallbacks a run makes on its
own are recorded as decisions (``textnorm.decide``); ``decisions.log``
and the ``--strict`` count both read that one record.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import ExitStack
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import agreement as agreement_mod
from . import corpus as corpus_mod
from . import features as features_mod
from . import lexicon as lexicon_mod
from . import validation as validation_mod
from .textnorm import (
    MODES,
    InputError,
    NormalizationConfig,
    TokenTable,
    decide,
    default_stopwords,
    load_lemma_table,
    load_stopwords,
    normalize,
    read_input,
    recording,
)

__all__ = ["COMMANDS", "FORMATS", "REPORTS", "ReportWriter", "RunConfig", "Session"]

FORMATS = ("csv", "json", "both")


class RunConfig(NamedTuple):
    """A run config as checked, each path resolved.

    Input paths resolve against the config's directory, ``out_dir``
    against the working directory.  ``corpus_root`` is None and
    ``lexicons`` empty unless a report reads them; a lexicon is its
    file, its descriptor or None, and its source id or None.
    """

    metadata: Path
    corpus_root: Path | None
    annotations: tuple[Path, ...]
    reversed_valence_annotators: tuple[int, ...]
    lexicons: tuple[tuple[Path, Path | None, str | None], ...]
    stopwords: Path | None
    lemma_table: Path | None
    mode: str
    out_dir: Path
    format: str


def _read_config(
    config_path: Path, needs: set[str], mode: str | None, out_dir: str | None, fmt: str | None
) -> RunConfig:
    """The config at ``config_path``, with the inputs ``needs`` names checked.

    ``mode``, ``out_dir`` and ``fmt`` override the config's entries.  A
    problem is an InputError naming the config, before any computation
    starts.
    """
    try:
        raw = json.loads(read_input(config_path, "config"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{config_path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{config_path}: config must be a JSON object")
    raw = {key: value for key, value in raw.items() if value is not None}  # null: absent

    def fail(message: str) -> InputError:
        return InputError(f"{config_path}: {message}")

    def path(key: str, value: Any, label: str | None = None) -> Path:
        """``value`` resolved as a path; with a ``label``, that of an existing file."""
        if not isinstance(value, str):
            raise fail(f"'{key}' must be a path, not {value!r}")
        resolved = config_path.parent / value
        if label and not resolved.is_file():
            raise fail(f"{label} not found: {resolved}")
        return resolved

    mode = mode or raw.get("mode", "stem")
    fmt = fmt or raw.get("format", "both")
    out_dir = out_dir or raw.get("out_dir", "reports")
    if mode not in MODES:
        raise fail(f"unknown mode {mode!r}; expected one of {MODES}")
    if fmt not in FORMATS:
        raise fail(f"unknown format {fmt!r}")
    if not isinstance(out_dir, str):
        raise fail(f"'out_dir' must be a path, not {out_dir!r}")
    if "metadata" not in raw:
        raise fail("config is missing 'metadata'")
    metadata = path("metadata", raw["metadata"], "metadata file")
    annotations = raw.get("annotations")
    if not isinstance(annotations, list) or len(annotations) < 2:
        raise fail("config needs an 'annotations' list with at least two files")
    annotations = tuple(path("annotations", entry, "annotation file") for entry in annotations)
    if "median" in needs and len(annotations) != 3:
        raise fail(
            "this command needs exactly three annotation sets to build the median "
            f"annotator; config lists {len(annotations)}"
        )
    reversed_valence = raw.get("reversed_valence_annotators", [])
    if not isinstance(reversed_valence, list):
        raise fail("'reversed_valence_annotators' must be a list of annotator numbers")
    for rid in reversed_valence:
        # JSON true is a Python int; it names no annotator.
        if type(rid) is not int or rid not in range(1, len(annotations) + 1):
            raise fail(f"'reversed_valence_annotators' names unknown annotator {rid!r}")
    # each listing reverses the scale once, so a repeat would undo the first
    repeats = [rid for i, rid in enumerate(reversed_valence) if rid in reversed_valence[:i]]
    if repeats:
        raise fail(f"'reversed_valence_annotators' lists annotator {repeats[0]} more than once")
    corpus_root = None
    if "texts" in needs:
        if "corpus_root" not in raw:
            raise fail("config is missing 'corpus_root' (needed to read sonnet texts)")
        corpus_root = path("corpus_root", raw["corpus_root"])
        if not corpus_root.is_dir():
            raise fail(f"corpus_root is not a directory: {corpus_root}")
    lexicons = []
    if "lexicons" in needs:
        entries = raw.get("lexicons")
        if not isinstance(entries, list) or not entries:
            raise fail("config needs a non-empty 'lexicons' list")
        for entry in entries:
            if isinstance(entry, str):
                lexicons.append((path("lexicons", entry, "lexicon file"), None, None))
            elif isinstance(entry, dict) and "path" in entry:
                entry = {key: value for key, value in entry.items() if value is not None}
                lexicon = path("path", entry.get("path"), "lexicon file")
                descriptor = entry.get("descriptor")
                if descriptor is not None:
                    descriptor = path("descriptor", descriptor, "lexicon descriptor")
                if not isinstance(entry.get("source_id", ""), str):
                    raise fail("'source_id' must be a string")
                lexicons.append((lexicon, descriptor, entry.get("source_id")))
            else:
                raise fail("each lexicons entry must be a path or an object with a 'path'")
    stopwords, lemma_table = (
        path(key, raw[key], label) if key in raw else None
        for key, label in (("stopwords", "stopword list"), ("lemma_table", "lemma table"))
    )
    if mode == "lemma" and not lemma_table:
        raise fail("lemma mode requires a 'lemma_table' in the config")
    return RunConfig(
        metadata, corpus_root, annotations, tuple(reversed_valence), tuple(lexicons),
        stopwords, lemma_table, mode, Path.cwd() / out_dir, fmt,
    )


# ---------------------------------------------------------------------------
# report serialization


class _ByType(dict):
    """Text formatters by exact type; another type takes its first listed base's."""
    def __missing__(self, kind: type) -> Callable[[Any], str]:
        return self[next(base for base in self if issubclass(kind, base))]


# A non-finite JSON float is the string "nan", "inf" or "-inf"; bool comes before int.
_BOOL = {True: "true", False: "false"}.__getitem__
_JSON_LEAF = _ByType({
    type(None): lambda _: "null", bool: _BOOL, str: encode_basestring, int: int.__repr__,
    float: lambda v: float.__repr__(v) if math.isfinite(v) else f'"{v}"',
    type(...): lambda _: "[\0]",  # a wrapper's rows: no JSON text holds a NUL
    object: json.JSONEncoder().default,  # raises TypeError
})
# A tuple is one ';'-joined cell; an agreement cell shows its alpha.
_CSV_CELL = _ByType({
    type(None): lambda _: "", bool: _BOOL, str: str, int: str, float: "{:.10g}".format,
    agreement_mod.AlphaResult: lambda cell: f"{cell.alpha:.10g}",
    tuple: lambda items: ";".join([_CSV_CELL[type(v)](v) for v in items]),
    object: str,
})


def _json(value: Any, indent: str) -> str:
    """``value`` as JSON text at ``indent``, laid out as by ``json.dumps(..., indent=2)``.

    A dict or named tuple (keyed by its fields) is an object; a list or other tuple an array.
    """
    leaf = _JSON_LEAF.get(type(value))
    if leaf:
        return leaf(value)
    inner = indent + "  "
    if isinstance(value, dict) or hasattr(value, "_fields"):
        items = value.items() if isinstance(value, dict) else zip(value._fields, value)
        texts = [f"{encode_basestring(str(k))}: {_json(v, inner)}" for k, v in items]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        texts, brackets = [_json(v, inner) for v in value], "[]"
    else:
        return _JSON_LEAF[type(value)](value)  # a leaf type's subclass, or a TypeError
    if not texts:
        return brackets
    return brackets[0] + inner + f",{inner}".join(texts) + indent + brackets[1]


class ReportWriter:
    """Writes csv/json report pairs, each under a temporary name beside its own.

    ``commit`` renames the files emitted or staged so far into place and
    adds them to ``written``; ``discard`` deletes them.
    """

    def __init__(self, out_dir: Path, fmt: str):
        self.out_dir = out_dir
        self.fmt = fmt
        self.written: list[Path] = []
        self._staged: list[tuple[Path, Path]] = []

    def stage(self, filename: str) -> Path:
        """The temporary path of ``filename``, committed or discarded with the reports."""
        self._staged.append((self.out_dir / f".{filename}.tmp", self.out_dir / filename))
        return self._staged[-1][0]

    def emit(
        self, name: str, row_type: type, rows: Iterable[tuple], wrapper: dict | None = None
    ) -> None:
        """Write ``rows``, named tuples of ``row_type``, to ``name``'s files as they arrive.

        The CSV has a column per field, in order, and none for a field
        that the row type lists in ``json_only``: a dict field is a
        column per key (the first row's keys), a tuple one ';'-joined
        cell.  The JSON is the list of the rows, each the object of its
        fields, or else ``wrapper`` with that list at its top-level
        ``...``; a wrapper without one is all of the JSON.
        """
        rows = iter(rows)
        first = next(rows, None)
        fields, json_only = row_type._fields, getattr(row_type, "json_only", ())
        columns = [  # (field index, dict key or None for the whole field)
            (i, key) for i, field in enumerate(fields) if field not in json_only
            for key in (first[i] if first and isinstance(first[i], dict) else [None])
        ]
        # the JSON text before and after the list of rows, and the list's indent
        before, in_json, after = (_json(wrapper, "\n") if wrapper else "[\0]").partition("\0")
        indent = "\n  " if wrapper else "\n"
        at = indent + "    "  # a row's fields
        prefixes = [f"{at}{encode_basestring(field)}: " for field in fields]
        prefixes = ["{" + prefixes[0], *("," + prefix for prefix in prefixes[1:])]

        self.out_dir.mkdir(parents=True, exist_ok=True)
        with ExitStack() as files:
            write_csv = write_json = None
            if self.fmt in ("csv", "both"):
                handle = self.stage(f"{name}.csv").open("w", encoding="utf-8", newline="")
                write_csv = csv.writer(files.enter_context(handle), lineterminator="\n").writerow
                write_csv([fields[i] if key is None else key for i, key in columns])
            if self.fmt in ("json", "both"):
                handle = self.stage(f"{name}.json").open("w", encoding="utf-8")
                write_json = files.enter_context(handle).write
                write_json(before)
            sep = ""
            for row in chain([first], rows) if first else ():
                if write_csv:
                    cells = (row[i] if key is None else row[i][key] for i, key in columns)
                    write_csv([_CSV_CELL[type(cell)](cell) for cell in cells])
                if write_json and in_json:
                    item = "".join([pre + _json(value, at) for pre, value in zip(prefixes, row)])
                    write_json(f"{sep}{indent}  {item}{indent}  }}")
                    sep = ","
            if write_json:
                write_json((indent if sep else "") + after + "\n")

    def commit(self) -> None:
        for staged, path in self._staged:
            staged.replace(path)
            self.written.append(path)
        self._staged.clear()

    def discard(self) -> None:
        for staged, _ in self._staged:
            staged.unlink(missing_ok=True)
        self._staged.clear()


# ---------------------------------------------------------------------------
# report definitions


class _Built(NamedTuple):
    """A report ready to write: its rows and its JSON wrapper."""

    rows: Iterable[tuple]
    wrapper: dict[str, Any] | None = None


class _StatRow(NamedTuple):
    """A corpus statistic: a summary value, a histogram bin's count or a tag's count."""

    record: str
    name: str
    value: float | None


def _corpus_stats(session: Session) -> _Built:
    stats = corpus_mod.corpus_statistics(session.keys(session.norm.mode), session.median)
    if stats.word_sd is None:
        decide(__name__, "corpus_stats summary/word_sd: undefined: one sonnet has no sample sd", 1)
    rows = [
        *(_StatRow("summary", name, value) for name, value in zip(stats._fields[:3], stats)),
        *(_StatRow("histogram", f"{b.low:.10g}-{b.high:.10g}", b.count) for b in stats.histogram),
        *(_StatRow("tag_count", tag, count) for tag, count in stats.tag_counts.items()),
    ]
    wrapper = {**stats._asdict(), "unfilled_cells": session.annotations[1]}
    return _Built(rows, wrapper)


def _agreement(session: Session) -> _Built:
    sets, median = session.annotations[0], None
    if len(sets) == 3:
        median = session.median
    else:
        print("warning: the median column requires three annotation sets; "
              "emitting a pairwise-only report", file=sys.stderr)
    rows = agreement_mod.agreement_report(sets, median)
    # Every row has the same cell labels; a cell not computable is None.
    for row in rows:
        for label, cell in row.cells.items():
            if cell is None or cell.degenerate:
                reason = cell.note if cell else "not computable: no unit has two or more values"
                decide(__name__, f"agreement {row.feature}/{label}: {reason}", 1)
    return _Built(rows, {"columns": list(rows[0].cells), "rows": ...})


def _word_counts(session: Session) -> _Built:
    lemma = session.keys("lemma") if session.norm.lemma_table else None
    return _Built(lexicon_mod.word_count_report(
        session.keys("raw"), session.keys("stem"), lemma, session.median
    ))


def _coverage(session: Session) -> _Built:
    norm = session.norm
    rows = lexicon_mod.coverage_report(
        session.keys(norm.mode), session.sources, session.merged, norm, session.median
    )
    for row in rows:
        if row.merged is None:
            reason = "fractions undefined: the category has no keys"
            decide(__name__, f"coverage {row.category}: {reason}", 1)
    return _Built(rows)


def _missing_words(session: Session) -> _Built:
    return _Built(lexicon_mod.missing_word_report(session.keys(session.norm.mode), session.merged))


class _FeatureRow(NamedTuple):
    """One sonnet's features, and why each undefined one is (in the JSON only)."""

    sonnet_id: str
    values: dict[str, float | None]
    reasons: dict[str, str]

    json_only = ("reasons",)


def _features(session: Session) -> _Built:
    matrix, names = session.matrix, features_mod.FEATURE_NAMES

    def rows() -> Iterator[_FeatureRow]:
        for sid, line in zip(matrix.sonnet_ids, matrix.values):
            values = [None if value != value else value for value in line.tolist()]  # NaN -> None
            yield _FeatureRow(sid, dict(zip(names, values)), matrix.reasons[sid])

    counts = matrix.undefined_counts
    return _Built(rows(), {"features": names, "undefined_counts": counts, "rows": ...})


def _bivariate(session: Session) -> _Built:
    cells = validation_mod.bivariate_report(session.matrix, session.median)
    for c in cells:
        if c.rho is None:
            cell = f"{c.annotated_feature}/{c.gam_feature}"
            decide(__name__, f"bivariate {cell}: rho undefined: {c.note}", 1)
    return _Built(cells)


def _partial_dependence(session: Session) -> _Built:
    return _Built(validation_mod.partial_dependence_report(session.matrix, session.median))


def _anova(session: Session) -> _Built:
    anova = validation_mod.anova_report(session.matrix, session.median)
    wrapper = {"n_total": anova.n_total, "n_significant": anova.n_significant,
               "skipped": anova.skipped, "rows": ...}
    return _Built(anova.rows, wrapper)


class _Report(NamedTuple):
    """A report: the inputs it needs, its row type, and how a session builds it."""

    needs: frozenset[str]
    row_type: type
    build: Callable[[Session], _Built]


_TEXTS = frozenset({"texts"})
_MEDIAN = frozenset({"median"})
_LEXICONS = frozenset({"lexicons"})
_ALL = _TEXTS | _LEXICONS | _MEDIAN

# Report name -> definition, in the order `all` writes them.
REPORTS: dict[str, _Report] = {
    "corpus_stats": _Report(_TEXTS | _MEDIAN, _StatRow, _corpus_stats),
    "agreement": _Report(frozenset(), agreement_mod.AgreementRow, _agreement),
    "word_counts": _Report(_TEXTS | _MEDIAN, lexicon_mod.WordCountRow, _word_counts),
    "coverage": _Report(_ALL, lexicon_mod.CoverageRow, _coverage),
    "missing_words": _Report(_TEXTS | _LEXICONS, lexicon_mod.MissingWordRow, _missing_words),
    "features": _Report(_TEXTS | _LEXICONS, _FeatureRow, _features),
    "bivariate": _Report(_ALL, validation_mod.BivariateCell, _bivariate),
    "partial_dependence": _Report(
        _ALL, validation_mod.PartialDependenceRow, _partial_dependence
    ),
    "anova": _Report(_ALL, validation_mod.AnovaRow, _anova),
}

# Subcommand -> its reports; missing_words is written only when asked for.
COMMANDS: dict[str, tuple[str, ...]] = {
    "stats": ("corpus_stats",),
    "coverage": ("word_counts", "coverage", "missing_words"),
    "agree": ("agreement",),
    "features": ("features",),
    "validate": ("bivariate", "partial_dependence", "anova"),
    "all": tuple(REPORTS),
}


class Session:
    """One run: a resolved config, its inputs, and what is derived from them.

    Constructing a session reads the config (``mode``, ``out_dir`` and
    ``fmt`` override its entries) and checks that the inputs the named
    reports need exist; ``config`` is the :class:`RunConfig` so checked.
    Nothing else is read until first use, and every input and derived
    artifact is loaded or computed once.
    """

    def __init__(
        self,
        config_path: str | Path,
        reports: Sequence[str] = tuple(REPORTS),
        *,
        mode: str | None = None,
        out_dir: str | None = None,
        fmt: str | None = None,
    ):
        self.reports = tuple(reports)
        needs = set().union(*(REPORTS[name].needs for name in self.reports))
        self.config = _read_config(Path(config_path), needs, mode, out_dir, fmt)
        self._keys: dict[str, TokenTable] = {}

    @cached_property
    def norm(self) -> NormalizationConfig:
        """Normalization settings of the configured key mode."""
        cfg = self.config
        stopwords = load_stopwords(cfg.stopwords) if cfg.stopwords else default_stopwords()
        lemma_table = load_lemma_table(cfg.lemma_table) if cfg.lemma_table else None
        return NormalizationConfig(mode=cfg.mode, stopwords=stopwords, lemma_table=lemma_table)

    @cached_property
    def corpus(self) -> corpus_mod.Corpus:
        """Sonnet metadata, with texts when a report needs them."""
        return corpus_mod.load_corpus(self.config.metadata, self.config.corpus_root)

    @cached_property
    def words(self) -> TokenTable:
        """Each sonnet's words, stopwords dropped, in corpus order.

        Each sonnet is normalized once per session, in raw mode; every
        mode keys these.
        """
        raw = NormalizationConfig("raw", self.norm.stopwords, self.norm.lemma_table)
        sonnets = self.corpus.sonnets
        for sonnet in sonnets:
            if sonnet.text is None:
                raise ValueError(f"sonnet {sonnet.sonnet_id} was loaded without text")
        return TokenTable.of((s.sonnet_id, normalize(s.text, raw)) for s in sonnets)

    def keys(self, mode: str) -> TokenTable:
        """The tokens of ``words`` under ``mode``: each distinct word is keyed once."""
        if mode == "raw":
            return self.words
        if mode not in self._keys:
            config = NormalizationConfig(mode, self.norm.stopwords, self.norm.lemma_table)
            self._keys[mode] = self.words.keyed(config.key)
        return self._keys[mode]

    @cached_property
    def annotations(
        self,
    ) -> tuple[list[corpus_mod.AnnotationSet], list[corpus_mod.UnfilledCell]]:
        """The annotation sets and the psychological cells left missing.

        Valence is reversed where configured.  Three sets, as the median
        annotator needs, come filled: a tag missing in just one set is 0,
        and the cells missing in two or more are listed.  Fewer sets come
        as loaded, with no cells listed.
        """
        sets = [
            corpus_mod.load_annotation_set(
                path, annotator_id=idx, sonnet_ids=self.corpus.sonnet_ids
            )
            for idx, path in enumerate(self.config.annotations, start=1)
        ]
        for rid in self.config.reversed_valence_annotators:
            sets[rid - 1] = corpus_mod.reverse_ordinal_scale(sets[rid - 1], "valence")
            decide(__name__, f"reversed valence scale for annotator {rid}")
        if len(sets) != 3:
            return sets, []
        return corpus_mod.fill_missing_psych(sets)

    @cached_property
    def median(self) -> corpus_mod.AnnotationSet:
        """The median annotator over the three filled sets."""
        return corpus_mod.build_median_annotator(self.annotations[0])

    @cached_property
    def sources(self) -> list[lexicon_mod.SourceLexicon]:
        """The configured lexicons on their native scales, source ids unique."""
        sources = []
        seen: dict[str, Path] = {}
        for path, descriptor, source_id in self.config.lexicons:
            source = lexicon_mod.load_lexicon(path, descriptor=descriptor, source_id=source_id)
            if source.source_id in seen:
                raise InputError(
                    f"lexicons {seen[source.source_id]} and {path} share the source id "
                    f"{source.source_id!r}; set a distinct 'source_id' for one of them"
                )
            if source.source_id in lexicon_mod.CoverageRow._fields:  # a coverage column
                raise InputError(
                    f"lexicon {path}: source id {source.source_id!r} names a coverage column; "
                    "set a distinct 'source_id'"
                )
            seen[source.source_id] = path
            sources.append(source)
        return sources

    @cached_property
    def merged(self) -> lexicon_mod.MergedLexicon:
        """The sources merged onto keys of the configured mode."""
        return lexicon_mod.merge_lexicons(self.sources, self.norm)

    @cached_property
    def matrix(self) -> features_mod.FeatureMatrix:
        """The 32-feature matrix of the corpus."""
        return features_mod.compute_corpus_matrix(self.keys(self.norm.mode), self.merged)

    def write(self, writer: ReportWriter, log_decisions: bool = False) -> int:
        """Write the session's reports, each row as it comes, and ``decisions.log`` if asked.

        Returns how many computations the decisions recorded while building
        the reports left degenerate or skipped; the log has a line per decision.
        """
        log = writer.stage("decisions.log") if log_decisions else None
        try:
            with recording() as decisions:
                for name in self.reports:
                    report = REPORTS[name]
                    rows, wrapper = report.build(self)
                    writer.emit(name, report.row_type, rows, wrapper)
                    del rows, wrapper  # freed before the next report is built
            if log:
                log.write_text("".join(f"{d.module}: {d.text}\n" for d in decisions), "utf-8")
            writer.commit()
        finally:
            writer.discard()  # what a failed build or commit left staged
        return sum(d.degenerate for d in decisions)
