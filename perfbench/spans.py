"""Outside-in tracer for one versemood run.

The tracer wraps public functions of the imported ``versemood`` modules
from outside the package.  Each call becomes a span ``[name, start, end,
parent]``; spans of one run share the tracer's run id, stay in memory,
and are written once by :meth:`Tracer.write`.  Counts are taken at the
same boundaries.

A function imported by name into another module (``from .textnorm
import normalize``) is a second reference to the same object, and calls
through it would get past a wrapper installed only where the function is
defined.  :meth:`Tracer.install` therefore rebinds every reference to the
original object in every loaded ``versemood`` module.
"""

from __future__ import annotations

import json
import sys
import time
import uuid
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# Span name -> (defining module, attribute).  Names missing from the code
# being measured are skipped, and their metrics read 0.
SPANNED = {
    "textnorm.normalize": ("versemood.textnorm", "normalize"),
    "lexicon.load_lexicon": ("versemood.lexicon", "load_lexicon"),
    "lexicon.merge_lexicons": ("versemood.lexicon", "merge_lexicons"),
    "lexicon.word_count_report": ("versemood.lexicon", "word_count_report"),
    "lexicon.coverage_report": ("versemood.lexicon", "coverage_report"),
    "lexicon.missing_word_report": ("versemood.lexicon", "missing_word_report"),
    "corpus.load_corpus": ("versemood.corpus", "load_corpus"),
    "corpus.load_annotation_set": ("versemood.corpus", "load_annotation_set"),
    "corpus.fill_missing_psych": ("versemood.corpus", "fill_missing_psych"),
    "corpus.build_median_annotator": ("versemood.corpus", "build_median_annotator"),
    "corpus.corpus_statistics": ("versemood.corpus", "corpus_statistics"),
    "agreement.agreement_report": ("versemood.agreement", "agreement_report"),
    "agreement.krippendorff_alpha": ("versemood.agreement", "krippendorff_alpha"),
    "agreement.reliability_from_sets": ("versemood.agreement", "reliability_from_sets"),
    "features.compute_corpus_matrix": ("versemood.features", "compute_corpus_matrix"),
    "stats.ols": ("versemood.stats", "ols"),
    "stats.spearman": ("versemood.stats", "spearman"),
    "stats.one_way_anova": ("versemood.stats", "one_way_anova"),
    "validation.bivariate_report": ("versemood.validation", "bivariate_report"),
    "validation.partial_dependence_report": ("versemood.validation", "partial_dependence_report"),
    "validation.anova_report": ("versemood.validation", "anova_report"),
}
SPANNED_METHODS = {
    "cli.emit": ("versemood.cli", "ReportWriter", "emit"),
}
# Stemming runs once per token, too often for a span each: it is counted only.
COUNTED = {
    "textnorm.stem": ("versemood.textnorm", "stem"),
}


def _first_arg(args: tuple, kwargs: dict, name: str) -> Any:
    return args[0] if args else kwargs[name]


class Tracer:
    """Collects the spans and counts of one run."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.rebound: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._normalized: set[tuple[str, str]] = set()
        self._stemmed: set[str] = set()
        self._on_result: dict[str, Callable[[tuple, dict, Any], None]] = {
            "textnorm.normalize": self._count_normalize,
            "lexicon.load_lexicon": self._count_source,
            "lexicon.merge_lexicons": self._count_merge,
            "agreement.krippendorff_alpha": self._count_alpha,
        }

    # -- result hooks: counts read from what a layer returns -----------------

    def _count_normalize(self, args: tuple, kwargs: dict, tokens: Any) -> None:
        text = _first_arg(args, kwargs, "text")
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.counts["textnorm.tokens"] += len(tokens)
        self._normalized.add((text, config.mode))

    def _count_source(self, args: tuple, kwargs: dict, source: Any) -> None:
        self.counts["lexicon.source_words"] += len(source)

    def _count_merge(self, args: tuple, kwargs: dict, merged: Any) -> None:
        surface: set[str] = set()
        for source in _first_arg(args, kwargs, "sources"):
            surface.update(source.entries)
        self.counts["lexicon.merged_keys"] += len(merged)
        self.counts["lexicon.key_collisions"] += len(surface) - len(merged)

    def _count_alpha(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.counts["agreement.pairable_values"] += result.n_pairable

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        on_result = self._on_result.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts, seen = self.counts, self._stemmed
        key = f"{name}_calls"

        def wrapper(word):
            counts[key] += 1
            seen.add(word)
            return fn(word)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, name: str, original: Any, wrapper: Callable) -> None:
        places = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "versemood" and not mod_name.startswith("versemood."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    places.append(f"{mod_name}.{attr}")
        self.rebound[name] = sorted(places)

    def install(self) -> None:
        """Wrap every traced name in the loaded ``versemood`` modules."""
        for name, (mod_name, attr) in SPANNED.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if callable(original):
                self._rebind(name, original, self._spanned(name, original))
        for name, (mod_name, attr) in COUNTED.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if callable(original):
                self._rebind(name, original, self._counted(name, original))
        for name, (mod_name, cls_name, attr) in SPANNED_METHODS.items():
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = getattr(cls, attr, None)
            if callable(original):
                setattr(cls, attr, self._spanned(name, original))
                self.rebound[name] = [f"{mod_name}.{cls_name}.{attr}"]

    def write(self, path: Path) -> None:
        counts = dict(self.counts)
        counts["textnorm.normalize_distinct"] = len(self._normalized)
        counts["textnorm.stem_distinct"] = len(self._stemmed)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": counts,
            "rebound": self.rebound,
        }), encoding="utf-8")


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        slot = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0})
        slot["calls"] += 1
        slot["total_s"] += end - start
        slot["self_s"] += end - start - child_time[index]
        if parent < 0:
            slot["top_s"] += end - start
    return out
