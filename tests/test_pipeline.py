"""Pipeline session: derived artifacts computed once, exports that resolve."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import shutil
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import oracles
import versemood
from versemood import features, lexicon, pipeline, stats, textnorm
from versemood.cli import main
from versemood.corpus import PSYCHOLOGICAL_TAGS, categories
from versemood.features import FEATURE_INDEX, MEAN_FEATURES
from versemood.pipeline import ReportWriter, Session
from versemood.textnorm import MODES, InputError, NormalizationConfig, normalize, recording
from versemood.validation import partial_dependence_report

from conftest import build_workspace


def test_all_normalizes_each_sonnet_once(workspace_config, tmp_path, monkeypatch):
    original = textnorm.normalize
    calls = Counter()

    def counting(text, config):
        calls[(text, config.mode)] += 1
        return original(text, config)

    # Every module that imported the function by name holds its own reference.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "versemood" and getattr(module, "normalize", None) is original:
            monkeypatch.setattr(module, "normalize", counting)
    argv = ["all", "--config", str(workspace_config), "--out", str(tmp_path), "--missing-words"]
    assert main(argv) == 0
    # 40 sonnets, each once and in raw mode: every key mode keys those words.
    assert len(calls) == 40
    assert max(calls.values()) == 1
    assert {mode for _, mode in calls} == {"raw"}


def _lemma_workspace(workspace, tmp_path):
    """The test workspace with a stopword list and a lemma table added."""
    root = shutil.copytree(workspace, tmp_path / "workspace")
    # "amor" is a corpus word made a stopword; "el" has a lemma but is dropped first.
    (root / "stopwords.txt").write_text("el\nla\nde\namor\n", encoding="utf-8")
    (root / "lemmas.tsv").write_text(
        "cenizas\tceniza\nllamas\tllama\nsombras\tsombra\nel\tél\n", encoding="utf-8"
    )
    config = json.loads((root / "config.json").read_text(encoding="utf-8"))
    config.update(stopwords="stopwords.txt", lemma_table="lemmas.tsv")
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root / "config.json"


def by_sonnet(table):
    """Each sonnet's tokens as strings, read back from a token table."""
    parts = np.split(table.codes, np.cumsum(table.lengths)[:-1])
    return {
        sid: tuple(map(table.words.__getitem__, part.tolist()))
        for sid, part in zip(table.sonnet_ids, parts)
    }


def test_session_keys_equal_normalize_in_every_mode(workspace, tmp_path):
    session = Session(_lemma_workspace(workspace, tmp_path))
    for mode in MODES:
        config = NormalizationConfig(mode, session.norm.stopwords, session.norm.lemma_table)
        expected = {s.sonnet_id: tuple(normalize(s.text, config)) for s in session.corpus.sonnets}
        table = session.keys(mode)
        assert by_sonnet(table) == expected, mode
        # distinct words in first-appearance order, every one of them used
        tokens = [k for ks in expected.values() for k in ks]
        assert table.words == tuple(dict.fromkeys(tokens)), mode
        assert table.codes.dtype == np.int32 and table.lengths.dtype == np.intp
    assert session.keys("raw") is session.words
    words = set(session.words.words)
    # the stopwords are dropped; words in the table and words that fall back both occur
    assert not words & {"el", "la", "de", "amor"}
    assert {"cenizas", "llamas", "fuego", "muerte"} <= words
    lemmas = set(session.keys("lemma").words)
    assert {"ceniza", "llama", "fuego"} <= lemmas and "cenizas" not in lemmas


def test_session_config_is_resolved_and_holds_only_what_its_reports_read(
    workspace, tmp_path, monkeypatch
):
    config = _lemma_workspace(workspace, tmp_path)
    root = config.parent
    monkeypatch.chdir(tmp_path)
    session = Session(config)
    # inputs resolve against the config's directory, out_dir against the working one
    assert session.config == pipeline.RunConfig(
        metadata=root / "metadata.csv",
        corpus_root=root / "texts",
        annotations=tuple(root / f"annotator{i}.csv" for i in (1, 2, 3)),
        reversed_valence_annotators=(1,),
        lexicons=(
            (root / "lex_a.csv", None, None),
            (root / "lex_b.tsv", root / "lex_b_descriptor.json", None),
        ),
        stopwords=root / "stopwords.txt",
        lemma_table=root / "lemmas.tsv",
        mode="stem",
        out_dir=tmp_path / "reports",
        format="both",
    )
    agree = Session(config, ["agreement"], mode="raw", out_dir="elsewhere", fmt="csv")
    assert agree.config == session.config._replace(
        corpus_root=None, lexicons=(), mode="raw", out_dir=tmp_path / "elsewhere", format="csv"
    )
    assert all(sonnet.text is None for sonnet in agree.corpus.sonnets)


def test_session_keys_each_distinct_word_once(workspace, tmp_path, monkeypatch):
    session = Session(_lemma_workspace(workspace, tmp_path))
    distinct = set(session.words.words)
    original = NormalizationConfig.key
    calls = Counter()

    def counting(self, word):
        calls[word] += 1
        return original(self, word)

    monkeypatch.setattr(NormalizationConfig, "key", counting)
    keys = session.keys("stem")
    assert set(calls) == distinct
    assert sum(calls.values()) == len(distinct)
    # the table is kept: asking again keys nothing
    assert session.keys("stem") is keys
    assert sum(calls.values()) == len(distinct)


def test_stem_mode_stems_through_textnorm_stem_once_per_word(workspace_config, monkeypatch):
    # The benchmark's stem counters read calls to this one module-level entry point.
    original = textnorm.stem
    calls = Counter()

    def counting(word):
        calls[word] += 1
        return original(word)

    monkeypatch.setattr(textnorm, "stem", counting)
    session = Session(workspace_config)
    stem_mode = NormalizationConfig("stem", session.norm.stopwords, session.norm.lemma_table)
    distinct = set(session.words.words)
    session.keys("stem")
    assert set(calls) == distinct and sum(calls.values()) == len(distinct)

    calls.clear()
    surfaces = set().union(*(source.entries for source in session.sources))
    lexicon.merge_lexicons(session.sources, stem_mode)
    assert set(calls) == surfaces and sum(calls.values()) == len(surfaces)


def test_a_coverage_run_stems_each_corpus_and_lexicon_word_once(
    workspace_config, tmp_path, monkeypatch
):
    # The word counts, coverage and missing words of stem mode all read one keying of
    # the corpus words, and the merge keys each lexicon word once.
    session = Session(workspace_config)
    raw = NormalizationConfig("raw", session.norm.stopwords, session.norm.lemma_table)
    corpus_words = {w for s in session.corpus.sonnets for w in normalize(s.text, raw)}
    surfaces = set().union(*(source.entries for source in session.sources))
    original = textnorm.stem
    calls = Counter()

    def counting(word):
        calls[word] += 1
        return original(word)

    monkeypatch.setattr(textnorm, "stem", counting)
    argv = ["coverage", "--config", str(workspace_config), "--out", str(tmp_path)]
    assert main([*argv, "--missing-words"]) == 0
    assert sum(calls.values()) == len(corpus_words) + len(surfaces)
    assert set(calls) == corpus_words | surfaces


def test_only_a_report_that_reads_the_merged_values_computes_them(
    workspace_config, tmp_path, monkeypatch
):
    # Coverage and missing words read the merge's keys; the feature matrix reads its
    # values, computed once per session.
    original = lexicon._merge_values
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lexicon, "_merge_values", counting)
    for mode in MODES[:2]:
        argv = ["--config", str(workspace_config), "--mode", mode, "--missing-words"]
        assert main(["coverage", *argv, "--out", str(tmp_path / mode)]) == 0
    assert calls == []
    argv = ["all", "--config", str(workspace_config), "--missing-words"]
    assert main([*argv, "--out", str(tmp_path / "all")]) == 0
    assert len(calls) == 1
    session = Session(workspace_config, ("features", "coverage"))
    session.write(ReportWriter(tmp_path / "session", "both"))
    merged = session.merged
    assert merged.mean.shape == merged.sd.shape and len(calls) == 2


def test_only_a_report_that_reads_the_merged_values_computes_the_source_planes(
    workspace_config, tmp_path, monkeypatch
):
    # Coverage and missing words read the sources' words; merging the values reads each
    # source's mean and sd planes, computed once per source.
    original = lexicon._source_planes
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lexicon, "_source_planes", counting)
    for mode in MODES[:2]:
        argv = ["--config", str(workspace_config), "--mode", mode, "--missing-words"]
        assert main(["coverage", *argv, "--out", str(tmp_path / mode)]) == 0
    assert calls == []
    argv = ["all", "--config", str(workspace_config), "--missing-words"]
    assert main([*argv, "--out", str(tmp_path / "all")]) == 0
    # one call per source: the canonical lexicon's 34 words and the described one's 30
    assert sorted(n_entries for *_, n_entries in calls) == [30, 34]


def test_partial_dependence_checks_each_category_design_once(
    workspace_config, tmp_path, monkeypatch
):
    original = stats._dependent_columns
    calls = []

    def counting(design, *args, **kwargs):
        calls.append(design.shape)
        return original(design, *args, **kwargs)

    monkeypatch.setattr(stats, "_dependent_columns", counting)
    argv = ["all", "--config", str(workspace_config), "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = json.loads((tmp_path / "partial_dependence.json").read_text(encoding="utf-8"))
    fitted = {
        r["category"] for r in rows
        if not (r["note"] or "").startswith("insufficient rows")
    }
    assert fitted
    # one scan finds the two spans, one more confirms the rest is full rank
    assert 0 < len(calls) <= 2 * len(fitted)


def test_partial_dependence_computes_only_what_its_rows_read(workspace_config, monkeypatch):
    session = Session(workspace_config)
    matrix, median = session.matrix, session.median
    # one fit per pairing, each reading its p-value from all of them
    expected, _ = oracles.partial_dependence(matrix, median)
    t_tail_calls = []
    scan_svd_calls = []
    scanning = []
    original_t_tail, original_svd = stats.t_tail, np.linalg.svd
    original_scan = stats._dependent_columns

    def counting_t_tail(t, df):
        t_tail_calls.append(t)
        return original_t_tail(t, df)

    def counting_svd(*args, **kwargs):
        if scanning:
            scan_svd_calls.append(args[0].shape)
        return original_svd(*args, **kwargs)

    def marked_scan(design, *args, **kwargs):
        scanning.append(design.shape)
        try:
            return original_scan(design, *args, **kwargs)
        finally:
            scanning.pop()

    monkeypatch.setattr(stats, "t_tail", counting_t_tail)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(stats, "_dependent_columns", marked_scan)
    rows = partial_dependence_report(matrix, median)
    assert rows == expected
    fitted = [r for r in rows if r.note is None]
    assert fitted
    assert len(t_tail_calls) <= len(fitted)
    assert scan_svd_calls == []


def test_partial_dependence_factors_each_category_design_three_times(tmp_path, monkeypatch):
    # All 22 categories of the 120-sonnet workspace are fitted, each design with two
    # spans: three rank passes factor its 33, 32 and 31 columns, and the last pass's
    # Q, R and R^-1 serve the reduced design's own rank check and every fit.
    workspace = build_workspace(tmp_path / "workspace", n_sonnets=120)
    session = Session(workspace / "config.json")
    matrix, median = session.matrix, session.median
    expected, _ = oracles.partial_dependence(matrix, median)
    calls = Counter()
    for name in ("qr", "solve"):
        original = getattr(np.linalg, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rows = partial_dependence_report(matrix, median)
    monkeypatch.undo()
    assert rows == expected
    fitted = [r for r in rows if r.note is None]
    n_categories = len({r.category for r in fitted})
    assert n_categories == 22
    assert calls["qr"] <= 3 * n_categories
    assert calls["solve"] == len(fitted)


def _fill_matrix(monkeypatch, fill):
    """Sessions build their feature matrix, then apply ``fill`` to its values."""
    original = features.compute_corpus_matrix

    def patched(keys, merged):
        matrix = original(keys, merged)
        fill(matrix.values)
        return matrix

    monkeypatch.setattr(features, "compute_corpus_matrix", patched)


def _logged(decisions, module, prefix):
    return [
        d.text for d in decisions
        if d.module == f"versemood.{module}" and d.text.startswith(prefix)
    ]


def test_undefined_correlations_count_as_degenerate(workspace_config, tmp_path, monkeypatch):
    def constant_column(values):
        values[:, FEATURE_INDEX["concreteness_mean"]] = 4.0

    _fill_matrix(monkeypatch, constant_column)
    session = Session(workspace_config, ["bivariate"])
    count = session.write(ReportWriter(tmp_path, "json"))
    cells = json.loads((tmp_path / "bivariate.json").read_text(encoding="utf-8"))
    undefined = [c for c in cells if c["rho"] is None]
    assert [c["note"] for c in undefined if c["gam_feature"] == "concreteness_mean"] == [
        "y is constant"
    ] * 10
    assert count == len(undefined)
    # the decisions log names each cell counted, with its reason
    assert _logged(session.decisions, "pipeline", "bivariate ") == [
        f"bivariate {c['annotated_feature']}/{c['gam_feature']}: rho undefined: {c['note']}"
        for c in undefined
    ]


def test_anova_cells_without_within_group_variance_count_as_degenerate(
    workspace_config, tmp_path, monkeypatch
):
    median = Session(workspace_config, ["anova"]).median
    tag, tagged = next(
        (tag, tagged) for tag, tagged in categories(median)[1:]
        if 2 <= tagged.sum() <= len(tagged) - 2
    )

    def zero_variance(values):
        values[:, FEATURE_INDEX["arousal_mean"]] = 3.0  # no variation in any group
        values[:, FEATURE_INDEX["valence_mean"]] = np.where(tagged, 1.0, 2.0)

    _fill_matrix(monkeypatch, zero_variance)
    session = Session(workspace_config, ["anova"])
    count = session.write(ReportWriter(tmp_path, "json"))
    anova = json.loads((tmp_path / "anova.json").read_text(encoding="utf-8"))
    # F = inf, p = 0: the cell keeps its row
    [row] = [r for r in anova["rows"] if (r["category"], r["gam_feature"]) == (tag, "valence_mean")]
    assert (row["f_statistic"], row["p_value"]) == ("inf", 0.0)
    # degenerate: a cell not skipped whose two groups are each constant
    degenerate = []
    for category, members in categories(session.median)[1:]:
        for feature in MEAN_FEATURES:
            column = session.matrix.column(feature)
            groups = [column[members & ~np.isnan(column)], column[~members & ~np.isnan(column)]]
            if min(map(len, groups)) >= 2 and max(map(np.ptp, groups)) == 0.0:
                constant = np.ptp(np.concatenate(groups)) == 0.0
                reason = "no variation in any group" if constant else "zero within-group variance"
                degenerate.append(f"anova {category}/{feature}: {reason}")
    assert len(degenerate) > len(PSYCHOLOGICAL_TAGS) // 2
    assert count == len(anova["skipped"]) + len(degenerate)
    # the decisions log names each degenerate cell, with its reason
    assert _logged(session.decisions, "validation", "anova ") == degenerate


def test_artifacts_read_before_write_keep_their_decisions(tmp_path, capsys):
    config = build_workspace(tmp_path / "ws", n_sonnets=12) / "config.json"
    session = Session(config)
    with recording([]) as outer:  # a caller's own block takes none of the session's
        session.median, session.merged
    assert outer == []
    early = [f"{d.module}: {d.text}" for d in session.decisions]
    assert "versemood.pipeline: reversed valence scale for annotator 1" in early
    assert any(line.endswith("psychological cells unfillable (missing in 2+ sets)")
               for line in early)

    count = session.write(ReportWriter(tmp_path / "lib", "both"), log_decisions=True)
    log = (tmp_path / "lib" / "decisions.log").read_text(encoding="utf-8").splitlines()
    assert log[:len(early)] == early  # in the order the reads made them
    assert log == [f"{d.module}: {d.text}" for d in session.decisions]
    assert count == sum(d.degenerate for d in session.decisions) > 0
    # the command line's run of the same reports, which reads nothing first
    argv = ["all", "--config", str(config), "--out", str(tmp_path / "cli"), "--log-decisions"]
    assert main(argv + ["--missing-words"]) == 0
    assert f"{count} degenerate or skipped computations" in capsys.readouterr().err
    cli_log = (tmp_path / "cli" / "decisions.log").read_text(encoding="utf-8").splitlines()
    assert sorted(log) == sorted(cli_log)


def test_every_exported_name_resolves():
    modules = [versemood] + [
        importlib.import_module(f"versemood.{info.name}")
        for info in pkgutil.iter_modules(versemood.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
    exported = {name for module in modules[1:] for name in getattr(module, "__all__", ())}
    for name in versemood.__all__:
        assert name in exported, f"versemood re-exports {name!r}, which no module lists"


# Exported for the acceptance gate, not used by the package's own code.
_ACCEPTANCE_ONLY = {
    "krippendorff_alpha",  # criterion 1 checks it against the pair-enumeration oracle
    "min_sample_size",  # criterion 2 checks the power-analysis minimum group size
    "spearman",  # criterion 1 checks it against its oracle
}


def test_every_exported_name_is_used_by_the_package():
    """A name in a module's ``__all__`` is read somewhere in the package's modules."""
    package = Path(versemood.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    exported = {
        name
        for info in pkgutil.iter_modules(versemood.__path__)
        for name in getattr(importlib.import_module(f"versemood.{info.name}"), "__all__", ())
    }
    assert sorted(exported - read - _ACCEPTANCE_ONLY) == []


def test_writer_spells_non_finite_floats_in_both_formats(workspace_config, tmp_path, monkeypatch):
    # ANOVA writes F = inf when both groups are constant but differ.
    nan, inf = float("nan"), float("inf")
    row_type = NamedTuple("Row", [("a", float), ("b", float), ("c", float), ("d", float)])
    table = ([row_type(nan, inf, -inf, 1.5)], {"v": [nan, inf, -inf, 1.5]})
    anova = pipeline.REPORTS["anova"]._replace(row_type=row_type, build=lambda session: table)
    monkeypatch.setitem(pipeline.REPORTS, "anova", anova)
    assert Session(workspace_config, ["anova"]).write(ReportWriter(tmp_path, "both")) == 0
    assert (tmp_path / "anova.csv").read_text(encoding="utf-8") == "a,b,c,d\nnan,inf,-inf,1.5\n"
    assert json.loads((tmp_path / "anova.json").read_text(encoding="utf-8")) == {
        "v": ["nan", "inf", "-inf", 1.5]
    }


def test_session_write_that_fails_writes_nothing(workspace, tmp_path):
    # The lexicons are read only when coverage is built, after word_counts.
    root = shutil.copytree(workspace, tmp_path / "workspace")
    with (root / "lex_a.csv").open("a", encoding="utf-8") as fh:
        fh.write("amor,valence,notanumber,1,1,9\n")
    session = Session(root / "config.json", ["word_counts", "coverage"])
    out = tmp_path / "out"
    writer = ReportWriter(out, "both")
    with pytest.raises(InputError, match="not a number"):
        session.write(writer)
    assert list(out.iterdir()) == []
    assert writer.written == []


# Span targets deleted from the package on purpose.  Nothing in the package
# called them, so their metrics read 0 before and after.  They leave the
# tracer's table with the next change to the benchmark.
_RETIRED_SPAN_TARGETS = {
    ("versemood.agreement", "reliability_from_sets"),
    ("versemood.stats", "ols"),
}


def test_every_benchmark_span_target_resolves():
    # A traced metric whose target no longer resolves is skipped and reads 0.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [*spans.SPANNED.values(), *spans.COUNTED.values()]
    assert targets and spans.SPANNED_METHODS
    for module_name, attr in targets:
        resolves = callable(getattr(importlib.import_module(module_name), attr, None))
        assert resolves != ((module_name, attr) in _RETIRED_SPAN_TARGETS), attr
    for module_name, cls_name, attr in spans.SPANNED_METHODS.values():
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"{cls_name}.{attr}"
