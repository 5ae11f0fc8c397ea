"""End-to-end command line runs against the synthetic workspace."""

import csv
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import versemood
from versemood.cli import COMMANDS, main
from versemood.corpus import ANNOTATED_FEATURES, PSYCHOLOGICAL_TAGS
from versemood.features import FEATURE_NAMES
from versemood import pipeline
from versemood.pipeline import Session
from versemood.textnorm import decide

from conftest import build_workspace

ALL_REPORTS = (
    "corpus_stats", "agreement", "word_counts", "coverage", "missing_words",
    "features", "bivariate", "partial_dependence", "anova",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with Path(path).open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def absolute_config(workspace):
    cfg = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    cfg["metadata"] = str(workspace / cfg["metadata"])
    cfg["corpus_root"] = str(workspace / cfg["corpus_root"])
    cfg["annotations"] = [str(workspace / a) for a in cfg["annotations"]]
    lexicons = []
    for entry in cfg["lexicons"]:
        if isinstance(entry, str):
            lexicons.append(str(workspace / entry))
        else:
            entry = dict(entry)
            entry["path"] = str(workspace / entry["path"])
            if entry.get("descriptor"):
                entry["descriptor"] = str(workspace / entry["descriptor"])
            lexicons.append(entry)
    cfg["lexicons"] = lexicons
    return cfg


def dump_config(cfg, directory, name="config.json"):
    path = directory / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def all_run(workspace_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("all_run")
    code = main(
        ["all", "--config", str(workspace_config), "--out", str(out), "--missing-words"]
    )
    assert code == 0
    return out


def test_all_emits_every_report_pair(all_run):
    names = sorted(p.name for p in all_run.iterdir())
    expected = sorted(
        [f"{n}.csv" for n in ALL_REPORTS] + [f"{n}.json" for n in ALL_REPORTS]
    )
    assert names == expected


def test_all_prints_wrote_lines(workspace_config, tmp_path, capsys):
    code, out, err = run(
        capsys, "all", "--config", str(workspace_config),
        "--out", str(tmp_path), "--missing-words",
    )
    assert code == 0
    wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == 2 * len(ALL_REPORTS)
    for line in wrote:
        assert Path(line.removeprefix("wrote ")).is_file()


def test_a_run_does_not_import_numpy_ma(workspace_config, tmp_path):
    """``numpy.ma`` adds about 17 ms to a run's first call that imports it,
    as ``np.unique`` without a ``return_*`` flag does (numpy 2.4)."""
    src = str(Path(versemood.__file__).parent.parent)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from versemood.cli import main; "
        "code = main(sys.argv[2:]); print(code, 'numpy.ma' in sys.modules)"
    )
    argv = ["all", "--config", str(workspace_config), "--out", str(tmp_path), "--missing-words"]
    done = subprocess.run(
        [sys.executable, "-c", script, src, *argv], capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split()[-2:] == ["0", "False"], done.stderr


def test_rerun_is_byte_identical(all_run, workspace_config, tmp_path, capsys):
    code, _, _ = run(
        capsys, "all", "--config", str(workspace_config),
        "--out", str(tmp_path), "--missing-words",
    )
    assert code == 0
    for path in sorted(all_run.iterdir()):
        again = tmp_path / path.name
        assert again.read_bytes() == path.read_bytes(), path.name


def test_all_matches_individual_subcommands(all_run, workspace_config, tmp_path, capsys):
    produced = set()
    for command in ("stats", "agree", "coverage", "features", "validate"):
        out_dir = tmp_path / command
        argv = [command, "--config", str(workspace_config), "--out", str(out_dir)]
        if command == "coverage":
            argv.append("--missing-words")
        code, _, _ = run(capsys, *argv)
        assert code == 0
        for path in out_dir.iterdir():
            assert path.read_bytes() == (all_run / path.name).read_bytes(), path.name
            produced.add(path.name)
    assert produced == {p.name for p in all_run.iterdir()}


def test_format_flag_filters_outputs(workspace_config, tmp_path, capsys):
    code, _, _ = run(
        capsys, "stats", "--config", str(workspace_config),
        "--out", str(tmp_path / "csv"), "--format", "csv",
    )
    assert code == 0
    assert [p.name for p in (tmp_path / "csv").iterdir()] == ["corpus_stats.csv"]
    code, _, _ = run(
        capsys, "stats", "--config", str(workspace_config),
        "--out", str(tmp_path / "json"), "--format", "json",
    )
    assert code == 0
    assert [p.name for p in (tmp_path / "json").iterdir()] == ["corpus_stats.json"]


def test_mode_override_changes_key_counts(workspace_config, tmp_path, capsys):
    by_mode = {}
    for mode in ("raw", "stem"):
        out_dir = tmp_path / mode
        code, _, _ = run(
            capsys, "coverage", "--config", str(workspace_config),
            "--out", str(out_dir), "--mode", mode, "--format", "csv",
        )
        assert code == 0
        rows = read_csv(out_dir / "coverage.csv")
        header, first = rows[0], rows[1]
        assert first[header.index("category")] == "all"
        assert first[header.index("mode")] == mode
        by_mode[mode] = int(first[header.index("n_keys")])
    assert by_mode["raw"] > by_mode["stem"]


def test_missing_words_only_on_request(workspace_config, tmp_path, capsys):
    code, _, _ = run(
        capsys, "coverage", "--config", str(workspace_config), "--out", str(tmp_path)
    )
    assert code == 0
    assert not (tmp_path / "missing_words.csv").exists()
    code, _, _ = run(
        capsys, "coverage", "--config", str(workspace_config),
        "--out", str(tmp_path), "--missing-words",
    )
    assert code == 0
    rows = read_csv(tmp_path / "missing_words.csv")
    assert rows[0] == ["key", "occurrences"]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)


def test_agreement_table_shape(all_run):
    rows = read_csv(all_run / "agreement.csv")
    assert rows[0] == [
        "feature", "level", "all",
        "a1-a2", "a1-a3", "a2-a3", "a1-m", "a2-m", "a3-m",
        "below_threshold",
    ]
    body = rows[1:]
    assert [r[0] for r in body] == list(ANNOTATED_FEATURES)
    levels = {r[0]: r[1] for r in body}
    assert levels["valence"] == "ordinal"
    assert levels[PSYCHOLOGICAL_TAGS[0]] == "nominal"


def test_agree_with_two_sets_warns_and_drops_median(workspace, tmp_path, capsys):
    cfg = absolute_config(workspace)
    cfg["annotations"] = cfg["annotations"][:2]
    config = dump_config(cfg, tmp_path)
    code, _, err = run(
        capsys, "agree", "--config", str(config), "--out", str(tmp_path / "out"),
        "--log-decisions",
    )
    assert code == 0
    assert err == ""
    # the fallback is a decision, recorded like every other, and degenerates nothing
    logged = (tmp_path / "out" / "decisions.log").read_text(encoding="utf-8").splitlines()
    assert [line for line in logged if "pairwise-only" in line] == [
        "versemood.pipeline: agreement: the median column requires three annotation sets; "
        "emitting a pairwise-only report"
    ]
    rows = read_csv(tmp_path / "out" / "agreement.csv")
    assert rows[0] == ["feature", "level", "all", "a1-a2", "below_threshold"]


def test_agreement_writes_uncomputable_and_degenerate_cells(workspace, tmp_path, capsys):
    # "Pride" is blank in every set (no alpha); "Solitude" is 0 everywhere (no variation).
    copy = shutil.copytree(workspace, tmp_path / "workspace")
    for name in ("annotator1.csv", "annotator2.csv", "annotator3.csv"):
        rows = read_csv(copy / name)
        blank, zero = rows[0].index("Pride"), rows[0].index("Solitude")
        for row in rows[1:]:
            row[blank], row[zero] = "", "0"
        with (copy / name).open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "agree", "--config", str(copy / "config.json"), "--out", str(out), "--strict",
        "--log-decisions",
    )
    assert code == 2
    assert "14 degenerate or skipped computations" in err
    columns = ["all", "a1-a2", "a1-a3", "a2-a3", "a1-m", "a2-m", "a3-m"]
    # decisions.log names each of the 14 cells, with its reason
    logged = [
        line for line in (out / "decisions.log").read_text(encoding="utf-8").splitlines()
        if line.startswith("versemood.pipeline: agreement ")
    ]
    assert logged == [
        f"versemood.pipeline: agreement Pride/{label}: not computable: "
        "no unit has two or more values" for label in columns
    ] + [
        f"versemood.pipeline: agreement Solitude/{label}: degenerate: "
        "no variation among pairable values" for label in columns
    ]
    table = {row[0]: row for row in read_csv(out / "agreement.csv")}
    assert table["feature"] == ["feature", "level", *columns, "below_threshold"]
    assert table["Pride"] == ["Pride", "nominal", *[""] * 7, ""]
    assert table["Solitude"] == ["Solitude", "nominal", *["1"] * 7, ""]
    mirror = read_json(out / "agreement.json")
    assert mirror["columns"] == columns
    rows = {row["feature"]: row for row in mirror["rows"]}
    assert rows["Pride"] == {
        "feature": "Pride", "level": "nominal",
        "cells": dict.fromkeys(columns), "below_threshold": [],
    }
    for label, cell in rows["Solitude"]["cells"].items():
        assert cell == {
            "alpha": 1.0, "n_pairable": 120 if label == "all" else 80, "band": "Perfect",
            "degenerate": True, "note": "degenerate: no variation among pairable values",
        }
    assert list(rows["valence"]["cells"]["all"]) == [
        "alpha", "n_pairable", "band", "degenerate", "note"
    ]


@pytest.mark.parametrize("earlier_set", [False, True], ids=["empty", "earlier-set"])
@pytest.mark.parametrize("command", ["all", "coverage"])
def test_failed_run_leaves_the_report_files_as_it_found_them(
    workspace, tmp_path, capsys, command, earlier_set
):
    # The lexicons are read only when the coverage report is built, after
    # corpus_stats, agreement and word_counts.
    copy = shutil.copytree(workspace, tmp_path / "workspace")
    with (copy / "lex_a.csv").open("a", encoding="utf-8") as fh:
        fh.write("amor,valence,notanumber,1,1,9\n")
    out = tmp_path / "out"
    out.mkdir()
    if earlier_set:
        earlier = build_workspace(tmp_path / "earlier", n_sonnets=12)
        code, _, _ = run(
            capsys, "all", "--config", str(earlier / "config.json"),
            "--out", str(out), "--missing-words",
        )
        assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, stdout, err = run(
        capsys, command, "--config", str(copy / "config.json"),
        "--out", str(out), "--missing-words",
    )
    assert code == 1
    assert "not a number: 'notanumber'" in err
    assert stdout == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_run_keeps_the_decisions_log_of_the_complete_set(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    earlier = build_workspace(tmp_path / "earlier", n_sonnets=12)
    code, stdout, _ = run(
        capsys, "all", "--config", str(earlier / "config.json"),
        "--out", str(out), "--missing-words", "--log-decisions",
    )
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "decisions.log" in before
    copy = shutil.copytree(workspace, tmp_path / "workspace")
    with (copy / "lex_a.csv").open("a", encoding="utf-8") as fh:
        fh.write("amor,valence,notanumber,1,1,9\n")
    code, _, err = run(
        capsys, "all", "--config", str(copy / "config.json"),
        "--out", str(out), "--missing-words", "--log-decisions",
    )
    assert code == 1
    assert "not a number: 'notanumber'" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the log is committed with the reports
    assert f"wrote {out / 'decisions.log'}" in stdout.splitlines()


def test_validate_with_two_sets_is_an_input_error(workspace, tmp_path, capsys):
    cfg = absolute_config(workspace)
    cfg["annotations"] = cfg["annotations"][:2]
    config = dump_config(cfg, tmp_path)
    code, _, err = run(
        capsys, "validate", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "exactly three" in err


def test_features_works_without_a_median(workspace, tmp_path, capsys):
    cfg = absolute_config(workspace)
    cfg["annotations"] = cfg["annotations"][:2]
    config = dump_config(cfg, tmp_path)
    code, _, _ = run(
        capsys, "features", "--config", str(config),
        "--out", str(tmp_path / "out"), "--format", "csv",
    )
    assert code == 0
    rows = read_csv(tmp_path / "out" / "features.csv")
    assert rows[0] == ["sonnet_id", *FEATURE_NAMES]
    assert len(rows) == 41


def test_strict_exit_on_degenerate_regressions(tmp_path, capsys):
    workspace = build_workspace(tmp_path / "small", n_sonnets=12)
    argv = [
        "validate", "--config", str(workspace / "config.json"),
        "--out", str(tmp_path / "out"),
    ]
    code, _, err = run(capsys, *argv, "--strict")
    assert code == 2
    assert "degenerate or skipped" in err
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert "degenerate or skipped" in err
    rows = read_json(tmp_path / "out" / "partial_dependence.json")
    assert any("insufficient rows" in (r["note"] or "") for r in rows)
    # every count is a noted regression row: no bivariate cell or ANOVA cell is degenerate here
    noted = sum(1 for r in rows if r["note"] is not None)
    assert noted == 220
    assert err.splitlines()[-1] == f"{noted} degenerate or skipped computations"
    workspace = build_workspace(tmp_path / "forty", n_sonnets=40)
    argv[2], argv[4] = str(workspace / "config.json"), str(tmp_path / "forty-out")
    code, _, err = run(capsys, *argv, "--strict")
    assert code == 2
    rows = read_json(tmp_path / "forty-out" / "partial_dependence.json")
    noted = sum(1 for r in rows if r["note"] is not None)
    assert noted == 170
    assert err.splitlines()[-1] == f"{noted} degenerate or skipped computations"


def test_one_sonnet_word_sd_is_undefined_logged_and_strict(tmp_path, capsys):
    # A sample standard deviation of one value is undefined, not zero.
    workspace = build_workspace(tmp_path / "one", n_sonnets=1)
    out = tmp_path / "out"
    argv = ["stats", "--config", str(workspace / "config.json"), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--log-decisions", "--strict")
    assert code == 2
    assert err.splitlines()[-1] == "1 degenerate or skipped computations"
    assert ["summary", "word_sd", ""] in read_csv(out / "corpus_stats.csv")
    report = read_json(out / "corpus_stats.json")
    assert report["word_sd"] is None and report["n_sonnets"] == 1
    log = (out / "decisions.log").read_text(encoding="utf-8").splitlines()
    assert [line for line in log if "word_sd" in line] == [
        "versemood.pipeline: corpus_stats summary/word_sd: undefined: one sonnet has no sample sd"
    ]
    assert run(capsys, *argv)[0] == 0


def test_coverage_of_a_tag_no_sonnet_carries_is_undefined_logged_and_strict(tmp_path, capsys):
    # A category without keys has no coverage fraction: 0/0 is undefined, not zero.
    workspace = build_workspace(tmp_path / "ws", n_sonnets=12)
    tag = PSYCHOLOGICAL_TAGS[0]
    for k in (1, 2, 3):
        rows = read_csv(workspace / f"annotator{k}.csv")
        j = rows[0].index(tag)
        with (workspace / f"annotator{k}.csv").open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [rows[0], *([*row[:j], "0", *row[j + 1:]] for row in rows[1:])]
            )
    out = tmp_path / "out"
    argv = ["coverage", "--config", str(workspace / "config.json"), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--log-decisions", "--strict")
    assert code == 2
    assert err.splitlines()[-1] == "1 degenerate or skipped computations"
    header, *rows = read_csv(out / "coverage.csv")
    assert header == ["category", "mode", "n_keys", "merged", "lex_a", "norms_b"]
    assert [row for row in rows if row[0] == tag] == [[tag, "stem", "0", "", "", ""]]
    assert all(row[3] and row[4] and row[5] for row in rows if row[0] != tag)
    report = {row["category"]: row for row in read_json(out / "coverage.json")}
    assert report[tag]["merged"] is None
    assert report[tag]["per_source"] == {"lex_a": None, "norms_b": None}
    log = (out / "decisions.log").read_text(encoding="utf-8").splitlines()
    assert [line for line in log if line.startswith("versemood.pipeline: coverage")] == [
        f"versemood.pipeline: coverage {tag}: fractions undefined: the category has no keys"
    ]
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("n_sonnets", (12, 40))
def test_decisions_log_names_every_skipped_regression_and_anova_cell(
    n_sonnets, tmp_path, capsys
):
    workspace = build_workspace(tmp_path / "ws", n_sonnets=n_sonnets)
    out = tmp_path / "out"
    code, _, _ = run(
        capsys, "validate", "--config", str(workspace / "config.json"),
        "--out", str(out), "--log-decisions",
    )
    assert code == 0
    log = (out / "decisions.log").read_text(encoding="utf-8").splitlines()
    noted = [r for r in read_json(out / "partial_dependence.json") if r["note"]]
    skipped = read_json(out / "anova.json")["skipped"]
    assert noted or skipped
    prefix = "versemood.validation: "
    for row in noted:
        # a category's too few rows are named once, any other note per pairing
        category = row["category"]
        if not row["note"].startswith("insufficient rows"):
            category += "/" + row["annotated_feature"]
        assert f"{prefix}partial dependence {category}: {row['note']}" in log
    for tag, feature, reason in skipped:
        assert f"{prefix}anova {tag}/{feature}: skipped: {reason}" in log
    # one line per category for each decision that the category's design takes
    assert len(log) == len(set(log))


def test_relative_out_dir_resolves_against_cwd(workspace_config, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "stats", "--config", str(workspace_config), "--out", "rel_reports"
    )
    assert code == 0
    assert (tmp_path / "rel_reports" / "corpus_stats.csv").is_file()


def test_log_decisions_writes_fallback_log(workspace_config, tmp_path, capsys):
    code, _, _ = run(
        capsys, "stats", "--config", str(workspace_config),
        "--out", str(tmp_path), "--log-decisions",
    )
    assert code == 0
    text = (tmp_path / "decisions.log").read_text(encoding="utf-8")
    assert "reversed valence scale for annotator 1" in text
    assert all(line.startswith("versemood") for line in text.splitlines() if line)


def test_each_run_logs_only_its_own_decisions(tmp_path, capsys, monkeypatch):
    config = build_workspace(tmp_path / "ws", n_sonnets=12) / "config.json"
    sessions = []  # each run's session
    real_write = pipeline.Session.write

    def kept(session, *args):
        sessions.append(session)
        return real_write(session, *args)

    monkeypatch.setattr(pipeline.Session, "write", kept)
    logs = []
    for command in ("validate", "stats"):
        out = tmp_path / command
        code, _, _ = run(
            capsys, command, "--config", str(config), "--out", str(out), "--log-decisions"
        )
        assert code == 0
        logs.append((out / "decisions.log").read_text(encoding="utf-8").splitlines())
    validate, stats = logs
    assert len(sessions) == 2
    assert stats == [f"{d.module}: {d.text}" for d in sessions[1].decisions]
    reversal = "versemood.pipeline: reversed valence scale for annotator 1"
    assert validate.count(reversal) == stats.count(reversal) == 1
    assert any(line.startswith("versemood.validation: ") for line in validate)
    assert not any(line.startswith("versemood.validation: ") for line in stats)
    # outside a run, a decision goes to no list
    decide("versemood.cli", "outside any run")
    assert [len(session.decisions) for session in sessions] == [len(validate), len(stats)]


def test_json_mirrors_agree_with_csv(all_run):
    coverage_rows = read_csv(all_run / "coverage.csv")
    coverage = read_json(all_run / "coverage.json")
    assert len(coverage) == len(coverage_rows) - 1
    header = coverage_rows[0]
    merged_csv = float(coverage_rows[1][header.index("merged")])
    assert coverage[0]["merged"] == pytest.approx(merged_csv, rel=1e-9)

    bivariate = read_json(all_run / "bivariate.json")
    assert len(bivariate) == 10 * len(FEATURE_NAMES)

    pd_rows = read_json(all_run / "partial_dependence.json")
    assert len(pd_rows) == 10 * (1 + len(PSYCHOLOGICAL_TAGS))

    anova = read_json(all_run / "anova.json")
    assert anova["n_total"] == 10 * len(PSYCHOLOGICAL_TAGS)
    assert anova["n_significant"] == len(anova["rows"])
    assert all(r["p_value"] < 0.05 for r in anova["rows"])

    features = read_json(all_run / "features.json")
    assert features["features"] == list(FEATURE_NAMES)
    assert len(features["rows"]) == 40
    assert set(features["undefined_counts"]) <= set(FEATURE_NAMES)


def test_stats_without_lexicons_section(workspace, tmp_path, capsys):
    cfg = absolute_config(workspace)
    del cfg["lexicons"]
    config = dump_config(cfg, tmp_path)
    code, _, _ = run(capsys, "stats", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 0


@pytest.mark.parametrize("named_by", ["config", "file stem"])
def test_a_source_id_that_names_a_coverage_column_exits_1(named_by, workspace, tmp_path, capsys):
    # coverage.csv would carry two "merged" columns: a reader by name takes the wrong one
    cfg = absolute_config(workspace)
    if named_by == "config":
        cfg["lexicons"][1]["source_id"] = "merged"
        lexicon = cfg["lexicons"][1]["path"]
    else:
        lexicon = str(shutil.copy(workspace / "lex_a.csv", tmp_path / "merged.csv"))
        cfg["lexicons"][0] = lexicon
    config = dump_config(cfg, tmp_path)
    out = tmp_path / "out"
    code, _, err = run(capsys, "coverage", "--config", str(config), "--out", str(out))
    assert code == 1
    assert f"lexicon {lexicon}: source id 'merged' names a coverage column" in err
    assert "set a distinct 'source_id'" in err
    assert "Traceback" not in err
    assert not out.exists() or list(out.iterdir()) == []


def test_agree_without_corpus_root(workspace, tmp_path, capsys):
    cfg = absolute_config(workspace)
    del cfg["corpus_root"]
    del cfg["lexicons"]
    config = dump_config(cfg, tmp_path)
    code, _, _ = run(capsys, "agree", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out" / "agreement.csv").is_file()


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda c: c.pop("metadata"), "missing 'metadata'"),
        (lambda c: c.update(annotations=c["annotations"][:1]), "at least two"),
        (lambda c: c.update(annotations=[c["annotations"][0], "/nowhere.csv"]), "not found"),
        (lambda c: c.pop("corpus_root"), "corpus_root"),
        (lambda c: c.update(corpus_root=c["metadata"]), "corpus_root is not a directory"),
        (lambda c: c.update(lexicons=[]), "lexicons"),
        (lambda c: c.update(lexicons=[{"descriptor": "x"}]), "path"),
        (lambda c: c.update(mode="porter"), "unknown mode"),
        (lambda c: c.update(format="xml"), "unknown format"),
        (lambda c: c.update(mode="lemma"), "lemma mode requires"),
        (lambda c: c.update(reversed_valence_annotators=[9]), "unknown annotator"),
    ],
)
def test_config_problems_exit_1(workspace, tmp_path, capsys, mutate, message):
    cfg = absolute_config(workspace)
    mutate(cfg)
    config = dump_config(cfg, tmp_path)
    code, _, err = run(
        capsys, "validate", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert err.startswith("error:") or "error:" in err
    assert message in err
    assert str(config) in err
    assert not (tmp_path / "out").exists()


def _rename(mapping, old, new):
    mapping[new] = mapping.pop(old)


@pytest.mark.parametrize(
    "command,mutate,key",
    [
        # misspelt, the key would take its default: annotator 1's valence not reversed
        ("stats", lambda c: _rename(c, "reversed_valence_annotators", "reversed_valence_annotator"),
         "reversed_valence_annotator"),
        ("stats", lambda c: c.update(lemma_tabel=None), "lemma_tabel"),  # null is checked too
        ("coverage", lambda c: c["lexicons"][1].update(sourceid="X"), "sourceid"),
        ("coverage", lambda c: c["lexicons"][1].update(sourceid=None), "sourceid"),
    ],
    ids=["misspelt", "misspelt-null", "lexicon-entry", "lexicon-entry-null"],
)
def test_unknown_config_keys_exit_1(workspace, tmp_path, capsys, command, mutate, key):
    cfg = absolute_config(workspace)
    mutate(cfg)
    config = dump_config(cfg, tmp_path)
    code, out, err = run(
        capsys, command, "--config", str(config), "--out", str(tmp_path / "out"),
        "--log-decisions",
    )
    assert code == 1
    assert out == ""
    assert str(config) in err and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name", ["metadata.csv", "annotator1.csv", "lex_a.csv", "lex_b.tsv"]
)
def test_utf8_bom_inputs_give_identical_reports(all_run, workspace, tmp_path, capsys, name):
    # Spreadsheet exports start CSV files with a byte order mark.
    copy = tmp_path / "workspace"
    shutil.copytree(workspace, copy)
    path = copy / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    code, _, err = run(
        capsys, "all", "--config", str(copy / "config.json"),
        "--out", str(tmp_path / "out"), "--missing-words",
    )
    assert code == 0, err
    for report in sorted(all_run.iterdir()):
        assert (tmp_path / "out" / report.name).read_bytes() == report.read_bytes(), report.name


def _edit_line_2(data, edit):
    lines = data.split(b"\n")
    lines[1] = edit(lines[1])
    return b"\n".join(lines)


def _bad_cell(data):
    head, newline, rest = data.partition(b"\n")
    return head + newline + re.sub(rb"[0-9]", b"x", rest, count=1)


# Byte-level corruptions of one input file; "line 2" is the first data row
# of a CSV file and the first key of an indented JSON file.
CORRUPTIONS = {
    "bom": lambda data: b"\xef\xbb\xbf" + data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "truncated row": lambda data: _edit_line_2(data, lambda line: line[: len(line) // 2]),
    "bad cell": _bad_cell,
    "duplicated row": lambda data: _edit_line_2(data, lambda line: line + b"\n" + line),
    "empty file": lambda data: b"",
    "wrong delimiter": lambda data: data.replace(b",", b";").replace(b"\t", b";"),
    "non-UTF-8 byte": lambda data: _edit_line_2(data, lambda line: b"\xe9" + line),
    # an unterminated quote running past the csv module's field size limit
    "overlong quoted field": lambda data: data + b'"' + b"x" * 140_000,
}
STRUCTURED_INPUTS = (
    "metadata.csv", "annotator2.csv", "lex_a.csv", "lex_b.tsv",
    "lex_b_descriptor.json", "config.json",
)
CORRUPT_CASES = [
    (name, corruption) for name in STRUCTURED_INPUTS for corruption in CORRUPTIONS
] + [("texts/s001.txt", corruption) for corruption in ("bom", "crlf", "non-UTF-8 byte")]


@pytest.mark.parametrize("name, corruption", CORRUPT_CASES)
def test_corrupt_input_gives_same_reports_or_exit_1_naming_it(
    all_run, workspace, tmp_path, capsys, name, corruption
):
    copy = tmp_path / "workspace"
    shutil.copytree(workspace, copy)
    path = copy / name
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    out = tmp_path / "out"
    code, _, err = run(
        capsys, "all", "--config", str(copy / "config.json"),
        "--out", str(out), "--missing-words",
    )
    assert code in (0, 1), err
    if code == 1:
        assert path.name in err
    elif not name.startswith("texts/"):
        # free text may tokenize differently; a structured input may not
        for report in sorted(all_run.iterdir()):
            assert (out / report.name).read_bytes() == report.read_bytes(), report.name


@pytest.mark.parametrize("case", [
    "empty lemma table", "one-column lemma table", "overlong lemma field",
    "duplicate lexicon stem", "duplicate annotation column", "missing annotation column",
    "metadata without sonnets",
])
def test_bad_input_file_exits_1_naming_it(workspace, tmp_path, capsys, case):
    cfg = absolute_config(workspace)
    if case.endswith("annotation column"):
        rows = read_csv(workspace / "annotator2.csv")
        if case.startswith("missing"):
            rows = [row[:-1] for row in rows]
        else:
            rows = [row + row[-1:] for row in rows]
        table = tmp_path / "annotator2.csv"
        table.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        cfg["annotations"][1] = str(table)
        named = [str(table)]
    elif case == "metadata without sonnets":
        table = tmp_path / "metadata.csv"
        header = (workspace / "metadata.csv").read_text(encoding="utf-8").split("\n")[0]
        table.write_text(header + "\n", encoding="utf-8")
        cfg["metadata"] = str(table)
        named = [str(table)]
    elif case == "duplicate lexicon stem":
        other = tmp_path / "other" / "lex_a.csv"
        other.parent.mkdir()
        shutil.copy(workspace / "lex_a.csv", other)
        cfg["lexicons"].append(str(other))
        named = [str(workspace / "lex_a.csv"), str(other)]
    else:
        table = tmp_path / "lemmas.tsv"
        table.write_text({
            "empty lemma table": "",
            "one-column lemma table": "cenizas\n",
            "overlong lemma field": "cenizas\tceniza\n\"" + "x" * 140_000,
        }[case], encoding="utf-8")
        cfg["lemma_table"] = str(table)
        named = [str(table)]
    config = dump_config(cfg, tmp_path)
    code, _, err = run(
        capsys, "validate", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "Traceback" not in err
    for path in named:
        assert path in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, key, value, named", [
    ("config", "metadata", 5, "'metadata'"),
    ("config", "annotations", [5, "annotator2.csv", "annotator3.csv"], "'annotations'"),
    ("lexicon", "path", 5, "'path'"),
    ("config", "corpus_root", 5, "'corpus_root'"),
    ("config", "stopwords", 5, "'stopwords'"),
    ("config", "reversed_valence_annotators", 5, "'reversed_valence_annotators'"),
    ("descriptor", None, ["Word"], "JSON object"),
    ("descriptor", "dimensions", {"valence": ["Val_Mn", "Val_SD"]}, "valence"),
    ("descriptor", "word_column", ["Word"], "'word_column'"),
    ("descriptor", "delimiter", "\t\t", "'delimiter'"),
    ("config", "reversed_valence_annotators", [True], "'reversed_valence_annotators'"),
    ("config", "reversed_valence_annotators", [1.0], "'reversed_valence_annotators'"),
    ("descriptor", "dimensions", [], "'dimensions'"),
    ("descriptor", "dimensions", {"joy": {"mean": "Val_Mn", "scale": [1, 7]}}, "'joy'"),
    ("descriptor", "dimensions", {"valence": {"mean": "Val_Mn", "scale": [1]}}, "[low, high]"),
    ("descriptor", "dimensions", {"valence": {"mean": "Val_Mn", "scale": [7, 1]}}, "below high"),
    ("descriptor", "dimensions", {"valence": {"sd": "Val_SD", "scale": [1, 7]}}, "mean column"),
    ("descriptor", "dimensions", {"valence": {"mean": 5, "scale": [1, 7]}}, "'mean'"),
    ("descriptor", "source_id", 5, "'source_id'"),
    ("config", "reversed_valence_annotators", [1, 1],
     "'reversed_valence_annotators' lists annotator 1 more than once"),
    ("lexicon", "source_id", 5, "'source_id'"),
    # falsy values are no defaults: only an absent or null entry is
    ("config", "reversed_valence_annotators", 0, "'reversed_valence_annotators' must be a list"),
    ("config", "reversed_valence_annotators", False, "'reversed_valence_annotators' must be"),
    ("config", "reversed_valence_annotators", "", "'reversed_valence_annotators' must be"),
    ("config", "stopwords", 0, "'stopwords' must be a path, not 0"),
    ("config", "stopwords", False, "'stopwords' must be a path, not False"),
    ("config", "stopwords", "", "stopword list not found"),
    ("config", "lemma_table", 0, "'lemma_table' must be a path, not 0"),
    ("config", "lemma_table", False, "'lemma_table' must be a path, not False"),
    ("config", "lemma_table", "", "lemma table not found"),
    ("config", "corpus_root", 0, "'corpus_root' must be a path, not 0"),
    ("lexicon", "descriptor", 0, "'descriptor' must be a path, not 0"),
    # a mean column is required, so no falsy value stands for none
    *(
        ("descriptor", "dimensions", {"valence": {"mean": mean, "scale": [1, 7]}},
         "dimension valence: 'mean' must be a column name")
        for mean in (None, 0, False, "")
    ),
    # a scale is two finite numbers: no boolean, NaN, infinity or int past the float range
    *(
        ("descriptor", "dimensions", {"valence": {"mean": "Val_Mn", "scale": scale}},
         "dimension valence: scale must be [low, high]")
        for scale in ([True, 7], [math.nan, 7], [1, math.inf], [1, 10**400])
    ),
    # ... whose width is a finite number too
    ("descriptor", "dimensions", {"valence": {"mean": "Val_Mn", "scale": [-1e308, 1e308]}},
     "dimension valence: scale [-1e+308, 1e+308] is wider than a float holds"),
])
def test_value_of_wrong_type_exits_1_naming_file_and_key(
    workspace, tmp_path, capsys, where, key, value, named
):
    cfg = absolute_config(workspace)
    descriptor = read_json(workspace / "lex_b_descriptor.json")
    if where == "config":
        cfg[key] = value
    elif where == "lexicon":
        cfg["lexicons"][1][key] = value
    elif key is None:
        descriptor = value
    else:
        descriptor[key] = value
    descriptor_path = tmp_path / "descriptor.json"
    descriptor_path.write_text(json.dumps(descriptor), encoding="utf-8")
    if key != "descriptor":
        cfg["lexicons"][1]["descriptor"] = str(descriptor_path)
    config = dump_config(cfg, tmp_path)
    code, _, err = run(
        capsys, "all", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert "Traceback" not in err
    assert str(descriptor_path if where == "descriptor" else config) in err
    assert named in err


def test_a_canonical_scale_wider_than_a_float_exits_1_naming_file_and_line(
    workspace, tmp_path, capsys
):
    header, *rows = read_csv(workspace / "lex_a.csv")
    table = tmp_path / "lex_a.csv"
    wide = [header, *(row[:4] + ["-1e308", "1e308"] for row in rows)]
    table.write_text("".join(",".join(row) + "\n" for row in wide), encoding="utf-8")
    cfg = absolute_config(workspace)
    cfg["lexicons"][0] = str(table)
    config = dump_config(cfg, tmp_path)
    code, _, err = run(capsys, "all", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    assert f"{table}: line 2: scale [-1e+308, 1e+308] is wider than a float holds" in err


@pytest.mark.parametrize("where", ["config", "descriptor"])
def test_json_nested_too_deeply_exits_1_naming_the_file(workspace, tmp_path, capsys, where):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    config = nested
    if where == "descriptor":
        cfg = absolute_config(workspace)
        cfg["lexicons"][1]["descriptor"] = str(nested)
        config = dump_config(cfg, tmp_path)
    code, _, err = run(capsys, "all", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "Traceback" not in err
    assert f"{nested}: invalid JSON" in err


def test_null_entries_keep_their_defaults(workspace, tmp_path):
    cfg = absolute_config(workspace)
    cfg.update(reversed_valence_annotators=None, stopwords=None, lemma_table=None)
    cfg.update(mode=None, format=None, out_dir=None)
    cfg["lexicons"][0] = {"path": cfg["lexicons"][0], "descriptor": None, "source_id": None}
    config = Session(dump_config(cfg, tmp_path)).config
    assert config.reversed_valence_annotators == ()
    assert (config.stopwords, config.lemma_table) == (None, None)
    assert (config.mode, config.format, config.out_dir.name) == ("stem", "both", "reports")
    assert config.lexicons[0] == (Path(cfg["lexicons"][0]["path"]), None, None)


def test_out_dir_of_wrong_type_exits_1_naming_file_and_key(workspace, tmp_path, capsys):
    # --out would override the entry, so this run goes without it
    cfg = absolute_config(workspace)
    cfg["out_dir"] = 5
    config = dump_config(cfg, tmp_path)
    code, _, err = run(capsys, "agree", "--config", str(config))
    assert code == 1
    assert f"{config}: 'out_dir' must be a path" in err


def test_out_dir_with_a_nul_exits_1_before_any_computation(tmp_path, capsys, monkeypatch):
    config = build_workspace(tmp_path / "ws", n_sonnets=12) / "config.json"
    cfg = json.loads(config.read_text(encoding="utf-8"))
    cfg["out_dir"] = "rep\0orts"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    loaded = []
    monkeypatch.setattr(pipeline.corpus_mod, "load_corpus", lambda *args: loaded.append(args))
    code, _, err = run(capsys, "agree", "--config", str(config))
    assert code == 1
    assert "Traceback" not in err
    assert f"{config}: 'out_dir' must be a path, not 'rep\\x00orts'" in err
    assert loaded == []


def test_unreadable_config_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--config", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read config" in err


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--config", str(bad))
    assert code == 1
    assert "invalid JSON" in err

    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--config", str(array))
    assert code == 1
    assert "JSON object" in err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "--config", "x"])
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "usage" in out.lower()
    for name, (help_line, _) in COMMANDS.items():  # each command with its help line
        assert re.search(rf"^  {name} +{re.escape(help_line)}$", out, re.M), name


def test_flags_may_come_before_the_command(workspace_config, tmp_path, capsys):
    after = ["stats", "--config", str(workspace_config), "--out", str(tmp_path / "after")]
    before = ["--out", str(tmp_path / "before"), "--config", str(workspace_config), "stats"]
    assert run(capsys, *after)[0] == run(capsys, *before)[0] == 0
    for path in sorted((tmp_path / "after").iterdir()):
        assert (tmp_path / "before" / path.name).read_bytes() == path.read_bytes(), path.name
