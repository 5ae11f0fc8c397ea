"""Self-test of the benchmark: tiny workloads, the failure path, the generator.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workspaces import VocabSize, build_sonnet_workspace

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "paper-all": dataclasses.replace(run.WORKLOADS["paper-all"], n_sonnets=40),
    "vocab-coverage": dataclasses.replace(
        run.WORKLOADS["vocab-coverage"],
        n_sonnets=30,
        vocab=VocabSize(n_forms=800, va_words=300, described_words=200, emotion_words=200),
    ),
    "agree-2000": dataclasses.replace(run.WORKLOADS["agree-2000"], n_sonnets=40),
}


def _result(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def _assert_every_metric(result: dict, traced: bool) -> None:
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_sonnet_generator_reproduces_the_test_fixture(tmp_path):
    conftest = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("fixture_conftest", conftest)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        fixture = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fixture)
    finally:
        sys.path.remove(str(ROOT / "src"))
    for n, seed in ((40, 20260817), (274, 7)):
        expected = fixture.build_workspace(tmp_path / f"fixture-{n}", n, seed)
        built = build_sonnet_workspace(tmp_path / f"bench-{n}", n, seed)
        files = sorted(p.relative_to(expected) for p in expected.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(built) for p in built.rglob("*") if p.is_file())
        for rel in files:
            assert (expected / rel).read_bytes() == (built / rel).read_bytes(), rel


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_prints_every_metric(name, traced, capsys):
    assert run.execute(TINY[name], seed=3, seconds=0, traced=traced) == 0
    result, out = _result(capsys)
    assert result["correct"] is True, out
    assert result["attempted"] >= (3 if traced else 1)
    assert result["failed"] == 0
    _assert_every_metric(result, traced)
    if traced:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        times = sum(v for k, v in layers.items() if k.endswith("_s") and not k.startswith("trace."))
        assert times == pytest.approx(layers["trace.run_s"], abs=1e-6)
        for copy in ("lexicon.normalize", "features.normalize", "corpus.normalize", "lexicon.stem",
                     "features.spearman", "validation.spearman", "validation.ols",
                     "validation.one_way_anova"):
            assert f"versemood.{copy}" in out
        if name == "agree-2000":
            assert layers["textnorm.normalize_calls"] == 0
            assert layers["stats.ols_calls"] == 0
        if name != "vocab-coverage":
            assert layers["agreement.alpha_calls"] == 217


@pytest.mark.parametrize("traced", [False, True])
def test_missing_annotation_file_fails_every_run(traced, capsys):
    def drop_annotation(workspace: Path) -> None:
        (workspace / "annotator2.csv").unlink()

    workload = TINY["agree-2000"]
    assert run.execute(workload, seed=3, seconds=0, traced=traced, mutate=drop_annotation) == 0
    result, out = _result(capsys)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "error_rate 1.0000" in out
    _assert_every_metric(result, traced)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "agree-2000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_trace_check_catches_a_time_counted_twice():
    def traced_run(spans: list[list]) -> run.Run:
        return run.Run(traced=True, run_s=1.0, trace={"spans": spans, "counts": {}})

    # reliability_from_sets and krippendorff_alpha are both printed as totals,
    # so an alpha call nested inside reliability_from_sets is counted twice.
    flat = [["agreement.reliability_from_sets", 0.1, 0.4, -1],
            ["agreement.krippendorff_alpha", 0.4, 0.6, -1]]
    nested = [["agreement.reliability_from_sets", 0.1, 0.6, -1],
              ["agreement.krippendorff_alpha", 0.4, 0.6, 0]]
    harness = run.Harness(TINY["agree-2000"], Path("."), {}, Path("."), hard_deadline=0.0)
    harness.runs = [traced_run(flat)]
    assert run.trace_checks(harness)[1] == []
    harness.runs = [traced_run(nested)]
    assert "printed layer times miss the traced run_s" in run.trace_checks(harness)[1][0]
