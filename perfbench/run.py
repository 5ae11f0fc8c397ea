"""versemood benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's workspace from the seed, then runs the ``versemood``
CLI entry point (``versemood.cli.main``) on it again and again, each run
in a fresh interpreter, one at a time (a closed loop with one client),
for S seconds.  Every run is checked: exit code, tracebacks, the report
files, their row counts, and the report-set digest, which must be the
same for every run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from traced
runs with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from spans import aggregate
from workspaces import VocabSize, build_sonnet_workspace, build_vocab_workspace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

# One invocation must end within 180 s; stop starting runs well before.
HARD_LIMIT_S = 165.0
MIN_SETUP_SAMPLES = 31
# One BLAS thread: on a small shared host a second OpenBLAS thread spin-waits
# on the regression's tiny matrices and makes run times swing several-fold.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# run_s and setup_s are wall times scaled to a host on which one calibration
# unit takes this long (about the unit's median on the 2-CPU host of the first
# baseline).  It holds for this unit size only: measure it again if the size
# changes.
CALIBRATION_REF_S = 0.045
CALIBRATION_KEYS = 400_000
CALIBRATION_OPS = 40_000
# Calibration units timed on each side of a CLI run and of an import-only probe.
RUN_CALIBRATION_UNITS = 4
PROBE_CALIBRATION_UNITS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generated workspace and a CLI command."""

    name: str
    args: tuple[str, ...]
    n_sonnets: int
    reports: tuple[str, ...]
    rows: dict[str, int]
    vocab: VocabSize | None = None

    def build(self, root: Path, seed: int) -> dict[str, Any]:
        """Write the workspace; return the values the reports must show."""
        expect: dict[str, Any] = dict(self.rows)
        if self.vocab is None:
            build_sonnet_workspace(root, self.n_sonnets, seed)
        else:
            stopwords = frozenset(
                (SRC / "versemood" / "data" / "stopwords_es.txt")
                .read_text(encoding="utf-8").lower().split()
            )
            expect["raw_keys"] = build_vocab_workspace(
                root, self.n_sonnets, self.vocab, seed, stopwords
            )
        if "features" in self.reports:
            expect["features"] = self.n_sonnets
        return expect


ALL_REPORTS = (
    "corpus_stats", "agreement", "word_counts", "coverage", "missing_words",
    "features", "bivariate", "partial_dependence", "anova",
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-all", ("all", "--missing-words"), 274, ALL_REPORTS,
            {"bivariate": 320, "partial_dependence": 220, "agreement": 31},
        ),
        Workload(
            "vocab-coverage", ("coverage", "--missing-words"), 500,
            ("word_counts", "coverage", "missing_words"),
            {"word_counts": 22, "coverage": 22},
            vocab=VocabSize(),
        ),
        Workload("agree-2000", ("agree",), 2000, ("agreement",), {"agreement": 31}),
    )
}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Run:
    """Outcome of one CLI invocation."""

    traced: bool
    run_s: float = 0.0
    calibration_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    trace: dict[str, Any] | None = None
    files_written: int = 0
    bytes_written: int = 0
    report_counts: dict[str, int] = field(default_factory=dict)


def _child_cmd(result: Path, extra: list[str], cli_args: list[str]) -> list[str]:
    child = BENCH / "child.py"
    return [sys.executable, str(child), str(result), str(SRC), *extra, "--", *cli_args]


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def check_reports(workload: Workload, out: Path, expect: dict[str, Any]) -> list[str]:
    """Problems with the report set; empty when it is what the workload implies."""
    problems = []
    for name in workload.reports:
        for ext in ("csv", "json"):
            if not (out / f"{name}.{ext}").is_file():
                problems.append(f"missing report {name}.{ext}")
    if problems:
        return problems
    for name, count in expect.items():
        if name in workload.reports:
            found = len(_read_rows(out / f"{name}.csv"))
            if found != count:
                problems.append(f"{name}.csv has {found} rows, expected {count}")
    if "raw_keys" in expect:
        rows = _read_rows(out / "word_counts.csv")
        if any(row[3] == "" for row in rows):
            problems.append("word_counts.csv has an empty lemma column")
        raw_all = [row[1] for row in rows if row[0] == "all"]
        if raw_all != [str(expect["raw_keys"])]:
            problems.append(
                f"word_counts all/raw is {raw_all}, expected {expect['raw_keys']} distinct forms"
            )
    return problems


def report_digest(out: Path) -> tuple[str, int, int]:
    """SHA-256 over the sorted report set, plus its file count and bytes."""
    digest = hashlib.sha256()
    n_files = n_bytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
        n_files += 1
        n_bytes += len(data)
    return digest.hexdigest(), n_files, n_bytes


def count_report_cells(out: Path) -> dict[str, int]:
    """Feature-matrix and regression counts, read from the written reports."""
    counts = {}
    if (out / "features.csv").is_file():
        rows = _read_rows(out / "features.csv")
        counts["features_rows"] = len(rows)
        counts["features_empty_cells"] = sum(cell == "" for row in rows for cell in row[1:])
    if (out / "partial_dependence.csv").is_file():
        rows = _read_rows(out / "partial_dependence.csv")
        counts["pd_rows"] = len(rows)
        counts["pd_notes"] = sum(row[-1] != "" for row in rows)
    return counts


class Calibration:
    """A fixed memory-bound work unit that gauges how fast the host is right now.

    Dict updates and lookups over 400k keys in shuffled order.  On a
    shared 2-CPU host, neighbours slowed this unit in step with the CLI
    runs (log-log slope about 0.95 on paper-all and on vocab-coverage),
    while a small cache-resident loop over-corrected (slope about 0.5).
    It runs in the parent, so its memory stays out of the child's RSS.
    """

    def __init__(self) -> None:
        self.keys = [f"w{i}x{i * 7 % 13}" for i in range(CALIBRATION_KEYS)]
        self.order = list(range(CALIBRATION_KEYS))
        random.Random(1).shuffle(self.order)

    def unit_s(self) -> float:
        keys, order, ops = self.keys, self.order, CALIBRATION_OPS
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for i in order[:ops]:
            key = keys[i]
            counts[key] = counts.get(key, 0) + 1
        total = 0
        for i in order[len(order) // 2:len(order) // 2 + ops]:
            total += counts.get(keys[i], 0)
        return time.perf_counter() - start

    def sample(self, units: int) -> list[float]:
        return [self.unit_s() for _ in range(units)]


class Harness:
    """Runs one workload's CLI invocations inside a scratch directory."""

    def __init__(
        self,
        workload: Workload,
        workspace: Path,
        expect: dict[str, Any],
        scratch: Path,
        hard_deadline: float,
    ):
        self.workload = workload
        self.workspace = workspace
        self.expect = expect
        self.scratch = scratch
        self.hard_deadline = hard_deadline
        self.runs: list[Run] = []
        # (wall seconds, calibration unit seconds timed around that sample)
        self.setups: list[tuple[float, float]] = []
        self.calibration = Calibration()
        self._count = 0

    def _timeout(self) -> float:
        return max(1.0, self.hard_deadline - time.perf_counter())

    def _spawn(
        self, extra: list[str], cli_args: list[str]
    ) -> tuple[subprocess.CompletedProcess | None, dict | None, float]:
        """Start one child; return its process, its result file and its start time."""
        self._count += 1
        result_path = self.scratch / f"result-{self._count}.json"
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                _child_cmd(result_path, extra, cli_args),
                capture_output=True, text=True, timeout=self._timeout(), cwd=ROOT,
                env={**os.environ, **CHILD_ENV},
            )
        except subprocess.TimeoutExpired:
            return None, None, started
        if not result_path.is_file():
            return proc, None, started
        return proc, json.loads(result_path.read_text(encoding="utf-8")), started

    def probe_setups(self, n: int) -> None:
        """Up to ``n`` samples of interpreter start plus package import, without a CLI run.

        Calibration units are timed between the probes; each probe is scaled
        by the units on its two sides.
        """
        before = self.calibration.sample(PROBE_CALIBRATION_UNITS)
        for _ in range(n):
            if time.perf_counter() + 5.0 > self.hard_deadline:
                break
            proc, result, started = self._spawn(["--import-only"], [])
            after = self.calibration.sample(PROBE_CALIBRATION_UNITS)
            if proc is not None and proc.returncode == 0 and result is not None:
                self.setups.append(
                    (result["imported_at"] - started, statistics.median(before + after))
                )
            before = after

    def run_once(self, traced: bool) -> Run:
        run = Run(traced=traced)
        out = self.scratch / f"out-{self._count + 1}"
        trace_path = self.scratch / f"trace-{self._count + 1}.json"
        cli_args = [
            *self.workload.args, "--config", str(self.workspace / "config.json"), "--out", str(out),
        ]
        extra = ["--trace", str(trace_path)] if traced else []
        before = self.calibration.sample(RUN_CALIBRATION_UNITS)
        proc, result, started = self._spawn(extra, cli_args)
        after = self.calibration.sample(RUN_CALIBRATION_UNITS)
        run.calibration_s = statistics.median(before + after)
        if proc is None:
            run.problems.append("timed out")
            run.run_s = time.perf_counter() - started
        else:
            if proc.returncode != 0:
                run.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if "Traceback" in proc.stderr:
                run.problems.append("traceback on stderr")
        if result is not None:
            run.run_s = result["run_s"]
            run.peak_rss_mb = result.get("maxrss_kb", 0) / 1024.0
            if not traced:
                self.setups.append((result["imported_at"] - started, run.calibration_s))
        elif proc is not None:
            run.problems.append("no result from the child process")
        if traced and trace_path.is_file():
            run.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        if out.is_dir():
            run.digest, run.files_written, run.bytes_written = report_digest(out)
            if traced:
                run.report_counts = count_report_cells(out)
        if not run.problems:
            run.problems.extend(check_reports(self.workload, out, self.expect))
        previous = [r.digest for r in self.runs if not r.problems]
        if not run.problems and previous and run.digest != previous[0]:
            run.problems.append(f"report digest {run.digest[:12]} differs from {previous[0][:12]}")
        shutil.rmtree(out, ignore_errors=True)
        self.runs.append(run)
        return run

    def room_for_another(self, last: Run) -> bool:
        return time.perf_counter() + 1.5 * last.run_s + 2.0 < self.hard_deadline


def scaled(seconds: float, calibration_s: float) -> float:
    """Seconds scaled to a host on which one calibration unit takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / calibration_s


def normalized_run_s(run: Run) -> float:
    return scaled(run.run_s, run.calibration_s)


def normalized_setup_s(harness: Harness) -> list[float]:
    """Set-up samples, each scaled by the calibration timed around it."""
    return [scaled(wall, calibration_s) for wall, calibration_s in harness.setups]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail(values: list[float]) -> str:
    """The highest order statistic with at least ten runs beyond it."""
    if len(values) < 11:
        return f"n/a (needs 11 runs, have {len(values)})"
    ordered = sorted(values)
    return f"{ordered[len(values) - 11]:.4f}"


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for their meaning)."""
    trace = run.trace or {"spans": [], "counts": {}}
    agg = aggregate(trace["spans"])
    counts = trace["counts"]

    def calls(name: str) -> int:
        return int(agg.get(name, {}).get("calls", 0))

    def total(*names: str) -> float:
        return sum(agg.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    normalize_calls = calls("textnorm.normalize")
    ols_calls = calls("stats.ols")
    ols_deficient = counts.get("stats.ols.raised.RankDeficiencyError", 0)
    ols_failed = sum(v for k, v in counts.items() if k.startswith("stats.ols.raised."))
    reports = run.report_counts
    top = sum(slot["top_s"] for slot in agg.values())
    return {
        "textnorm.normalize_calls": normalize_calls,
        "textnorm.normalize_s": total("textnorm.normalize"),
        "textnorm.tokens": counts.get("textnorm.tokens", 0),
        "textnorm.normalize_useful_ratio": ratio(
            counts.get("textnorm.normalize_distinct", 0), normalize_calls
        ),
        "textnorm.stem_calls": counts.get("textnorm.stem_calls", 0),
        "textnorm.stem_distinct": counts.get("textnorm.stem_distinct", 0),
        "lexicon.load_s": total("lexicon.load_lexicon"),
        "lexicon.source_words": counts.get("lexicon.source_words", 0),
        "lexicon.merge_s": total("lexicon.merge_lexicons"),
        "lexicon.merged_keys": counts.get("lexicon.merged_keys", 0),
        "lexicon.key_collisions": counts.get("lexicon.key_collisions", 0),
        "lexicon.word_count_report_self_s": self_s("lexicon.word_count_report"),
        "lexicon.coverage_report_self_s": self_s("lexicon.coverage_report"),
        "lexicon.missing_word_report_self_s": self_s("lexicon.missing_word_report"),
        "corpus.load_s": total("corpus.load_corpus", "corpus.load_annotation_set"),
        "corpus.median_s": total("corpus.fill_missing_psych", "corpus.build_median_annotator"),
        "corpus.statistics_self_s": self_s("corpus.corpus_statistics"),
        "agreement.report_self_s": self_s("agreement.agreement_report"),
        "agreement.alpha_calls": calls("agreement.krippendorff_alpha"),
        "agreement.alpha_s": total("agreement.krippendorff_alpha"),
        "agreement.reliability_s": total("agreement.reliability_from_sets"),
        "agreement.pairable_values": counts.get("agreement.pairable_values", 0),
        "agreement.uncomputable_cells": counts.get(
            "agreement.krippendorff_alpha.raised.AgreementError", 0
        ),
        "features.matrix_self_s": self_s("features.compute_corpus_matrix"),
        "features.sonnets": reports.get("features_rows", 0),
        "features.undefined_cells": reports.get("features_empty_cells", 0),
        "stats.ols_calls": ols_calls,
        "stats.ols_s": total("stats.ols"),
        "stats.ols_rank_deficient": ols_deficient,
        "stats.ols_useful_ratio": ratio(ols_calls - ols_failed, ols_calls),
        "stats.spearman_calls": calls("stats.spearman"),
        "stats.spearman_s": total("stats.spearman"),
        "stats.anova_calls": calls("stats.one_way_anova"),
        "stats.anova_s": total("stats.one_way_anova"),
        "validation.bivariate_self_s": self_s("validation.bivariate_report"),
        "validation.partial_dependence_self_s": self_s("validation.partial_dependence_report"),
        "validation.anova_self_s": self_s("validation.anova_report"),
        "validation.pd_rows": reports.get("pd_rows", 0),
        "validation.pd_not_computable": reports.get("pd_notes", 0),
        "cli.emit_s": total("cli.emit"),
        "cli.files_written": run.files_written,
        "cli.bytes_written": run.bytes_written,
        "cli.untraced_s": run.run_s - top,
    }


def measure(harness: Harness, seconds: float, traced: bool) -> None:
    """Closed loop for ``seconds``: with tracing, alternate traced and plain runs."""
    stop = time.perf_counter() + seconds
    while True:
        n_traced = sum(r.traced for r in harness.runs)
        want_traced = traced and n_traced <= len(harness.runs) - n_traced
        last = harness.run_once(want_traced)
        n_traced += want_traced
        enough = not traced or (n_traced >= 2 and len(harness.runs) > n_traced)
        if enough and time.perf_counter() >= stop:
            break
        if not harness.room_for_another(last):
            break
    if len(harness.setups) < MIN_SETUP_SAMPLES:
        harness.probe_setups(MIN_SETUP_SAMPLES - len(harness.setups))


def end_to_end(harness: Harness) -> dict[str, float]:
    plain = [r for r in harness.runs if not r.traced]
    return {
        "run_s": _median([normalized_run_s(r) for r in plain]),
        "setup_s": _median(normalized_setup_s(harness)),
        "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
    }


def trace_checks(harness: Harness) -> tuple[Run | None, list[str]]:
    """The median traced run, and problems with the traces taken."""
    traced = sorted((r for r in harness.runs if r.traced), key=lambda r: r.run_s)
    if not traced:
        return None, ["no traced run"]
    problems = []
    count_keys = [k for k in layer_metrics(traced[0]) if not k.endswith("_s")]
    first = {k: layer_metrics(traced[0])[k] for k in count_keys}
    for run in traced[1:]:
        other = {k: layer_metrics(run)[k] for k in count_keys}
        if other != first:
            diff = sorted(k for k in count_keys if other[k] != first[k])
            problems.append(f"traced counts differ between runs: {', '.join(diff)}")
    for run in traced:
        # The printed times must partition the run: a total that counts a
        # nested span a second time, or a span no metric prints, breaks this.
        gap = sum(v for k, v in layer_metrics(run).items() if k.endswith("_s")) - run.run_s
        if abs(gap) > 1e-6:
            problems.append(f"printed layer times miss the traced run_s by {gap:.3g} s")
    return traced[(len(traced) - 1) // 2], problems


def _recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def summarize(workload: Workload, seed: int, harness: Harness, gen_s: float) -> None:
    """Human-readable lines: runs, failures, spreads, tails and the report digest."""
    runs = harness.runs
    plain = [r for r in runs if not r.traced]
    failed = [r for r in runs if r.problems]
    print(f"workload {workload.name}, seed {seed}: "
          f"workspace generated in {gen_s:.3f} s (not timed)")
    print(f"runs {len(runs)} ({len(runs) - len(plain)} traced), failed {len(failed)}, "
          f"error_rate {len(failed) / len(runs):.4f}")
    for run in failed[:5]:
        print(f"  failed run: {'; '.join(run.problems)}")
    for name, values in (
        ("run_s", [normalized_run_s(r) for r in plain]),
        ("wall_s", [r.run_s for r in plain]),
        ("calibration", [r.calibration_s for r in plain]),
        ("setup_s", normalized_setup_s(harness)),
        ("setup_wall_s", [wall for wall, _ in harness.setups]),
        ("peak_rss_mb", [r.peak_rss_mb for r in plain]),
    ):
        if values:
            print(f"{name:12s} median {_median(values):.4f}  min {min(values):.4f}  "
                  f"max {max(values):.4f}  tail {_tail(values)}  (n={len(values)})")
    if plain:
        print("run_s per run " + " ".join(f"{normalized_run_s(r):.3f}" for r in plain))
    digests = sorted({r.digest for r in runs if not r.problems})
    recorded = _recorded_digest(workload.name, seed)
    if recorded is None:
        status = "no digest recorded for this seed"
    else:
        status = "same as recorded" if digests == [recorded] else f"recorded digest is {recorded}"
    print(f"report digest {', '.join(digests) or '-'} ({status})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "versemood" / "cli.py").is_file():
        print(f"error: no versemood sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    return execute(workload, args.seed, args.seconds, bool(args.trace))


def execute(workload: Workload, seed: int, seconds: float, traced: bool, mutate=None) -> int:
    """Build, measure, check and print; ``mutate`` may damage the workspace (tests)."""
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    scratch = WORK / f"{workload.name}-{seed}-{time.time_ns()}"
    try:
        started = time.perf_counter()
        expect = workload.build(scratch / "workspace", seed)
        gen_s = time.perf_counter() - started
        if mutate is not None:
            mutate(scratch / "workspace")
        harness = Harness(workload, scratch / "workspace", expect, scratch, hard_deadline)
        measure(harness, seconds, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summarize(workload, seed, harness, gen_s)

    runs = harness.runs
    failed = sum(bool(r.problems) for r in runs)
    problems: list[str] = []
    if traced:
        median_run, problems = trace_checks(harness)
        layers = layer_metrics(median_run) if median_run else layer_metrics(Run(traced=True))
        plain = [r.run_s for r in runs if not r.traced]
        layers["trace.run_s"] = median_run.run_s if median_run else 0.0
        layers["trace.overhead_s"] = layers["trace.run_s"] - _median(plain)
        for problem in problems:
            print(f"trace check failed: {problem}")
        print_layers(layers, median_run)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(harness).items()
        }
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


LAYER_UNITS = {
    name: _unit(name)
    for name in [*layer_metrics(Run(traced=True)), "trace.run_s", "trace.overhead_s"]
}


def print_layers(layers: dict[str, float], run: Run | None) -> None:
    if run is not None and run.trace:
        for name, places in sorted(run.trace.get("rebound", {}).items()):
            print(f"traced {name} at {', '.join(places)}")
    for name, value in layers.items():
        print(f"{name:40s} {value:.6f} {LAYER_UNITS[name]}" if LAYER_UNITS[name] in ("s", "ratio")
              else f"{name:40s} {value:d} {LAYER_UNITS[name]}")


if __name__ == "__main__":
    sys.exit(main())
