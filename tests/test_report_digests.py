"""The report set, pinned byte for byte.

``report_digests.json`` holds the SHA-256 of every file that
``versemood all --missing-words --log-decisions`` writes on the conftest
workspace at 12, 40 and 120 sonnets, with the numpy version they were
made with.  The sizes reach the insufficient-rows path, predictor
pruning and dropped spans.  One more entry, ``PAIRWISE``, pins
``versemood agree --log-decisions`` on the 40-sonnet workspace with a
config that lists only two annotation files: the agreement report
without a median column.  Two more, ``coverage-120-raw`` and
``coverage-120-lemma``, pin ``versemood coverage --missing-words`` in raw
and lemma mode on the 120-sonnet workspace with a stopword list and a
lemma table added, so that every key mode's word counts, coverage and
missing words are pinned.  Reports print floats at full precision, so
another numpy (another BLAS, other rounding) may change the bytes of a
correct run: the test then skips, naming both versions.

To record the digests again (only when the reports are meant to change,
or for a new numpy), run ``PYTHONPATH=src python tests/test_report_digests.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from versemood.cli import main

from conftest import build_workspace

RECORD = Path(__file__).with_name("report_digests.json")
SIZES = (12, 40, 120)
PAIRWISE = "agree-40-two-sets"
CODED_MODES = ("raw", "lemma")


def _digests(out: Path, argv: list[str]) -> dict[str, str]:
    assert main([*argv, "--out", str(out), "--log-decisions"]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def report_digests(root: Path, n_sonnets: int) -> dict[str, str]:
    workspace = build_workspace(root / "workspace", n_sonnets=n_sonnets)
    argv = ["all", "--config", str(workspace / "config.json"), "--missing-words"]
    return _digests(root / "out", argv)


def pairwise_digests(root: Path) -> dict[str, str]:
    workspace = build_workspace(root / "workspace", n_sonnets=40)
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["annotations"] = config["annotations"][:2]
    path = workspace / "pairwise.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return _digests(root / "out", ["agree", "--config", str(path)])


def coverage_digests(root: Path, mode: str) -> dict[str, str]:
    workspace = build_workspace(root / "workspace", n_sonnets=120)
    # "amor" is a corpus word made a stopword; "el" has a lemma but is dropped first.
    (workspace / "stopwords.txt").write_text("el\nla\nde\namor\n", encoding="utf-8")
    (workspace / "lemmas.tsv").write_text(
        "cenizas\tceniza\nllamas\tllama\nsombras\tsombra\nel\tél\n", encoding="utf-8"
    )
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config.update(stopwords="stopwords.txt", lemma_table="lemmas.tsv")
    path = workspace / "lemmas.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["coverage", "--config", str(path), "--missing-words", "--mode", mode]
    return _digests(root / "out", argv)


def _record() -> dict:
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    if record["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {record['numpy']}, this is {np.__version__}")
    return record["digests"]


@pytest.mark.parametrize("n_sonnets", SIZES)
def test_report_set_is_byte_identical_to_the_record(n_sonnets, tmp_path, capsys):
    assert report_digests(tmp_path, n_sonnets) == _record()[str(n_sonnets)]


def test_pairwise_agreement_is_byte_identical_to_the_record(tmp_path, capsys):
    assert pairwise_digests(tmp_path) == _record()[PAIRWISE]


@pytest.mark.parametrize("mode", CODED_MODES)
def test_coverage_in_each_key_mode_is_byte_identical_to_the_record(mode, tmp_path, capsys):
    assert coverage_digests(tmp_path, mode) == _record()[f"coverage-120-{mode}"]


if __name__ == "__main__":
    digests = {}
    for size in SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[str(size)] = report_digests(Path(tmp), size)
    with tempfile.TemporaryDirectory() as tmp:
        digests[PAIRWISE] = pairwise_digests(Path(tmp))
    for mode in CODED_MODES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[f"coverage-120-{mode}"] = coverage_digests(Path(tmp), mode)
    record = {"numpy": np.__version__, "digests": digests}
    RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
