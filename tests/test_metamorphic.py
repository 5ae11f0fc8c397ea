"""Metamorphic relations of the whole pipeline: reorder the inputs, keep the reports.

Each test runs ``all --missing-words --log-decisions`` through ``cli.main``
on a copy of the 40-sonnet workspace and on a transformed copy, and
compares what the two runs wrote.

(a) Annotation files are read by header, so permuting the columns of
    every annotation file leaves every report and ``decisions.log``
    byte-identical.
(b) Permuting the sonnets (the metadata rows and every annotation file's
    rows, by one permutation) keeps each sonnet's feature row, and every
    report whose sums are exact (counts, coincidences, centred ranks) is
    byte-identical.  Corpus statistics, regressions and ANOVA add floats
    in sonnet order, so they agree to ``REL_TOL`` only.
(c) The merge maps every source onto the canonical scales before the
    median, so rescaling one source affinely together with its declared
    scale keeps the merged means and sds, the feature report and ANOVA to
    ``AFFINE_REL_TOL``, and the regressions to ``REL_TOL``; the reports
    built from ranks, counts and annotations are byte-identical.
(d) An annotator's id is its file's place in the config, and the median
    of three values does not depend on their order.  So permuting the
    annotator files, the reversed-valence ids following their files,
    relabels the agreement cells and changes no value, and the median
    annotator and every other report are byte-identical.
(e) A lexicon's duplicate rows (one word and dimension, or one word in a
    descriptor file) are averaged in file order, and the merge sorts the
    words.  So permuting a lexicon's rows, each duplicate group's rows
    kept in their order, leaves the merged means and sds bit-identical and
    every report and ``decisions.log`` byte-identical.
(f) Words are split on any run of whitespace, so widening the single
    spaces between the words of the texts into runs of spaces and tabs
    leaves the keys and every report byte-identical.
"""

import csv
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from versemood.cli import main
from versemood.pipeline import Session

# Relative tolerance of the reports whose float sums run in sonnet order.  On
# this workspace a reordering moves ANOVA by 1e-13 and the least well
# conditioned regressions by 6e-12 (relative); the CSV writes ten significant
# digits, so a last digit that rounds the other way is 1e-9.
REL_TOL = 1e-8
ABS_TOL = 1e-12

# Relative tolerance of relation (c): the rescaled source's values pass through
# two affine maps, a few roundings each, where the original passes through none.
AFFINE_REL_TOL = 1e-12

EXACT = ("agreement", "bivariate", "word_counts", "coverage", "missing_words")
TOLERANT = ("corpus_stats", "partial_dependence", "anova")
ANNOTATIONS = ("annotator1.csv", "annotator2.csv", "annotator3.csv")


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _text_rows(data: bytes) -> list[list]:
    """A written CSV's cells, numbers as floats."""
    return [[_cell(c) for c in row] for row in csv.reader(data.decode("utf-8").splitlines())]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _run(root: Path) -> dict[str, bytes]:
    out = root / "out"
    argv = ["all", "--config", str(root / "config.json"), "--missing-words", "--log-decisions"]
    assert main(argv + ["--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _copy(workspace: Path, dest: Path) -> Path:
    return Path(shutil.copytree(workspace, dest, ignore=shutil.ignore_patterns("reports", "out")))


def _close(a, b, where: str, rel_tol: float = REL_TOL) -> None:
    """Equal JSON-like values, numbers within ``rel_tol`` (or ABS_TOL near zero)."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), where
        for key in a:
            _close(a[key], b[key], f"{where}.{key}", rel_tol)
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]", rel_tol)
    elif isinstance(a, float) and not isinstance(b, bool) and isinstance(b, (int, float)):
        assert math.isclose(a, b, rel_tol=rel_tol, abs_tol=ABS_TOL) or a == b, where
    else:
        assert a == b, where


@pytest.fixture(scope="module")
def original(workspace, tmp_path_factory):
    return _run(_copy(workspace, tmp_path_factory.mktemp("metamorphic") / "original"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuting_annotation_columns_changes_no_byte(workspace, original, tmp_path, seed):
    rng = np.random.default_rng(seed)
    root = _copy(workspace, tmp_path / "columns")
    for name in ANNOTATIONS:
        rows = _read_rows(root / name)
        order = rng.permutation(len(rows[0])).tolist()
        assert order != sorted(order)
        _write_rows(root / name, [[row[j] for j in order] for row in rows])
    permuted = _run(root)
    assert list(permuted) == list(original)
    for name, data in original.items():
        assert permuted[name] == data, name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuting_sonnets_keeps_every_report(workspace, original, tmp_path, seed):
    rng = np.random.default_rng(seed)
    root = _copy(workspace, tmp_path / "sonnets")
    ids = [row[3] for row in _read_rows(root / "metadata.csv")[1:]]
    order = rng.permutation(len(ids)).tolist()
    assert order != sorted(order)
    place = {ids[i]: new for new, i in enumerate(order)}
    for name in ("metadata.csv",) + ANNOTATIONS:
        header, *rows = _read_rows(root / name)
        assert len(rows) == len(order), name
        _write_rows(root / name, [header] + [rows[i] for i in order])
    permuted = _run(root)
    assert list(permuted) == list(original)

    for report in EXACT:
        for suffix in (".csv", ".json"):
            assert permuted[report + suffix] == original[report + suffix], report + suffix

    # each sonnet's feature row, whatever its place; rows follow the metadata
    def by_sonnet(data: dict[str, bytes]):
        table = json.loads(data["features.json"])
        rows = {row["sonnet_id"]: row for row in table.pop("rows")}
        header, *lines = data["features.csv"].decode("utf-8").splitlines()
        return table, rows, header, {line.split(",", 1)[0]: line for line in lines}

    before, after = by_sonnet(original), by_sonnet(permuted)
    assert after == before
    assert list(before[1]) == ids
    assert list(after[1]) == list(after[3]) == sorted(ids, key=place.get)

    # the unfilled psychological cells are listed sonnet by sonnet, in metadata order
    before, after = (json.loads(data["corpus_stats.json"]) for data in (original, permuted))
    unfilled = before.pop("unfilled_cells")
    assert unfilled, "the workspace leaves some psychological cells unfilled"
    assert after.pop("unfilled_cells") == sorted(unfilled, key=lambda c: place[c["sonnet_id"]])
    _close(before, after, "corpus_stats.json")

    for report in TOLERANT:
        if report != "corpus_stats":
            _close(
                json.loads(original[report + ".json"]), json.loads(permuted[report + ".json"]),
                report + ".json",
            )
        csv_name = report + ".csv"
        _close(_text_rows(original[csv_name]), _text_rows(permuted[csv_name]), csv_name)

    # the same decisions, in the order the reports make them
    assert permuted["decisions.log"].splitlines() == original["decisions.log"].splitlines()


@pytest.mark.parametrize("scale, shift", [(2.5, -3.0), (1 / 3, 100.0), (1000.0, -0.5)])
def test_rescaling_a_source_with_its_scale_keeps_every_report(
    workspace, original, tmp_path, scale, shift
):
    root = _copy(workspace, tmp_path / "affine")
    header, *rows = _read_rows(root / "lex_a.csv")
    column = {name: j for j, name in enumerate(header)}
    for row in rows:
        for name in ("mean", "scale_min", "scale_max"):
            row[column[name]] = repr(scale * float(row[column[name]]) + shift)
        if row[column["sd"]]:
            row[column["sd"]] = repr(scale * float(row[column["sd"]]))
    _write_rows(root / "lex_a.csv", [header, *rows])
    rescaled = _run(root)
    assert list(rescaled) == list(original)

    before, after = (Session(r / "config.json").merged for r in (workspace, root))
    assert after.rows == before.rows
    for name in ("mean", "sd"):
        np.testing.assert_allclose(
            getattr(after, name), getattr(before, name), rtol=AFFINE_REL_TOL, atol=0, err_msg=name
        )

    # the JSON mirrors hold each value at full precision, the CSVs ten digits of it
    for report in ("features", "anova"):
        _close(*(json.loads(data[report + ".json"]) for data in (original, rescaled)),
               report + ".json", AFFINE_REL_TOL)
    # the least well conditioned regressions move by 1e-11 (relative) on this workspace
    _close(*(json.loads(data["partial_dependence.json"]) for data in (original, rescaled)),
           "partial_dependence.json")
    # ranks, counts and annotations only
    for report in EXACT + ("corpus_stats",):
        for suffix in (".csv", ".json"):
            assert rescaled[report + suffix] == original[report + suffix], report + suffix
    assert rescaled["decisions.log"] == original["decisions.log"]


@pytest.mark.parametrize("order", [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
def test_permuting_annotator_files_relabels_the_agreement_cells(
    workspace, original, tmp_path, order
):
    root = _copy(workspace, tmp_path / "annotators")
    config = json.loads((root / "config.json").read_text(encoding="utf-8"))
    # the file of id i + 1 moves to place order.index(i), and takes that id
    new_id = {i + 1: order.index(i) + 1 for i in range(3)}
    config["annotations"] = [config["annotations"][i] for i in order]
    config["reversed_valence_annotators"] = [
        new_id[rid] for rid in config["reversed_valence_annotators"]
    ]
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    permuted = _run(root)
    assert list(permuted) == list(original)

    def relabel(label: str) -> str:
        if label == "all":
            return label
        first, second = label.split("-")
        ids = [new_id[int(first[1:])], second if second == "m" else new_id[int(second[1:])]]
        return "a{}-{}".format(*ids) if second == "m" else "a{}-a{}".format(*sorted(ids))

    before, after = (json.loads(data["agreement.json"]) for data in (original, permuted))
    assert sorted(after["columns"]) == sorted(map(relabel, before["columns"]))
    assert len(after["rows"]) == len(before["rows"])
    for old, new in zip(before["rows"], after["rows"]):
        assert (new["feature"], new["level"]) == (old["feature"], old["level"])
        assert {relabel(label): cell for label, cell in old["cells"].items()} == new["cells"]
        assert sorted(map(relabel, old["below_threshold"])) == sorted(new["below_threshold"])
    old_csv, new_csv = (
        list(csv.DictReader(data["agreement.csv"].decode("utf-8").splitlines()))
        for data in (original, permuted)
    )
    for old, new in zip(old_csv, new_csv, strict=True):
        for label in before["columns"]:
            assert new[relabel(label)] == old[label], (old["feature"], label)

    medians = [Session(r / "config.json").median for r in (workspace, root)]
    assert medians[0].values.tobytes() == medians[1].values.tobytes()
    for name, data in original.items():
        if not name.startswith(("agreement.", "decisions.")):
            assert permuted[name] == data, name
    expected = re.sub(
        r"(reversed valence scale for annotator )(\d+)",
        lambda match: f"{match[1]}{new_id[int(match[2])]}",
        original["decisions.log"].decode("utf-8"),
    )
    assert permuted["decisions.log"].decode("utf-8") == expected


# Lexicon rows: the group a row averages with, by its cells
LEXICON_GROUPS = {"lex_a.csv": lambda row: (row[0], row[1]), "lex_b.tsv": lambda row: row[0]}


def _lexicon_rows(root: Path, name: str) -> list[list[str]]:
    with (root / name).open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh, delimiter="\t" if name.endswith(".tsv") else ","))


def _write_lexicon(root: Path, name: str, rows: list[list[str]]) -> None:
    with (root / name).open("w", encoding="utf-8", newline="") as fh:
        delimiter = "\t" if name.endswith(".tsv") else ","
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def duplicated(workspace, tmp_path_factory):
    """A copy of the workspace whose lexicons repeat some rows two or three times, and its run.

    A repeat gets a mean moved off the first row's, toward 4 (on every scale of the
    workspace), and lands anywhere after it in the file.
    """
    rng = np.random.default_rng(7)
    root = _copy(workspace, tmp_path_factory.mktemp("metamorphic") / "duplicated")
    for name in LEXICON_GROUPS:
        header, *rows = _lexicon_rows(root, name)
        means = [j for j, column in enumerate(header) if column in ("mean", "Val_Mn", "Aro_Mn")]
        for i in rng.choice(len(rows), size=12, replace=False).tolist():
            for _ in range(int(rng.integers(1, 3))):
                repeat = list(rows[i])
                for j in means:
                    repeat[j] = f"{float(repeat[j]) + (4 - float(repeat[j])) * rng.random():.4f}"
                rows.insert(int(rng.integers(i + 1, len(rows) + 1)), repeat)
        _write_lexicon(root, name, [header, *rows])
    return root, _run(root)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuting_lexicon_rows_changes_no_byte(duplicated, tmp_path, seed):
    rng = np.random.default_rng(seed)
    base, before = duplicated
    root = _copy(base, tmp_path / "lexicon_rows")
    for name, group_of in LEXICON_GROUPS.items():
        header, *rows = _lexicon_rows(root, name)
        groups = [group_of(row) for row in rows]
        assert len(set(groups)) < len(groups), f"{name} repeats no row"
        order = rng.permutation(len(rows)).tolist()
        # the places the shuffle gives each group, filled with its rows in file order
        places: dict = {}
        for place, i in enumerate(order):
            places.setdefault(groups[i], []).append(place)
        shuffled = [None] * len(rows)
        for i, row in enumerate(rows):
            shuffled[places[groups[i]].pop(0)] = row
        assert shuffled != rows
        _write_lexicon(root, name, [header, *shuffled])
    after = _run(root)
    assert list(after) == list(before)
    for name, data in before.items():
        assert after[name] == data, name
    merged = [Session(r / "config.json").merged for r in (base, root)]
    assert list(merged[0].rows.items()) == list(merged[1].rows.items())
    for field in ("mean", "sd"):
        assert getattr(merged[0], field).tobytes() == getattr(merged[1], field).tobytes(), field


WHITESPACE_RUNS = ("  ", "\t", " \t", "\t ", "   ", "\t\t", " \t  ")


@pytest.mark.parametrize("seed", [1, 2])
def test_runs_of_spaces_and_tabs_between_words_change_no_byte(workspace, original, tmp_path, seed):
    rng = np.random.default_rng(seed)
    root = _copy(workspace, tmp_path / "whitespace")
    widened = 0
    for path in sorted((root / "texts").iterdir()):
        text = path.read_text(encoding="utf-8")
        runs = rng.choice(WHITESPACE_RUNS, size=text.count(" ")).tolist()
        parts = text.split(" ")
        widened_text = parts[0] + "".join(run + part for run, part in zip(runs, parts[1:]))
        path.write_text(widened_text, encoding="utf-8")
        widened += len(runs)
    assert widened
    after = _run(root)
    assert list(after) == list(original)
    for name, data in original.items():
        assert after[name] == data, name
    for mode in ("raw", "stem"):
        tables = [Session(r / "config.json").keys(mode) for r in (workspace, root)]
        assert tables[0].sonnet_ids == tables[1].sonnet_ids, mode
        assert tables[0].words == tables[1].words, mode
        for field in ("codes", "lengths"):
            assert getattr(tables[0], field).tobytes() == getattr(tables[1], field).tobytes()
