"""The report writer against the one-shot reference, and its working set.

``ReportWriter.emit`` derives a report's CSV and JSON layout from its
row type and writes each row to both files as it arrives.
``oracles.report_table`` (the header, cells and JSON rows of a whole list
of rows), ``oracles.report_mirror``, ``oracles.report_json`` (the whole
mirror made JSON-safe, then one indented ``json.dumps``) and
``oracles.csv_cell`` are how every report was written before: the
writer must give their bytes exactly.
"""

import csv
import enum
import io
import json
import math
import tracemalloc
from typing import Any, NamedTuple

import numpy as np
import pytest

import oracles
from versemood import pipeline
from versemood.pipeline import REPORTS, ReportWriter, Session

from conftest import build_workspace


def written(tmp_path, row_type, rows, wrapper=None, fmt="both"):
    """The bytes of the CSV and JSON files that ``emit`` writes."""
    writer = ReportWriter(tmp_path, fmt)
    writer.emit("report", row_type, rows, wrapper)
    writer.commit()
    return {path.suffix: path.read_bytes() for path in writer.written}


def reference_csv(header, rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([oracles.csv_cell(cell) for cell in row])
    return text.getvalue().encode("utf-8")


@pytest.mark.parametrize("n_sonnets", (12, 40, 120))
def test_every_report_is_the_reference_bytes(n_sonnets, tmp_path):
    workspace = build_workspace(tmp_path / "workspace", n_sonnets=n_sonnets)
    session = Session(workspace / "config.json")
    for name, report in REPORTS.items():
        rows, wrapper = report.build(session)
        rows = list(rows)
        files = written(tmp_path / name, report.row_type, rows, wrapper)
        header, cells, mirror = oracles.report_table(report.row_type, rows)
        mirror = oracles.report_mirror(mirror, wrapper)
        assert files[".json"] == oracles.report_json(mirror).encode("utf-8"), name
        assert files[".csv"] == reference_csv(header, cells), name


class Level(enum.IntEnum):
    LOW = 1


class Case(NamedTuple):
    x: Any
    y: Any
    z: Any


class Value(NamedTuple):
    value: Any


LEAVES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5, 1e300, 5e-324, 0.1 + 0.2,
    np.float64(0.1), np.float64(math.nan), np.float64(-math.inf),
    None, True, False, 0, -7, 2**70, Level.LOW,
    "", "amor", "corazón", "€𝄞", "\x00\x1f\x7f", 'say "no"\\', "\n\t\r", "  ",
    (), [], {},
)
KEYS = ("a", "ñandú", "\x01", "", 'q"', "2", 3, 1.5, True, None)


def random_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return LEAVES[rng.integers(len(LEAVES))]
    items = [random_value(rng, depth - 1) for _ in range(rng.integers(4))]
    if roll < 0.6:
        return items
    if roll < 0.75:
        return tuple(items)
    return {KEYS[rng.integers(len(KEYS))]: item for item in items}


def nesting(value):
    """Levels of containers in ``value``: 0 for a leaf."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(nesting, value), default=0)
    return 0


def test_random_mirrors_are_the_reference_bytes(tmp_path):
    rng = np.random.default_rng(19)
    depths = []
    for case in range(300):
        mirror = [random_value(rng, 4) for _ in range(rng.integers(1, 5))]
        rows = [Case(*(random_value(rng, 0) for _ in range(3))) for _ in range(2)]
        # the nested values as a wrapper's, and as the fields of rows
        files = written(tmp_path / str(case), Case, rows, {"mirror": mirror, "rows": ...})
        header, cells, listed = oracles.report_table(Case, rows)
        reference = oracles.report_json({"mirror": mirror, "rows": listed})
        assert files[".json"] == reference.encode("utf-8"), mirror
        assert files[".csv"] == reference_csv(header, cells), rows
        files = written(tmp_path / f"{case}-rows", Value, map(Value, mirror), fmt="json")
        reference = oracles.report_json([{"value": value} for value in mirror])
        assert files[".json"] == reference.encode("utf-8"), mirror
        depths.append(nesting(mirror))
    assert depths.count(5) > 10  # containers four levels below the top list
    for leaf in LEAVES:
        for mirror in (leaf, [leaf], {"k": (leaf, [leaf])}):
            files = written(tmp_path / "leaf", Value, [Value(mirror)], fmt="json")
            reference = oracles.report_json([{"value": mirror}])
            assert files[".json"] == reference.encode("utf-8"), mirror
            files = written(tmp_path / "leaf", Value, [], {"value": mirror}, "json")
            assert files[".json"] == oracles.report_json({"value": mirror}).encode("utf-8"), mirror


@pytest.mark.parametrize("value", [object(), np.int64(3), {1, 2}], ids=["object", "int64", "set"])
def test_a_value_json_cannot_hold_is_a_type_error(value, tmp_path):
    with pytest.raises(TypeError):
        oracles.report_json([value])
    with pytest.raises(TypeError, match="not JSON serializable"):
        written(tmp_path, Value, [], {"rows": [value]}, "json")


def test_writing_the_feature_report_holds_less_than_its_json(tmp_path):
    workspace = build_workspace(tmp_path / "workspace", n_sonnets=120)
    report = REPORTS["features"]
    rows, wrapper = report.build(Session(workspace / "config.json"))
    writer = ReportWriter(tmp_path / "out", "json")
    tracemalloc.start()
    try:
        writer.emit("features", report.row_type, rows, wrapper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.commit()
    # a writer that built the text whole would hold several times its size
    assert peak < (tmp_path / "out" / "features.json").stat().st_size


def test_building_and_writing_the_feature_report_holds_under_half_its_json(tmp_path):
    # Each sonnet's row is built as it is written, so the report's working
    # set is a row, not the report: about a fifth of the JSON at 120 sonnets.
    workspace = build_workspace(tmp_path / "workspace", n_sonnets=120)
    session = Session(workspace / "config.json", ["features"])
    session.matrix  # the session's, computed before the report is built
    report = REPORTS["features"]
    writer = ReportWriter(tmp_path / "out", "json")
    tracemalloc.start()
    try:
        rows, wrapper = report.build(session)
        writer.emit("features", report.row_type, rows, wrapper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    writer.commit()
    assert peak < 0.5 * (tmp_path / "out" / "features.json").stat().st_size


def test_every_report_has_unique_columns_and_its_row_type_keys(workspace, tmp_path):
    # A report's CSV header and JSON rows both come from its row type.
    Session(workspace / "config.json").write(ReportWriter(tmp_path, "both"))
    for name, report in REPORTS.items():
        with (tmp_path / f"{name}.csv").open(encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle))
        assert len(set(header)) == len(header), (name, header)
        text = (tmp_path / f"{name}.json").read_text(encoding="utf-8")
        document = json.loads(text, object_pairs_hook=tuple)  # an object's pairs, repeats kept
        rows = document if isinstance(document, list) else dict(document).get("rows", [])
        for row in rows:
            assert [key for key, _ in row] == list(report.row_type._fields), name


def test_cells_are_formatted_by_exact_type_then_by_base():
    # bool before int, np.float64 as a float, anything else by str
    for value in (True, False, None, 2, Level.LOW, 1.0 / 3, np.float64(1.0 / 3), np.int64(4),
                  np.bool_(True), "x", math.nan):
        assert pipeline._CSV_CELL[type(value)](value) == oracles.csv_cell(value), value
