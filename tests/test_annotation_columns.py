"""The column reader of ``load_annotation_set`` against the csv reader it stands in for.

``corpus._plain_values`` parses a plain annotation file (ASCII, no quote,
no CR, the feature names as header, every cell spelled canonically, every
row as wide as the header) as columns; any other file goes to
``corpus._csv_values``.  Each mutated file below is loaded both ways, the
second with the column reader switched off, and must give the same set
(sonnet ids and value bytes) or the same error.
"""

import csv

import numpy as np
import pytest

from conftest import build_workspace
from versemood import corpus
from versemood.corpus import AnnotationFormatError, load_annotation_set

FILES = ("annotator1.csv", "annotator2.csv", "annotator3.csv")
N_SONNETS = 12
IDS = [f"s{i:03d}" for i in range(1, N_SONNETS + 1)]


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The conftest workspace's three annotation files."""
    return build_workspace(tmp_path_factory.mktemp("annotations"), n_sonnets=N_SONNETS)


def _cell(rng, rows):
    """A random (row, column) of a data row."""
    i = int(rng.integers(1, len(rows)))
    return i, int(rng.integers(len(rows[i])))


def _set(value):
    def mutate(rng, rows):
        i, j = _cell(rng, rows)
        rows[i][j] = value
    return mutate


def _quote(rng, rows):
    i, j = _cell(rng, rows) if rng.random() < 0.5 else (0, int(rng.integers(len(rows[0]))))
    cell = rows[i][j]
    # a quoted cell the csv reader unquotes, or a stray quote inside one
    rows[i][j] = f'"{cell}"' if rng.random() < 0.5 else cell[:1] + '"' + cell[1:]


def _insert_line(line):
    def mutate(rng, rows):
        rows.insert(int(rng.integers(1, len(rows) + 1)), line.split(","))
    return mutate


def _bom_inside(rng, rows):
    i, j = _cell(rng, rows)
    rows[i][j] = "\ufeff" + rows[i][j]


def _nul(rng, rows):
    i, j = _cell(rng, rows)
    rows[i][j] += "\x00"


def _extra_cell(rng, rows):
    rows[int(rng.integers(1, len(rows)))].append("1")


def _missing_cell(rng, rows):
    i, j = _cell(rng, rows)
    del rows[i][j]


def _reordered_header(rng, rows):
    order = rng.permutation(len(rows[0]))
    rows[:] = [[row[j] for j in order] for row in rows]


def _padded_header(rng, rows):
    j = int(rng.integers(len(rows[0])))
    rows[0][j] = " " + rows[0][j] if rng.random() < 0.5 else rows[0][j] + " "


def _duplicated_header(rng, rows):
    j, k = rng.choice(len(rows[0]), 2, replace=False)
    rows[0][j] = rows[0][k]


def _long_field(rng, rows):
    i, j = _cell(rng, rows)
    rows[i][j] = "1" * (csv.field_size_limit() + 1)


def _header_only(rng, rows):
    del rows[1:]


def _empty(rng, rows):
    rows.clear()


# Mutations of the rows; None marks a whole-text one, applied in ``write``.
MUTATIONS = {
    "clean": lambda rng, rows: None,
    "quote": _quote,
    "crlf": None,
    "lone cr": None,
    "bom": None,
    "bom inside a cell": _bom_inside,
    "blank line": _insert_line(""),
    "whitespace-only line": _insert_line(" \t"),
    "line of blank cells": _insert_line("," * 30),
    "space before a digit": _set(" 1"),
    "leading zero": _set("01"),
    "1.0": _set("1.0"),
    "arabic-indic digit": _set("١"),
    "nul": _nul,
    "extra cell": _extra_cell,
    "missing cell": _missing_cell,
    "no final newline": None,
    "reordered header": _reordered_header,
    "space-padded header": _padded_header,
    "duplicated header name": _duplicated_header,
    "field past the csv limit": _long_field,
    "header only": _header_only,
    "empty file": _empty,
}


def write(rng, path, rows, kind):
    text = "".join(",".join(row) + "\n" for row in rows)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "lone cr":
        ends = [i for i, c in enumerate(text) if c == "\n"]
        at = ends[int(rng.integers(len(ends)))]
        text = text[:at] + "\r" + text[at + 1 :]
    elif kind == "bom":
        text = "\ufeff" + text
    elif kind == "no final newline":
        text = text[:-1]
    path.write_text(text, encoding="utf-8")


def outcome(path, sonnet_ids):
    """The loaded set as ids and value bytes, or the error text."""
    try:
        loaded = load_annotation_set(path, annotator_id=1, sonnet_ids=sonnet_ids)
    except AnnotationFormatError as exc:
        return "error", str(exc)
    return loaded.sonnet_ids, loaded.values.shape, loaded.values.tobytes()


def test_column_reader_equals_the_csv_reader(clean, tmp_path, monkeypatch):
    rng = np.random.default_rng(170)
    read_by_csv = []
    real_csv_values = corpus._csv_values

    def counted(*args):
        read_by_csv.append(args)
        return real_csv_values(*args)

    monkeypatch.setattr(corpus, "_csv_values", counted)
    reached, plain = set(), set()
    for name in FILES:
        lines = (clean / name).read_text(encoding="utf-8").splitlines()
        for kind, mutate in MUTATIONS.items():
            for case in range(4 if kind != "clean" else 2):
                rows = [line.split(",") for line in lines]
                if mutate:
                    mutate(rng, rows)
                path = tmp_path / f"{kind}-{case}-{name}"
                write(rng, path, rows, kind)
                sonnet_ids = IDS if case % 2 == 0 else None
                read_by_csv.clear()
                columns = outcome(path, sonnet_ids)
                read_by = "csv reader" if read_by_csv else "column reader"
                with monkeypatch.context() as patch:
                    patch.setattr(corpus, "_plain_values", lambda *args: None)
                    assert columns == outcome(path, sonnet_ids), (name, kind, case)
                reached.add((read_by, "error" if columns[0] == "error" else "set"))
                if read_by == "column reader":
                    plain.add(kind)
    assert reached == {("column reader", "set"), ("csv reader", "set"), ("csv reader", "error")}
    # a file that stays plain is read column-wise
    assert plain == {"clean", "bom", "no final newline", "reordered header"}


def test_plain_files_never_reach_the_csv_reader(clean, monkeypatch):
    """The column reader takes the conftest files, with and without metadata ids."""

    def refuse(*args):
        raise AssertionError("a plain file went to the csv reader")

    monkeypatch.setattr(corpus, "_csv_values", refuse)
    for name in FILES:
        assert load_annotation_set(clean / name, 1, IDS).sonnet_ids == tuple(IDS)
        assert len(load_annotation_set(clean / name, 2).sonnet_ids) == N_SONNETS
