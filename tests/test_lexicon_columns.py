"""The column reader of the lexicon loaders against the csv reader it stands in for.

``lexicon._Columns`` reads a plain delimited file a block of lines at a
time with ``str.split`` and ``np.loadtxt``; any file it cannot read
exactly as the csv reader would goes to ``lexicon._Table``.  Each mutated
file below is loaded both ways, the second with the column reader switched
off, and must give the same source (entries, scales, mean and sd bytes,
log lines) or the same error.  The block size is patched down to a few
dozen characters too, so that damage lands in later blocks.
"""

import csv
import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import build_workspace
from versemood import lexicon
from versemood.lexicon import load_lexicon
from versemood.textnorm import recording

DESCRIPTOR = "lex_b_descriptor.json"
LEXICONS = (("lex_a.csv", None), ("lex_b.tsv", DESCRIPTOR))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The conftest workspace's canonical and described lexicons."""
    return build_workspace(tmp_path_factory.mktemp("lexicons"), n_sonnets=2)


def _cell(rng, rows, first=1):
    """A random (row, column) of ``rows`` at or below row ``first``."""
    i = int(rng.integers(first, len(rows)))
    return i, int(rng.integers(len(rows[i])))


def _numeric_cell(rng, rows):
    """A random row and one of its number columns (every column but the word's)."""
    i = int(rng.integers(1, len(rows)))
    numeric = [j for j, name in enumerate(rows[0]) if name not in ("word", "Word", "dimension")]
    return i, numeric[int(rng.integers(len(numeric)))]


def _set(value):
    def mutate(rng, rows, d):
        i, j = _numeric_cell(rng, rows)
        rows[i][j] = value
    return mutate


def _quote(rng, rows, d):
    i, j = _cell(rng, rows, 0)
    cell = rows[i][j]
    # a quoted cell the csv reader unquotes, or a stray quote inside one
    rows[i][j] = f'"{cell}"' if rng.random() < 0.5 else cell[:1] + '"' + cell[1:]


def _insert_line(line):
    def mutate(rng, rows, d):
        rows.insert(int(rng.integers(1, len(rows) + 1)), [line])
    return mutate


def _extra_cell(rng, rows, d):
    rows[int(rng.integers(1, len(rows)))].append("3")


def _missing_cell(rng, rows, d):
    i, j = _cell(rng, rows)
    del rows[i][j]


def _blank(*columns):
    """Blank (empty or one space) one cell of the first of ``columns`` the header has."""
    def mutate(rng, rows, d):
        j = next((rows[0].index(c) for c in columns if c in rows[0]), None)
        if j is not None:
            rows[int(rng.integers(1, len(rows)))][j] = " " * int(rng.integers(2))
    return mutate


def _nul(rng, rows, d):
    i, j = _cell(rng, rows)
    rows[i][j] += "\x00"


def _in_word(char):
    def mutate(rng, rows, d):
        i = int(rng.integers(1, len(rows)))
        rows[i][0] = rows[i][0][:2] + char + rows[i][0][2:]
    return mutate


def _long_field(rng, rows, d):
    i, j = _cell(rng, rows)
    rows[i][j] = "x" * (csv.field_size_limit() + 1)


def _long_header_name(rng, rows, d):
    # an extra column no loader reads, under a name past the csv limit
    rows[0].append("x" * (csv.field_size_limit() + 1))
    for row in rows[1:]:
        row.append(str(int(rng.integers(10))))


def _repeated_header(rng, rows, d):
    # a last column under the name of a number column, which both readers then take
    i, j = _numeric_cell(rng, rows)
    rows[0].append(rows[0][j])
    for row in rows[1:]:
        row.append(row[j][:-1] + "1" if rng.random() < 0.5 else row[j])


def _duplicate_row(rng, rows, d):
    # a word (and dimension) given twice: the load averages the two and records it
    rows.insert(int(rng.integers(1, len(rows) + 1)), list(rows[int(rng.integers(1, len(rows)))]))


def _header_only(rng, rows, d):
    del rows[1:]


def _empty(rng, rows, d):
    rows.clear()


def _long_row(rng, rows, d):
    # a row longer than a block (when blocks are a few dozen characters)
    i = int(rng.integers(1, len(rows)))
    rows[i][0] += "x" * 100


def _bad_last_row(rng, rows, d):
    _, j = _numeric_cell(rng, rows)
    rows[-1][j] = ["x", "", "-1", "1e309"][int(rng.integers(4))]


# Mutations of the rows; None marks a whole-text one, applied in ``write``.
MUTATIONS = {
    "clean": lambda rng, rows, d: None,
    "quote": _quote,
    "crlf": None,
    "lone cr": None,
    "cr inside a word": _in_word("\r"),
    "blank line": _insert_line(""),
    "whitespace-only line": _insert_line(" \t"),
    "extra cell": _extra_cell,
    "missing cell": _missing_cell,
    "blank sd": _blank("sd", "Aro_SD"),
    "blank described mean": _blank("Val_Mn"),
    "1_0": _set("1_0"),
    "arabic-indic digit": _set("١"),
    "nan": _set("nan"),
    "inf": _set("inf"),
    "1e309": _set("1e309"),
    "nul": _nul,
    "# inside a word": _in_word("#"),
    "field past the csv limit": _long_field,
    "header name past the csv limit": _long_header_name,
    "repeated header name": _repeated_header,
    "header only": _header_only,
    "empty file": _empty,
    "duplicate row": _duplicate_row,
}

# Mutations aimed at the block boundaries of the column reader.
BLOCK_MUTATIONS = {
    "blank line at a block boundary": None,
    "no final newline": None,
    "row longer than a block": _long_row,
    "bad row in the last block": _bad_last_row,
}


def block_ends(text):
    """The line ends at which ``_Columns`` ends the blocks of ``text``."""
    ends, end = [], text.find("\n")
    while 0 <= end < len(text) - 1:
        end = text.find("\n", end + 1 + lexicon._BLOCK)
        ends.append(end)
    return [end for end in ends if end >= 0]


def write(rng, path, rows, d, kind):
    text = "".join(d.join(row) + "\n" for row in rows)
    if kind == "crlf":
        text = text.replace("\n", "\r\n")
    elif kind == "lone cr":
        ends = [i for i, c in enumerate(text) if c == "\n"]
        at = ends[int(rng.integers(len(ends)))]
        text = text[:at] + "\r" + text[at + 1 :]
    elif kind == "blank line at a block boundary":
        ends = block_ends(text)
        at = ends[int(rng.integers(len(ends)))] + int(rng.integers(2))  # the line end, or after it
        text = text[:at] + "\n" + text[at:]
    elif kind == "no final newline":
        text = text.rstrip("\n")
    path.write_text(text, encoding="utf-8")


def outcome(path, descriptor):
    """The loaded source as bytes and decision texts, or the error text."""
    try:
        with recording() as decisions:
            source = load_lexicon(path, descriptor)
    except lexicon.LexiconFormatError as exc:
        return "error", str(exc)
    logged = [d.text for d in decisions if d.module == "versemood.lexicon"]
    return (
        source.source_id, source.scales, source.entries,
        source.mean.tobytes(), source.sd.tobytes(), logged,
    )


def differential(clean, tmp_path, monkeypatch, rng, mutations):
    """Load each mutated lexicon both ways; return the (reader, outcome) pairs reached
    and the mutation kinds whose files the column reader read."""
    tables = []
    real_table = lexicon._Table.__init__

    def counted(self, *args):
        tables.append(args)
        real_table(self, *args)

    monkeypatch.setattr(lexicon._Table, "__init__", counted)

    def referee(*args):
        raise ValueError("column reader switched off")

    reached, plain = set(), set()
    for name, descriptor in LEXICONS:
        d = json.loads((clean / DESCRIPTOR).read_text())["delimiter"] if descriptor else ","
        if descriptor:
            descriptor = clean / descriptor
        lines = (clean / name).read_text(encoding="utf-8").splitlines()
        for kind, mutate in mutations.items():
            for case in range(4 if kind != "clean" else 1):
                rows = [line.split(d) for line in lines]
                if mutate:
                    mutate(rng, rows, d)
                path = tmp_path / f"{kind}-{case}-{name}"
                write(rng, path, rows, d, kind)
                tables.clear()
                columns = outcome(path, descriptor)
                if kind == "duplicate row":
                    assert columns[-1], "the averaged duplicates are recorded"
                read_by = "csv reader" if tables else "column reader"
                with monkeypatch.context() as patch:
                    patch.setattr(lexicon, "_Columns", referee)
                    assert columns == outcome(path, descriptor), (name, kind, case)
                result = "error" if columns[0] == "error" else "source"
                reached.add((read_by, result))
                if read_by == "column reader":
                    plain.add(kind)
    return reached, plain


def test_column_reader_equals_the_csv_reader(clean, tmp_path, monkeypatch):
    rng = np.random.default_rng(160)
    reached, plain = differential(clean, tmp_path, monkeypatch, rng, MUTATIONS)
    assert reached == {
        ("column reader", "source"),
        ("csv reader", "source"),
        ("csv reader", "error"),
    }
    # a file that stays plain is read column-wise
    assert plain >= {"clean", "blank line", "# inside a word", "repeated header name"}


def test_column_reader_equals_the_csv_reader_across_blocks(clean, tmp_path, monkeypatch):
    # blocks of a line or two: every mutation lands past the first block
    monkeypatch.setattr(lexicon, "_BLOCK", 40)
    assert len(block_ends((clean / "lex_a.csv").read_text(encoding="utf-8"))) > 100
    rng = np.random.default_rng(162)
    mutations = {**MUTATIONS, **BLOCK_MUTATIONS}
    reached, plain = differential(clean, tmp_path, monkeypatch, rng, mutations)
    assert reached == {
        ("column reader", "source"),
        ("csv reader", "source"),
        ("csv reader", "error"),
    }
    assert plain >= {
        "clean", "blank line", "# inside a word", "repeated header name",
        "blank line at a block boundary", "no final newline", "row longer than a block",
    }


def plain_lexicon(path, n_rows, rng):
    """A quote-free canonical lexicon of ``n_rows`` rows, as published norms are laid out."""
    dims = list(lexicon.CANONICAL_SCALES.items())
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("word,dimension,mean,sd,scale_min,scale_max\n")
        for i in range(n_rows):
            dim, (lo, hi) = dims[i % len(dims)]
            mean, sd = rng.uniform(lo, hi), rng.uniform(0.1, 1.5)
            fh.write(f"palabra{i // len(dims)},{dim},{mean:.4f},{sd:.4f},{lo:g},{hi:g}\n")


def test_plain_files_never_reach_the_csv_reader(clean, tmp_path, monkeypatch):
    """The column reader takes the conftest lexicons and a generated 2,000-row one."""
    plain_lexicon(tmp_path / "plain.csv", 2000, np.random.default_rng(161))

    def refuse(self, *args):
        raise AssertionError("a plain file went to the csv reader")

    monkeypatch.setattr(lexicon._Table, "__init__", refuse)
    assert len(load_lexicon(clean / "lex_a.csv")) == 34
    assert len(load_lexicon(clean / "lex_b.tsv", clean / DESCRIPTOR)) == 30
    assert len(load_lexicon(tmp_path / "plain.csv")) == 200


def test_a_plain_load_holds_a_small_multiple_of_the_file(tmp_path):
    """A 20,000-row plain lexicon loads under 5x its size in traced memory.

    The column reader keeps a block of lines at a time, not the file's rows,
    and the load computes no mean or sd planes (3.8x here; the whole-file
    reader that computed the planes took 7.0x).
    """
    rng = np.random.default_rng(163)
    plain_lexicon(tmp_path / "warm.csv", 20, rng)
    load_lexicon(tmp_path / "warm.csv")  # what a first load sets up once
    path = tmp_path / "plain.csv"
    plain_lexicon(path, 20_000, rng)
    tracemalloc.start()
    try:
        source = load_lexicon(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(source) == 2000
    assert peak < 5 * os.path.getsize(path), (peak, os.path.getsize(path))
