"""Input fuzz: one random mutation of one input file, then one command through ``main``.

The config fuzz mutates the 12-sonnet workspace's ``config.json`` once
per run: it truncates the file, deletes a span, inserts a quote, NUL,
BOM, tab, CR, ``1e309`` or a stray byte, replaces a value with one of
another type, or puts a NUL into a string value.  It then runs
``agree``, ``stats``, ``validate --strict`` or ``all`` in-process, half
of the runs without ``--out`` (so the config's ``out_dir`` is used,
against a fresh working directory).

The data-file fuzz mutates one data file of the same workspace once per
run: the metadata, an annotation file, a lexicon, the lexicon
descriptor or one sonnet text.  It truncates the file, deletes a span,
inserts a quote, NUL, BOM, tab, CR, ``nan``, ``1e309``, ``1e308``,
``-8e307``, ``1_0`` or a stray byte, duplicates a line, swaps a
delimiter, replaces a field (in the descriptor, a value: with null, a
number or another type) or puts a NUL into one.  Half of the lexicon
runs read lexicons in blocks of 40 characters, so damage lands in a
later block.  It then runs ``all --missing-words``, ``agree``,
``coverage --mode raw``, ``validate --strict`` or ``features``.

The oracle:

- the exit code is 0, 1 or 2, and no exception escapes ``main``;
- stderr holds no ``Traceback``;
- on exit 1, the message names the config or a file the config names;
  for a data file, the mutated file or a file it must agree with;
- on exit 0, a rerun writes the same files, byte for byte, and no
  ``features.csv`` holds an infinite value.

The runs are fixed by ``SEED`` and ``RUNS``, and ``DATA_SEED`` and ``DATA_RUNS``.
"""

import json
import re
from pathlib import Path

import numpy as np

from versemood import lexicon
from versemood.cli import main

from conftest import build_workspace

SEED = 32
RUNS = 300
COMMANDS = (("agree",), ("stats",), ("validate", "--strict"), ("all",))
INSERTS = ('"', "\0", "\ufeff", "\t", "\r", "1e309")
WRONG_TYPES = (True, 0, -1, 2.5, 1e309, "", "x", [], [1], {}, {"a": 1})


def _slots(value, at=()):
    """The path of every value inside ``value``, a parsed JSON document, itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield at + (key,)
        if isinstance(item, (dict, list)):
            yield from _slots(item, at + (key,))


def _at(doc, path):
    """The value at ``path`` inside ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """``doc`` with the value at ``path`` replaced, as JSON text."""
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc, indent=2)


def _mutate(rng, text: str) -> tuple[str, bytes]:
    """One mutation of the config ``text``: what it did, and the bytes to write."""
    data = text.encode("utf-8")
    kind = int(rng.integers(5))
    if kind == 0:
        at = int(rng.integers(len(data)))
        return f"truncate at {at}", data[:at]
    if kind == 1:
        start = int(rng.integers(len(data)))
        end = start + int(rng.integers(1, 12))
        return f"delete {data[start:end]!r}", data[:start] + data[end:]
    if kind == 2:
        at = int(rng.integers(len(data) + 1))
        choice = int(rng.integers(len(INSERTS) + 1))
        piece = INSERTS[choice].encode() if choice < len(INSERTS) else bytes([rng.integers(256)])
        return f"insert {piece!r} at {at}", data[:at] + piece + data[at:]
    doc = json.loads(text)
    if kind == 3:
        slots = list(_slots(doc))
        path = slots[int(rng.integers(len(slots)))]
        value = WRONG_TYPES[int(rng.integers(len(WRONG_TYPES)))]
        return f"set {path} to {value!r}", _replaced(doc, path, value).encode()
    strings = [path for path in _slots(doc) if isinstance(_at(doc, path), str)]
    path = strings[int(rng.integers(len(strings)))]
    old = _at(doc, path)
    cut = int(rng.integers(len(old) + 1))
    return f"NUL into {path}", _replaced(doc, path, old[:cut] + "\0" + old[cut:]).encode()


def _written(out: str) -> dict[str, bytes]:
    """The files a run says it wrote, with their bytes."""
    paths = [line[len("wrote "):] for line in out.splitlines() if line.startswith("wrote ")]
    return {path: Path(path).read_bytes() for path in paths}


def _main(argv, case):
    try:
        return main(argv)
    except BaseException as exc:  # SystemExit too: main returns its exit code
        raise AssertionError(f"{case}: {type(exc).__name__} escaped main") from exc


def test_mutated_configs_exit_cleanly(tmp_path, capsys, monkeypatch):
    root = build_workspace(tmp_path / "ws", n_sonnets=12)
    config = root / "config.json"
    text = config.read_text(encoding="utf-8")
    original = json.loads(text)
    named = [config, root / original["metadata"], root / original["corpus_root"]]
    named += [root / path for path in original["annotations"]]
    named += [root / "lex_a.csv", root / "lex_b.tsv", root / "lex_b_descriptor.json"]
    rng = np.random.default_rng(SEED)
    kinds, codes, nul_out_dir = set(), set(), 0
    for run in range(RUNS):
        what, data = _mutate(rng, text)
        config.write_bytes(data)
        command = list(COMMANDS[int(rng.integers(len(COMMANDS)))])
        cwd = tmp_path / "cwd" / str(run)
        cwd.mkdir(parents=True)
        monkeypatch.chdir(cwd)
        argv = [*command, "--config", str(config)]
        if rng.random() < 0.5:
            argv += ["--out", str(tmp_path / "out" / str(run))]
        case = f"run {run}: {what}; versemood {' '.join(argv)}"

        code = _main(argv, case)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 1:
            assert any(str(path) in err for path in [*named, cwd]), f"{case}: {err}"
        if code == 0:
            first = _written(out)
            assert _main(argv, case) == 0, case
            rerun, _ = capsys.readouterr()
            assert _written(rerun) == first, case
        kinds.add(what.split()[0])
        codes.add(code)
        nul_out_dir += what == "NUL into ('out_dir',)" and "--out" not in argv
    assert kinds == {"truncate", "delete", "insert", "set", "NUL"}
    assert codes >= {0, 1}
    assert nul_out_dir, "no run put a NUL into out_dir and went without --out"


# ---------------------------------------------------------------------------
# data-file fuzz

DATA_SEED = 33
DATA_RUNS = 400
DATA_COMMANDS = (
    ("all", "--missing-words"), ("agree",), ("coverage", "--mode", "raw"),
    ("validate", "--strict"), ("features",),
)
# quote, NUL, BOM, tab, CR, then numbers near and past the float range and a Python-only literal
DATA_INSERTS = (*INSERTS[:5], "nan", "1e309", "1e308", "-8e307", "1_0")
FIELD_VALUES = ("", "\0", "nan", "inf", "1e309", "1e308", "-8e307", "1_0", "-1", "x")
DELIMITERS = (",", "\t", ";", " ")
# Each data file, its field separator (None: JSON), and the files an error about it may name:
# those it must agree with, or the texts directory its paths point into.
DATA_FILES = {
    "metadata.csv": (",", ("texts", "annotator1.csv", "annotator2.csv", "annotator3.csv")),
    "annotator1.csv": (",", ("metadata.csv",)),
    "annotator2.csv": (",", ("metadata.csv",)),
    "annotator3.csv": (",", ("metadata.csv",)),
    "lex_a.csv": (",", ("lex_b.tsv",)),
    "lex_b.tsv": ("\t", ("lex_b_descriptor.json", "lex_a.csv")),
    "lex_b_descriptor.json": (None, ("lex_b.tsv", "lex_a.csv")),
    "texts/s005.txt": (" ", ()),
}
# Mutations that once ended in a traceback, each to be met by some run that reads the file.
PAST_BUGS = {
    "NUL in a text's path": r"metadata\.csv: field 4 of line [1-9]\d* set to '.*\\x00.*'",
    "descriptor mean not a name":
        r"lex_b_descriptor\.json: set \('dimensions', '\w+', 'mean'\) to (None|[-\d.e+]+|inf)",
}


def _mutate_data(rng, text: str, sep: str | None) -> tuple[str, bytes]:
    """One mutation of a data file's ``text``, whose fields ``sep`` separates (None: JSON)."""
    kind, data = int(rng.integers(7)), text.encode("utf-8")
    at = int(rng.integers(len(data) + 1))
    if kind == 0:
        return f"truncate at {at}", data[:at]
    if kind == 1:
        end = at + int(rng.integers(1, 12))
        return f"delete {data[at:end]!r}", data[:at] + data[end:]
    if kind == 2:  # a piece or a stray byte
        pieces = [piece.encode() for piece in DATA_INSERTS] + [bytes([rng.integers(256)])]
        piece = pieces[int(rng.integers(len(pieces)))]
        return f"insert {piece!r} at {at}", data[:at] + piece + data[at:]
    lines = text.splitlines(keepends=True)
    row = int(rng.integers(len(lines)))
    if kind == 3:
        lines.insert(row, lines[row])
        return f"duplicate line {row}", "".join(lines).encode("utf-8")
    if kind == 4:
        at = [i for i, char in enumerate(text) if char in DELIMITERS]
        i, new = at[int(rng.integers(len(at)))], DELIMITERS[int(rng.integers(len(DELIMITERS)))]
        swapped = text[:i] + new + text[i + 1:]
        return f"swap {text[i]!r} at {i} for {new!r}", swapped.encode("utf-8")
    if sep is None:  # a JSON value set to null, a number or another type, or a NUL put into one
        doc = json.loads(text)
        if kind == 5:
            slots = list(_slots(doc))
            path = slots[int(rng.integers(len(slots)))]
            value = (None, *WRONG_TYPES, -8e307, 1e308)[int(rng.integers(len(WRONG_TYPES) + 3))]
            return f"set {path} to {value!r}", _replaced(doc, path, value).encode()
        strings = [path for path in _slots(doc) if isinstance(_at(doc, path), str)]
        path = strings[int(rng.integers(len(strings)))]
        old = _at(doc, path)
        cut = int(rng.integers(len(old) + 1))
        return f"NUL into {path}", _replaced(doc, path, old[:cut] + "\0" + old[cut:]).encode()
    # one field of one line replaced, a piece put into it, or a NUL
    line = lines[row].rstrip("\r\n")
    fields = line.split(sep)
    j = int(rng.integers(len(fields)))
    old = fields[j]
    cut = int(rng.integers(len(old) + 1))
    if kind == 6:
        fields[j] = old[:cut] + "\0" + old[cut:]
    elif rng.random() < 0.5:
        fields[j] = FIELD_VALUES[int(rng.integers(len(FIELD_VALUES)))]
    else:
        fields[j] = old[:cut] + DATA_INSERTS[int(rng.integers(len(DATA_INSERTS)))] + old[cut:]
    lines[row] = sep.join(fields) + lines[row][len(line):]
    return f"field {j} of line {row} set to {fields[j]!r}", "".join(lines).encode("utf-8")


def test_mutated_data_files_exit_cleanly(tmp_path, capsys, monkeypatch):
    root = build_workspace(tmp_path / "ws", n_sonnets=12)
    config = str(root / "config.json")
    originals = {name: (root / name).read_bytes() for name in DATA_FILES}
    rng = np.random.default_rng(DATA_SEED)
    files, codes, met, small_blocks = set(), set(), set(), 0
    for run in range(DATA_RUNS):
        name = list(DATA_FILES)[int(rng.integers(len(DATA_FILES)))]
        sep, partners = DATA_FILES[name]
        what, data = _mutate_data(rng, originals[name].decode("utf-8"), sep)
        (root / name).write_bytes(data)
        command = list(DATA_COMMANDS[int(rng.integers(len(DATA_COMMANDS)))])
        argv = [*command, "--config", config, "--out", str(tmp_path / "out" / str(run))]
        mutation = f"{name}: {what}"
        case = f"run {run}: {mutation}; versemood {' '.join(argv)}"
        if command[0] != "agree":  # agree reads neither texts nor lexicons
            met.update(bug for bug, pattern in PAST_BUGS.items() if re.fullmatch(pattern, mutation))
        with monkeypatch.context() as patch:
            if name.startswith("lex") and rng.random() < 0.5:  # damage in a later block
                patch.setattr(lexicon, "_BLOCK", 40)
                small_blocks += 1
            code = _main(argv, case)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), case
            assert "Traceback" not in err, case
            if code == 1:
                assert any(str(root / f) in err for f in (name, *partners)), f"{case}: {err}"
            if code == 0:
                first = _written(out)
                assert _main(argv, case) == 0, case
                rerun, _ = capsys.readouterr()
                assert _written(rerun) == first, case
                for path, written in first.items():
                    if path.endswith("features.csv"):
                        assert not re.search(rb"(^|,)-?inf(,|$)", written, re.M), case
        (root / name).write_bytes(originals[name])
        files.add(name)
        codes.add(code)
    assert files == set(DATA_FILES)
    assert codes >= {0, 1}
    assert met == set(PAST_BUGS)
    assert small_blocks
