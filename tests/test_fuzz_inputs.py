"""Config fuzz: one random mutation of the run config, then one command through ``main``.

Each run mutates the 12-sonnet workspace's ``config.json`` once: it
truncates the file, deletes a span, inserts a quote, NUL, BOM, tab, CR,
``1e309`` or a stray byte, replaces a value with one of another type, or
puts a NUL into a string value.  It then runs ``agree``, ``stats``,
``validate --strict`` or ``all`` in-process, half of the runs without
``--out`` (so the config's ``out_dir`` is used, against a fresh working
directory).  The oracle:

- the exit code is 0, 1 or 2, and no exception escapes ``main``;
- stderr holds no ``Traceback``;
- on exit 1, the message names the config or a file the config names;
- on exit 0, a rerun writes the same files, byte for byte.

The runs are fixed by ``SEED`` and ``RUNS``.
"""

import json
from pathlib import Path

import numpy as np

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
