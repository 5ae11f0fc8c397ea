"""Pipeline session: derived artifacts computed once, exports that resolve."""

import importlib
import json
import pkgutil
import sys
from collections import Counter

import versemood
from versemood import stats, textnorm
from versemood.cli import main


def test_all_normalizes_each_sonnet_once_per_mode(workspace_config, tmp_path, monkeypatch):
    original = textnorm.normalize
    calls = Counter()

    def counting(text, config):
        calls[(text, config.mode)] += 1
        return original(text, config)

    # Every module that imported the function by name holds its own reference.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "versemood" and getattr(module, "normalize", None) is original:
            monkeypatch.setattr(module, "normalize", counting)
    argv = ["all", "--config", str(workspace_config), "--out", str(tmp_path), "--missing-words"]
    assert main(argv) == 0
    # 40 sonnets under raw (word counts) and stem (everything else); no lemma table.
    assert len(calls) == 40 * 2
    assert max(calls.values()) == 1


def test_partial_dependence_checks_each_category_design_once(
    workspace_config, tmp_path, monkeypatch
):
    original = stats._dependent_columns
    calls = []

    def counting(design, *args, **kwargs):
        calls.append(design.shape)
        return original(design, *args, **kwargs)

    monkeypatch.setattr(stats, "_dependent_columns", counting)
    argv = ["all", "--config", str(workspace_config), "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = json.loads((tmp_path / "partial_dependence.json").read_text(encoding="utf-8"))
    fitted = {
        r["category"] for r in rows
        if not (r["note"] or "").startswith("insufficient rows")
    }
    assert fitted
    # one scan finds the two spans, one more confirms the rest is full rank
    assert 0 < len(calls) <= 2 * len(fitted)


def test_every_exported_name_resolves():
    modules = [versemood] + [
        importlib.import_module(f"versemood.{info.name}")
        for info in pkgutil.iter_modules(versemood.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
