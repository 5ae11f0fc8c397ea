"""Pipeline session: derived artifacts computed once, exports that resolve."""

import importlib
import pkgutil
import sys
from collections import Counter

import versemood
from versemood import textnorm
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


def test_every_exported_name_resolves():
    modules = [versemood] + [
        importlib.import_module(f"versemood.{info.name}")
        for info in pkgutil.iter_modules(versemood.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
