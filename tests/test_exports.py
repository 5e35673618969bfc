"""Every public name a module declares must exist, and every constant is read.

Tools that walk `__all__` (tracers, star imports, docs) fail on a stale
entry, so a removed function must leave `__all__` with it; likewise a
tolerance must leave `edsim.constants` with the check that read it.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

import edsim
from edsim import constants

MODULES = ["core", "engine", "interferometry", "sensitivity", "cli", "selftest"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"edsim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_exports_declared_names():
    declared = {n for n in vars(constants) if n.isupper()}
    for name in MODULES:
        declared |= set(importlib.import_module(f"edsim.{name}").__all__)
    exported = {
        n for n, v in vars(edsim).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert exported and exported <= declared


def test_every_constant_is_read_by_a_module():
    package = Path(edsim.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))
               if p.name not in ("constants.py", "__init__.py")]
    unread = [n for n in vars(constants)
              if n.isupper() and not any(re.search(rf"\b{n}\b", src) for src in sources)]
    assert unread == []
