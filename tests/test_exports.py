"""Every public name a module declares must exist.

Tools that walk `__all__` (tracers, star imports, docs) fail on a stale
entry, so a removed function must leave `__all__` with it.
"""

import importlib
import types

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
