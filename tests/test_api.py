"""The public API: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import latcb

MODULES = sorted(m.name for m in pkgutil.iter_modules(latcb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"latcb.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"latcb.{name}.__all__ names missing attributes: {missing}"


def test_package_all_resolves():
    assert len(latcb.__all__) == len(set(latcb.__all__))
    missing = [n for n in latcb.__all__ if not hasattr(latcb, n)]
    assert not missing, f"latcb.__all__ names missing attributes: {missing}"
