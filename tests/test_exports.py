"""Every name a module exports resolves, and the package exports only names
its modules export, so an export left behind by a removal fails here."""

from __future__ import annotations

import importlib
import pkgutil

import earlab

MODULES = [importlib.import_module(f"earlab.{m.name}") for m in pkgutil.iter_modules(earlab.__path__)]


def test_every_module_export_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_package_exports_only_what_its_modules_export():
    exported = {name for module in MODULES for name in getattr(module, "__all__", ())}
    stray = [name for name in earlab.__all__ if name != "__version__" and name not in exported]
    assert not stray
    assert all(hasattr(earlab, name) for name in earlab.__all__)
