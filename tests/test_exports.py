"""Every name a ``repro`` package exports resolves to an object."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
import repro.core

PACKAGES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    for export in getattr(package, "__all__", ()):
        assert getattr(package, export) is not None, f"{name}.{export}"


@pytest.mark.parametrize("name", sorted(repro.core._LAZY))
def test_lazy_core_entry_resolves(name):
    assert getattr(repro.core, name) is not None
