"""Every name a ``repro`` package exports resolves to an object."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_driver_import_leaves_unused_modules_unloaded():
    """The lazy package exports keep what no platform uses out of a
    driver process: the crypto and core re-exports load on first use."""
    unused = [
        "repro.crypto.elgamal",
        "repro.crypto.mpc",
        "repro.crypto.paillier",
        "repro.core.decision",
        "repro.core.guide",
        "repro.core.requirements",
    ]
    probe = (
        "import sys, repro.driver\n"
        f"print([name for name in {unused!r} if name in sys.modules])\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.strip()
    assert loaded == "[]"
