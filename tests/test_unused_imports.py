"""No module under ``src/repro`` imports a name it never uses.

The strict self-lint checks privacy and determinism rules, not unused
imports, so this scan keeps them out.  Package ``__init__`` modules are
skipped: their imports are re-exports.  A name counts as used when it
appears as a name anywhere in the module, including inside a string
annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in *source* that it never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                name.id for name in ast.walk(annotation)
                if isinstance(name, ast.Name)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "from typing import Callable\n"
        "x: 'Callable[[], None]'\n"
        "os.sep\n"
    )
    assert _unused_imports(source) == [(2, "dataclass"), (2, "field")]
