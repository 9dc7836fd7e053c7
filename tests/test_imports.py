"""Every name that a library module imports is used in that module.

A name kept on purpose carries `# noqa: F401` on its import line; names
listed in a module's `__all__` count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowspread"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            last = lines[(node.end_lineno or node.lineno) - 1]
            if "# noqa: F401" in last:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from dataclasses import dataclass, field\n"
        "from .x import (\n    a,\n    b,\n)  # noqa: F401\n"
        "__all__ = ['dataclass']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["line 2: j", "line 3: field"]
