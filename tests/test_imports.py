"""Every name that a library module imports is used in that module.

The one exception is a name that perfbench's tracer rebinds in that
module (a binder in `perfbench/tracer.py`'s `SPANS`), imported on a line
that carries `# noqa: F401`; names listed in a module's `__all__` count
as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rainbowspread"


def traced_names() -> dict[str, set[str]]:
    """Per module, the names the tracer rebinds there, read from `SPANS`
    without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    spans = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    out = {}
    for _, name, binders in spans:
        for binder in binders:
            out.setdefault(binder, set()).add(name)
    return out


def unused_imports(source: str, traced=frozenset()) -> list[tuple[int, str]]:
    """(line, name) of each unused import, but a traced name on a noqa line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            noqa = "# noqa: F401" in lines[(node.end_lineno or node.lineno) - 1]
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (noqa and name in traced):
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), traced_names().get(path.stem, set())) == []


def test_kept_imports_are_the_traced_ones():
    kept = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py")) for _, name in unused_imports(path.read_text())]
    assert kept == ["fragmentation.lift_rainbow", "fragmentation.max_spread", "moments.lift_rainbow"]


def test_scan_finds_unused_and_honours_noqa():
    # noqa keeps a traced name (a), not an untraced one (b), and a traced
    # name without noqa (c) is reported too
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from dataclasses import dataclass, field\n"
        "from .x import (\n    a,\n    b,\n)  # noqa: F401\n"
        "from .y import c\n"
        "__all__ = ['dataclass']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source, {"a", "c"}) == [(2, "j"), (3, "field"), (4, "b"), (8, "c")]
    assert unused_imports(source) == [(2, "j"), (3, "field"), (4, "a"), (4, "b"), (8, "c")]
