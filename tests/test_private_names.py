"""Every private top-level name of a library module has a caller.

A function, class or variable whose name starts with one underscore is
module-private; when nothing in `src/` refers to it outside its own
definition, it is dead code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rainbowspread"


def _private_definitions(tree: ast.Module):
    """(name, node) for each private top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere in tree outside skip: bare names and attributes."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each private top-level name that no source refers
    to outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            used = any(
                name in _references(other, skip=node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                dead.append(f"{module}: {name}")
    return sorted(dead)


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_scan_finds_a_helper_left_behind():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused_table = {}\n"
            "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
            "def _shared():\n    pass\n"
            "class _Orphan:\n    pass\n"
            "def run():\n    return _LIMIT\n"
        ),
        "b.py": "from . import a\n\ndef go():\n    a._shared()\n",
    }
    # _helper calls only itself; _shared is called from another module
    assert dead_private_names(sources) == ["a.py: _Orphan", "a.py: _helper", "a.py: _unused_table"]

