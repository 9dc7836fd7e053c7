"""Every top-level name of a library module has a caller.

A function, class or variable whose name starts with one underscore is
module-private; when nothing in `src/` refers to it outside its own
definition, it is dead code.  A public function or class is dead when
nothing under `src/` or `perfbench/` names it outside its own
definition: a test is not a caller, and neither is a re-export from
`__init__.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rainbowspread"


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


def _walk(tree: ast.AST, skip: ast.AST | None = None):
    """Every node of tree outside skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read anywhere in tree outside skip: bare names and attributes."""
    found = set()
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
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


def _named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """`_references`, plus imported names and the parts of every string
    that is a dotted name, such as a hook table's "TrialPool.ensure"."""
    found = _references(tree, skip)
    for node in _walk(tree, skip):
        if isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            found.update(node.value.split("."))
    return found


def dead_public_names(library: dict[str, str], others: dict[str, str]) -> list[str]:
    """`module: name` for each public top-level function or class of the
    library that no source, library or other, names outside its own
    definition; the library's `__init__.py` re-exports are not callers."""
    trees = {module: ast.parse(text) for module, text in library.items()}
    callers = [tree for module, tree in trees.items() if module != "__init__.py"]
    other_names = set().union(*(_named(ast.parse(text)) for text in others.values()))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = node.name in other_names or any(
                node.name in _named(other, skip=node if other is tree else None) for other in callers
            )
            if not used:
                dead.append(f"{module}: {node.name}")
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


def test_no_dead_public_names():
    library = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = {str(path): path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py"))}
    assert dead_public_names(library, others) == []


def test_public_scan_finds_a_function_left_behind():
    library = {
        "a.py": (
            "def helper(x):\n    return helper(x - 1) if x else 0\n"
            "def traced():\n    pass\n"
            "def tested():\n    pass\n"
            "class Orphan:\n    pass\n"
            "def run():\n    return 1\n"
        ),
        "b.py": "from .a import run\n",
        "__init__.py": "from .a import tested\n",
    }
    others = {"hooks.py": 'SPANS = [("a", "traced")]\n'}
    # helper calls only itself and tested is only re-exported; run is
    # imported by a module and traced is named by a hook string
    assert dead_public_names(library, others) == ["a.py: Orphan", "a.py: helper", "a.py: tested"]
