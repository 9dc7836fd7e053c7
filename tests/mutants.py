"""A mutation probe: change one operator or statement of a library
function at a time, and see whether the given tests notice.

Each mutant is written into a copy of the checkout (without `.git`)
under a temporary directory, never into the checkout itself, and the
test files run against the copy with `-x` in a child process.  A run
that fails, or that outlasts the timeout, kills the mutant; a timed-out
run's whole process group is killed with it.  The changes:

- a comparison flipped: `<` and `<=`, `>` and `>=`, `==` and `!=`;
- `+` and `-`, `and` and `or`, `min` and `max` swapped;
- an integer constant moved by + 1, and by - 1;
- an `if` or `while` test forced to True, and to False;
- a statement dropped (replaced by `pass`).

Run from the repository root, for example

    python tests/mutants.py src/rainbowspread/fragmentation.py empty_round apply_round \\
        --tests tests/test_fragmentation.py tests/test_differential.py

which prints one line a mutant: its outcome, line and change, and then
the survivors' count.  With no function named, every function and
method of the module is swept.  The unchanged module runs first and
must pass, or the sweep stops.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
SWAPS = {"min": "max", "max": "min"}


class Mutant(NamedTuple):
    function: str
    line: int
    change: str  # "old -> new", in source form
    source: str  # the whole mutated module


def _text(node) -> str:
    return ast.unparse(node).split("\n", 1)[0]


def _functions(tree: ast.Module, functions):
    """The module's top-level functions and class methods, or the named ones."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, ast.FunctionDef) and (not functions or fn.name in functions):
                yield fn


def _sites(tree: ast.Module, functions):
    """(function, line, node, apply) for each mutation site of the named
    functions, in a fixed order; apply(node) makes the change in place
    and returns its "old -> new" text."""
    for fn in _functions(tree, functions):
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                for j, op in enumerate(node.ops):
                    if type(op) in FLIPS:
                        yield fn.name, node.lineno, node, lambda n, j=j: _swap_op(n, j)
            elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in FLIPS:
                yield fn.name, node.lineno, node, _swap_op
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in SWAPS:
                yield fn.name, node.lineno, node, _swap_call
            elif isinstance(node, ast.Constant) and type(node.value) is int:  # not a bool
                for step in (1, -1):
                    yield fn.name, node.lineno, node, lambda n, step=step: _shift(n, step)
            if isinstance(node, (ast.If, ast.While)):
                for value in (True, False):
                    yield fn.name, node.lineno, node, lambda n, value=value: _force(n, value)
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                for j, stmt in enumerate(body if isinstance(body, list) else []):
                    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):  # a docstring
                        yield fn.name, stmt.lineno, node, lambda n, field=field, j=j: _drop(getattr(n, field), j)


def _swap_op(node, j=None) -> str:
    old = _text(node)
    if j is None:
        node.op = FLIPS[type(node.op)]()
    else:
        node.ops[j] = FLIPS[type(node.ops[j])]()
    return f"{old} -> {_text(node)}"


def _swap_call(node) -> str:
    old = _text(node)
    node.func.id = SWAPS[node.func.id]
    return f"{old} -> {_text(node)}"


def _shift(node, step: int) -> str:
    old = _text(node)
    node.value += step
    return f"{old} -> {_text(node)}"


def _force(node, value: bool) -> str:
    old = _text(node.test)
    node.test = ast.Constant(value)
    return f"{old} -> {value}"


def _drop(body, j: int) -> str:
    old = _text(body[j])
    body[j] = ast.copy_location(ast.Pass(), body[j])
    return f"drop {old}"


def mutants(source: str, functions=()) -> list[Mutant]:
    """Every one-change mutant of the named functions of a module's
    source (all of its functions when none is named).  A change that
    gives back the unchanged module, such as forcing `while True:` to
    True, makes no mutant, so no test run is spent on it."""
    unchanged = ast.unparse(ast.parse(source))
    out = []
    for i in range(sum(1 for _ in _sites(ast.parse(source), functions))):
        tree = ast.parse(source)  # a fresh tree a mutant, changed in place
        name, line, node, apply = list(_sites(tree, functions))[i]
        change, mutated = apply(node), ast.unparse(tree)
        if mutated != unchanged:
            out.append(Mutant(name, line, change, mutated))
    return out


def run(module: str, batch, tests, timeout: float = 120.0):
    """Each mutant of batch in turn, written over module (a path relative
    to the repository root) in a temporary copy, against the test files:
    yields "killed", "timeout" (also killed) or "survived" a mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns(".git", "__pycache__", ".perfbench", ".benchmarks", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=skip, dirs_exist_ok=True)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for mutant in batch:
            (copy / module).write_text(mutant.source)
            argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
            child = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                code = child.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                yield "timeout"
                continue
            if code not in (0, 1, 2):
                raise RuntimeError(f"pytest exited {code} on {mutant.change!r}: check the test paths")
            yield "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="library module, relative to the repository root")
    parser.add_argument("functions", nargs="*", help="functions to mutate (default: all)")
    parser.add_argument("--tests", nargs="+", required=True, help="test files or ids, relative to the root")
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds a test run may take")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text()
    batch = mutants(source, args.functions)
    outcomes = run(args.module, [Mutant("", 0, "none", source), *batch], args.tests, args.timeout)
    if next(outcomes) != "survived":
        sys.exit("the tests fail on the unchanged module")
    survivors = 0
    for mutant, outcome in zip(batch, outcomes):
        survivors += outcome == "survived"
        print(f"{outcome:8} {mutant.function}:{mutant.line}  {mutant.change}", flush=True)
    print(f"{survivors} of {len(batch)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
