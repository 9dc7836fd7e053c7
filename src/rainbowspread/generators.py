"""Application hypergraphs, built by exhaustive enumeration at desk scale.

Each generator has a closed-form count oracle (count_formula) that the
CLI cross-checks on every run.  Ground sets are either the edges of K_n
(2-subsets of [n]) or all k-subsets of [n], indexed lexicographically.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph

HAMILTON_N_LIMIT = 9
PERMUTATION_N_LIMIT = 8
LOOSE_N_LIMIT = 11  # the largest n with n! <= 50,000,000 permutations to walk
PM_N_LIMIT = 512  # the block walk recurses once per block, so up to n deep
EDGE_COUNT_LIMIT = 1_000_000


class GeneratorError(RainbowSpreadError, ValueError):
    pass


def k_subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Lexicographic id for every k-subset of range(n)."""
    return {s: i for i, s in enumerate(combinations(range(n), k))}


def _check_sizes(what: str, n: int, k: int, k_min: int) -> None:
    """Refuse n < 1 and k < k_min, before anything divides by k or k - 1."""
    if n < 1 or k < k_min:
        raise GeneratorError(f"{what} needs n >= 1 and k >= {k_min}, got n={n}, k={k}")


def _check_permutation_limit(n: int) -> None:
    if n > PERMUTATION_N_LIMIT:
        raise GeneratorError(f"permutation enumeration limited to n <= {PERMUTATION_N_LIMIT}")


def gen_hamilton(n: int) -> Hypergraph:
    """Hamilton cycles of K_n as an n-uniform hypergraph on the edges of K_n."""
    if not 4 <= n <= HAMILTON_N_LIMIT:
        raise GeneratorError(f"hamilton requires 4 <= n <= {HAMILTON_N_LIMIT}")
    idx = k_subset_index(n, 2)
    edges = []
    # fix vertex 0 first and orient by second < last to kill rotations/reflections
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        cyc = (0,) + rest
        eids = sorted(idx[tuple(sorted((cyc[i], cyc[(i + 1) % n])))] for i in range(n))
        edges.append(tuple(eids))
    return Hypergraph(len(idx), tuple(edges), n)


def _partitions_into_blocks(universe: list[int], k: int):
    """All partitions of universe into k-blocks, smallest-uncovered pivot."""
    if not universe:
        yield []
        return
    pivot = universe[0]
    rest = universe[1:]
    for others in combinations(rest, k - 1):
        block = (pivot,) + others
        remaining = [v for v in rest if v not in others]
        for tail in _partitions_into_blocks(remaining, k):
            yield [block] + tail


def _check_perfect_matching(n: int, k: int) -> None:
    _check_sizes("perfect matching", n, k, 1)
    if n % k != 0:
        raise GeneratorError(f"perfect matching requires k | n, got n={n}, k={k}")


def _perfect_matchings_above(n: int, k: int, limit: int) -> bool:
    """Whether pm(n, k) has more than `limit` matchings.

    The count is the product over the n/k blocks of C(m - 1, k - 1), the
    choices for the block of the least free vertex when m are free.  Each
    binomial is built by its increasing partial products C(m - 1 - b + i, i),
    so the walk stops at the first partial product above the limit.
    """
    if k == 1:  # one matching, of singletons
        return 1 > limit
    count = 1
    for m in range(n, 0, -k):
        b = min(k - 1, m - k)  # C(m - 1, k - 1) = C(m - 1, b)
        for i in range(1, b + 1):
            count = count * (m - 1 - b + i) // i
            if count > limit:
                return True
    return count > limit


def gen_perfect_matching(n: int, k: int) -> Hypergraph:
    """Perfect matchings of the complete k-uniform hypergraph on [n]."""
    _check_perfect_matching(n, k)
    if _perfect_matchings_above(n, k, EDGE_COUNT_LIMIT):
        raise GeneratorError("instance exceeds edge-count limit")
    if n > PM_N_LIMIT:  # one matching, k = 1 or k = n, of n vertices
        raise GeneratorError(f"perfect matching limited to n <= {PM_N_LIMIT}")
    idx = k_subset_index(n, k)
    edges = []
    for blocks in _partitions_into_blocks(list(range(n)), k):
        edges.append(tuple(sorted(idx[b] for b in blocks)))
    return Hypergraph(len(idx), tuple(edges), n // k)


def _images(structure, n: int, k: int) -> Hypergraph:
    """The distinct images of a k-uniform structure on [n] under every
    vertex permutation, as edges over the k-subset ids, in sorted order.

    An image is keyed by the sorted tuple of its edges' ids.  Ids ascend
    with their vertex tuples, so this is the order of the sorted tuples
    of sorted vertex tuples, in a fraction of their memory.
    """
    idx = k_subset_index(n, k)
    getters = [itemgetter(*e) for e in structure]
    seen = {tuple(sorted([idx[tuple(sorted(g(p)))] for g in getters])) for p in permutations(range(n))}
    return Hypergraph(len(idx), tuple(sorted(seen)), len(structure))


def gen_loose_hamilton(n: int, k: int) -> Hypergraph:
    """Loose Hamilton cycles: consecutive k-edges share exactly one vertex."""
    _check_sizes("loose hamilton", n, k, 3)
    if n % (k - 1) != 0:
        raise GeneratorError(f"loose hamilton requires (k-1) | n, got n={n}, k={k}")
    if n > LOOSE_N_LIMIT:
        raise GeneratorError("instance exceeds enumeration limit")
    if n // (k - 1) < 3:
        raise GeneratorError("need at least 3 edges for a loose cycle")
    cycle = [tuple(sorted((s + j) % n for j in range(k))) for s in range(0, n, k - 1)]
    return _images(cycle, n, k)


def gen_tree_copies(tree_edges, n: int) -> Hypergraph:
    """All distinct images of a spanning tree under vertex permutations."""
    return gen_cactus_copies(tree_edges, n, 2)


def gen_cactus_copies(cactus_edges, n: int, k: int) -> Hypergraph:
    """All distinct images of a spanning k-uniform cactus under permutations."""
    _check_sizes("cactus", n, k, 2)
    _check_permutation_limit(n)
    cactus_edges = [tuple(sorted(e)) for e in cactus_edges]
    if any(len(set(e)) != k for e in cactus_edges):
        raise GeneratorError(f"cactus edges must have k={k} distinct vertices")
    if len(cactus_edges) * (k - 1) + 1 != n:
        raise GeneratorError("a spanning cactus with m edges has m(k-1)+1 vertices")
    if {v for e in cactus_edges for v in e} != set(range(n)):
        raise GeneratorError(f"structure must span vertices 0..{n - 1}")
    return _images(cactus_edges, n, k)


def automorphism_count(edge_lists, n: int) -> int:
    """|Aut| by brute force: permutations of [n] fixing the edge set."""
    _check_permutation_limit(n)
    canon = frozenset(tuple(sorted(e)) for e in edge_lists)
    count = 0
    for perm in permutations(range(n)):
        if frozenset(tuple(sorted(perm[v] for v in e)) for e in canon) == canon:
            count += 1
    return count


def count_formula_hamilton(n: int) -> int:
    return math.factorial(n - 1) // 2


def count_formula_perfect_matching(n: int, k: int) -> int:
    _check_perfect_matching(n, k)
    return math.factorial(n) // (math.factorial(n // k) * math.factorial(k) ** (n // k))


def count_formula_loose_hamilton(n: int, k: int) -> int:
    _check_sizes("loose hamilton", n, k, 3)
    if n % (k - 1) != 0:
        raise GeneratorError("(k-1) must divide n")
    num = (k - 1) * math.factorial(n)
    den = 2 * n * math.factorial(k - 2) ** (n // (k - 1))
    if num % den != 0:
        raise GeneratorError(f"count formula not integral for n={n}, k={k}")
    return num // den


def loose_path_cactus(n: int, k: int) -> list[tuple[int, ...]]:
    """A spanning loose path: each new k-edge attaches at one old vertex."""
    _check_sizes("loose path", n, k, 2)
    if (n - 1) % (k - 1) != 0:
        raise GeneratorError(f"loose path requires (k-1) | (n-1)")
    m = (n - 1) // (k - 1)
    return [tuple(range(i * (k - 1), i * (k - 1) + k)) for i in range(m)]


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


class StructureSpec(NamedTuple):
    """Parsed CLI spec string, e.g. 'hamilton:n=7' or 'pm:n=6,k=3'."""

    kind: str
    n: int
    k: int | None = None
    structure_edges: tuple[tuple[int, ...], ...] | None = None

    def generate(self) -> Hypergraph:
        return _kind(self.kind).generate(self)

    def count_formula(self) -> int:
        """Closed-form (or independently computed) edge count oracle."""
        return _kind(self.kind).count(self)


class _Kind(NamedTuple):
    generate: Callable[[StructureSpec], Hypergraph]
    count: Callable[[StructureSpec], int]
    needs_k: bool
    # the copy kinds: structure name -> builder(n, k); a file= may stand in
    named: dict[str, Callable] | None = None


def _copies_count(spec: StructureSpec) -> int:
    return math.factorial(spec.n) // automorphism_count(spec.structure_edges, spec.n)


_KINDS = {
    "hamilton": _Kind(lambda s: gen_hamilton(s.n), lambda s: count_formula_hamilton(s.n), False),
    "pm": _Kind(lambda s: gen_perfect_matching(s.n, s.k), lambda s: count_formula_perfect_matching(s.n, s.k), True),
    "loose": _Kind(lambda s: gen_loose_hamilton(s.n, s.k), lambda s: count_formula_loose_hamilton(s.n, s.k), True),
    "tree": _Kind(lambda s: gen_tree_copies(s.structure_edges, s.n), _copies_count, False,
                  {"path": lambda n, k: path_tree(n), "star": lambda n, k: star_tree(n)}),
    "cactus": _Kind(lambda s: gen_cactus_copies(s.structure_edges, s.n, s.k), _copies_count, True,
                    {"loosepath": loose_path_cactus}),
}


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise GeneratorError(f"unknown structure kind {name!r}")
    return _KINDS[name]


def parse_spec(text: str) -> StructureSpec:
    """Parse spec strings like 'hamilton:n=7', 'tree:path,n=6', 'cactus:loosepath,n=7,k=3'."""
    try:
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        parts = [p for p in rest.split(",") if p]
        named = None
        params = {}
        for p in parts:
            if "=" in p:
                key, val = p.split("=", 1)
                params[key.strip()] = val.strip()
            else:
                named = p.strip()
        n = int(params["n"])
        k = int(params["k"]) if "k" in params else None
    except (KeyError, ValueError) as exc:
        raise GeneratorError(f"cannot parse structure spec {text!r}: {exc}") from exc

    entry = _kind(kind)
    if entry.needs_k and k is None:
        raise GeneratorError(f"{kind} spec needs k=")
    structure = None
    if entry.named is not None:
        _check_permutation_limit(n)  # before a named structure on [n] is built
        if named in entry.named:
            structure = tuple(entry.named[named](n, k))
        elif "file" in params:
            structure = _read_structure_file(params["file"])
        else:
            raise GeneratorError(f"{kind} spec needs {' or '.join(map(repr, entry.named))} or file=...")
    return StructureSpec(kind=kind, n=n, k=k, structure_edges=structure)


def _read_structure_file(path: str) -> tuple[tuple[int, ...], ...]:
    """One edge per line, whitespace-separated vertex ids."""
    edges = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                edges.append(tuple(int(tok) for tok in line.split()))
    if not edges:
        raise GeneratorError(f"no edges in structure file {path}")
    return tuple(edges)
