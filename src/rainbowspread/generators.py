"""Application hypergraphs, built by exhaustive enumeration at desk scale.

Each generator has a closed-form count oracle (count_formula) that the
CLI cross-checks on every run.  Ground sets are either the edges of K_n
(2-subsets of [n]) or all k-subsets of [n], indexed lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph

HAMILTON_N_LIMIT = 9
PERMUTATION_N_LIMIT = 8
EDGE_COUNT_LIMIT = 1_000_000


class GeneratorError(RainbowSpreadError, ValueError):
    pass


def k_subset_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Lexicographic id for every k-subset of range(n)."""
    return {s: i for i, s in enumerate(combinations(range(n), k))}


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


def gen_perfect_matching(n: int, k: int) -> Hypergraph:
    """Perfect matchings of the complete k-uniform hypergraph on [n]."""
    if n % k != 0:
        raise GeneratorError(f"perfect matching requires k | n, got n={n}, k={k}")
    if count_formula_perfect_matching(n, k) > EDGE_COUNT_LIMIT:
        raise GeneratorError("instance exceeds edge-count limit")
    idx = k_subset_index(n, k)
    edges = []
    for blocks in _partitions_into_blocks(list(range(n)), k):
        edges.append(tuple(sorted(idx[b] for b in blocks)))
    return Hypergraph(len(idx), tuple(edges), n // k)


def gen_loose_hamilton(n: int, k: int) -> Hypergraph:
    """Loose Hamilton cycles: consecutive k-edges share exactly one vertex.

    Enumerated over all cyclic vertex arrangements, deduplicated by the
    canonical (sorted tuple of sorted edges) form.
    """
    if k < 3:
        raise GeneratorError("loose Hamilton cycles need k >= 3")
    if n % (k - 1) != 0:
        raise GeneratorError(f"loose hamilton requires (k-1) | n, got n={n}, k={k}")
    if math.factorial(n) > 50_000_000:
        raise GeneratorError("instance exceeds enumeration limit")
    num_edges = n // (k - 1)
    if num_edges < 3:
        raise GeneratorError("need at least 3 edges for a loose cycle")
    idx = k_subset_index(n, k)
    seen = set()
    for perm in permutations(range(n)):
        blocks = []
        for i in range(num_edges):
            start = i * (k - 1)
            block = [perm[(start + j) % n] for j in range(k)]
            blocks.append(tuple(sorted(block)))
        canon = tuple(sorted(blocks))
        seen.add(canon)
    edges = sorted(tuple(sorted(idx[b] for b in blocks)) for blocks in seen)
    return Hypergraph(len(idx), tuple(edges), num_edges)


def _permutation_images(edge_lists: list[tuple[int, ...]], n: int, k: int) -> list[frozenset]:
    if n > PERMUTATION_N_LIMIT:
        raise GeneratorError(f"permutation enumeration limited to n <= {PERMUTATION_N_LIMIT}")
    seen = set()
    for perm in permutations(range(n)):
        image = frozenset(tuple(sorted(perm[v] for v in e)) for e in edge_lists)
        seen.add(image)
    return sorted(seen, key=sorted)


def _check_spanning(edge_lists, n):
    verts = set()
    for e in edge_lists:
        verts.update(e)
    if verts != set(range(n)):
        raise GeneratorError(f"structure must span vertices 0..{n - 1}")


def gen_tree_copies(tree_edges, n: int) -> Hypergraph:
    """All distinct images of a spanning tree under vertex permutations."""
    tree_edges = [tuple(sorted(e)) for e in tree_edges]
    if any(len(e) != 2 for e in tree_edges):
        raise GeneratorError("tree edges must be pairs")
    if len(tree_edges) != n - 1:
        raise GeneratorError("a spanning tree on n vertices has n-1 edges")
    _check_spanning(tree_edges, n)
    idx = k_subset_index(n, 2)
    copies = _permutation_images(tree_edges, n, 2)
    edges = tuple(tuple(sorted(idx[e] for e in image)) for image in copies)
    return Hypergraph(len(idx), edges, n - 1)


def gen_cactus_copies(cactus_edges, n: int, k: int) -> Hypergraph:
    """All distinct images of a spanning k-uniform cactus under permutations."""
    cactus_edges = [tuple(sorted(e)) for e in cactus_edges]
    if any(len(e) != k for e in cactus_edges):
        raise GeneratorError(f"cactus edges must have size k={k}")
    if (n - 1) % (k - 1) != 0:
        raise GeneratorError(f"cactus requires (k-1) | (n-1), got n={n}, k={k}")
    if len(cactus_edges) * (k - 1) + 1 != n:
        raise GeneratorError("a spanning cactus with m edges has m(k-1)+1 vertices")
    _check_spanning(cactus_edges, n)
    idx = k_subset_index(n, k)
    copies = _permutation_images(cactus_edges, n, k)
    edges = tuple(tuple(sorted(idx[e] for e in image)) for image in copies)
    return Hypergraph(len(idx), edges, len(cactus_edges))


def automorphism_count(edge_lists, n: int) -> int:
    """|Aut| by brute force: permutations of [n] fixing the edge set."""
    canon = frozenset(tuple(sorted(e)) for e in edge_lists)
    count = 0
    for perm in permutations(range(n)):
        if frozenset(tuple(sorted(perm[v] for v in e)) for e in canon) == canon:
            count += 1
    return count


def count_formula_hamilton(n: int) -> int:
    return math.factorial(n - 1) // 2


def count_formula_perfect_matching(n: int, k: int) -> int:
    if n % k != 0:
        raise GeneratorError(f"k must divide n")
    return math.factorial(n) // (math.factorial(n // k) * math.factorial(k) ** (n // k))


def count_formula_loose_hamilton(n: int, k: int) -> int:
    if n % (k - 1) != 0:
        raise GeneratorError("(k-1) must divide n")
    num = (k - 1) * math.factorial(n)
    den = 2 * n * math.factorial(k - 2) ** (n // (k - 1))
    if num % den != 0:
        raise GeneratorError(f"count formula not integral for n={n}, k={k}")
    return num // den


def loose_path_cactus(n: int, k: int) -> list[tuple[int, ...]]:
    """A spanning loose path: each new k-edge attaches at one old vertex."""
    if (n - 1) % (k - 1) != 0:
        raise GeneratorError(f"loose path requires (k-1) | (n-1)")
    m = (n - 1) // (k - 1)
    return [tuple(range(i * (k - 1), i * (k - 1) + k)) for i in range(m)]


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


@dataclass(frozen=True)
class StructureSpec:
    """Parsed CLI spec string, e.g. 'hamilton:n=7' or 'pm:n=6,k=3'."""

    kind: str
    n: int
    k: int | None = None
    structure_edges: tuple[tuple[int, ...], ...] | None = None

    def generate(self) -> Hypergraph:
        if self.kind == "hamilton":
            return gen_hamilton(self.n)
        if self.kind == "pm":
            return gen_perfect_matching(self.n, self.k)
        if self.kind == "loose":
            return gen_loose_hamilton(self.n, self.k)
        if self.kind == "tree":
            return gen_tree_copies(list(self.structure_edges), self.n)
        if self.kind == "cactus":
            return gen_cactus_copies(list(self.structure_edges), self.n, self.k)
        raise GeneratorError(f"unknown structure kind {self.kind!r}")

    def count_formula(self) -> int:
        """Closed-form (or independently computed) edge count oracle."""
        if self.kind == "hamilton":
            return count_formula_hamilton(self.n)
        if self.kind == "pm":
            return count_formula_perfect_matching(self.n, self.k)
        if self.kind == "loose":
            return count_formula_loose_hamilton(self.n, self.k)
        if self.kind in ("tree", "cactus"):
            aut = automorphism_count(list(self.structure_edges), self.n)
            return math.factorial(self.n) // aut
        raise GeneratorError(f"unknown structure kind {self.kind!r}")


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

    structure = None
    if kind == "tree":
        if named == "path":
            structure = tuple(path_tree(n))
        elif named == "star":
            structure = tuple(star_tree(n))
        elif "file" in params:
            structure = _read_structure_file(params["file"])
        else:
            raise GeneratorError("tree spec needs 'path', 'star', or file=...")
    elif kind == "cactus":
        if k is None:
            raise GeneratorError("cactus spec needs k=")
        if named == "loosepath":
            structure = tuple(loose_path_cactus(n, k))
        elif "file" in params:
            structure = _read_structure_file(params["file"])
        else:
            raise GeneratorError("cactus spec needs 'loosepath' or file=...")
    elif kind in ("pm", "loose"):
        if k is None:
            raise GeneratorError(f"{kind} spec needs k=")
    elif kind != "hamilton":
        raise GeneratorError(f"unknown structure kind {kind!r}")
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
