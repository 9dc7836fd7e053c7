"""Rainbow lifting: edges equipped with injective color assignments.

The lift of H under q colors lives on X x [q]; an edge of size k produces
(q)_k lifted edges (falling factorial).  Counts are kept as exact Python
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph, HypergraphError

DEFAULT_LIFT_CAP = 2_000_000


class LiftCapExceeded(RainbowSpreadError, RuntimeError):
    pass


@dataclass(frozen=True)
class LiftedEdge:
    """A base edge index plus pairwise-distinct colors, one per vertex."""

    base: int
    colors: tuple[int, ...]

    def elements(self, h: Hypergraph) -> frozenset[tuple[int, int]]:
        return frozenset(zip(h.edges[self.base], self.colors))


def falling_factorial(q: int, k: int) -> int:
    """(q)_k = q (q-1) ... (q-k+1), exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for i in range(k):
        out *= q - i
    return out


def _edge_pins(e: tuple[int, ...], q: int, w: dict[int, int]) -> list[int] | None:
    """The colors w pins on edge e, or None when no injective coloring of e
    agrees with them (a pinned color repeats or lies outside [1, q])."""
    pinned = [w[v] for v in e if v in w]
    if len(set(pinned)) != len(pinned) or not all(1 <= c <= q for c in pinned):
        return None
    return pinned


def lift_size(h: Hypergraph, q: int, w: dict[int, int] | None = None) -> int:
    """|H*| = sum over edges of (q)_{|edge|}, exact.

    With a partial coloring w (vertex -> color), the size of the restricted
    lift H*_w instead: per edge, the pinned colors are fixed and the free
    vertices are colored injectively avoiding them, (q-s)_{|edge|-s}.
    """
    w = w or {}
    total = 0
    for e in h.edges:
        pinned = _edge_pins(e, q, w)
        if pinned is not None:
            total += falling_factorial(q - len(pinned), len(e) - len(pinned))
    return total


def lift_codes(h: Hypergraph, q: int, w: dict[int, int] | None = None):
    """The lift, or with a partial coloring w the restricted lift H*_w, as
    integer rows: the one enumerator behind `lift_rainbow` and fragmentation.

    Element (v, c) is coded v*q + c - 1, so each row ascends with its
    vertices.  Returns (codes, base): codes is an int64 array of shape
    (lift size, r_bound), each row padded on the right with N*q, and base
    holds each row's base edge index.  Rows are in canonical order: by base
    edge, then colors lexicographically.  Pinned colors are fixed and the
    free vertices take the rows of a cached table of
    permutations(range(q - s), k - s) over the colors left.  `lift_size`
    is checked against `DEFAULT_LIFT_CAP` before anything is built.
    """
    if q < h.r_bound:
        raise ChromaticityError(f"q={q} < r_bound={h.r_bound}")
    w = w or {}
    total = lift_size(h, q, w)
    if total > DEFAULT_LIFT_CAP:
        raise LiftCapExceeded(
            f"lift has {total} edges, above cap {DEFAULT_LIFT_CAP}; "
            "use a smaller --q or a smaller hypergraph"
        )
    import numpy as np  # here, so that importing the package does not load numpy

    codes = np.full((total, h.r_bound), h.num_vertices * q, dtype=np.int64)
    base = np.empty(total, dtype=np.int64)
    row = 0
    for i, e in enumerate(h.edges):
        pinned = _edge_pins(e, q, w)
        if pinned is None:
            continue
        free = [j for j, v in enumerate(e) if v not in w]
        avail = np.array([c for c in range(1, q + 1) if c not in pinned], dtype=np.int64)
        perms = _permutation_table(q - len(pinned), len(free))
        block = codes[row : row + len(perms)]
        block[:, : len(e)] = [v * q + w.get(v, 1) - 1 for v in e]
        block[:, free] += avail[perms] - 1
        base[row : row + len(perms)] = i
        row += len(perms)
    return codes, base


@lru_cache(maxsize=32)
def _permutation_table(n: int, k: int):
    """permutations(range(n), k) as a read-only (n!/(n-k)!, k) array, in
    lexicographic order: each first entry a, then the table for n - 1
    with entries >= a shifted up by one."""
    import numpy as np

    table = np.zeros((1, 0), dtype=np.min_scalar_type(max(n - 1, 0)))
    for m in range(n - k + 1, n + 1):
        first = np.repeat(np.arange(m, dtype=table.dtype), len(table))
        rest = np.tile(table, (m, 1))
        table = np.column_stack([first, rest + (rest >= first[:, None])])
    table.flags.writeable = False
    return table


def lift_rainbow(h: Hypergraph, q: int, w: dict[int, int] | None = None) -> list[LiftedEdge]:
    """Materialize every (edge, injective coloring) pair, or with a partial
    coloring w only those that agree with w on every shared vertex: the
    rows of `lift_codes`, in its order, as `LiftedEdge`s.
    """
    codes, base = lift_codes(h, q, w)
    colors = (codes % q + 1).tolist()
    return [
        LiftedEdge(base=b, colors=tuple(row[: len(h.edges[b])]))
        for b, row in zip(base.tolist(), colors)
    ]


class ChromaticityError(RainbowSpreadError, ValueError):
    pass


def lifted_containment_count(h: Hypergraph, q: int, colored_set) -> int:
    """|H* intersect up-set(S*)| for a rainbow colored set S*, closed form.

    colored_set maps vertex -> color.  Sum over edges E containing dom(S)
    of (q-s)_{|E|-s} with s = |S|: colors on dom(S) are pinned, the rest
    of E is colored injectively avoiding them.  Returns 0 when S repeats
    a color (no rainbow superset exists).
    """
    if q < h.r_bound:
        raise ChromaticityError(f"q={q} < r_bound={h.r_bound}")
    assign = dict(colored_set)
    s = len(assign)
    if s == 0:
        return lift_size(h, q)
    if len(set(assign.values())) != s:
        return 0
    dom = set(assign)
    total = 0
    for e in h.edges:
        if dom.issubset(e):
            total += falling_factorial(q - s, len(e) - s)
    return total


def expected_edge_count(h: Hypergraph, p: float) -> float:
    """Expected number of edges inside X_p for an r-uniform H: |H| p^r."""
    if not h.is_uniform:
        raise HypergraphError("expected_edge_count requires an r-uniform hypergraph")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return len(h.edges) * p ** h.r_bound
