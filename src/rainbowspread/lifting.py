"""Rainbow lifting: edges equipped with injective color assignments.

The lift of H under q colors lives on X x [q]; an edge of size k produces
(q)_k lifted edges (falling factorial).  Counts are kept as exact Python
integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph
from .limits import check_bytes


class ChromaticityError(RainbowSpreadError, ValueError):
    pass


def check_chromatic(h: Hypergraph, q: int) -> None:
    """Refuse q < r: with fewer colors than r, an edge of size r has no
    injective coloring."""
    if q < h.r_bound:
        raise ChromaticityError(f"q={q} < r={h.r_bound}")


class LiftedEdge(NamedTuple):
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
    permutations(range(q - s), k - s) over the colors left.  Its bytes
    are checked against the budget before anything is built.
    """
    check_chromatic(h, q)
    w = w or {}
    total = lift_size(h, q, w)
    # a fragmentation round's peak per row, 17r + 84 bytes: per code the
    # store's and the remainders' int64 copies and a clash byte; per row
    # 40 B of multiplicity, length, key, pick and rank, 33 B of the key
    # index and its np.unique buffers, and a margin (tracemalloc over a
    # whole seed-0 run: 184 B/row on hamilton n=7 at q=7 and 122 on
    # pm(8,2) at q=12)
    need = total * (17 * h.r_bound + 84)
    check_bytes(need, f"{total} lifted edges", "use a smaller --q or a smaller hypergraph")
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
    rows of `lift_codes`, in its order, as `LiftedEdge`s.  Its bytes are
    checked against the budget before anything is listed.
    """
    check_chromatic(h, q)
    total = lift_size(h, q, w)
    # the listing's peak per row, 64r + 320 bytes: the code rows, their
    # lists and each LiftedEdge with its colors tuple (tracemalloc: 501 B/row
    # on hamilton n=6 at q=6 in a fresh process, 1,055 at r=16 with colors
    # above 256, which are not cached small ints)
    need = total * (64 * h.r_bound + 320)
    check_bytes(need, f"{total} listed lifted edges", "use a smaller --q or a smaller hypergraph")
    codes, base = lift_codes(h, q, w)
    colors = (codes % q + 1).tolist()
    return [
        LiftedEdge(base=b, colors=tuple(row[: len(h.edges[b])]))
        for b, row in zip(base.tolist(), colors)
    ]
