"""Rainbow lifting: edges equipped with injective color assignments.

The lift of H under q colors lives on X x [q]; an edge of size k produces
(q)_k lifted edges (falling factorial).  Counts are kept as exact Python
integers.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph


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


def lift_size(h: Hypergraph, q: int) -> int:
    """|H*| = sum over edges of (q)_{|edge|}, exact, with no numpy, so
    that the benchmark harness's checks stay free of it."""
    return sum(count * falling_factorial(q, k) for k, count in Counter(map(len, h.edges)).items())


def lift_rainbow(h: Hypergraph, q: int) -> list[LiftedEdge]:
    """Materialize every (edge, injective coloring) pair: the rows of
    `_blocks.lift_block` with no pins, in its order, as `LiftedEdge`s.
    Their bytes are checked against the budget before anything is listed.
    """
    from . import _blocks  # here, so that importing the package does not load numpy

    # the listing's peak per row, 64r + 320 bytes: the code rows, their
    # lists and each LiftedEdge with its colors tuple (tracemalloc: 501 B/row
    # on hamilton n=6 at q=6 in a fresh process, 1,055 at r=16 with colors
    # above 256, which are not cached small ints)
    codes, _, base, _ = _blocks.lift_block(h, q, [{}], 64 * h.r_bound + 320, "listed lifted edges")
    colors = (codes.astype(int) % q + 1).tolist()
    return [
        LiftedEdge(base=b, colors=tuple(row[: len(h.edges[b])]))
        for b, row in zip(base.tolist(), colors)
    ]
