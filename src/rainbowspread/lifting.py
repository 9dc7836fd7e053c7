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


def lift_size(h: Hypergraph, q: int, w: dict[int, int] | None = None) -> int:
    """|H*| = sum over edges of (q)_{|edge|}, exact.

    With a partial coloring w (vertex -> color), the size of the restricted
    lift H*_w instead: per edge, the pinned colors are fixed and the free
    vertices are colored injectively avoiding them, (q-s)_{|edge|-s}.
    """
    if w:
        from . import _blocks  # here, so that importing the package does not load numpy

        return _blocks.lift_groups(h, q, [w])[1][0]
    # without w no numpy, so that the benchmark harness's checks stay free of it
    return sum(count * falling_factorial(q, k) for k, count in Counter(map(len, h.edges)).items())


def fragment_row_bytes(r: int) -> int:
    """A fragmentation round's peak per row of round 1's restricted lift,
    the figure that `_blocks.lift_block` charges: see the measurement
    there."""
    return 4 * r + 140


def lift_codes(h: Hypergraph, q: int, w: dict[int, int] | None = None):
    """The lift, or with a partial coloring w the restricted lift H*_w, as
    (codes, base): `_blocks.lift_block` of the one coloring."""
    from . import _blocks

    return _blocks.lift_block(h, q, [w or {}])[:2]


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
    colors = (codes.astype(int) % q + 1).tolist()
    return [
        LiftedEdge(base=b, colors=tuple(row[: len(h.edges[b])]))
        for b, row in zip(base.tolist(), colors)
    ]
