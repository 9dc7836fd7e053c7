"""Hit-time and rainbow-edge kernels for the Monte Carlo paths.

Edges are packed once into an (edges x r) vertex matrix by `pack_edges`,
stored column by column.  A shorter edge is padded by repeating its first vertex, which changes
neither the largest position in its row nor its set of colors.

Each kernel loops over the r slot columns of the matrix: it gathers the
values of one column for every edge at once, a contiguous (..., edges)
array, so nothing is sorted or reduced along a length-r axis.  The last
position of an edge is a running maximum over its columns.  An edge is
rainbow iff its colors differ in every pair of slots i < j with j below
the edge's size; a pair whose later slot is padding is skipped.  The
test compares values only, so it is exact for every q and every dtype.

Every kernel also takes a batch: `pos`, `colors` and `wcolor` may carry
leading axes (one row per trial or state) in front of the vertex axis,
and the result then has those leading axes; a 1-D input gives an int.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"


def pack_edges(edges):
    """(matrix, sizes): row i is edge i padded to r columns with its first
    vertex; sizes[i] is the edge's own vertex count.  The matrix is stored
    column by column, so each slot column is one contiguous array."""
    width = max((len(e) for e in edges), default=1)
    cols = [[e[j] if j < len(e) else e[0] for e in edges] for j in range(width)]
    matrix = np.array(cols, dtype=np.int64).reshape(width, len(edges)).T
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    return matrix, sizes


def _slots(values, matrix):
    """values[..., matrix[:, j]] for each slot column j, as r arrays."""
    # pack_edges stores the matrix column by column, so each col is one
    # contiguous index, which np.take gathers much faster than a strided one
    return [np.take(values, col, axis=-1) for col in matrix.T]


def _last(cols):
    """Per edge, the largest value over its slot columns."""
    last = cols[0].copy()
    for col in cols[1:]:
        np.maximum(last, col, out=last)
    return last


def _rainbow(cols, sizes):
    """Mask of edges whose colors are pairwise distinct over their own slots."""
    clash = np.zeros(cols[0].shape, dtype=bool)
    same = np.empty_like(clash)
    eq = np.empty_like(clash)
    for j in range(1, len(cols)):
        np.equal(cols[0], cols[j], out=same)
        for i in range(1, j):
            np.equal(cols[i], cols[j], out=eq)
            same |= eq
        same &= j < sizes  # slot j of a shorter edge repeats slot 0
        clash |= same
    return ~clash


def _first_hit(last, hit, n: int):
    """1 + the smallest `last` over edges where `hit` holds, per leading
    index; n + 1 where no edge hits.  `last` may be any integer dtype that
    holds n, so the sentinel is applied before widening."""
    t = np.where(hit, last, n).min(axis=-1, initial=n)
    return int(t) + 1 if t.ndim == 0 else t.astype(np.int64) + 1


def rainbow_hit_time(matrix, sizes, pos, colors):
    """Smallest m such that the first m elements of the trial permutation
    contain a rainbow edge; len(pos)+1 when no edge is ever rainbow.

    pos[..., v] is the position of vertex v in the permutation (0-based);
    colors[..., v] >= 1 is the color v would receive once sampled.
    """
    rainbow = _rainbow(_slots(colors, matrix), sizes)
    return _first_hit(_last(_slots(pos, matrix)), rainbow, pos.shape[-1])


def cover_hit_time(matrix, pos):
    """Uncolored variant of rainbow_hit_time (plain edge containment)."""
    return _first_hit(_last(_slots(pos, matrix)), True, pos.shape[-1])


def first_rainbow_edge(matrix, sizes, wcolor):
    """Lowest edge index fully inside the colored set and rainbow, else -1.

    wcolor[..., v] is the assigned color (>= 1), or 0 when v is unsampled.
    """
    cols = _slots(wcolor, matrix)
    hits = _rainbow(cols, sizes)
    for col in cols:
        hits &= col > 0
    e = len(matrix)
    first = np.where(hits, np.arange(e), e).min(axis=-1, initial=e)
    first = np.where(first < e, first, -1)
    return int(first) if first.ndim == 0 else first
