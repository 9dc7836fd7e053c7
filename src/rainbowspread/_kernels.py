"""Hit-time and rainbow-edge kernels for the Monte Carlo paths.

Edges are packed once into an (edges x r) vertex matrix by `pack_edges`,
stored column by column.  A shorter edge is padded by repeating its first vertex, which changes
neither the largest position in its row nor its set of colors.

Every kernel takes a batch: `pos`, `colors` and `wcolor` may carry
leading axes (one row per trial or state) in front of the vertex axis,
and the result then has those leading axes; a 1-D input gives an int.

Inside, the layout is vertex-major with the batch last.  The vertex
axis moves to the front once, and one take gathers every slot column
into an (r, edges, *batch) array, so each index copies a contiguous run
of the batch; a caller that holds its rows vertex-major and passes their
transpose makes that move free.  The last position of an edge is the
maximum over its r slots.  An edge is rainbow iff its colors differ in
every pair of its own slots; the pairs of all r slots are compared
first, then the edges of each shorter size again on their own slots.
The test compares values only, so it is exact for every q and every
dtype.  One gather of the position slots serves both hit times.  A
reduction over edges moves the edge axis last first, so it runs along
memory.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"


def pack_edges(edges):
    """(matrix, sizes): row i is edge i padded to r columns with its first
    vertex; sizes[i] is the edge's own vertex count.  The matrix is stored
    column by column, so matrix.T is one contiguous (r, edges) index."""
    width = max((len(e) for e in edges), default=1)
    cols = [[e[j] if j < len(e) else e[0] for e in edges] for j in range(width)]
    matrix = np.array(cols, dtype=np.int64).reshape(width, len(edges)).T
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    return matrix, sizes


def _slots(values, matrix):
    """values[..., matrix[:, j]] for every slot column j, as one
    (r, edges, *batch) array."""
    rows = values.transpose(-1, *range(values.ndim - 1))  # np.moveaxis(values, -1, 0), faster
    return np.take(rows, matrix.T, axis=0)


def _clash(slots, sizes):
    """(edges, *batch) mask of edges with two equal colors among their own
    slots."""
    clash = np.zeros(slots.shape[1:], dtype=bool)
    for j in range(1, len(slots)):
        clash |= (slots[:j] == slots[j]).any(axis=0)
    # a shorter edge's padding repeats its slot 0, so it clashed above;
    # its own slots are the first `size`
    for size in set(sizes[sizes < len(slots)].tolist()):  # np.unique would import numpy.ma
        short = np.flatnonzero(sizes == size)
        clash[short] = _clash(slots[:size, short], sizes[short])
    return clash


def _edges_last(x):
    """x with its edge axis (axis 0) moved last, laid out so that a
    reduction over edges runs along memory."""
    return np.ascontiguousarray(x.transpose(*range(1, x.ndim), 0))


def _first_hit(last, n: int):
    """1 + the smallest `last` over edges, per batch index; n + 1 when no
    edge has `last` below n.  `last` may be any integer dtype that holds
    n, so the sentinel is applied before widening."""
    t = _edges_last(last).min(axis=-1, initial=n)
    return int(t) + 1 if t.ndim == 0 else t.astype(np.int64) + 1


def hit_times(matrix, sizes, pos, colors):
    """(rainbow, cover): the smallest m such that the first m elements of
    the trial permutation contain a rainbow edge, and an edge; n + 1 for
    n vertices when none does.  One gather of the positions serves both.

    pos[..., v] is the position of vertex v in the permutation (0-based);
    colors[..., v] is the color of v once sampled, read only for equality.
    """
    n = pos.shape[-1]
    last = _slots(pos, matrix).max(axis=0)
    # every position is below n, so the sentinel n wins the maximum
    clash = np.multiply(_clash(_slots(colors, matrix), sizes), n, dtype=pos.dtype)
    return _first_hit(np.maximum(last, clash), n), _first_hit(last, n)


def rainbow_hit_time(matrix, sizes, pos, colors):
    """The rainbow hit time of `hit_times`."""
    return hit_times(matrix, sizes, pos, colors)[0]


def cover_hit_time(matrix, pos):
    """Uncolored variant of rainbow_hit_time (plain edge containment)."""
    return _first_hit(_slots(pos, matrix).max(axis=0), pos.shape[-1])


def first_rainbow_edge(matrix, sizes, wcolor):
    """Lowest edge index fully inside the colored set and rainbow, else -1.

    wcolor[..., v] is the assigned color (>= 1), or 0 when v is unsampled.
    """
    slots = _slots(wcolor, matrix)
    hits = ~_clash(slots, sizes) & (slots.min(axis=0) > 0)
    e = len(matrix)
    first = np.where(_edges_last(hits), np.arange(e), e).min(axis=-1, initial=e)
    first = np.where(first < e, first, -1)
    return int(first) if first.ndim == 0 else first
