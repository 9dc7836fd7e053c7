"""Hit-time and rainbow-edge kernels for the Monte Carlo paths.

Edges are packed once into an (edges x r) vertex matrix by `pack_edges`.
A shorter edge is padded by repeating its first vertex, which changes
neither the largest position in its row nor its set of colors, so each
kernel is a few whole-matrix numpy operations with no loop over edges.

Every kernel also takes a batch: `pos`, `colors` and `wcolor` may carry
leading axes (one row per trial or state) in front of the vertex axis,
and the result then has those leading axes; a 1-D input gives an int.
"""

from __future__ import annotations

import numpy as np

IMPLEMENTATION = "numpy"


def pack_edges(edges):
    """(matrix, sizes): row i is edge i padded to r columns with its first
    vertex; sizes[i] is the edge's own vertex count."""
    width = max((len(e) for e in edges), default=1)
    rows = [list(e) + [e[0]] * (width - len(e)) for e in edges]
    matrix = np.array(rows, dtype=np.int64).reshape(len(edges), width)
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    return matrix, sizes


def _rainbow(color_rows, sizes):
    """Mask of rows holding as many distinct colors as the edge has vertices.

    Counting distinct values in each sorted row is exact for every q.
    """
    s = np.sort(color_rows, axis=-1)
    return np.count_nonzero(s[..., 1:] != s[..., :-1], axis=-1) + 1 == sizes


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
    rainbow = _rainbow(colors[..., matrix], sizes)
    return _first_hit(pos[..., matrix].max(axis=-1), rainbow, pos.shape[-1])


def cover_hit_time(matrix, pos):
    """Uncolored variant of rainbow_hit_time (plain edge containment)."""
    return _first_hit(pos[..., matrix].max(axis=-1), True, pos.shape[-1])


def first_rainbow_edge(matrix, sizes, wcolor):
    """Lowest edge index fully inside the colored set and rainbow, else -1.

    wcolor[..., v] is the assigned color (>= 1), or 0 when v is unsampled.
    """
    c = wcolor[..., matrix]
    hits = _rainbow(c, sizes) & (c.min(axis=-1) > 0)
    e = len(matrix)
    first = np.where(hits, np.arange(e), e).min(axis=-1, initial=e)
    first = np.where(first < e, first, -1)
    return int(first) if first.ndim == 0 else first
