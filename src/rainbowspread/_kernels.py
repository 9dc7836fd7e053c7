"""Hit-time and rainbow-edge kernels for the Monte Carlo paths.

Edges are packed once into an (edges x r) vertex matrix by `pack_edges`.
A shorter edge is padded by repeating its first vertex, which changes
neither the largest position in its row nor its set of colors, so each
kernel is a few whole-matrix numpy operations with no loop over edges.
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
    s = np.sort(color_rows, axis=1)
    return np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1) + 1 == sizes


def rainbow_hit_time(matrix, sizes, pos, colors):
    """Smallest m such that the first m elements of the trial permutation
    contain a rainbow edge; len(pos)+1 when no edge is ever rainbow.

    pos[v] is the position of vertex v in the permutation (0-based);
    colors[v] >= 1 is the color v would receive once sampled.
    """
    times = pos[matrix].max(axis=1)[_rainbow(colors[matrix], sizes)] + 1
    return int(times.min(initial=len(pos) + 1))


def cover_hit_time(matrix, pos):
    """Uncolored variant of rainbow_hit_time (plain edge containment)."""
    return int((pos[matrix].max(axis=1) + 1).min(initial=len(pos) + 1))


def first_rainbow_edge(matrix, sizes, wcolor):
    """Lowest edge index fully inside the colored set and rainbow, else -1.

    wcolor[v] is the assigned color (>= 1), or 0 when v is unsampled.
    """
    c = wcolor[matrix]
    hits = np.flatnonzero(_rainbow(c, sizes) & (c.min(axis=1) > 0))
    return int(hits[0]) if hits.size else -1
