"""The array work of fragmentation's seed blocks: the lift restricted to
each partial coloring of a block, and psi's search over a block's store.

`lifting` and `fragmentation` import this module when they first need
it, so that a command that does not fragment does not compile it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .hypergraph import Hypergraph
from .lifting import check_chromatic, falling_factorial, fragment_row_bytes
from .limits import block_rows, check_bytes
from .spread import rank_tables, size_keys


def pin_colors(ws, n: int, q: int):
    """The partial colorings ws as an (len(ws), n) array: the color each
    pins on each vertex, 0 where it pins none and q + 1 for a color
    outside [1, q], in the least unsigned type that holds q + 1."""
    counts = [len(w) for w in ws]
    total = sum(counts)
    row = np.repeat(np.arange(len(ws)), counts)
    v = np.fromiter(chain.from_iterable(ws), dtype=np.int64, count=total)
    c = np.fromiter(chain.from_iterable(w.values() for w in ws), dtype=np.int64, count=total)
    pins = np.zeros((len(ws), n), dtype=np.min_scalar_type(q + 1))
    pins[row, v] = np.where((1 <= c) & (c <= q), c, q + 1)
    return pins


def lift_groups(h: Hypergraph, q: int, ws):
    """The (coloring, edge) pairs of ws and h.edges that some injective
    coloring of the edge agrees with, grouped by (edge size k, pinned
    count s): ([(k, s, pairs)], sizes, pins), where pairs indexes the pairs
    coloring-major, ascending, and sizes[i] is the exact size of the lift
    restricted to ws[i]."""
    matrix, esize = h.packed
    m, r = matrix.shape
    pins = pin_colors(ws, h.num_vertices, q)
    slot = np.where(np.arange(r) < esize[:, None], pins[:, matrix], 0)  # an edge's own slots
    slot.sort(axis=2)
    # no pinned color repeats, and none lies outside [1, q]
    ok = ~((slot[..., 1:] == slot[..., :-1]) & (slot[..., 1:] > 0)).any(axis=2) & (slot[..., -1] <= q)
    group = np.where(ok, esize * (r + 1) + (slot > 0).sum(axis=2), -1).ravel()
    groups, sizes = [], [0] * len(ws)
    for key in np.flatnonzero(np.bincount(group + 1)[1:]).tolist():
        k, s = divmod(key, r + 1)
        pairs = np.flatnonzero(group == key)
        count = falling_factorial(q - s, k - s)
        for i, n in enumerate(np.bincount(pairs // m, minlength=len(ws)).tolist()):
            sizes[i] += n * count
        groups.append((k, s, pairs))
    return groups, sizes, pins


def lift_block(h: Hypergraph, q: int, ws):
    """The lift restricted to each partial coloring of ws, one after the
    other, as integer rows: the one enumerator behind `lift_codes`,
    `lift_rainbow` and fragmentation.

    Element (v, c) is coded v*q + c - 1, so each row ascends with its
    vertices.  Returns (codes, base, owner): codes is an array of shape
    (rows, r_bound) in the least unsigned type that holds N*q, each row
    padded on the right with N*q; base holds each row's base edge index
    and owner the index in ws of its coloring.  Rows are in canonical
    order: by coloring, then base edge, then colors lexicographically.
    The (coloring, edge) pairs of one edge size k and pinned count s are
    written together, with no loop over edges: the pinned colors are
    fixed, and the free vertices take the rows of the cached table of
    permutations(range(q - s), k - s) over the colors left.  Their bytes
    are checked against the budget before anything is built.
    """
    check_chromatic(h, q)
    groups, sizes, pins = lift_groups(h, q, ws)
    total = sum(sizes)
    # a fragmentation round's peak per row, 4r + 140 bytes: per code the
    # store's and the remainders' one-byte copies and the clash tests; per
    # row the int64 multiplicity, seed and length in the store and among
    # the remainders, the own and vertex keys, np.unique's buffers and the
    # picks, and a margin (tracemalloc over a whole seed-0 run: 136 B/row on
    # hamilton n=7 at q=7 and q=8, 134 on n=6 at q=8, 140 on pm(8,2) at q=12
    # and 146 on pm(10,2) at q=8, seed 1)
    need = total * fragment_row_bytes(h.r_bound)
    check_bytes(need, f"{total} lifted edges", "use a smaller --q or a smaller hypergraph")
    matrix, _ = h.packed
    m = len(matrix)
    pad = h.num_vertices * q
    dtype = np.min_scalar_type(pad)
    count = np.zeros(len(ws) * m, dtype=np.int64)
    # each group's rows are written in one run, and then put in canonical
    # order; run holds where each pair's rows start
    run = np.zeros(len(ws) * m, dtype=np.int64)
    runs = np.full((total, h.r_bound), pad, dtype=dtype)
    at = 0
    for k, s, pairs in groups:
        perms = _permutation_table(q - s, k - s)
        count[pairs] = len(perms)
        verts = matrix[pairs % m, :k]
        pin = pins[(pairs // m)[:, None], verts]
        # the colors its pins leave each pair, 0-based and ascending
        used = np.zeros((len(pairs), q + 1), dtype=bool)
        used[np.arange(len(pairs))[:, None], pin] = True
        avail = (np.flatnonzero(~used[:, 1:]).reshape(len(pairs), q - s) % q).astype(dtype)
        # the run, pair by pair in the order of the slots they pin: each
        # pair's pinned codes, its free slots' first codes, and then the
        # colors of a row of the table added to its free slots in turn, for
        # the pairs that pin the same slots at once
        pinned = pin > 0
        order = np.lexsort(pinned.T[::-1])
        run[pairs[order]] = at + len(perms) * np.arange(len(pairs))
        block = runs[at : at + len(pairs) * len(perms)].reshape(len(pairs), len(perms), -1)
        block[:, :, :k] = (verts * q + pin - pinned).astype(dtype)[order, None]
        colors = avail[order][:, perms]
        cuts = np.flatnonzero((pinned[order[1:]] != pinned[order[:-1]]).any(axis=1)) + 1
        starts = [0, *cuts.tolist()]
        for lo, hi, free in zip(starts, [*starts[1:], len(pairs)], (~pinned[order[starts]]).tolist()):
            for turn, j in enumerate(j for j, f in enumerate(free) if f):
                block[lo:hi, :, j] += colors[lo:hi, :, turn]
        at += len(pairs) * len(perms)
    pair = np.repeat(np.arange(len(ws) * m), count)
    first = np.cumsum(count) - count
    codes = np.take(runs, (run - first)[pair] + np.arange(total), axis=0)
    return codes, pair % m, pair // m


@lru_cache(maxsize=32)
def _permutation_table(n: int, k: int):
    """permutations(range(n), k) as a read-only (n!/(n-k)!, k) array, in
    lexicographic order: each first entry a, then the table for n - 1
    with entries >= a shifted up by one."""
    table = np.zeros((1, 0), dtype=np.min_scalar_type(max(n - 1, 0)))
    for m in range(n - k + 1, n + 1):
        first = np.repeat(np.arange(m, dtype=table.dtype), len(table))
        rest = np.tile(table, (m, 1))
        table = np.column_stack([first, rest + (rest >= first[:, None])])
    table.flags.writeable = False
    return table


def elements(wmaps, q: int, pad: int):
    """Per seed of the block, a table over the pad + 1 codes, the tables
    one after another: 1 for the sampled elements and pad, 2 for the other
    elements of sampled vertices, and 0 for the rest.  A color outside
    [1, q] has no element."""
    pins = pin_colors(wmaps, pad // q, q)
    seeds, n = pins.shape
    table = np.zeros((seeds, pad + 1), dtype=np.int8)
    table[:, pad] = 1
    sampled = pins > 0
    table[:, :pad].reshape(seeds, n, q)[sampled] = 2
    s, v = np.nonzero(sampled & (pins <= q))
    table[s, v * q + pins[s, v] - 1] = 1
    return table.ravel()


def _terms(binom):
    """The flat (r + 1, n + 1) table whose [i, c] is C(n - 1 - c, i), code
    c's term in the `spread` key of a set in which it is the i-th largest:
    0 in row 0 and in column n, so that a pad or an unused slot adds
    nothing.  Entry [i, c] is at i * (n + 1) + c."""
    table = np.zeros((len(binom), binom.shape[1] + 1), dtype=np.int64)
    table[1:, :-1] = binom[1:, ::-1]
    return table.ravel()


def _keys(rows, lengths, offsets, terms, n: int):
    """Each row's key as a set of n elements, in closed form: code j of a
    length-k row is the (k - j)-th largest."""
    keys = offsets[lengths + 1] - 1
    for j in range(rows.shape[1]):
        keys -= terms.take(np.maximum(lengths - j, 0) * (n + 1) + rows[:, j])
    return keys


def psi_round(store, wmaps):
    """Apply the psi/chi minimization to a `fragmentation.FragmentStore`,
    for each seed's sampled colored set.

    Returns (compat, rem, src, lengths): compat marks the rows that agree
    with their seed's sample, rem holds their remainders (the elements on
    unsampled vertices) as padded rows, lengths their sizes, and src[i]
    is the compatible row whose remainder row i picks: the smallest
    remainder of its seed inside row i's own, ties broken by row order.
    A seed with an empty remainder has every row pick its first one.
    """
    q, pad = store.q, store.pad
    kind = elements(wmaps, q, pad)
    at = store.seed * (pad + 1)  # where each row's seed's table starts
    # column by column, which is faster than along the short rows
    compat = np.ones(len(store), dtype=bool)
    for col in store.codes.T:
        compat &= kind.take(at + col) != 2
    rem, seed, at = np.compress(compat, store.codes, axis=0), store.seed[compat], at[compat]
    lengths = np.zeros(len(rem), dtype=np.int64)
    for col in rem.T:
        col[kind.take(at + col) == 1] = pad
        lengths += col != pad
    del at
    # sort each row, which moves pad, the largest code, to the end: an
    # odd-even transposition network over the columns, faster than a sort
    # along the short rows
    for step in range(rem.shape[1]):
        for a, b in zip(rem.T[step % 2 :: 2], rem.T[step % 2 + 1 :: 2]):
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low

    # the empty remainder is inside every row of its seed
    empty = np.flatnonzero(lengths == 0)
    if not len(empty):
        return compat, rem, _search(rem, lengths, seed, q, pad), lengths
    firsts, at = np.unique(seed[empty], return_index=True)
    pick = np.full(store.seeds, -1)
    pick[firsts] = empty[at]
    src = pick[seed]
    live = np.flatnonzero(src < 0)
    if len(live):
        src[live] = live[_search(rem[live], lengths[live], seed[live], q, pad)]
    return compat, rem, src, lengths


def _search(rem, lengths, seed, q: int, pad: int):
    """psi's picks for rows with no empty remainder in their seed.

    Every remainder is indexed by its key, and a row's own key is its
    pick unless a smaller remainder lies inside it.  That one's vertex
    set (its codes divided by q) is the vertex set of another remainder
    of the seed, inside the row's own: a shadow.  So each distinct
    vertex set looks up the keys of its smaller subsets among the vertex
    sets once, and a row looks up, per shadow of its vertex set, the
    subset of its codes on that shadow.  A row takes the hit of least
    size, and there of least row.
    """
    n, r = pad // q, rem.shape[1]
    offsets, binom = rank_tables(pad, r)
    v_offsets, v_binom = rank_tables(n, r)
    terms = _terms(binom)
    keys = _keys(rem, lengths, offsets, terms, pad) + seed * int(offsets[-1])
    # np.unique's index is a key's first row, the least in row order
    index_keys, index_rows, own = np.unique(keys, return_index=True, return_inverse=True)
    src = index_rows[own]
    del keys, own
    verts = rem // q  # pad // q is n, the vertex pad
    v_keys = _keys(verts, lengths, v_offsets, _terms(v_binom), n) + seed * int(v_offsets[-1])
    shadow_keys, shadow_rows, vset = np.unique(v_keys, return_index=True, return_inverse=True)
    del v_keys

    # the (vertex set, shadow) pairs, by vertex set length and then in blocks
    found_u, found_w = [], []
    v_lengths = lengths[shadow_rows]
    sizes = np.flatnonzero(np.bincount(v_lengths)).tolist()
    for k in sizes[1:]:
        ks = [s for s in sizes if s < k]
        sets = np.flatnonzero(v_lengths == k)
        # per set: its subset keys, their positions and the hit test
        block = block_rows(3 * sum(math.comb(k, s) for s in ks))
        for lo in range(0, len(sets), block):
            todo = sets[lo : lo + block]
            rows = shadow_rows[todo]
            sub = size_keys(verts[rows, :k], ks, v_offsets, v_binom) + seed[rows] * int(v_offsets[-1])
            # no clamp: a key of a smaller size lies below the set's own key, which is indexed
            pos = np.searchsorted(shadow_keys, sub)
            j, i = np.nonzero(shadow_keys[pos] == sub)
            found_u.append(todo[i])
            found_w.append(pos[j, i])
    if not found_u:
        return src
    pair_u = np.concatenate(found_u)
    order = np.argsort(pair_u, kind="stable")
    pair_u, pair_w = pair_u[order], np.concatenate(found_w)[order]
    # per pair: the slots of the vertex set that the shadow holds, and where
    # each slot's row of terms starts, its place from the end of the shadow
    # times pad + 1, or 0, the zero row, for a slot the shadow does not hold
    u_verts, w_verts = verts[shadow_rows[pair_u]], verts[shadow_rows[pair_w]]
    held = (u_verts[:, :, None] == w_verts[:, None, :]).any(axis=2) & (u_verts < n)
    w_len = lengths[shadow_rows[pair_w]]
    place = np.where(held, w_len[:, None] + 1 - np.cumsum(held, axis=1), 0) * (pad + 1)
    top = offsets[w_len + 1] - 1
    pairs = np.bincount(pair_u, minlength=len(shadow_keys))
    pair_start = np.cumsum(pairs) - pairs

    span = len(rem) + 1
    miss = span * (r + 1)
    rank = index_rows + span * lengths[index_rows]  # a hit on row j of size s: size first, then row
    expand = np.flatnonzero(pairs[vset])
    per_row = pairs[vset[expand]]
    ends = np.cumsum(per_row)
    # per looked-up subset, every array a block makes: three over its r
    # slots (the term indices, their sum with the codes, the terms) and
    # sixteen of one value each
    block = block_rows(3 * r + 16)
    lo = 0
    while lo < len(expand):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - per_row[lo] + block, side="right")))
        rows, counts = expand[lo:hi], per_row[lo:hi]
        starts = np.cumsum(counts) - counts
        at = np.repeat(rows, counts)
        pair = np.repeat(pair_start[vset[rows]] - starts, counts) + np.arange(int(starts[-1] + counts[-1]))
        sub = top[pair] - terms.take(place[pair] + rem[at]).sum(axis=1) + seed[at] * int(offsets[-1])
        # no clamp: the subset is smaller than its row, whose own key is indexed
        pos = np.searchsorted(index_keys, sub)
        best = np.minimum.reduceat(np.where(index_keys[pos] == sub, rank[pos], miss), starts)
        hit = best < miss
        src[rows[hit]] = best[hit] % span
        lo = hi
    return src
