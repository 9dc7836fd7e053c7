"""Exact spread oracle.

A hypergraph is kappa-spread when every vertex set S is contained in at
most |H|/kappa^|S| edges.  The oracle enumerates all candidate sets S
exhaustively; only subsets of edges matter, because any other S has
containment count 0 and its constraint is vacuous.

Each candidate S of n elements is one int64 key, size first and then
lexicographic: off[|S| + 1] - 1 - colex(S'), where off[k] = sum_{j<k}
C(n, j) and colex(S') = C(t_1, 1) + ... + C(t_k, k) over S' = {n - 1 - s}
ascending; reflection reverses the lexicographic order.  `rank_tables`
and `size_keys`, the keys of a row's subsets of the sizes asked for, are
the one encoding, for fragmentation's remainders too.  Only a witness or
a violator is decoded.  The keys are built, sorted and summarized one
set size at a time, so only the largest size's keys are ever held at once.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

from .hypergraph import Hypergraph, HypergraphError
from .limits import LimitExceeded, block_rows, check_bytes

if TYPE_CHECKING:
    import numpy as np

# peak bytes per key of the largest set size, measured with tracemalloc
# when no two keys coincide: the key (8), its run start and count (16),
# the run-start flag and the rise test (2), and the per-size edge rows cut
# from `Hypergraph.packed`, at most one row element per size-1 key (8).
# Blocks of key work add a few BLOCK_ELEMENTS.
BYTES_PER_KEY = 34


class SpreadCertificate(NamedTuple):
    """Maximum kappa with a witness set attaining the minimum."""

    kappa: float
    witness: tuple[int, ...]
    containment_count: int


def rank_tables(n: int, r: int, what: str = "keys", hint: str = "instance too large"):
    """(offsets, binom), read-only int64 arrays with offsets[k] = off[k] for
    k <= r + 1 and binom[i, t] = C(t, i) for i <= r, t < n.  Refuses when a
    key or the tables do not fit: int64, or the byte budget."""
    offsets = (0, *accumulate(math.comb(n, j) for j in range(r + 1)))
    if offsets[-1] >= 2**63:
        raise LimitExceeded(
            f"{what} need {offsets[-1]} values (all subsets of at most {r} of {n} elements), above int64; {hint}"
        )
    check_bytes(8 * (r + 1) * n, f"the rank tables of {what}", hint)
    return _rank_arrays(n, offsets)


@lru_cache(maxsize=8)
def _rank_arrays(n: int, offsets: tuple[int, ...]):
    """`rank_tables`' arrays, built once per (n, r) and shared by every caller."""
    import numpy as np

    r = len(offsets) - 2
    binom = np.zeros((r + 1, n), dtype=np.int64)
    binom[0] = 1
    for i in range(1, r + 1):
        np.cumsum(binom[i - 1, :-1], out=binom[i, 1:])
    offsets = np.array(offsets, dtype=np.int64)
    offsets.flags.writeable = binom.flags.writeable = False
    return offsets, binom


def size_keys(rows, ks, offsets, binom):
    """The keys of the k-subsets of each row of rows, a (B, a) block of
    ascending elements, for each k of the ascending set sizes ks: a
    (sum_k C(a, k), B) array holding the C(a, k) keys of each k in turn,
    each in colex order of the reflected row."""
    import numpy as np

    t = (binom.shape[1] - 1) - rows.T[::-1]  # the rows reflected, ascending
    a = len(t)
    ends = accumulate(math.comb(a, k) for k in ks)
    blocks = {k: slice(end - math.comb(a, k), end) for k, end in zip(ks, ends)}
    out = np.zeros((blocks[ks[-1]].stop, len(rows)), dtype=np.int64)
    # one Pascal pass per size s, in colex order: the s-subsets whose
    # largest element is t_j follow every s-subset of t_0, ..., t_{j-1},
    # and are the (s - 1)-subsets of those with t_j added, adding C(t_j, s).
    # A size s that only leads to the next k in ks needs the s-subsets of
    # the first m = a - (k - s) elements, the first C(m, s); a size in ks
    # is written in its block of out.
    below = out[:1] if 0 in blocks else np.zeros((1, len(rows)), dtype=np.int64)  # the empty set
    for s in range(1, ks[-1] + 1):
        m = a - next(k - s for k in ks if k >= s)
        layer = out[blocks[s]] if s in blocks else np.empty((math.comb(m, s), len(rows)), dtype=np.int64)
        for j in range(s - 1, m):
            np.add(below[: math.comb(j, s - 1)], binom[s, t[j]], out=layer[math.comb(j, s) : math.comb(j + 1, s)])
        below = layer
    for k, block in blocks.items():
        np.subtract(offsets[k + 1] - 1, out[block], out=out[block])
    return out


class SizeSummary(NamedTuple):
    """What the readers need of the distinct size-k edge subsets.

    Read in ascending key order, `values` holds each count above every
    count before it, and `least` the key where it first appears: the
    least key whose count is at least that value.  `squares` is
    N_k = sum_S c(S)^2, with c(S) the number of edges, of every size,
    that contain S: the ordered pairs of edges that both contain S.
    """

    k: int
    distinct: int
    values: np.ndarray
    least: np.ndarray
    squares: int


class CandidateSummary:
    """One `SizeSummary` per set size 1, ..., r, and the `rank_tables`
    that encode their keys.  Its length is the number of distinct
    nonempty edge subsets."""

    def __init__(self, sizes: tuple[SizeSummary, ...], offsets: np.ndarray, binom: np.ndarray):
        self.sizes = sizes
        self.offsets = offsets
        self.binom = binom

    def __len__(self) -> int:
        return sum(size.distinct for size in self.sizes)

    def decode(self, k: int, key) -> tuple[int, ...]:
        """The size-k set with this key, ascending."""
        rank = int(self.offsets[k + 1]) - 1 - int(key)  # colex(S')
        out = []
        for i in range(k, 0, -1):
            # the i-th smallest element of S' is the largest t with C(t, i) <= rank
            t = int(self.binom[i].searchsorted(rank, side="right")) - 1
            out.append(self.binom.shape[1] - 1 - t)
            rank -= int(self.binom[i, t])
        return tuple(out)


def containment_count(h: Hypergraph, s) -> int:
    """Number of edges (with multiplicity) containing the vertex set s."""
    s = frozenset(s)
    for v in s:
        if not 0 <= v < h.num_vertices:
            raise HypergraphError(f"vertex {v} outside [0, {h.num_vertices})")
    if not s:
        return len(h.edges)
    return sum(1 for e in h.edges if s.issubset(e))


CANDIDATE_HINT = "instance too large to count its edge subsets exactly"


def check_candidate_bytes(h: Hypergraph) -> int:
    """The bytes charged for h's candidate summary, after refusing it,
    before any key exists, when they exceed the byte budget: the keys of
    the largest set size, which is all that is held at once, and the
    rank tables."""
    r = max((len(e) for e in h.edges), default=0)
    classes = Counter(len(e) for e in h.edges)
    keys = max((sum(m * math.comb(a, k) for a, m in classes.items()) for k in range(1, r + 1)), default=0)
    need = BYTES_PER_KEY * keys + 8 * (r + 1) * h.num_vertices
    check_bytes(need, f"{keys} candidate keys of one set size", CANDIDATE_HINT)
    return need


def _candidate_sets(h: Hypergraph) -> CandidateSummary:
    """The summary of every distinct nonempty edge subset, built one set size at a time."""
    r = max((len(e) for e in h.edges), default=0)
    offsets, binom = rank_tables(h.num_vertices, r, "candidate keys", CANDIDATE_HINT)
    check_candidate_bytes(h)
    matrix, sizes = h.packed
    # only an edge's own columns: the padding repeats a vertex
    classes = {a: matrix[sizes == a, :a] for a in sorted({len(e) for e in h.edges})}
    summaries = tuple(_size_summary(classes, k, offsets, binom) for k in range(1, r + 1))
    return CandidateSummary(summaries, offsets, binom)


def _size_summary(classes, k: int, offsets, binom) -> SizeSummary:
    """The size-k keys of every edge, sorted and counted by run."""
    import numpy as np

    present = [(a, edges) for a, edges in classes.items() if a >= k]
    keys = np.empty(sum(len(edges) * math.comb(a, k) for a, edges in present), dtype=np.int64)
    at = 0
    for a, edges in present:
        # size_keys holds a row's a elements, its keys, two smaller partial sizes and one binomial
        rows = block_rows(a + 3 * math.comb(a, k) + 1)
        for lo in range(0, len(edges), rows):
            out = size_keys(edges[lo : lo + rows], (k,), offsets, binom)
            keys[at : at + out.size] = out.ravel()
            at += out.size
    out = None  # the last block goes before the sort
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = len(keys) - starts[-1]
    # N_k <= len(keys)^2, so int64 reaches 2^63 only past 2^31.5 keys of
    # one size (24 GB of keys alone)
    squares = int(np.dot(counts, counts))
    top = np.maximum.accumulate(counts, out=counts)
    rise = np.flatnonzero(np.concatenate(([True], top[1:] != top[:-1])))
    values, least = top[rise], keys[starts[rise]]
    values.flags.writeable = least.flags.writeable = False  # cached on the hypergraph and shared
    return SizeSummary(k, len(starts), values, least, squares)


def _count_limit(m: int, kappa: float, k: int) -> int:
    """floor(m / kappa^k), exact: cnt > it iff cnt * num^k > m * den^k."""
    num, den = kappa.as_integer_ratio()
    return m * den**k // num**k


def check_kappa(kappa: float) -> None:
    """Reject a kappa that is not a positive finite number."""
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be positive and finite")


def max_spread(h: Hypergraph) -> SpreadCertificate:
    """Largest kappa for which the spread bound holds for every S.

    Equals min over nonempty S (subsets of edges) of (|H|/count(S))^(1/|S|).
    Ties are broken toward the lexicographically smallest witness; the
    comparison is done in exact integer arithmetic so the witness is
    deterministic even when two candidates give equal kappa.  The float
    kappa is rounded down, so `is_kappa_spread` accepts it.
    """
    if len(h.edges) == 0:
        raise HypergraphError("max_spread requires at least one edge")
    m = len(h.edges)
    # for one size k the bound is smallest at the largest count, so only
    # those r (k, count) pairs are compared:
    # (m/c)^(1/k) < (m/c')^(1/k')  <=>  m^k' * c'^k < m^k * c^k'
    table = h.candidates
    tops = [(size.k, int(size.values[-1])) for size in table.sizes]
    low_k, low_cnt = tops[0]
    for k, cnt in tops[1:]:
        if m**low_k * low_cnt**k < m**k * cnt**low_k:
            low_k, low_cnt = k, cnt
    best, best_cnt = min(
        (table.decode(k, size.least[-1]), cnt)
        for size, (k, cnt) in zip(table.sizes, tops)
        if m**low_k * low_cnt**k == m**k * cnt**low_k
    )
    kappa = (m / best_cnt) ** (1.0 / len(best))
    # kappa <= the exact minimum iff the witness itself is within its limit
    while best_cnt > _count_limit(m, kappa, len(best)):
        kappa = math.nextafter(kappa, 0.0)
    return SpreadCertificate(kappa=kappa, witness=best, containment_count=best_cnt)


def is_kappa_spread(h: Hypergraph, kappa: float):
    """None when the kappa-spread bound holds for all S, else a violating S.

    The returned witness is the lexicographically smallest violator.
    """
    check_kappa(kappa)
    m = len(h.edges)
    table = h.candidates
    violators = []
    for size in table.sizes:
        # the first value above the limit, clamped to m so that it fits int64
        i = int(size.values.searchsorted(min(_count_limit(m, kappa, size.k), m), side="right"))
        if i < len(size.values):
            violators.append(table.decode(size.k, size.least[i]))
    return min(violators, default=None)


def pad_to_uniform(h: Hypergraph) -> Hypergraph:
    """Make every edge r_bound-uniform with fresh vertices per edge copy.

    New vertices are appended after the original ids; each edge copy gets
    its own distinct padding elements, so any S touching a padding vertex
    is contained in exactly one edge.  A uniform `h` is returned as it is.
    """
    if h.is_uniform:
        return h
    next_vertex = h.num_vertices
    new_edges = []
    for e in h.edges:
        deficit = h.r_bound - len(e)
        padded = e + tuple(range(next_vertex, next_vertex + deficit))
        next_vertex += deficit
        new_edges.append(padded)
    return Hypergraph(next_vertex, tuple(new_edges), h.r_bound)
