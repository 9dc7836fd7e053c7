"""Exact spread oracle.

A hypergraph is kappa-spread when every vertex set S is contained in at
most |H|/kappa^|S| edges.  The oracle enumerates all candidate sets S
exhaustively; only subsets of edges matter, because any other S has
containment count 0 and its constraint is vacuous.

Each candidate S of n elements is one int64 key, size first and then
lexicographic: off[|S| + 1] - 1 - colex(S'), where off[k] = sum_{j<k}
C(n, j) and colex(S') = C(t_1, 1) + ... + C(t_k, k) over S' = {n - 1 - s}
ascending; reflection reverses the lexicographic order.  `rank_tables`,
`subset_keys` and `row_keys` are the one encoding, for fragmentation's
remainders too.  Only a witness or a violator is decoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .hypergraph import Hypergraph, HypergraphError
from .limits import LimitExceeded, block_rows, check_bytes

if TYPE_CHECKING:
    import numpy as np

# peak bytes per enumerated key: the key, its run-start flag, and when no
# two keys coincide, the distinct key and its run start
BYTES_PER_KEY = 8 + 1 + 8 + 8


@dataclass(frozen=True)
class SpreadCertificate:
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
    import numpy as np

    binom = np.zeros((r + 1, n), dtype=np.int64)
    binom[0] = 1
    for i in range(1, r + 1):
        np.cumsum(binom[i - 1, :-1], out=binom[i, 1:])
    offsets = np.array(offsets, dtype=np.int64)
    offsets.flags.writeable = binom.flags.writeable = False
    return offsets, binom


def subset_keys(rows, offsets, binom):
    """The keys of all subsets of each row of rows, a (B, k) block of
    ascending elements, as a (2^k, B) array: row p holds the subsets of
    the (j + 1)-th largest elements for the bits j set in p."""
    import numpy as np

    t = (binom.shape[1] - 1) - rows.T[::-1]  # the rows reflected, ascending
    out = np.zeros((1 << len(t), len(rows)), dtype=np.int64)
    pop = np.zeros(1, dtype=np.intp)  # pop[p] = |S(p)| for each p below 2^j
    # S'(2^j + p) = S'(p) + {t_j}, where t_j is the (|S(p)| + 1)-th smallest
    for j in range(len(t)):
        np.add(out[: 1 << j], binom[1 : j + 2, t[j]][pop], out=out[1 << j : 2 << j])
        pop = np.concatenate([pop, pop + 1])
    return np.subtract((offsets[pop + 1] - 1)[:, None], out, out=out)


def row_keys(rows, offsets, binom):
    """The key of each row of rows: ascending elements, padded on the right with n."""
    n = binom.shape[1]
    k = (rows < n).sum(axis=1)
    # a pad's indices wrap around to some entry, which (i < k) zeroes
    terms = (binom[k - i, n - 1 - rows[:, i]] * (i < k) for i in range(rows.shape[1]))
    return offsets[k + 1] - 1 - sum(terms)


@dataclass(frozen=True)
class CandidateTable:
    """The distinct nonempty edge subsets as sorted int64 keys, with their
    containment counts and the `rank_tables` that encode them.  Keys of
    size k sit at [starts[k], starts[k + 1])."""

    keys: np.ndarray
    counts: np.ndarray
    starts: tuple[int, ...]
    offsets: np.ndarray
    binom: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def sizes(self):
        """(k, keys, counts) for each set size k, as views."""
        for k in range(1, len(self.starts) - 1):
            lo, hi = self.starts[k], self.starts[k + 1]
            yield k, self.keys[lo:hi], self.counts[lo:hi]

    def smallest(self, k: int, keys) -> tuple[int, ...]:
        """The lexicographically smallest of the size-k sets with these keys."""
        import numpy as np

        rank = int(self.offsets[k + 1]) - 1 - int(keys.min())  # colex(S') of the least key
        out = []
        for i in range(k, 0, -1):
            # the i-th smallest element of S' is the largest t with C(t, i) <= rank
            t = int(np.searchsorted(self.binom[i], rank, side="right")) - 1
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
    """The number of keys enumerated for h's candidate table, after
    refusing the table, before it exists, when it exceeds the byte budget."""
    r = max((len(e) for e in h.edges), default=0)
    total = sum((1 << len(e)) - 1 for e in h.edges)
    check_bytes(BYTES_PER_KEY * total + 8 * (r + 1) * h.num_vertices, f"{total} candidate keys", CANDIDATE_HINT)
    return total


def _candidate_sets(h: Hypergraph) -> CandidateTable:
    """Every distinct nonempty edge subset with its containment count."""
    r = max((len(e) for e in h.edges), default=0)
    offsets, binom = rank_tables(h.num_vertices, r, "candidate keys", CANDIDATE_HINT)
    total = check_candidate_bytes(h)
    import numpy as np

    matrix, sizes = h.packed
    keys = np.empty(total, dtype=np.int64)
    at = 0
    for k in range(1, r + 1):
        # only the edge's own k columns: the padding repeats a vertex
        edges = matrix[sizes == k, :k]
        for lo in range(0, len(edges), block_rows(1 << k)):
            out = subset_keys(edges[lo : lo + block_rows(1 << k)], offsets, binom)[1:]  # less the empty set
            keys[at : at + out.size] = out.ravel()
            at += out.size
    edges = out = None  # the last block goes before the sort
    keys.sort()
    first = np.empty(total, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    distinct, runs = keys[first], np.flatnonzero(first)
    del keys, first
    counts = np.diff(runs, append=total)
    starts = (0, *np.searchsorted(distinct, offsets[1:]).tolist())
    distinct.flags.writeable = counts.flags.writeable = False
    return CandidateTable(distinct, counts, starts, offsets, binom)


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
    tops = [(k, int(counts.max())) for k, _, counts in table.sizes()]
    low_k, low_cnt = tops[0]
    for k, cnt in tops[1:]:
        if m**low_k * low_cnt**k < m**k * cnt**low_k:
            low_k, low_cnt = k, cnt
    best, best_cnt = min(
        (table.smallest(k, keys[counts == cnt]), cnt)
        for (k, keys, counts), (_, cnt) in zip(table.sizes(), tops)
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
    for k, keys, counts in table.sizes():
        # no count exceeds m, so the clamped limit fits int64
        over = counts > min(_count_limit(m, kappa, k), m)
        if over.any():
            violators.append(table.smallest(k, keys[over]))
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
