"""Exact spread oracle.

A hypergraph is kappa-spread when every vertex set S is contained in at
most |H|/kappa^|S| edges.  The oracle enumerates all candidate sets S
exhaustively; only subsets of edges matter, because any other S has
containment count 0 and its constraint is vacuous.

Each candidate S = {s_1 < ... < s_k} is held as one int64 key,
off[k] + C(s_1, 1) + ... + C(s_k, k), where off[k] = sum_{j<k} C(N, j):
the colex rank of S among the k-subsets of the N vertices, shifted past
every smaller size.  Keys sort by size first and every key is below
off[r + 1].  `_candidate_sets` counts the keys once per hypergraph
(`Hypergraph.candidates`); only the sets that end up as a witness or a
violator are decoded back into vertex tuples.
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


@dataclass(frozen=True)
class CandidateTable:
    """The distinct nonempty edge subsets as sorted int64 keys, with their
    containment counts.  Keys of size k sit at [starts[k], starts[k + 1]);
    binom[i, v] = C(v, i)."""

    keys: np.ndarray
    counts: np.ndarray
    starts: tuple[int, ...]
    offsets: tuple[int, ...]
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

        best = None
        block = block_rows(k)
        for lo in range(0, len(keys), block):
            rank = keys[lo : lo + block] - self.offsets[k]
            rows = np.empty((len(rank), k), dtype=np.int64)
            for i in range(k, 0, -1):
                # the i-th smallest element is the largest v with C(v, i) <= rank
                v = np.searchsorted(self.binom[i], rank, side="right") - 1
                rows[:, i - 1] = v
                rank -= self.binom[i, v]
            for i in range(k):
                rows = rows[rows[:, i] == rows[:, i].min()]
            row = tuple(int(v) for v in rows[0])
            best = row if best is None else min(best, row)
        return best


def containment_count(h: Hypergraph, s) -> int:
    """Number of edges (with multiplicity) containing the vertex set s."""
    s = frozenset(s)
    for v in s:
        if not 0 <= v < h.num_vertices:
            raise HypergraphError(f"vertex {v} outside [0, {h.num_vertices})")
    if not s:
        return len(h.edges)
    return sum(1 for e in h.edges if s.issubset(e))


def _subset_keys(h: Hypergraph, offsets, binom, total: int):
    """The key of every nonempty subset of every edge, unsorted."""
    import numpy as np

    matrix, sizes = h.packed
    offsets = np.array(offsets, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)
    at = 0
    for k in range(1, len(offsets) - 1):
        # only the edge's own k columns: the padding repeats a vertex
        edges = matrix[sizes == k, :k]
        width = (1 << k) - 1
        pop = np.array([p.bit_count() for p in range(width + 1)])
        block = block_rows(width)
        for lo in range(0, len(edges), block):
            v = edges[lo : lo + block]
            out = keys[at : at + len(v) * width].reshape(len(v), width)
            # column p - 1 holds the subset whose columns are the bits of p;
            # with highest bit j, p = 2^j + q and S(p) = S(q) + {v_j}, whose
            # element v_j is the (|q| + 1)-th smallest
            for j in range(k):
                half = 1 << j
                out[:, half - 1] = binom[1, v[:, j]]
                rest = binom[pop[1:half, None] + 1, v[:, j]].T
                np.add(out[:, : half - 1], rest, out=out[:, half : 2 * half - 1])
            out += offsets[pop[1:]]
            at += out.size
    return keys


def _candidate_sets(h: Hypergraph) -> CandidateTable:
    """Every distinct nonempty edge subset with its containment count."""
    n = h.num_vertices
    r = max((len(e) for e in h.edges), default=0)
    offsets = (0, *accumulate(math.comb(n, j) for j in range(r + 1)))
    if offsets[-1] >= 2**63:
        raise LimitExceeded(
            f"candidate keys need {offsets[-1]} values (all subsets of at most {r} of {n} vertices), "
            "above int64; instance too large for the exact oracle"
        )
    total = sum((1 << len(e)) - 1 for e in h.edges)
    need = BYTES_PER_KEY * total + 8 * (r + 1) * n
    check_bytes(need, f"{total} candidate keys", "instance too large for the exact oracle")
    import numpy as np

    binom = np.zeros((r + 1, n), dtype=np.int64)
    binom[0] = 1
    for i in range(1, r + 1):
        np.cumsum(binom[i - 1, :-1], out=binom[i, 1:])
    keys = _subset_keys(h, offsets, binom, total)
    keys.sort()
    first = np.empty(total, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    distinct, runs = keys[first], np.flatnonzero(first)
    del keys, first
    counts = np.diff(runs, append=total)
    starts = (0, *np.searchsorted(distinct, offsets[1:]).tolist())
    binom.flags.writeable = distinct.flags.writeable = counts.flags.writeable = False
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
    is contained in exactly one edge.
    """
    next_vertex = h.num_vertices
    new_edges = []
    for e in h.edges:
        deficit = h.r_bound - len(e)
        padded = e + tuple(range(next_vertex, next_vertex + deficit))
        next_vertex += deficit
        new_edges.append(padded)
    return Hypergraph(next_vertex, tuple(new_edges), h.r_bound)
