"""Exact spread oracle.

A hypergraph is kappa-spread when every vertex set S is contained in at
most |H|/kappa^|S| edges.  The oracle enumerates all candidate sets S
exhaustively; only subsets of edges matter, because any other S has
containment count 0 and its constraint is vacuous.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph, HypergraphError

DEFAULT_CANDIDATE_CAP = 20_000_000


class EnumerationCapExceeded(RainbowSpreadError, RuntimeError):
    pass


@dataclass(frozen=True)
class SpreadCertificate:
    """Maximum kappa with a witness set attaining the minimum."""

    kappa: float
    witness: tuple[int, ...]
    containment_count: int


def containment_count(h: Hypergraph, s) -> int:
    """Number of edges (with multiplicity) containing the vertex set s."""
    s = frozenset(s)
    for v in s:
        if not 0 <= v < h.num_vertices:
            raise HypergraphError(f"vertex {v} outside [0, {h.num_vertices})")
    if not s:
        return len(h.edges)
    return sum(1 for e in h.edges if s.issubset(e))


def _candidate_sets(h: Hypergraph, cap: int) -> list[tuple[tuple[int, ...], int]]:
    """(S, containment count) for every distinct nonempty edge subset, sorted."""
    counts: Counter = Counter()
    for e in h.edges:
        for k in range(1, len(e) + 1):
            counts.update(combinations(e, k))
        if len(counts) > cap:
            raise EnumerationCapExceeded(
                f"more than {cap} candidate sets; instance too large for the exact oracle"
            )
    return sorted(counts.items())


def _count_limit(m: int, kappa: float, k: int) -> int:
    """floor(m / kappa^k), exact: cnt > it iff cnt * num^k > m * den^k."""
    num, den = kappa.as_integer_ratio()
    return m * den**k // num**k


def max_spread(h: Hypergraph, cap: int = DEFAULT_CANDIDATE_CAP) -> SpreadCertificate:
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
    best: tuple[int, ...] = ()
    best_cnt = 0
    for s, cnt in _candidate_sets(h, cap):
        # (m/cnt)^(1/|s|) < (m/best_cnt)^(1/|best|)
        #   <=>  m^|best| * best_cnt^|s| < m^|s| * cnt^|best|
        if not best or m ** len(best) * best_cnt ** len(s) < m ** len(s) * cnt ** len(best):
            best, best_cnt = s, cnt
    kappa = (m / best_cnt) ** (1.0 / len(best))
    # kappa <= the exact minimum iff the witness itself is within its limit
    while best_cnt > _count_limit(m, kappa, len(best)):
        kappa = math.nextafter(kappa, 0.0)
    return SpreadCertificate(kappa=kappa, witness=best, containment_count=best_cnt)


def is_kappa_spread(h: Hypergraph, kappa: float):
    """None when the kappa-spread bound holds for all S, else a violating S.

    The returned witness is the lexicographically smallest violator.
    """
    if not (math.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be positive and finite")
    limits = [_count_limit(len(h.edges), kappa, k) for k in range(h.r_bound + 1)]
    for s, cnt in _candidate_sets(h, DEFAULT_CANDIDATE_CAP):
        if cnt > limits[len(s)]:
            return s
    return None


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
