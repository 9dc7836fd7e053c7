"""Random models on a colored ground set, and rainbow-edge detection.

Models implemented: uniform m-subsets, binomial subsets, their randomly
colored versions (always one color per vertex, so never a collision),
and the fully product-independent model on X x [q] which *can* give one
vertex two colors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hypergraph import Hypergraph
from .rng import RngStream


@dataclass(frozen=True)
class ColoredSet:
    """A partial map vertex -> color in [1, q]; at most one color per vertex."""

    assignment: tuple[tuple[int, int], ...]  # sorted by vertex id

    @staticmethod
    def from_dict(d: dict[int, int]) -> "ColoredSet":
        return ColoredSet(tuple(sorted(d.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)

    def domain(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.assignment)

    def __len__(self) -> int:
        return len(self.assignment)

    def union(self, other: "ColoredSet") -> "ColoredSet":
        """Merge; raises on a color clash (the union would leave Ẽ)."""
        merged = self.as_dict()
        for v, c in other.assignment:
            if merged.setdefault(v, c) != c:
                raise ValueError(f"vertex {v} would receive two colors")
        return ColoredSet.from_dict(merged)

    def serialize(self) -> str:
        return "".join(f"{v} {c}\n" for v, c in self.assignment)

    @staticmethod
    def deserialize(text: str) -> "ColoredSet":
        d = {}
        for line in text.splitlines():
            line = line.strip()
            if line:
                v, c = line.split()
                d[int(v)] = int(c)
        return ColoredSet.from_dict(d)


@dataclass(frozen=True)
class LiftedSample:
    """A subset of X x [q]; one vertex may carry several colors."""

    elements: frozenset[tuple[int, int]]

    def collision_pairs(self) -> int:
        """Number of pairs {(x,c1),(x,c2)} sharing a vertex."""
        per_vertex: dict[int, int] = {}
        for v, _ in self.elements:
            per_vertex[v] = per_vertex.get(v, 0) + 1
        return sum(k * (k - 1) // 2 for k in per_vertex.values())

    def serialize(self) -> str:
        return "".join(f"{v} {c}\n" for v, c in sorted(self.elements))


def sample_uniform_subset(n: int, m: int, rng: RngStream) -> list[int]:
    """Uniformly random m-subset of range(n), sorted."""
    if m > n:
        raise ValueError(f"m={m} exceeds ground set size {n}")
    return rng.sample_without_replacement(n, m)


def sample_binomial_subset(n: int, p: float, rng: RngStream) -> list[int]:
    """Each element of range(n) included independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return [v for v in range(n) if rng.bernoulli(p)]


def sample_colored_m(n: int, m: int, q: int, rng: RngStream) -> ColoredSet:
    """Uniform m-subset, each chosen vertex colored uniformly from [1, q]."""
    verts = sample_uniform_subset(n, m, rng)
    return ColoredSet(tuple((v, rng.randint(1, q)) for v in verts))


def sample_colored_p(n: int, p: float, q: int, rng: RngStream) -> ColoredSet:
    """Binomial vertex set, independent uniform colors."""
    verts = sample_binomial_subset(n, p, rng)
    return ColoredSet(tuple((v, rng.randint(1, q)) for v in verts))


def sample_lifted_binomial(n: int, q: int, p: float, rng: RngStream) -> LiftedSample:
    """Each (vertex, color) pair included independently with probability p/q."""
    if not (q >= 1 and 0.0 <= p <= q):
        raise ValueError(f"need q >= 1 and 0 <= p <= q, got p={p}, q={q}")
    pq = p / q
    elems = set()
    for v in range(n):
        for c in range(1, q + 1):
            if rng.bernoulli(pq):
                elems.add((v, c))
    return LiftedSample(frozenset(elems))


def expected_color_collisions(n: int, q: int, m: int) -> tuple[float, float]:
    """(exact, quadratic approximation) expected collision pairs in a
    uniform m-subset of X x [q].

    Exact: each of the N*C(q,2) vertex-sharing pairs survives with
    probability m(m-1)/((Nq)(Nq-1)).  The approximation
    (Nq^2/2)(m/(qN))^2 is loose at desk scale.
    """
    if m > n * q:
        raise ValueError("m exceeds |X x [q]|")
    if m <= 1:
        exact = 0.0
    else:
        exact = n * math.comb(q, 2) * m * (m - 1) / (n * q * (n * q - 1))
    approx = (n * q * q / 2.0) * (m / (q * n)) ** 2
    return exact, approx


def contains_rainbow_edge(h: Hypergraph, w: ColoredSet):
    """An edge of H inside dom(W) with pairwise-distinct colors, or None.

    Deterministic witness: the lowest edge index.
    """
    wcolor = np.zeros(h.num_vertices, dtype=np.int64)
    for v, c in w.assignment:
        wcolor[v] = c
    idx = _kernels.first_rainbow_edge(*h.packed, wcolor)
    return h.edges[idx] if idx >= 0 else None
