"""Random models on a colored ground set, and rainbow-edge detection.

Models implemented: uniform m-subsets, binomial subsets, their randomly
colored versions (always one color per vertex, so never a collision),
and the fully product-independent model on X x [q] which *can* give one
vertex two colors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels
from .hypergraph import Hypergraph
from .rng import RngStream


class ColoredSet:
    """A partial map vertex -> color in [1, q]; at most one color per vertex."""

    def __init__(self, assignment: tuple[tuple[int, int], ...]):
        self.assignment = assignment  # sorted by vertex id

    def __eq__(self, other):
        return self.assignment == other.assignment if isinstance(other, ColoredSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.assignment)

    def __repr__(self) -> str:
        return f"ColoredSet(assignment={self.assignment})"

    @staticmethod
    def from_dict(d: dict[int, int]) -> "ColoredSet":
        return ColoredSet(tuple(sorted(d.items())))

    def __len__(self) -> int:
        return len(self.assignment)

    def serialize(self) -> str:
        return "".join(f"{v} {c}\n" for v, c in self.assignment)


class LiftedSample(NamedTuple):
    """A subset of X x [q]; one vertex may carry several colors."""

    elements: frozenset[tuple[int, int]]

    def serialize(self) -> str:
        return "".join(f"{v} {c}\n" for v, c in sorted(self.elements))


def sample_uniform_subset(n: int, m: int, rng: RngStream) -> list[int]:
    """Uniformly random m-subset of range(n), sorted."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return rng.sample_without_replacement(n, m)


def sample_binomial_subset(n: int, p: float, rng: RngStream) -> list[int]:
    """Each element of range(n) included independently with probability p."""
    if not (n >= 0 and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1] and n >= 0, got p={p}, n={n}")
    return [v for v in range(n) if rng.bernoulli(p)]


def _check_colors(q: int) -> None:
    """A color is one `randrange(q)` draw, so q must be in [1, 2**64]; checked before the first draw."""
    if q < 1:
        raise ValueError(f"need q >= 1 colors, got q={q}")
    if q > 2**64:
        raise ValueError(f"need q <= 2**64 colors, got q={q}")


def sample_colored_m(n: int, m: int, q: int, rng: RngStream) -> ColoredSet:
    """Uniform m-subset, each chosen vertex colored uniformly from [1, q]."""
    _check_colors(q)
    verts = sample_uniform_subset(n, m, rng)
    return ColoredSet(tuple((v, rng.randint(1, q)) for v in verts))


def sample_colored_p(n: int, p: float, q: int, rng: RngStream) -> ColoredSet:
    """Binomial vertex set, independent uniform colors."""
    _check_colors(q)
    verts = sample_binomial_subset(n, p, rng)
    return ColoredSet(tuple((v, rng.randint(1, q)) for v in verts))


def sample_lifted_binomial(n: int, q: int, p: float, rng: RngStream) -> LiftedSample:
    """Each (vertex, color) pair included independently with probability p/q."""
    if not (n >= 0 and q >= 1 and 0.0 <= p <= q):
        raise ValueError(f"need q >= 1 and 0 <= p <= q and n >= 0, got p={p}, q={q}, n={n}")
    pq = p / q
    elems = set()
    for v in range(n):
        for c in range(1, q + 1):
            if rng.bernoulli(pq):
                elems.add((v, c))
    return LiftedSample(frozenset(elems))


def contains_rainbow_edge(h: Hypergraph, w: ColoredSet):
    """An edge of H inside dom(W) with pairwise-distinct colors, or None.

    Deterministic witness: the lowest edge index.
    """
    wcolor = np.zeros(h.num_vertices, dtype=np.int64)
    for v, c in w.assignment:
        wcolor[v] = c
    idx = _kernels.first_rainbow_edge(*h.packed, wcolor)
    return h.edges[idx] if idx >= 0 else None
