"""Random models on a colored ground set, and rainbow-edge detection.

Models implemented: uniform m-subsets, binomial subsets, their randomly
colored versions and the fully product-independent model on X x [q].
A colored sample is a partial coloring W: a dict from each sampled vertex
to its color in [1, q], in ascending vertex order, so one color per
vertex.  A lifted sample is the frozenset of its (vertex, color) pairs,
which *can* give one vertex two colors.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .hypergraph import Hypergraph
from .rng import RngStream


def check_model(model: str, n: int, m: int, p: float, q: int) -> None:
    """Refuse what the sampler of `model` (uniform-m, binomial-p,
    colored-m, colored-p or lifted-p) refuses, in its order, before any
    draw."""
    if model in ("colored-m", "colored-p"):
        _check_colors(q)
    if model in ("uniform-m", "colored-m"):
        _check_subset(n, m)
    elif model in ("binomial-p", "colored-p"):
        _check_binomial(n, p)
    else:
        _check_lifted(n, q, p)


def _check_subset(n: int, m: int) -> None:
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")


def _check_binomial(n: int, p: float) -> None:
    if not (n >= 0 and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1] and n >= 0, got p={p}, n={n}")


def _check_colors(q: int) -> None:
    """A color is one `randrange(q)` draw, so q must be in [1, 2**64]; checked before the first draw."""
    if q < 1:
        raise ValueError(f"need q >= 1 colors, got q={q}")
    if q > 2**64:
        raise ValueError(f"need q <= 2**64 colors, got q={q}")


def _check_lifted(n: int, q: int, p: float) -> None:
    if not (n >= 0 and q >= 1 and 0.0 <= p <= q):
        raise ValueError(f"need q >= 1 and 0 <= p <= q and n >= 0, got p={p}, q={q}, n={n}")


def sample_uniform_subset(n: int, m: int, rng: RngStream) -> list[int]:
    """Uniformly random m-subset of range(n), sorted."""
    _check_subset(n, m)
    return rng.sample_without_replacement(n, m)


def sample_binomial_subset(n: int, p: float, rng: RngStream) -> list[int]:
    """Each element of range(n) included independently with probability p."""
    _check_binomial(n, p)
    return [v for v in range(n) if rng.bernoulli(p)]


def sample_colored_m(n: int, m: int, q: int, rng: RngStream) -> dict[int, int]:
    """Uniform m-subset, each chosen vertex colored uniformly from [1, q]."""
    _check_colors(q)
    return {v: rng.randint(1, q) for v in sample_uniform_subset(n, m, rng)}


def sample_colored_p(n: int, p: float, q: int, rng: RngStream) -> dict[int, int]:
    """Binomial vertex set, independent uniform colors."""
    _check_colors(q)
    return {v: rng.randint(1, q) for v in sample_binomial_subset(n, p, rng)}


def sample_lifted_binomial(n: int, q: int, p: float, rng: RngStream) -> frozenset[tuple[int, int]]:
    """Each (vertex, color) pair included independently with probability p/q."""
    _check_lifted(n, q, p)
    pq = p / q
    elems = set()
    for v in range(n):
        for c in range(1, q + 1):
            if rng.bernoulli(pq):
                elems.add((v, c))
    return frozenset(elems)


def contains_rainbow_edge(h: Hypergraph, w: dict[int, int]):
    """An edge of H inside dom(W) with pairwise-distinct colors under the
    partial coloring w (vertex -> color in [1, q]), or None.

    Deterministic witness: the lowest edge index.
    """
    wcolor = np.zeros(h.num_vertices, dtype=np.int64)
    for v, c in w.items():
        wcolor[v] = c
    idx = _kernels.first_rainbow_edge(*h.packed, wcolor)
    return h.edges[idx] if idx >= 0 else None
