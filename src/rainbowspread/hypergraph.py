"""Core hypergraph type and its canonical file format.

Edges form a *multiset*: the same edge may appear several times and every
cardinality in the library counts multiplicity.  Vertex ids are dense
integers 0..n-1, edges are strictly sorted tuples of vertex ids.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Sequence

from .errors import RainbowSpreadError

FORMAT_NAME = "hypergraph"
FORMAT_VERSION = 1


class HypergraphError(RainbowSpreadError, ValueError):
    pass


class Hypergraph:
    """An r-bounded multiset hypergraph on vertex set {0..num_vertices-1}.

    Validated once, when made, and never changed after: the cached
    properties below are built from it on first use.  Two hypergraphs are
    equal when their n, edge sequence and r are.
    """

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, ...], ...], r_bound: int):
        if num_vertices < 0:
            raise HypergraphError("num_vertices must be nonnegative")
        if r_bound < 1:
            raise HypergraphError("r_bound must be >= 1")
        for e in edges:
            if not 1 <= len(e) <= r_bound:
                raise HypergraphError(f"edge {e} violates size bounds [1, {r_bound}]")
            if any(e[i] >= e[i + 1] for i in range(len(e) - 1)):
                raise HypergraphError(f"edge {e} is not strictly sorted")
            if e[0] < 0 or e[-1] >= num_vertices:
                raise HypergraphError(f"edge {e} has vertex outside [0, {num_vertices})")
        self.num_vertices = num_vertices
        self.edges = edges
        self.r_bound = r_bound

    def _key(self):
        return self.num_vertices, self.edges, self.r_bound

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Hypergraph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Hypergraph(num_vertices={self.num_vertices}, edges={self.edges}, r_bound={self.r_bound})"

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def packed(self):
        """`_kernels.pack_edges(self.edges)`, built on first use and shared by
        every kernel caller; both arrays are read-only."""
        from . import _kernels  # here, so that importing the package does not load numpy

        matrix, sizes = _kernels.pack_edges(self.edges)
        matrix.flags.writeable = sizes.flags.writeable = False
        return matrix, sizes

    @cached_property
    def candidates(self):
        """`spread._candidate_sets(self)`: what the spread oracle and Delta
        read of the containment counts of the distinct nonempty edge
        subsets, built on first use, so that the spread certificate, every
        spread check and Delta of one run share one pass."""
        from . import spread

        return spread._candidate_sets(self)

    @property
    def is_uniform(self) -> bool:
        return all(len(e) == self.r_bound for e in self.edges)

    @staticmethod
    def from_edges(num_vertices: int, edges: Iterable[Sequence[int]], r_bound: int | None = None) -> "Hypergraph":
        canon = tuple(tuple(sorted(e)) for e in edges)
        if r_bound is None:
            r_bound = max((len(e) for e in canon), default=1)
        return Hypergraph(num_vertices, canon, r_bound)


def write_hypergraph(h: Hypergraph, path: str) -> None:
    """Canonical writer: edges sorted lexicographically."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": h.num_vertices,
        "r": h.r_bound,
        "edges": [list(e) for e in sorted(h.edges)],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def read_hypergraph(path: str) -> Hypergraph:
    """Reader accepts edges in any order and no format or version field, but
    a present one must be this format's; n, r and vertex ids are integers."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise HypergraphError(f"{path}: not a valid hypergraph file: {exc}") from exc
    try:
        name, version = doc.get("format", FORMAT_NAME), doc.get("version", FORMAT_VERSION)
        if (name, version) != (FORMAT_NAME, FORMAT_VERSION):
            raise ValueError(f"format {name!r} version {version!r}, not {FORMAT_NAME!r} version {FORMAT_VERSION}")
        n, r, edges = doc["n"], doc["r"], [tuple(e) for e in doc["edges"]]
        if any(type(v) is not int for e in ((version, n, r), *edges) for v in e):
            raise TypeError("the version, n, r and every vertex id must be integers")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise HypergraphError(f"{path}: missing or malformed fields: {exc}") from exc
    return Hypergraph.from_edges(n, edges, r)
