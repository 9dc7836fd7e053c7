"""Spread oracles, rainbow lifting, fragmentation and threshold experiments
for randomly colored random structures."""

__version__ = "0.1.0"

from .hypergraph import Hypergraph, read_hypergraph, write_hypergraph
from .spread import SpreadCertificate, containment_count, is_kappa_spread, max_spread, pad_to_uniform
from .lifting import LiftedEdge, lift_rainbow
from .rng import RngStream

__all__ = [
    "Hypergraph",
    "read_hypergraph",
    "write_hypergraph",
    "SpreadCertificate",
    "containment_count",
    "is_kappa_spread",
    "max_spread",
    "pad_to_uniform",
    "LiftedEdge",
    "lift_rainbow",
    "RngStream",
]
