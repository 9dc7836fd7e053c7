"""Second-moment quantities for the lifted hypergraph.

Delta sums E(zeta_H* zeta_J*) over ordered pairs of lifted edges whose
*colored* intersection is nonempty, self-pairs included.  It is computed
by a combinatorial aggregation that groups pairs by (base sizes, shared
vertices, shared colors) and never materializes the lift;
tests/oracles.py holds the brute-force pair enumeration it must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import Hypergraph, HypergraphError
# lift_rainbow is not called here; it stays bound by name because
# perfbench's tracer wraps it in every module that names it
from .lifting import ChromaticityError, falling_factorial, lift_rainbow, lift_size  # noqa: F401
from .spread import EnumerationCapExceeded, is_kappa_spread, pad_to_uniform


@dataclass
class MomentReport:
    mu: float
    delta: float
    janson_bound: float
    chain_bounds: list[tuple[str, float]] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "delta": self.delta,
            "janson_bound": self.janson_bound,
            "chain_bounds": {k: v for k, v in self.chain_bounds},
            "checks": {k: v for k, v in self.checks},
        }


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")


def janson_mu(h: Hypergraph, q: int, p: float) -> float:
    """mu = |H*| (1-p)^r for an r-uniform H."""
    _check_p(p)
    if not h.is_uniform:
        raise HypergraphError("janson_mu requires an r-uniform hypergraph")
    if q < h.r_bound:
        raise ChromaticityError(f"q={q} < r={h.r_bound}")
    return lift_size(h, q) * (1.0 - p) ** h.r_bound


def _tau_extension_count(j: int, w: int, q: int, b: int) -> int:
    """Injective colorings of a size-b edge with j values pinned and w-j
    positions each forbidden one further (distinct) value.

    Inclusion-exclusion over which forbidden coincidences occur.
    """
    total = 0
    for i in range(w - j + 1):
        total += (-1) ** i * math.comb(w - j, i) * falling_factorial(q - j - i, b - j - i)
    return total


def _pair_group_term(a: int, b: int, w: int, q: int, x: float) -> float:
    """Sum over ordered coloring pairs of one base pair with |E|=a, |F|=b,
    w shared vertices: count pairs agreeing on exactly j >= 1 shared
    vertices, weighted x^(a+b-j)."""
    total = 0.0
    ffa = falling_factorial(q, a)
    for j in range(1, w + 1):
        count = ffa * math.comb(w, j) * _tau_extension_count(j, w, q, b)
        if count:
            total += count * x ** (a + b - j)
    return total


# entries of the m x m shared-vertex matrix held at once by _delta_aggregate
DELTA_BLOCK_ELEMENTS = 1 << 18


def _delta_aggregate(edges, q: int, x: float) -> float:
    """Aggregation path: count ordered base pairs by the key (|E|, |F|, shared)."""
    m = len(edges)
    n = 1 + max((e[-1] for e in edges), default=0)
    inc = np.zeros((m, n))  # float64, so the product below runs in BLAS, exactly
    for i, e in enumerate(edges):
        inc[i, list(e)] = 1
    sizes = np.array([len(e) for e in edges], dtype=np.int64)
    base = 1 + int(sizes.max(initial=0))
    counts = np.zeros(base**3, dtype=np.int64)
    rows = max(1, DELTA_BLOCK_ELEMENTS // max(m, 1))
    for lo in range(0, m, rows):
        shared = (inc[lo : lo + rows] @ inc.T).astype(np.int64)
        keys = (sizes[lo : lo + rows, None] * base + sizes) * base + shared
        counts += np.bincount(keys.ravel(), minlength=base**3)
    terms = [
        cnt * _pair_group_term(a, b, w, q, x)
        for (a, b, w), cnt in np.ndenumerate(counts.reshape(base, base, base))
        if cnt and w
    ]
    return math.fsum(terms)


def janson_delta_exact(h: Hypergraph, q: int, p: float) -> float:
    """Delta: sum over colored-intersecting ordered pairs of lifted edges
    of (1-p)^(|H*|+|J*|-|H* cap J*|)."""
    if q < h.r_bound:
        raise ChromaticityError(f"q={q} < r={h.r_bound}")
    return _delta_aggregate(h.edges, q, 1.0 - p)


# Numeric hypotheses under which the final 4 mu^2 / kappa step of the
# bound chain is valid without asymptotic slack.
FINAL_GATE_MAX_P = 0.09
FINAL_GATE_MIN_KAPPA = 11.0


def janson_chain_check(h: Hypergraph, q: int, p: float, kappa: float) -> MomentReport:
    """Evaluate the Delta bound chain on a concrete instance.

    Requires H to be r-uniform and kappa-spread.  Delta_exact <= the
    intermediate bound holds unconditionally; the final 4 mu^2/kappa step
    is only asserted inside the numeric gate.
    """
    _check_p(p)
    if not h.is_uniform:
        raise HypergraphError("janson_chain_check requires an r-uniform hypergraph")
    violation = is_kappa_spread(h, kappa)
    if violation is not None:
        raise ValueError(f"hypergraph is not {kappa}-spread (witness {violation})")
    r = h.r_bound
    mu = janson_mu(h, q, p)
    delta = janson_delta_exact(h, q, p)
    if p < 1.0:
        intermediate = mu * mu * ((1.0 + math.e / (q * kappa * (1.0 - p))) ** r - 1.0)
    else:
        intermediate = 0.0
    final = 4.0 * mu * mu / kappa
    gate = q >= r and p <= FINAL_GATE_MAX_P and kappa >= FINAL_GATE_MIN_KAPPA
    bound = math.exp(-mu * mu / (8.0 * delta)) if delta > 0 else 0.0
    report = MomentReport(
        mu=mu,
        delta=delta,
        janson_bound=bound,
        chain_bounds=[
            ("delta_exact", delta),
            ("intermediate_bound", intermediate),
            ("four_mu_sq_over_kappa", final),
            ("final_gate_active", 1.0 if gate else 0.0),
        ],
        checks=[("delta_le_intermediate", delta <= intermediate * (1 + 1e-12))]
        + ([("delta_le_final", delta <= final * (1 + 1e-12))] if gate else []),
    )
    return report


def chebyshev_report(g: Hypergraph, q: int, alpha: float) -> MomentReport:
    """Endgame moments for the colored alpha-sample hitting the lift of G.

    G is padded to r-uniform internally.  mu = alpha^r (q)_r / q^r |G|;
    the variance-style sum uses the same pair aggregation as Delta with
    weight (alpha/q)^(2r - shared).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if q < g.r_bound:
        raise ChromaticityError(f"q={q} < r={g.r_bound}")
    padded = pad_to_uniform(g)
    r = padded.r_bound
    mu = alpha**r * falling_factorial(q, r) / q**r * len(padded.edges)
    delta = _delta_aggregate(padded.edges, q, alpha / q)
    cheb = min(1.0, delta / (mu * mu)) if mu > 0 else 1.0
    report = MomentReport(
        mu=mu,
        delta=delta,
        janson_bound=math.exp(-mu * mu / (8.0 * delta)) if delta > 0 else 0.0,
        chain_bounds=[
            ("chebyshev_zero_bound", cheb),
        ],
    )
    return report


def chebyshev_miss_bound(r: int, alpha: float, kappa: float) -> float:
    """The closed-form miss bound 2 e r / (alpha kappa)."""
    return 2.0 * math.e * r / (alpha * kappa)


# (state, edge, slot) entries held at once by exact_uncover_probability
UNCOVER_BLOCK_ELEMENTS = 1 << 18


def exact_uncover_probability(g: Hypergraph, q: int, alpha: float) -> float:
    """Pr(colored alpha-sample contains no rainbow edge of G), by full
    enumeration over all (q+1)^N vertex states.  Feasible for N*q <= ~24.

    State s gives vertex v the base-(q+1) digit v of s (0 = unsampled);
    a state's probability depends only on how many vertices it colors,
    so uncovered states are counted by that number, one block at a time.
    """
    from . import _kernels

    n = g.num_vertices
    states = (q + 1) ** n
    if states > 5_000_000:
        raise EnumerationCapExceeded(f"{states} vertex states; too large for exact enumeration")
    matrix, sizes = g.packed
    p_absent = 1.0 - alpha
    p_color = alpha / q
    place = (q + 1) ** np.arange(n, dtype=np.int64)
    rows = max(1, UNCOVER_BLOCK_ELEMENTS // max(matrix.size, n, 1))
    uncovered = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, states, rows):
        wcolor = np.arange(lo, min(lo + rows, states))[:, None] // place % (q + 1)
        miss = wcolor[_kernels.first_rainbow_edge(matrix, sizes, wcolor) < 0]
        uncovered += np.bincount(np.count_nonzero(miss, axis=1), minlength=n + 1)
    return math.fsum(int(c) * p_color**k * p_absent ** (n - k) for k, c in enumerate(uncovered))


def binomial_median_check(n: int, p: float) -> bool:
    """Pr(Bin(n,p) <= np) >= 1/2, exact CDF; requires np integral."""
    np_val = n * p
    k = round(np_val)
    if abs(np_val - k) > 1e-9:
        raise ValueError(f"n*p = {np_val} is not an integer")
    cdf = math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))
    return cdf >= 0.5


def untouched_lift_count(h: Hypergraph, q: int, touched_vertices) -> int:
    """|{H* : base edge disjoint from the touched vertex set}|, exact."""
    touched = set(touched_vertices)
    return sum(falling_factorial(q, len(e)) for e in h.edges if touched.isdisjoint(e))
