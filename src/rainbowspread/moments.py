"""Second-moment quantities for the lifted hypergraph.

Delta sums E(zeta_H* zeta_J*) over ordered pairs of lifted edges whose
*colored* intersection is nonempty, self-pairs included.  It is computed
by a combinatorial aggregation that groups pairs by (shared vertices,
shared colors) and never materializes the lift.  The pairs per shared
vertex count come from one sum of squared containment counts per set
size in the spread oracle's candidate summary, so no pair of edges is
enumerated; tests/oracles.py holds the brute-force pair enumeration it
must match.  Delta needs an r-uniform H; the endgame sum counts its G as
padded to r-uniform.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .hypergraph import Hypergraph, HypergraphError
# lift_rainbow is not called here; it stays bound by name because
# perfbench's tracer wraps it in every module that names it
from .lifting import check_chromatic, falling_factorial, lift_rainbow, lift_size  # noqa: F401
from .limits import LimitExceeded, block_rows
from .spread import is_kappa_spread


class MomentReport(NamedTuple):
    mu: float
    delta: float
    janson_bound: float
    chain_bounds: list[tuple[str, float]]
    checks: list[tuple[str, bool]]

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "delta": self.delta,
            "janson_bound": self.janson_bound,
            "chain_bounds": {k: v for k, v in self.chain_bounds},
            "checks": {k: v for k, v in self.checks},
        }


def check_janson_inputs(h: Hypergraph, q: int, p: float) -> None:
    """The Janson quantities need p in [0, 1], an r-uniform H and q >= r."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not h.is_uniform:
        raise HypergraphError("the Janson chain requires an r-uniform hypergraph")
    check_chromatic(h, q)


def check_chebyshev_inputs(g: Hypergraph, q: int, alpha: float) -> None:
    """The endgame report needs alpha in (0, 1) and q >= r."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    check_chromatic(g, q)


def janson_mu(h: Hypergraph, q: int, p: float) -> float:
    """mu = |H*| (1-p)^r for an r-uniform H."""
    check_janson_inputs(h, q, p)
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


def _pair_group_term(r: int, w: int, q: int, x: float) -> float:
    """Sum over ordered coloring pairs of one base pair of r-sets with w
    shared vertices: count pairs agreeing on exactly j >= 1 shared
    vertices, weighted x^(2r-j)."""
    total = 0.0
    ffr = falling_factorial(q, r)
    for j in range(1, w + 1):
        count = ffr * math.comb(w, j) * _tau_extension_count(j, w, q, r)
        if count:
            total += count * x ** (2 * r - j)
    return total


def _delta_aggregate(h: Hypergraph, q: int, x: float) -> float:
    """Aggregation path: count ordered base pairs by their shared vertices,
    with h counted as padded to r-uniform (`pad_to_uniform`), unbuilt.

    With c(S) the number of edges that contain S, the ordered pairs give
    N_k = sum_{|S| = k} c(S)^2 = sum_{(E, F)} C(|E cap F|, k), so
    P_w = sum_{k >= w} (-1)^(k - w) C(k, w) N_k pairs share exactly w
    vertices.  The N_k are the `squares` of h's candidate summary.  The
    padding is fresh for each edge copy, so padding moves only each
    self-pair, from |E| to r shared; on an r-uniform h nothing moves.
    """
    r = h.r_bound
    pairs = Counter()
    for size in h.candidates.sizes:
        k = size.k
        for w in range(1, k + 1):  # N_k's share of each P_w with w <= k
            pairs[w] += (-1) ** (k - w) * math.comb(k, w) * size.squares
    pairs.subtract(len(e) for e in h.edges)
    pairs[r] += len(h)
    return math.fsum(cnt * _pair_group_term(r, w, q, x) for w, cnt in pairs.items() if cnt)


def janson_delta_exact(h: Hypergraph, q: int, p: float) -> float:
    """Delta: sum over colored-intersecting ordered pairs of lifted edges
    of (1-p)^(|H*|+|J*|-|H* cap J*|), for an r-uniform H."""
    check_janson_inputs(h, q, p)
    return _delta_aggregate(h, q, 1.0 - p)


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
    check_janson_inputs(h, q, p)
    violation = is_kappa_spread(h, kappa)
    if violation is not None:
        raise ValueError(f"hypergraph is not {kappa}-spread (witness {violation})")
    r = h.r_bound
    mu = janson_mu(h, q, p)
    delta = janson_delta_exact(h, q, p)
    if p < 1.0:
        # (1 + x)^r - 1 without the cancellation that zeroes it once 1 + x rounds to 1
        intermediate = mu * mu * math.expm1(r * math.log1p(math.e / (q * kappa * (1.0 - p))))
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

    G counts as padded to r-uniform, though the padding is never built.
    mu = alpha^r (q)_r / q^r |G|;
    the variance-style sum uses the same pair aggregation as Delta with
    weight (alpha/q)^(2r - shared).
    """
    check_chebyshev_inputs(g, q, alpha)
    r = g.r_bound
    mu = alpha**r * falling_factorial(q, r) / q**r * len(g.edges)
    delta = _delta_aggregate(g, q, alpha / q)
    # Delta >= mu (its self-pairs), so where mu^2 underflows to 0 the bound is 1
    cheb = min(1.0, delta / (mu * mu)) if mu * mu > 0 else 1.0
    report = MomentReport(
        mu=mu,
        delta=delta,
        janson_bound=math.exp(-mu * mu / (8.0 * delta)) if delta > 0 else 0.0,
        chain_bounds=[
            ("chebyshev_zero_bound", cheb),
        ],
        checks=[],
    )
    return report


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
        raise LimitExceeded(f"{states} vertex states; too large for exact enumeration")
    matrix, sizes = g.packed
    p_absent = 1.0 - alpha
    p_color = alpha / q
    place = (q + 1) ** np.arange(n, dtype=np.int64)[:, None]
    rows = block_rows(max(matrix.size, n))  # of (state, edge, slot) entries
    uncovered = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, states, rows):
        # vertex-major, one column per state, the kernels' own layout
        wcolor = np.arange(lo, min(lo + rows, states)) // place % (q + 1)
        miss = wcolor[:, _kernels.first_rainbow_edge(matrix, sizes, wcolor.T) < 0]
        uncovered += np.bincount(np.count_nonzero(miss, axis=0), minlength=n + 1)
    return math.fsum(int(c) * p_color**k * p_absent ** (n - k) for k, c in enumerate(uncovered))
