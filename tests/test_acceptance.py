"""Top-level acceptance checks for the whole toolkit.

Each test covers one advertised guarantee and prints a single pass line
(visible with pytest -s or in the -v report).  Tolerances are stated
inline; everything is seeded and deterministic.
"""

import math
from itertools import combinations

import numpy as np
import oracles

from rainbowspread.fragmentation import make_schedule, run_fragmentation
from rainbowspread.generators import (
    count_formula_hamilton,
    count_formula_loose_hamilton,
    count_formula_perfect_matching,
    gen_hamilton,
    gen_loose_hamilton,
    gen_perfect_matching,
)
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import falling_factorial, lift_rainbow, lift_size
from rainbowspread.moments import (
    exact_uncover_probability,
    janson_chain_check,
    janson_delta_exact,
    janson_mu,
)
from rainbowspread.rng import RngStream
from rainbowspread.sampling import (
    contains_rainbow_edge,
    sample_binomial_subset,
    sample_colored_p,
)
from rainbowspread.spread import containment_count, max_spread
from rainbowspread.threshold import TrialPool, estimate_threshold, sweep


def complete_graph(n: int) -> Hypergraph:
    return Hypergraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_acceptance_01_count_oracles():
    for n, want in [(4, 3), (5, 12), (6, 60), (7, 360)]:
        assert len(gen_hamilton(n).edges) == want == count_formula_hamilton(n)
    for (n, k), want in [((4, 2), 3), ((6, 2), 15), ((6, 3), 10)]:
        assert len(gen_perfect_matching(n, k).edges) == want
        assert count_formula_perfect_matching(n, k) == want
    assert count_formula_perfect_matching(12, 2) == 10395  # formula only
    assert len(gen_loose_hamilton(6, 3).edges) == 120 == count_formula_loose_hamilton(6, 3)
    report("count oracles: all generated edge counts equal closed forms exactly")


def test_acceptance_02_spread_oracle():
    assert abs(max_spread(gen_hamilton(4)).kappa - math.sqrt(1.5)) < 1e-12
    assert abs(max_spread(gen_perfect_matching(4, 2)).kappa - math.sqrt(3.0)) < 1e-12
    for n in range(4, 8):
        h = gen_hamilton(n)
        m = len(h.edges)
        for v in range(h.num_vertices):
            # counts are integers, so the ratio identity is exact
            assert containment_count(h, (v,)) * (n - 1) == 2 * m
    report("spread oracle: certificates exact to 1e-12, single-element ratio 2/(n-1)")


def test_acceptance_03_lifted_spread_theorem():
    single = Hypergraph.from_edges(2, [(0, 1)])
    cases = [(single, range(2, 5)), (gen_hamilton(4), range(4, 7)),
             (gen_perfect_matching(4, 2), range(2, 5))]
    for h, qs in cases:
        kappa = max_spread(h).kappa
        for q in qs:
            if q < h.r_bound:
                continue
            lifted = lift_rainbow(h, q)
            star = lift_size(h, q)
            elem_sets = [frozenset(le.elements(h)) for le in lifted]
            rainbow_subsets = set()
            for es in elem_sets:
                for size in range(1, len(es) + 1):
                    for sub in combinations(sorted(es), size):
                        rainbow_subsets.add(sub)
            for sub in rainbow_subsets:
                s = len(sub)
                contained = sum(1 for es in elem_sets if es.issuperset(sub))
                bound = math.e**s * star / (q * kappa) ** s
                assert contained <= bound + 1e-9
    report("lifted spread theorem: containment bound holds for every rainbow subset")


def test_acceptance_04_dual_path_delta_and_chain():
    single = Hypergraph.from_edges(2, [(0, 1)])
    instances = [
        (single, 2, 0.5),
        (single, 3, 0.2),
        (gen_hamilton(4), 4, 0.1),
        (gen_hamilton(4), 5, 0.3),
        (gen_perfect_matching(4, 2), 3, 0.25),
        (gen_perfect_matching(6, 2), 4, 0.15),
    ]
    for h, q, p in instances:
        agg = janson_delta_exact(h, q, p)
        brute = oracles.delta_pairs(h, q, 1 - p)
        assert math.isclose(agg, brute, rel_tol=1e-10)
        if h.is_uniform:
            kappa = max_spread(h).kappa
            rep = janson_chain_check(h, q, p, kappa)
            assert dict(rep.checks)["delta_le_intermediate"]
    # the gated instance: complete 2-uniform on 60 vertices, kappa=15
    g = complete_graph(60)
    rep = janson_chain_check(g, 60, 0.05, 15.0)
    checks = dict(rep.checks)
    assert dict(rep.chain_bounds)["final_gate_active"] == 1.0
    assert checks["delta_le_intermediate"] and checks["delta_le_final"]
    report("dual-path delta: paths agree to 1e-10; bound chain holds, gated step included")


def test_acceptance_05_empirical_mu():
    h = gen_perfect_matching(8, 2)
    q, p, trials = 4, 0.1, 10_000
    mu = janson_mu(h, q, p)
    rng = RngStream(501, 0)
    total = 0.0
    sq = 0.0
    for _ in range(trials):
        touched = set(sample_binomial_subset(h.num_vertices, p, rng))
        # the lifted edges whose base edge misses every touched vertex
        x = sum(falling_factorial(q, len(e)) for e in h.edges if touched.isdisjoint(e))
        total += x
        sq += x * x
    mean = total / trials
    sd = math.sqrt(max(sq / trials - mean * mean, 0.0))
    assert abs(mean - mu) <= 3 * sd / math.sqrt(trials)
    report(f"empirical mu: {mean:.2f} within 3 sigma of {mu:.2f} over 1e4 trials")


def test_acceptance_06_chebyshev_endgame():
    g = complete_graph(40)
    kappa = max_spread(g).kappa
    assert kappa == 20.0
    q, alpha, trials = 4, 0.8, 10_000
    bound = 2 * math.e * g.r_bound / (alpha * kappa)
    assert bound <= 0.68
    rng = RngStream(601, 0)
    miss = sum(
        1
        for _ in range(trials)
        if contains_rainbow_edge(g, sample_colored_p(40, alpha, q, rng)) is None
    )
    assert miss / trials <= bound
    # exact enumeration against Monte Carlo on a small instance (N*q <= 24)
    small = gen_perfect_matching(4, 2)  # 6 ground elements
    exact = exact_uncover_probability(small, 2, 0.5)
    rng2 = RngStream(602, 0)
    miss2 = sum(
        1
        for _ in range(trials)
        if contains_rainbow_edge(small, sample_colored_p(6, 0.5, 2, rng2)) is None
    )
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(miss2 / trials - exact) <= 3 * se
    report(
        f"endgame: empirical miss {miss / trials:.4f} <= bound {bound:.4f}; "
        f"exact {exact:.4f} vs MC {miss2 / trials:.4f} within 3 sigma"
    )


def test_acceptance_07_fragmentation_consistency():
    cases = [(gen_perfect_matching(8, 2), 4), (gen_hamilton(6), 6)]
    for h, q in cases:
        star = lift_size(h, q)
        for sid in range(200):
            tr = run_fragmentation(h, q, 0.3, 1.0, RngStream(700, sid))
            if tr.endgame_hit:
                assert tr.outcome_rainbow  # (a)
            for i, rec in enumerate(tr.rounds, start=1):  # (b) via good counting
                assert 0.0 <= rec.good_fraction <= 1.0
                assert rec.survivors_after <= rec.compatible <= rec.survivors_before
            if tr.all_rounds_successful:  # (d)
                assert 2 * tr.final_survivors > star
            if sid < 25:  # (c)
                again = run_fragmentation(h, q, 0.3, 1.0, RngStream(700, sid))
                assert tr.serialize().encode() == again.serialize().encode()
    report("fragmentation: 200 seeded runs per instance consistent, traces byte-identical")


def test_acceptance_08_threshold_behavior():
    # per-seed monotonicity is exact under the coupled construction
    h7 = gen_hamilton(7)
    pool = TrialPool(h7, 7, RngStream(801, 0))
    times = pool.colored_times(2000)
    prev = -1
    for m in range(h7.num_vertices + 1):
        hits = int(np.count_nonzero(times <= m))
        assert hits >= prev
        prev = hits

    # single 1-edge hypergraph: threshold at target 1/2 is ceil(N/2)
    n = 20
    single = Hypergraph.from_edges(n, [(0,)])
    est_single = estimate_threshold(TrialPool(single, 1, RngStream(802, 0)), 0.5, 10_000)
    assert abs(est_single.m_star - math.ceil(n / 2)) <= 1

    # implied constant stable across two disjoint seed batches
    r, nverts = h7.r_bound, h7.num_vertices
    est_a = estimate_threshold(TrialPool(h7, 7, RngStream(803, 0)), 0.5, 10_000)
    est_b = estimate_threshold(TrialPool(h7, 7, RngStream(804, 0)), 0.5, 10_000)
    for est in (est_a, est_b):
        assert r <= est.m_star <= nverts
    assert abs(est_a.implied_C - est_b.implied_C) <= 0.10 * est_a.implied_C

    # containment without the color requirement dominates at every m
    rows = sweep(TrialPool(h7, 7, RngStream(805, 0)), list(range(1, nverts + 1)), 2000)
    for _, hits, _, _, _, _, uhits in rows:
        assert uhits >= hits
    report(
        f"threshold: monotone coupling exact; single-edge m*={est_single.m_star}; "
        f"implied C {est_a.implied_C:.4f} vs {est_b.implied_C:.4f} within 10%"
    )


def test_acceptance_09_schedule_arithmetic():
    s = make_schedule(100, 1000.0, 0.1, 1.0)
    assert s.ell == 37
    assert s.ell <= math.log(100) / 0.1
    assert (1 - 0.1) ** 37 <= math.sqrt(math.log(100)) / 100 < (1 - 0.1) ** 36
    report("schedule arithmetic: gamma=0.1, r=100 gives ell=37 <= log(r)/gamma")


def test_acceptance_10_collision_model():
    from fractions import Fraction

    n, q, m = 2, 2, 2
    # each of the N C(q, 2) vertex-sharing pairs survives with probability m(m-1) / (Nq(Nq-1))
    exact = n * math.comb(q, 2) * m * (m - 1) / (n * q * (n * q - 1))
    # full 6-case enumeration of 2-subsets of the 2x2 grid
    pairs = [(v, c) for v in range(n) for c in range(1, q + 1)]
    total = Fraction(0)
    subsets = list(combinations(pairs, m))
    assert len(subsets) == 6
    for sub in subsets:
        by_v = {}
        for v, c in sub:
            by_v.setdefault(v, set()).add(c)
        total += sum(math.comb(len(s), 2) for s in by_v.values())
    assert total / len(subsets) == Fraction(1, 3)
    assert math.isclose(exact, 1 / 3, rel_tol=1e-12)

    trials = 100_000
    rng = RngStream(1001, 0)
    got = 0
    sq = 0
    for _ in range(trials):
        idx = rng.sample_without_replacement(len(pairs), m)
        by_v = {}
        for i in idx:
            v, c = pairs[i]
            by_v.setdefault(v, set()).add(c)
        x = sum(math.comb(len(s), 2) for s in by_v.values())
        got += x
        sq += x * x
    mean = got / trials
    var = sq / trials - mean * mean
    assert abs(mean - 1 / 3) <= 3 * math.sqrt(var / trials)
    report(
        f"collision model: exact 1/3 by enumeration, MC mean {mean:.4f} within 3 sigma"
    )
