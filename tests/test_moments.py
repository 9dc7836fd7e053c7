"""Second-moment machinery: dual-path agreement, bound chains, endgame."""

import math
import tracemalloc
from fractions import Fraction

import oracles
import pytest

from rainbowspread import _kernels, limits, spread
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError
from rainbowspread.lifting import falling_factorial, lift_rainbow, lift_size
from rainbowspread.limits import LimitExceeded
from rainbowspread.moments import (
    FINAL_GATE_MAX_P,
    FINAL_GATE_MIN_KAPPA,
    chebyshev_report,
    exact_uncover_probability,
    janson_chain_check,
    janson_delta_exact,
    janson_mu,
)
from rainbowspread.rng import RngStream
from rainbowspread.sampling import contains_rainbow_edge, sample_colored_p
from rainbowspread.spread import max_spread, pad_to_uniform

SINGLE = Hypergraph.from_edges(2, [(0, 1)])

DUAL_PATH_CASES = [
    (SINGLE, 2, 0.5),
    (SINGLE, 3, 0.2),
    (gen_hamilton(4), 4, 0.1),
    (gen_hamilton(4), 5, 0.3),
    (gen_perfect_matching(4, 2), 3, 0.25),
    (Hypergraph.from_edges(5, [(0, 1), (1, 2, 3), (3, 4)]), 4, 0.15),
]


def both_paths(h, q, p):
    """Delta of h padded to r-uniform, then the endgame sum of h itself at
    alpha = 1 - p, each beside its brute-force pair enumeration."""
    g = pad_to_uniform(h)
    return [
        (janson_delta_exact(g, q, p), oracles.delta_pairs(g, q, 1 - p)),
        (chebyshev_report(h, q, 1 - p).delta, oracles.delta_pairs(g, q, (1 - p) / q)),
    ]


@pytest.mark.parametrize("h,q,p", DUAL_PATH_CASES)
def test_delta_dual_paths_agree(h, q, p):
    for agg, brute in both_paths(h, q, p):
        assert math.isclose(agg, brute, rel_tol=1e-10)


@pytest.mark.parametrize("h,q,p", DUAL_PATH_CASES)
def test_delta_aggregate_row_blocks(h, q, p, monkeypatch):
    one_block = both_paths(Hypergraph(h.num_vertices, h.edges, h.r_bound), q, p)
    # a budget below one row puts every edge in its own key block; a fresh
    # hypergraph, so that its candidate table is built under the patch
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", 1)
    blocked = both_paths(Hypergraph(h.num_vertices, h.edges, h.r_bound), q, p)
    assert blocked == one_block
    for agg, brute in blocked:
        assert math.isclose(agg, brute, rel_tol=1e-10)


# sizes 1 to 3, and (1, 2) twice
MIXED = Hypergraph.from_edges(6, [(0,), (1, 2), (0, 1, 2), (2, 4, 5), (1, 2), (3,)])


def test_delta_outputs_pinned():
    # bit for bit: how Delta counts its pairs may change, these values may not
    assert janson_delta_exact(pad_to_uniform(MIXED), 4, 0.15) == 2061.617625
    assert chebyshev_report(MIXED, 4, 0.6).as_dict() == {
        "mu": 0.48599999999999993,
        "delta": 1.123875,
        "janson_bound": 0.974071791383191,
        "chain_bounds": {"chebyshev_zero_bound": 1.0},
        "checks": {},
    }
    assert chebyshev_report(gen_hamilton(5), 5, 0.5).as_dict() == {
        "mu": 0.0144,
        "delta": 0.019490400000000005,
        "janson_bound": 0.9986709984237396,
        "chain_bounds": {"chebyshev_zero_bound": 1.0},
        "checks": {},
    }
    # padded to 8-uniform this has 1,608 vertices; it is counted on its 208
    singletons = Hypergraph.from_edges(208, [range(8), *([v] for v in range(8, 208))])
    assert chebyshev_report(singletons, 8, 0.5).as_dict() == {
        "mu": 0.0018869340419769287,
        "delta": 0.0021684252784570646,
        "janson_bound": 0.9997947730350524,
        "chain_bounds": {"chebyshev_zero_bound": 1.0},
        "checks": {},
    }


def test_delta_budget_is_per_set_size(monkeypatch):
    # MIXED's largest set size is its 12 one-vertex keys (2 + 2 * 2 + 2 * 3),
    # at 34 bytes a key, with the 4 x 6 binomials: 600 bytes
    def no_keys(*args):
        raise AssertionError("a key array before the byte budget was checked")

    monkeypatch.setattr(limits, "MEMORY_BYTES", 599)
    with monkeypatch.context() as patch:
        patch.setattr(spread, "size_keys", no_keys)
        with pytest.raises(LimitExceeded, match="12 candidate keys of one set size need 600 bytes"):
            chebyshev_report(Hypergraph(MIXED.num_vertices, MIXED.edges, MIXED.r_bound), 4, 0.6)
    monkeypatch.setattr(limits, "MEMORY_BYTES", 600)
    assert chebyshev_report(Hypergraph(MIXED.num_vertices, MIXED.edges, MIXED.r_bound), 4, 0.6).delta == 1.123875


def test_janson_delta_refuses_mixed_sizes():
    with pytest.raises(HypergraphError, match="r-uniform"):
        janson_delta_exact(MIXED, 4, 0.15)


def test_chebyshev_bound_when_mu_squared_underflows():
    # mu is positive but mu^2 is 0.0; Delta >= mu, so the bound is 1
    report = chebyshev_report(Hypergraph.from_edges(4, [(0,)]), 1, 5e-324)
    assert report.mu == report.delta == 5e-324
    assert dict(report.chain_bounds)["chebyshev_zero_bound"] == 1.0
    # where mu and Delta both underflow, the Janson bound reads 0
    report = chebyshev_report(SINGLE, 2, 1e-300)
    assert (report.mu, report.delta, report.janson_bound) == (0.0, 0.0, 0.0)
    assert dict(report.chain_bounds)["chebyshev_zero_bound"] == 1.0


@pytest.mark.parametrize("mixed", [False, True], ids=["hc8", "hc8-mixed"])
def test_candidate_peak_within_its_charge(mixed):
    # the keys of one set size at a time: hc8's largest holds 176,400 keys;
    # the mixed instance adds the first 4 vertices of every 8th edge
    h = gen_hamilton(8)
    if mixed:
        h = Hypergraph.from_edges(h.num_vertices, [*h.edges, *(e[:4] for e in h.edges[::8])])
    tracemalloc.start()
    try:
        max_spread(h)
        chebyshev_report(h, 8, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spread.check_candidate_bytes(h)
    assert peak < 4 * 2**20


def test_delta_single_edge_closed_form():
    # one edge, q=2: lift has 2 edges, colored intersections are only the
    # self-pairs (the two colorings disagree everywhere), weight (1-p)^2
    p = 0.5
    d = oracles.delta_pairs(SINGLE, 2, 1 - p)
    assert math.isclose(d, 2 * (1 - p) ** 2, rel_tol=1e-12)


def test_delta_includes_self_pairs():
    # with q large the off-diagonal pairs vanish slower than mu^2 does;
    # at minimum Delta >= sum over self-pairs = |H*| (1-p)^r for uniform H
    h = gen_hamilton(4)
    q, p = 5, 0.3
    d = janson_delta_exact(h, q, p)
    floor = lift_size(h, q) * (1 - p) ** h.r_bound
    assert d >= floor - 1e-9


def test_mu_closed_form():
    # matchings of K6 cut into pairs: 15 edges, each of size 6/2 = 3
    h = gen_perfect_matching(6, 2)
    q, p = 4, 0.2
    mu = janson_mu(h, q, p)
    assert h.r_bound == 3 and len(h.edges) == 15
    assert math.isclose(mu, 15 * falling_factorial(q, 3) * 0.8**3, rel_tol=1e-12)


def test_mu_empirical():
    # mean count of surviving lifted edges under the binomial colored model
    # matches mu within 3 standard errors
    h = gen_perfect_matching(6, 2)
    q, trials = 3, 20_000
    lifted = lift_rainbow(h, q)
    rng = RngStream(201, 0)
    keep = 0.7
    total = 0
    sq = 0
    for _ in range(trials):
        cs = sample_colored_p(h.num_vertices, keep, q, rng)
        wmap = dict(cs.assignment)
        x = sum(
            1
            for le in lifted
            if all(wmap.get(v) == c for v, c in le.elements(h))
        )
        total += x
        sq += x * x
    mean = total / trials
    var = max(sq / trials - mean * mean, 1e-12)
    # expected count: each lifted edge survives iff its r vertices are
    # present with the right colors: (keep/q)^r each
    expect = len(lifted) * (keep / q) ** h.r_bound
    assert abs(mean - expect) <= 3 * math.sqrt(var / trials)


def test_chain_check_unconditional_bound():
    h = gen_hamilton(6)
    cert = max_spread(h)
    rep = janson_chain_check(h, 6, 0.2, cert.kappa)
    assert dict(rep.checks)["delta_le_intermediate"]
    bounds = dict(rep.chain_bounds)
    assert bounds["final_gate_active"] == 0.0  # kappa way below 11
    assert "delta_le_final" not in dict(rep.checks)


def test_chain_check_gated_instance():
    # complete graph K_60 as a 2-uniform hypergraph is sqrt(|H|)-spread
    # far above the kappa >= 11 gate; p and q inside the gate too
    n = 60
    h = Hypergraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    kappa = 15.0
    rep = janson_chain_check(h, n, 0.05, kappa)
    checks = dict(rep.checks)
    bounds = dict(rep.chain_bounds)
    assert bounds["final_gate_active"] == 1.0
    assert checks["delta_le_intermediate"]
    assert checks["delta_le_final"]
    assert rep.delta <= bounds["four_mu_sq_over_kappa"]
    assert bounds["four_mu_sq_over_kappa"] <= bounds["intermediate_bound"] * 100


@pytest.mark.parametrize("q", [3, 7, 10**6, 10**17])
def test_intermediate_bound_is_exact_to_rounding(q):
    # mu^2 ((1 + x)^r - 1) with x = e / (q kappa (1-p)); once x is below
    # float epsilon, 1 + x rounds to 1 and the bound must not read 0
    p = 0.05
    for h in (gen_perfect_matching(6, 3), gen_hamilton(5)):
        if q < h.r_bound:
            continue
        kappa = max_spread(h).kappa
        rep = janson_chain_check(h, q, p, kappa)
        x = Fraction(math.e / (q * kappa * (1.0 - p)))
        exact = Fraction(rep.mu) ** 2 * ((1 + x) ** h.r_bound - 1)
        got = Fraction(dict(rep.chain_bounds)["intermediate_bound"])
        assert abs(got - exact) <= exact * Fraction(1, 10**12)
        assert dict(rep.checks)["delta_le_intermediate"]


def test_chain_check_rejects_bad_kappa():
    h = gen_hamilton(5)
    with pytest.raises(ValueError):
        janson_chain_check(h, 5, 0.1, 1000.0)


def test_chain_check_at_p_one_and_its_input_checks_first():
    # at p = 1, x = e / (q kappa (1 - p)) is undefined: mu, Delta and the
    # intermediate bound are 0, and so is the Janson bound; at p = 0.99,
    # 0 < Delta < 1 still takes the Janson formula; a p outside [0, 1] is
    # refused before the spread check, which kappa = 1000 would fail
    h = gen_hamilton(5)
    kappa = max_spread(h).kappa
    rep = janson_chain_check(h, 5, 1.0, kappa)
    assert (rep.mu, rep.delta, rep.janson_bound) == (0.0, 0.0, 0.0)
    assert dict(rep.chain_bounds)["intermediate_bound"] == 0.0
    assert dict(rep.checks) == {"delta_le_intermediate": True}
    rep = janson_chain_check(h, 5, 0.99, kappa)
    assert 0 < rep.delta < 1 and rep.janson_bound == math.exp(-rep.mu**2 / (8 * rep.delta))
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        janson_chain_check(h, 5, 1.5, 1000.0)


def test_chain_check_gate_is_closed_at_its_bounds():
    # q = r, p = 0.09 and kappa = 11 each sit on the final gate's bound
    n = 60
    h = Hypergraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    rep = janson_chain_check(h, 2, FINAL_GATE_MAX_P, FINAL_GATE_MIN_KAPPA)
    assert dict(rep.chain_bounds)["final_gate_active"] == 1.0
    assert dict(rep.checks) == {"delta_le_intermediate": True, "delta_le_final": True}


def test_chebyshev_report_and_miss_bound():
    n = 40
    g = Hypergraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    rep = chebyshev_report(g, n, 0.8)
    cheb = dict(rep.chain_bounds)["chebyshev_zero_bound"]
    assert 0.0 < cheb <= 1.0
    # spread of K_40 is pinned by the single-vertex sets: 780/39 = 20
    kappa = max_spread(g).kappa
    assert math.isclose(kappa, 20.0, rel_tol=1e-12)
    # the closed-form miss bound 2 e r / (alpha kappa)
    assert 2 * math.e * 2 / (0.8 * kappa) < 0.68


def test_chebyshev_rejects_bad_alpha():
    with pytest.raises(ValueError):
        chebyshev_report(SINGLE, 2, 0.0)
    with pytest.raises(ValueError):
        chebyshev_report(SINGLE, 2, 1.0)


def test_exact_uncover_probability_single_edge():
    # edge {0,1}, q=2, alpha: rainbow present iff both vertices colored
    # differently: 2 * (alpha/2)^2; uncover = 1 - alpha^2/2
    for alpha in (0.3, 0.6):
        got = exact_uncover_probability(SINGLE, 2, alpha)
        assert math.isclose(got, 1 - alpha * alpha / 2, rel_tol=1e-12)


@pytest.mark.parametrize("g,q,alpha", [
    (SINGLE, 2, 0.3),
    (gen_perfect_matching(4, 2), 2, 0.5),
    (gen_perfect_matching(4, 2), 3, 0.7),
    (Hypergraph.from_edges(7, [(0, 1), (1, 2, 3), (2, 5, 6), (4,), (1, 2, 3)]), 3, 0.45),
    (Hypergraph(3, (), 2), 2, 0.5),
])
def test_exact_uncover_probability_matches_per_state_sum(g, q, alpha, monkeypatch):
    want = oracles.uncover_by_states(g, q, alpha)
    assert math.isclose(exact_uncover_probability(g, q, alpha), want, rel_tol=1e-12)
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", 7)  # many blocks, some ragged
    assert math.isclose(exact_uncover_probability(g, q, alpha), want, rel_tol=1e-12)


def test_exact_paths_refuse_before_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(_kernels, "pack_edges", no_work)
    # 10 vertices at q=5: 6^10 states
    with pytest.raises(LimitExceeded, match="60466176 vertex states"):
        exact_uncover_probability(gen_hamilton(5), 5, 0.5)


def test_exact_uncover_probability_vs_monte_carlo():
    g = gen_perfect_matching(4, 2)
    q, alpha, trials = 2, 0.5, 40_000
    exact = exact_uncover_probability(g, q, alpha)
    rng = RngStream(202, 0)
    miss = 0
    for _ in range(trials):
        cs = sample_colored_p(g.num_vertices, alpha, q, rng)
        if contains_rainbow_edge(g, cs) is None:
            miss += 1
    phat = miss / trials
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(phat - exact) <= 3.5 * se
