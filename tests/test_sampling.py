"""Colored and uncolored random set models.

Distributional checks use chi-square goodness of fit at significance 1e-3
over at least 1e5 draws, with frozen seeds so reruns are stable.
"""

import math
import re
from collections import Counter
from itertools import combinations, product

import numpy as np
import oracles
import pytest
from scipy.stats import chi2

from rainbowspread import _kernels
from rainbowspread._blocks import lift_groups
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import lift_rainbow, lift_size
from rainbowspread.moments import exact_uncover_probability
from rainbowspread.rng import RngStream
from rainbowspread.sampling import (
    contains_rainbow_edge,
    sample_binomial_subset,
    sample_colored_m,
    sample_colored_p,
    sample_lifted_binomial,
    sample_uniform_subset,
)
from rainbowspread.threshold import TrialPool

SIG = 1e-3


def chi_square_ok(observed, expected):
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat <= chi2.ppf(1 - SIG, df=len(observed) - 1)


def test_uniform_subset_law():
    # all C(5,2)=10 pairs equally likely
    n, m, trials = 5, 2, 100_000
    rng = RngStream(101, 0)
    cells = {frozenset(c): 0 for c in combinations(range(n), m)}
    for _ in range(trials):
        cells[frozenset(sample_uniform_subset(n, m, rng))] += 1
    exp = [trials / len(cells)] * len(cells)
    assert chi_square_ok(list(cells.values()), exp)


def test_binomial_subset_law():
    # per-element inclusion: size of a 3-element binomial sample is Bin(3, 0.4)
    n, p, trials = 3, 0.4, 100_000
    rng = RngStream(102, 0)
    counts = [0, 0, 0, 0]
    for _ in range(trials):
        counts[len(sample_binomial_subset(n, p, rng))] += 1
    exp = [trials * math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    assert chi_square_ok(counts, exp)


def test_colored_m_law():
    # uniform over C(3,2) * 2^2 = 12 colored pairs
    n, q, m, trials = 3, 2, 2, 120_000
    rng = RngStream(103, 0)
    cells = {}
    for dom in combinations(range(n), m):
        for cols in product(range(1, q + 1), repeat=m):
            cells[tuple(zip(dom, cols))] = 0
    for _ in range(trials):
        cells[tuple(sample_colored_m(n, m, q, rng).items())] += 1
    exp = [trials / len(cells)] * len(cells)
    assert chi_square_ok(list(cells.values()), exp)


def test_colored_p_conditional_law():
    # conditioned on its size, a binomial colored sample is the uniform
    # fixed-size colored sample: compare cell frequencies within size 1
    n, q, p, trials = 3, 2, 0.35, 150_000
    rng = RngStream(104, 0)
    size_one = {((v, c),): 0 for v in range(n) for c in range(1, q + 1)}
    got = 0
    for _ in range(trials):
        cs = sample_colored_p(n, p, q, rng)
        if len(cs) == 1:
            size_one[tuple(cs.items())] += 1
            got += 1
    exp = [got / len(size_one)] * len(size_one)
    assert got > 10_000
    assert chi_square_ok(list(size_one.values()), exp)


def test_colored_p_size_law():
    n, q, p, trials = 4, 3, 0.25, 100_000
    rng = RngStream(105, 0)
    counts = [0] * (n + 1)
    for _ in range(trials):
        counts[len(sample_colored_p(n, p, q, rng))] += 1
    exp = [trials * math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    assert chi_square_ok(counts, exp)


def test_lifted_binomial_collisions():
    # every (vertex, color) pair flips its own coin; collision pairs are
    # pairs of distinct colors picked at the same vertex
    n, q, p, trials = 3, 3, 0.5, 50_000
    rng = RngStream(106, 0)
    total_pairs = 0
    for _ in range(trials):
        per_vertex = Counter(v for v, _ in sample_lifted_binomial(n, q, p, rng))
        total_pairs += sum(math.comb(k, 2) for k in per_vertex.values())
    mean = total_pairs / trials
    pq2 = (p / q) ** 2
    expect = n * math.comb(q, 2) * pq2
    sd = math.sqrt(n * math.comb(q, 2) * pq2 * (1 - pq2) / trials)
    assert abs(mean - expect) <= 4 * sd + 0.01


def test_expected_collisions_monte_carlo():
    # each of the N C(q, 2) vertex-sharing pairs of X x [q] lies in a uniform
    # m-subset with probability m(m-1) / (Nq(Nq-1))
    n, q, m, trials = 4, 3, 5, 100_000
    exact = n * math.comb(q, 2) * m * (m - 1) / (n * q * (n * q - 1))
    rng = RngStream(107, 0)
    pairs = [(v, c) for v in range(n) for c in range(1, q + 1)]
    total = 0
    sq = 0
    for _ in range(trials):
        idx = rng.sample_without_replacement(len(pairs), m)
        by_v = {}
        for i in idx:
            v, c = pairs[i]
            by_v.setdefault(v, set()).add(c)
        x = sum(math.comb(len(s), 2) for s in by_v.values())
        total += x
        sq += x * x
    mean = total / trials
    var = sq / trials - mean * mean
    assert abs(mean - exact) <= 4 * math.sqrt(var / trials) + 1e-9


def test_contains_rainbow_edge_examples():
    h = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
    assert contains_rainbow_edge(h, {0: 1, 1: 2}) == (0, 1)
    assert contains_rainbow_edge(h, {0: 1, 1: 1}) is None
    assert contains_rainbow_edge(h, {1: 1, 2: 2, 3: 3}) == (1, 2, 3)
    assert contains_rainbow_edge(h, {1: 1, 2: 2, 3: 2}) is None
    assert contains_rainbow_edge(h, {}) is None


def test_edges_packed_once_per_hypergraph(monkeypatch):
    calls = []
    pack = _kernels.pack_edges
    monkeypatch.setattr(_kernels, "pack_edges", lambda edges: calls.append(1) or pack(edges))
    h = gen_perfect_matching(4, 2)
    rng = RngStream(109, 0)
    for _ in range(20):
        contains_rainbow_edge(h, sample_colored_p(6, 0.5, 3, rng))
    TrialPool(h, 3, rng).colored_times(10)
    exact_uncover_probability(h, 2, 0.5)
    assert len(calls) == 1
    matrix, sizes = h.packed
    assert np.array_equal(matrix, pack(h.edges)[0]) and np.array_equal(sizes, pack(h.edges)[1])
    with pytest.raises(ValueError):
        matrix[0, 0] = 1  # shared by every caller, so read-only
    assert len(Hypergraph.from_edges(4, [(0, 1)]).packed[0]) == 1 and len(calls) == 2


def test_contains_rainbow_edge_monotone():
    h = gen_perfect_matching(6, 2)
    rng = RngStream(108, 0)
    for _ in range(200):
        cs = sample_colored_p(6, 0.5, 3, rng)
        hit = contains_rainbow_edge(h, cs)
        if hit is not None:
            # adding more colored vertices never destroys the hit
            extra = sample_colored_p(6, 0.5, 3, rng)
            merged = {**extra, **cs}  # cs wins clashes
            assert contains_rainbow_edge(h, merged) is not None


def test_restricted_lift_matches_brute_force():
    h = gen_hamilton(5)
    q = 5
    lifted = lift_rainbow(h, q)
    rng = RngStream(109, 0)
    for _ in range(20):
        wmap = sample_colored_p(5, 0.4, q, rng)
        # an edge survives when its colors agree with w on every shared vertex
        brute = [
            le
            for le in lifted
            if all(wmap.get(v, c) == c for v, c in le.elements(h))
        ]
        assert lift_groups(h, q, [wmap])[1] == [len(brute)]
        assert oracles.block_rows(h, q, wmap) == oracles.remainder_rows(h, q, wmap, brute)


def test_restricted_lift_empty_restriction_is_whole_lift():
    h = gen_hamilton(4)
    assert lift_groups(h, 4, [{}])[1] == [lift_size(h, 4)] == [len(lift_rainbow(h, 4))]
    assert oracles.block_rows(h, 4, {}) == oracles.remainder_rows(h, 4, {}, lift_rainbow(h, 4))


@pytest.mark.parametrize("sample,args,message", [
    (sample_uniform_subset, (3, 4), "need 0 <= m <= n, got m=4, n=3"),
    (sample_binomial_subset, (3, 1.5), "p must be in [0, 1] and n >= 0"),
    (sample_colored_m, (3, 0, 0), "need q >= 1 colors"),
    (sample_colored_p, (3, 0.0, 0), "need q >= 1 colors"),
    (sample_lifted_binomial, (3, 2, 2.5), "need q >= 1 and 0 <= p <= q"),
])
def test_samplers_refuse_before_any_draw(sample, args, message):
    # each sampler checks its own inputs, not only the CLI's check_model
    rng = RngStream(56, 0)
    with pytest.raises(ValueError, match=re.escape(message)):
        sample(*args, rng)
    assert rng.counter == 0


def test_sampling_determinism():
    a = RngStream(55, 2)
    b = RngStream(55, 2)
    assert [sample_colored_p(8, 0.3, 3, a) for _ in range(50)] == [
        sample_colored_p(8, 0.3, 3, b) for _ in range(50)
    ]

