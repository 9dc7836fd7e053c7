"""The fast paths against their references in oracles.py, on random small
multiset hypergraphs with mixed edge sizes and repeated edges."""

import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowspread import fragmentation, limits
from rainbowspread.fragmentation import apply_round, endgame_hit, initial_survivors, make_schedule, run_fragmentation
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import lift_rainbow, lift_size
from rainbowspread.moments import chebyshev_report, exact_uncover_probability, janson_delta_exact
from rainbowspread.rng import RngStream
from rainbowspread.spread import is_kappa_spread, max_spread, pad_to_uniform
from rainbowspread.threshold import TrialPool


@st.composite
def instances(draw, min_r=1, max_n=7):
    """(hypergraph, q): up to 6 distinct edges of sizes 1-4 on up to max_n
    vertices, some of them repeated, and q from r_bound to r_bound + 2."""
    n = draw(st.integers(4, max_n))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    r = max(min_r, max(len(e) for e in edges))
    h = Hypergraph.from_edges(n, edges, r_bound=r)
    return h, draw(st.integers(r, r + 2))


def block_elements():
    """One row per block, a few rows per block, or the default."""
    return st.sampled_from([1, 100, limits.BLOCK_ELEMENTS])


def colorings(h, q):
    # a color of q + 1 lies outside [1, q]: it clashes with every element on its vertex
    return st.dictionaries(st.integers(0, h.num_vertices - 1), st.integers(1, q + 1), max_size=h.num_vertices)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lift_matches_oracle(data):
    h, q = data.draw(instances())
    w = data.draw(colorings(h, q))
    expected = oracles.lift_rainbow(h, q, w)
    assert lift_rainbow(h, q, w) == expected
    assert lift_size(h, q, w) == len(expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rounds_match_oracle(data):
    # round 1 from its restricted lift, then further rounds, on the store
    # and on the dict form; both search orders of the reference agree.
    # Small blocks split the psi search of one remainder length.
    h, q = data.draw(instances())
    samples = data.draw(st.lists(colorings(h, q), min_size=1, max_size=4))
    bounds = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), min_size=4, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        store = initial_survivors(h, q, samples[0])
        expected = oracles.initial_survivors(h, q, samples[0])
        assert oracles.store_rows(store) == oracles.by_lineage(expected)
        for wmap, r_i in zip(samples, bounds):
            reference = oracles.apply_round(expected, wmap, r_i)
            assert oracles.apply_round(expected, wmap, r_i, order="subsets") == reference
            assert oracles.apply_round(expected, wmap, r_i, order="candidates") == reference
            store, compatible, good = apply_round(store, wmap, r_i)
            expected = reference[0]
            assert (compatible, good) == reference[1:]
            assert oracles.store_rows(store) == oracles.by_lineage(expected)
    wend = data.draw(colorings(h, q))
    assert endgame_hit(store, wend) == oracles.endgame_hit(expected, wend)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_traces_match_oracle(data):
    # whole runs, once on the store and once with the dict-form round
    h, q = data.draw(instances(min_r=3))
    gamma = data.draw(st.sampled_from([0.1, 0.3, 0.5]))
    seed, stream = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 50))
    sched = make_schedule(h, q, max_spread(h).kappa, gamma, 1.0)

    def run():
        return run_fragmentation(h, sched, RngStream(seed, stream))

    trace = run().serialize()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fragmentation, "initial_survivors", oracles.initial_survivors)
        mp.setattr(fragmentation, "apply_round", oracles.apply_round)
        mp.setattr(fragmentation, "endgame_hit", oracles.endgame_hit)
        assert run().serialize() == trace


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_matches_oracle(data):
    # Delta of h padded to r-uniform, and the endgame sum of h itself, which
    # counts h as padded without building the padding
    h, q = data.draw(instances())
    g = pad_to_uniform(h)
    assume(lift_size(g, q) <= oracles.PAIRS_LIFT_CAP)
    p = data.draw(st.floats(0.0, 1.0))
    assert math.isclose(janson_delta_exact(g, q, p), oracles.delta_pairs(g, q, 1.0 - p), rel_tol=1e-10)
    alpha = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    delta = chebyshev_report(h, q, alpha).delta
    assert math.isclose(delta, oracles.delta_pairs(g, q, alpha / q), rel_tol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spread_matches_oracle(data):
    h, _ = data.draw(instances())
    # vertex ids past 63, up to N = 70, as well as the small ones
    shift = data.draw(st.sampled_from([0, 63]))
    h = Hypergraph.from_edges(h.num_vertices + shift, [[v + shift for v in e] for e in h.edges], h.r_bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        cert = max_spread(h)
        witness, count = oracles.spread_witness(h)
        assert (cert.witness, cert.containment_count) == (witness, count)
        # the float kappa is at most the exact value, and within rounding of it
        bound = Fraction(len(h.edges), count)
        assert Fraction(cert.kappa) ** len(witness) <= bound
        assert math.isclose(cert.kappa, float(bound) ** (1 / len(witness)), rel_tol=1e-12)
        for kappa in (cert.kappa, math.nextafter(cert.kappa, math.inf), data.draw(st.floats(0.5, 4.0))):
            assert is_kappa_spread(h, kappa) == oracles.spread_violator(h, kappa)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trial_blocks_match_scalar_trials(data):
    h, q = data.draw(instances())
    seed, trials = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 60))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        pool = TrialPool(h, q, RngStream(seed))
        colored, uncolored = oracles.scalar_times(pool, trials)
        assert pool.colored_times(trials).tolist() == colored
        assert pool.uncolored_times(trials).tolist() == uncolored


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_uncover_matches_oracle(data):
    h, q = data.draw(instances(max_n=5))  # at most 7^5 vertex states
    alpha = data.draw(st.floats(0.0, 1.0))
    want = oracles.uncover_by_states(h, q, alpha)
    assert math.isclose(exact_uncover_probability(h, q, alpha), want, rel_tol=1e-12, abs_tol=1e-15)
