"""The fast paths against their references in oracles.py, on random small
multiset hypergraphs with mixed edge sizes and repeated edges."""

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowspread import fragmentation
from rainbowspread.fragmentation import apply_round, endgame_hit, initial_survivors, run_fragmentation
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import lift_rainbow, lift_size
from rainbowspread.rng import RngStream
from rainbowspread.spread import max_spread


@st.composite
def instances(draw, min_r=1):
    """(hypergraph, q): up to 6 distinct edges of sizes 1-4 on up to 7
    vertices, some of them repeated, and q from r_bound to r_bound + 2."""
    n = draw(st.integers(4, 7))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    r = max(min_r, max(len(e) for e in edges))
    h = Hypergraph.from_edges(n, edges, r_bound=r)
    return h, draw(st.integers(r, r + 2))


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
    # and on the dict form; both search orders of the reference agree
    h, q = data.draw(instances())
    samples = data.draw(st.lists(colorings(h, q), min_size=1, max_size=4))
    bounds = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), min_size=4, max_size=4))
    lineages = [(le.base, le.colors) for le in oracles.lift_rainbow(h, q, samples[0])]
    store = initial_survivors(h, q, samples[0])
    expected = oracles.initial_survivors(h, q, samples[0])
    assert oracles.dict_from_store(store, lineages) == expected
    for wmap, r_i in zip(samples, bounds):
        reference = oracles.apply_round(expected, wmap, r_i)
        assert oracles.apply_round(expected, wmap, r_i, order="subsets") == reference
        assert oracles.apply_round(expected, wmap, r_i, order="candidates") == reference
        store, compatible, good = apply_round(store, wmap, r_i)
        expected = reference[0]
        assert (compatible, good) == reference[1:]
        assert oracles.dict_from_store(store, lineages) == expected
    wend = data.draw(colorings(h, q))
    assert endgame_hit(store, wend) == oracles.endgame_hit(expected, wend)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_traces_match_oracle(data):
    # whole runs, once on the store and once with the dict-form round
    h, q = data.draw(instances(min_r=3))
    gamma = data.draw(st.sampled_from([0.1, 0.3, 0.5]))
    fixed = data.draw(st.booleans())
    seed, stream = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 50))
    kappa = max_spread(h).kappa

    def run():
        return run_fragmentation(h, q, gamma, 1.0, RngStream(seed, stream), kappa=kappa, fixed_size_rounds=fixed)

    trace = run().serialize()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fragmentation, "initial_survivors", oracles.initial_survivors)
        mp.setattr(fragmentation, "apply_round", oracles.apply_round)
        mp.setattr(fragmentation, "endgame_hit", oracles.endgame_hit)
        assert run().serialize() == trace
