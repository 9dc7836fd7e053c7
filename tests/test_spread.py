import math

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowspread import spread
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError
from rainbowspread.spread import (
    EnumerationCapExceeded,
    containment_count,
    is_kappa_spread,
    max_spread,
    pad_to_uniform,
)


def small_hypergraphs():
    """Random small multiset hypergraphs for property tests."""
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=8,
        ).map(lambda edges: Hypergraph.from_edges(n, edges))
    )


def test_containment_examples():
    pm = gen_perfect_matching(4, 2)
    assert containment_count(pm, [0]) == 1  # each K4-edge in exactly 1 matching
    hc = gen_hamilton(4)
    assert containment_count(hc, [0]) == 2  # and in 2 of the 3 Hamilton cycles
    assert containment_count(hc, []) == len(hc.edges)
    with pytest.raises(HypergraphError):
        containment_count(hc, [99])


def test_max_spread_single_edge():
    h = Hypergraph.from_edges(2, [(0, 1)])
    cert = max_spread(h)
    assert cert.kappa == pytest.approx(1.0, abs=1e-12)
    assert cert.witness == (0,)


def test_max_spread_hamilton_k4():
    cert = max_spread(gen_hamilton(4))
    assert cert.kappa == pytest.approx(math.sqrt(1.5), abs=1e-12)
    # lexicographically smallest witness is the matching pair {01, 23}
    assert cert.witness == (0, 5)
    assert cert.containment_count == 2


def test_max_spread_perfect_matching_k4():
    cert = max_spread(gen_perfect_matching(4, 2))
    assert cert.kappa == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_max_spread_empty_errors():
    with pytest.raises(HypergraphError):
        max_spread(Hypergraph(3, (), 2))


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(spread, "DEFAULT_CANDIDATE_CAP", 10)
    with pytest.raises(EnumerationCapExceeded, match="more than 10 candidate sets"):
        max_spread(gen_hamilton(7))


def test_is_kappa_spread_examples():
    hc = gen_hamilton(4)
    assert is_kappa_spread(hc, 1.0) is None
    witness = is_kappa_spread(hc, 1.5)
    assert witness is not None
    assert containment_count(hc, witness) > len(hc.edges) / 1.5 ** len(witness)
    assert is_kappa_spread(hc, 1e-9) is None  # RHS blows up


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs())
def test_containment_never_exceeds_size(h):
    for s in [(0,), (0, 1), ()]:
        s = tuple(v for v in s if v < h.num_vertices)
        assert containment_count(h, s) <= len(h.edges)
    assert containment_count(h, []) == len(h.edges)


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs())
def test_max_spread_is_the_boundary(h):
    cert = max_spread(h)
    assert is_kappa_spread(h, cert.kappa) is None
    # nudge off the exact boundary: kappa**s vs the integer count can land
    # a few ulps on either side
    assert is_kappa_spread(h, cert.kappa * (1 - 1e-9)) is None
    assert is_kappa_spread(h, cert.kappa * (1 + 1e-9)) is not None


@pytest.mark.parametrize("n,k", [(6, 3), (8, 2)])
def test_max_spread_passes_its_own_check(n, k):
    # the float (m/count)^(1/|S|) rounds above the exact value on these
    h = gen_perfect_matching(n, k)
    cert = max_spread(h)
    assert is_kappa_spread(h, cert.kappa) is None
    assert is_kappa_spread(h, math.nextafter(cert.kappa, math.inf)) == cert.witness


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
def test_is_kappa_spread_rejects_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        is_kappa_spread(gen_hamilton(4), kappa)


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.floats(0.5, 4.0))
def test_is_kappa_spread_matches_exact_reference(h, kappa):
    assert is_kappa_spread(h, kappa) == oracles.spread_violator(h, kappa)


def test_pad_examples():
    h = Hypergraph(1, ((0,),), 2)
    padded = pad_to_uniform(h)
    assert padded.edges == ((0, 1),)
    assert padded.num_vertices == 2

    uniform = gen_hamilton(4)
    assert pad_to_uniform(uniform).edges == uniform.edges

    singletons = Hypergraph(10, tuple((i,) for i in range(10)), 2)
    assert max_spread(singletons).kappa == pytest.approx(10.0, abs=1e-12)
    assert max_spread(pad_to_uniform(singletons)).kappa == pytest.approx(
        math.sqrt(10.0), abs=1e-12
    )


def test_pad_gives_each_copy_fresh_vertices():
    h = Hypergraph(2, ((0,), (0,), (1,)), 3)
    padded = pad_to_uniform(h)
    fresh = [set(e) - {0, 1} for e in padded.edges]
    assert all(len(f) == 2 for f in fresh)
    assert not (fresh[0] & fresh[1])  # duplicate edges pad independently


@settings(max_examples=30, deadline=None)
@given(small_hypergraphs())
def test_pad_preserves_spread_below_size_root(h):
    # preservation is only guaranteed for kappa <= min(spread, |H|^(1/r))
    kappa = min(max_spread(h).kappa, len(h.edges) ** (1.0 / h.r_bound))
    assert is_kappa_spread(pad_to_uniform(h), kappa * (1 - 1e-12)) is None
