import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowspread import limits
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError
from rainbowspread.limits import LimitExceeded
from rainbowspread.spread import (
    containment_count,
    is_kappa_spread,
    max_spread,
    pad_to_uniform,
    rank_tables,
    size_keys,
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
    # hc7: its largest set size, 360 edges of 35 three-subsets each, at 34
    # bytes a key, and the 8 x 21 binomials
    monkeypatch.setattr(limits, "MEMORY_BYTES", 429743)
    message = "12600 candidate keys of one set size need 429744 bytes, above the budget of 429743"
    with pytest.raises(LimitExceeded, match=message):
        max_spread(gen_hamilton(7))
    monkeypatch.setattr(limits, "MEMORY_BYTES", 429744)
    assert max_spread(gen_hamilton(7)).witness == (0, 1, 7, 12, 16, 19, 20)


def test_rank_tables_built_once_and_checked_every_call(monkeypatch):
    # one pair of read-only arrays per (n, r), but the byte budget is read on every call
    offsets, binom = rank_tables(50, 4)
    again = rank_tables(50, 4)
    assert again[0] is offsets and again[1] is binom
    assert not (offsets.flags.writeable or binom.flags.writeable)
    monkeypatch.setattr(limits, "MEMORY_BYTES", 8 * 5 * 50 - 1)
    with pytest.raises(LimitExceeded, match="the rank tables of keys need 2000 bytes"):
        rank_tables(50, 4)


def test_rank_tables_offsets_up_to_the_int64_boundary():
    # offsets[k] counts the sets of fewer than k elements; the 2^63 subsets
    # of 63 elements need one key more than int64 holds, and all but the
    # full set fit
    assert rank_tables(5, 3)[0].tolist() == [0, 1, 6, 16, 26]
    assert rank_tables(63, 62)[0][-1] == 2**63 - 1
    message = r"keys need 9223372036854775808 values \(all subsets of at most 63 of 63 elements\), above int64"
    with pytest.raises(LimitExceeded, match=message):
        rank_tables(63, 63)


def _check_size_keys(n, r, rows, ks):
    """size_keys gives each k-subset of a row, for each k in ks in turn,
    its index among the subsets of at most r of range(n) ordered by
    (size, tuple), listing a row's k-subsets in colex order of the row
    reflected, {n - 1 - x}."""
    order = sorted((s for k in range(r + 1) for s in combinations(range(n), k)), key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(order)}
    a = len(rows[0])
    out = size_keys(np.array(rows, dtype=np.int64).reshape(len(rows), a), ks, *rank_tables(n, r))
    assert out.shape == (sum(math.comb(a, k) for k in ks), len(rows))
    at = 0
    for k in ks:
        block = out[at : at + math.comb(a, k)]
        at += math.comb(a, k)
        for b, row in enumerate(rows):
            colex = sorted(combinations(sorted(n - 1 - x for x in row), k), key=lambda t: t[::-1])
            assert block[:, b].tolist() == [index[tuple(sorted(n - 1 - y for y in t))] for t in colex]


def test_size_keys_non_contiguous_sizes():
    _check_size_keys(6, 4, [(0, 1, 2, 3), (1, 3, 4, 5), (2, 3, 4, 5)], (1, 3))
    _check_size_keys(7, 5, [(0, 2, 3, 5, 6)], (0, 2, 5))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_size_keys_match_the_order_by_size_then_tuple(data):
    n = data.draw(st.integers(1, 8))
    r = data.draw(st.integers(1, n))
    a = data.draw(st.integers(0, n))
    rows = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=a, max_size=a).map(sorted), min_size=1, max_size=4))
    ks = sorted(data.draw(st.sets(st.integers(0, min(a, r)), min_size=1)))
    _check_size_keys(n, r, rows, tuple(ks))


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


@pytest.mark.parametrize(
    "h",
    [gen_hamilton(5), gen_perfect_matching(6, 2), Hypergraph.from_edges(4, [(0, 3), (1, 2)])],
    ids=["hc5", "pm62", "lex-not-colex"],
)
def test_tied_instances_match_oracle(h):
    # many sets share each count; at kappa = (m/count)^(1/|S|) a set can sit
    # exactly on its limit, count * kappa^|S| = m, which does not violate it.
    # In lex-not-colex the binding 2-sets {0, 3} and {1, 2} tie, and
    # lexicographic order picks {0, 3} where colex order would pick {1, 2}
    cert = max_spread(h)
    assert (cert.witness, cert.containment_count) == oracles.spread_witness(h)
    m = len(h.edges)
    pairs = sorted({(len(s), containment_count(h, s)) for s in oracles._candidates(h)})
    ties = [(m / c) ** (1 / k) for k, c in pairs]
    assert any(c * Fraction(kappa) ** k == m for (k, c), kappa in zip(pairs, ties))
    above = [math.nextafter(kappa, math.inf) for kappa in [cert.kappa, *ties]]
    for kappa in [cert.kappa, *ties, *above]:
        assert is_kappa_spread(h, kappa) == oracles.spread_violator(h, kappa)


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
    assert pad_to_uniform(uniform) is uniform  # nothing to pad, nothing rebuilt

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
