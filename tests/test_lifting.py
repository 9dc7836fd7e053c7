import math
import os
import subprocess
import sys
from itertools import combinations, permutations

import oracles
import pytest

import rainbowspread
from rainbowspread import lifting
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError
from rainbowspread.lifting import (
    ChromaticityError,
    LiftCapExceeded,
    _permutation_table,
    expected_edge_count,
    falling_factorial,
    lift_codes,
    lift_rainbow,
    lift_size,
    lifted_containment_count,
)
from rainbowspread.rng import RngStream
from rainbowspread.spread import max_spread

EDGE = Hypergraph.from_edges(2, [(0, 1)])


def test_falling_factorial():
    assert falling_factorial(4, 4) == 24
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(3, 5) == 0


def test_lift_counts():
    assert len(lift_rainbow(EDGE, 2)) == 2
    hc = gen_hamilton(4)
    assert len(lift_rainbow(hc, 4)) == 3 * 24
    single = Hypergraph(1, ((0,),), 1)
    assert len(lift_rainbow(single, 1)) == 1


def test_lift_is_rainbow_and_canonical():
    lifted = lift_rainbow(EDGE, 3)
    assert len(lifted) == 6
    assert all(len(set(le.colors)) == 2 for le in lifted)
    assert lifted == sorted(lifted, key=lambda le: (le.base, le.colors))


def test_lift_errors(monkeypatch):
    with pytest.raises(ChromaticityError):
        lift_rainbow(EDGE, 1)
    monkeypatch.setattr(lifting, "DEFAULT_LIFT_CAP", 100)
    with pytest.raises(LiftCapExceeded, match="above cap 100"):
        lift_rainbow(gen_hamilton(6), 8)


# mixed sizes, repeated edges
MIXED = Hypergraph.from_edges(5, [(0, 1), (1, 2, 3), (0, 1), (2,), (0, 2, 3, 4), (1, 2, 3)])


def restricted_by_filter(h, q, w):
    """Lifted edges whose colors agree with w on every shared vertex."""
    return [le for le in lift_rainbow(h, q) if all(w.get(v, c) == c for v, c in le.elements(h))]


@pytest.mark.parametrize("q", [4, 5, 6])
def test_restricted_lift_matches_filter(q):
    rng = RngStream(41, q)
    for _ in range(40):
        # colors up to q + 1: a pin outside [1, q] admits no coloring
        w = {v: rng.randint(1, q + 1) for v in range(5) if rng.bernoulli(0.5)}
        brute = restricted_by_filter(MIXED, q, w)
        assert lift_size(MIXED, q, w) == len(brute)
        assert lift_rainbow(MIXED, q, w) == brute


def test_restricted_lift_clashing_pins():
    # w colors vertices 1 and 2 alike, so both copies of (1, 2, 3) drop out;
    # (0, 1) twice: 3 each, (2,): 1, (0, 2, 3, 4): (3)_3 = 6
    w = {1: 2, 2: 2}
    lifted = lift_rainbow(MIXED, 4, w)
    assert lift_size(MIXED, 4, w) == len(lifted) == 13
    assert {le.base for le in lifted} == {0, 2, 3, 4}
    assert lifted == restricted_by_filter(MIXED, 4, w)


@pytest.mark.parametrize("w", [{}, {1: 2}, {0: 3, 4: 1}, {1: 2, 2: 2}])
def test_lift_codes_are_the_lifted_edges(w):
    q, pad = 4, MIXED.num_vertices * 4
    codes, base = lift_codes(MIXED, q, w)
    expected = oracles.lift_rainbow(MIXED, q, w)
    assert codes.shape == (len(expected), MIXED.r_bound)
    assert base.tolist() == [le.base for le in expected]
    for row, le in zip(codes.tolist(), expected):
        e = MIXED.edges[le.base]
        assert row == [v * q + c - 1 for v, c in zip(e, le.colors)] + [pad] * (MIXED.r_bound - len(e))


@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (3, 0), (3, 2), (4, 4), (6, 3)])
def test_permutation_table(n, k):
    table = _permutation_table(n, k)
    assert [tuple(row) for row in table.tolist()] == list(permutations(range(n), k))
    assert not table.flags.writeable


def test_import_stays_numpy_free():
    # the modules that perfbench's harness imports load no numpy
    code = (
        "import sys, rainbowspread, rainbowspread.hypergraph, rainbowspread.lifting, rainbowspread.spread; "
        "print('numpy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(rainbowspread.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_restricted_lift_cap(monkeypatch):
    h = gen_hamilton(6)
    w = {v: v % 8 + 1 for v in range(0, 15, 2)}
    n = lift_size(h, 8, w)
    assert 0 < n < lift_size(h, 8)
    monkeypatch.setattr(lifting, "DEFAULT_LIFT_CAP", n)
    assert len(lift_rainbow(h, 8, w)) == n
    monkeypatch.setattr(lifting, "DEFAULT_LIFT_CAP", n - 1)
    with pytest.raises(LiftCapExceeded, match=f"lift has {n} edges"):
        lift_rainbow(h, 8, w)


def test_lifted_containment_examples():
    assert lifted_containment_count(EDGE, 3, {0: 1}) == 2
    assert lifted_containment_count(EDGE, 3, {0: 1, 1: 1}) == 0  # repeated color
    assert lifted_containment_count(EDGE, 3, {}) == lift_size(EDGE, 3)


def brute_force_containment(h, q, assign):
    items = set(assign.items())
    return sum(1 for le in lift_rainbow(h, q) if items <= set(le.elements(h)))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lifted_containment_matches_brute_force(q):
    h = Hypergraph.from_edges(4, [(0, 1), (1, 2), (0, 1, 2), (2, 3)])
    for s in [{}, {0: 1}, {1: 2}, {0: 1, 1: 2}, {0: 2, 2: 2}, {0: 1, 1: 1}]:
        if max(s.values(), default=0) <= q:
            assert lifted_containment_count(h, q, s) == brute_force_containment(h, q, s)


def enumerate_rainbow_subsets(h, q):
    """All rainbow colored sets that are subsets of some lifted edge."""
    seen = set()
    for le in lift_rainbow(h, q):
        elems = sorted(le.elements(h))
        for k in range(1, len(elems) + 1):
            for sub in combinations(elems, k):
                seen.add(sub)
    return seen


@pytest.mark.parametrize(
    "h,qs",
    [
        (EDGE, [2, 3, 4]),
        (gen_hamilton(4), [4, 5]),
        (gen_perfect_matching(4, 2), [2, 3, 4]),
    ],
)
def test_lifted_spread_theorem(h, qs):
    # |H* cap up(S*)| <= e^s |H*| / (q kappa)^s for every rainbow S*
    kappa = max_spread(h).kappa
    for q in qs:
        total = lift_size(h, q)
        for sub in enumerate_rainbow_subsets(h, q):
            s = len(sub)
            count = lifted_containment_count(h, q, dict(sub))
            bound = math.e**s * total / (q * kappa) ** s
            assert count <= bound * (1 + 1e-12)


def test_expected_edge_count():
    hc = gen_hamilton(4)
    assert expected_edge_count(hc, 1.0) == 3
    h12 = Hypergraph.from_edges(6, [tuple(range(i, i + 5)) for i in range(2)] * 6)
    assert expected_edge_count(h12, 0.5) == pytest.approx(12 * 0.5**5)
    # |H| = kappa^r at p = 1/kappa gives expectation exactly 1
    kappa = 9 ** (1 / 2.0)
    h = Hypergraph.from_edges(6, [(i % 6, (i + 1 + i // 5) % 6) for i in range(9)])
    assert expected_edge_count(h, 1 / kappa) == pytest.approx(1.0)
    with pytest.raises(HypergraphError):
        expected_edge_count(Hypergraph(3, ((0,), (0, 1)), 2), 0.5)
