import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, permutations

import oracles
import pytest

import rainbowspread
from rainbowspread import limits
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph
from rainbowspread._blocks import _permutation_table, lift_block
from rainbowspread.lifting import (
    ChromaticityError,
    falling_factorial,
    fragment_row_bytes,
    lift_codes,
    lift_rainbow,
    lift_size,
)
from rainbowspread.limits import LimitExceeded
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
    monkeypatch.setattr(limits, "MEMORY_BYTES", 100)
    with pytest.raises(LimitExceeded, match="above the budget of 100"):
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


def test_lift_block_is_each_coloring_in_turn():
    # the rows of several colorings at once are each coloring's lift_codes
    # rows, one coloring after the other, with its index as owner
    q = 4
    ws = [{}, {1: 2}, {0: 3, 4: 1}, {1: 2, 2: 2}, {0: 5}]
    codes, base, owner = lift_block(MIXED, q, ws)
    assert owner.tolist() == sorted(owner.tolist())
    for i, w in enumerate(ws):
        one_codes, one_base = lift_codes(MIXED, q, w)
        assert codes[owner == i].tolist() == one_codes.tolist()
        assert base[owner == i].tolist() == one_base.tolist()
    assert [lift_size(MIXED, q, w) for w in ws] == [int((owner == i).sum()) for i in range(len(ws))]


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
    need = n * fragment_row_bytes(h.r_bound)
    monkeypatch.setattr(limits, "MEMORY_BYTES", need)
    assert len(lift_codes(h, 8, w)[0]) == n
    monkeypatch.setattr(limits, "MEMORY_BYTES", need - 1)
    with pytest.raises(LimitExceeded, match=f"{n} lifted edges need {need} bytes, above the budget of {need - 1}"):
        lift_codes(h, 8, w)


def test_lift_rainbow_budget_covers_its_list(monkeypatch):
    # the LiftedEdge list costs more per row than lift_codes' arrays
    h = gen_hamilton(5)
    n = lift_size(h, 6)
    need = n * (64 * h.r_bound + 320)
    monkeypatch.setattr(limits, "MEMORY_BYTES", n * fragment_row_bytes(h.r_bound))
    with pytest.raises(LimitExceeded, match=f"{n} listed lifted edges need {need} bytes"):
        lift_rainbow(h, 6)
    monkeypatch.setattr(limits, "MEMORY_BYTES", need - 1)
    with pytest.raises(LimitExceeded, match=f"above the budget of {need - 1}"):
        lift_rainbow(h, 6)
    monkeypatch.setattr(limits, "MEMORY_BYTES", need)
    tracemalloc.start()
    try:
        assert len(lift_rainbow(h, 6)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_lifted_containment_examples():
    assert brute_force_containment(EDGE, 3, {0: 1}) == 2
    assert brute_force_containment(EDGE, 3, {0: 1, 1: 1}) == 0  # repeated color
    assert brute_force_containment(EDGE, 3, {}) == lift_size(EDGE, 3)


def brute_force_containment(h, q, assign):
    items = set(assign.items())
    return sum(1 for le in lift_rainbow(h, q) if items <= set(le.elements(h)))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_lifted_containment_matches_brute_force(q):
    # |H* cap up(S*)| for a rainbow S* of size s: its colors are pinned and the
    # rest of each edge E containing dom(S) is colored injectively, (q-s)_{|E|-s}
    h = Hypergraph.from_edges(4, [(0, 1), (1, 2), (0, 1, 2), (2, 3)])
    for s in [{}, {0: 1}, {1: 2}, {0: 1, 1: 2}, {0: 2, 2: 2}, {0: 1, 1: 1}]:
        if max(s.values(), default=0) <= q:
            rainbow = len(set(s.values())) == len(s)
            closed = sum(falling_factorial(q - len(s), len(e) - len(s)) for e in h.edges if set(s) <= set(e))
            assert brute_force_containment(h, q, s) == (closed if rainbow else 0)


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
            count = brute_force_containment(h, q, dict(sub))
            bound = math.e**s * total / (q * kappa) ** s
            assert count <= bound * (1 + 1e-12)
