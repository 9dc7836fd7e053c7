"""Round schedule, psi/chi selection, and whole-process traces."""

import hashlib
import math
import random

import numpy as np
import oracles
import pytest

from rainbowspread import _blocks, fragmentation
from rainbowspread.errors import RainbowSpreadError
from rainbowspread.fragmentation import (
    FragmentationTrace,
    apply_round,
    empty_round,
    initial_survivors,
    make_schedule,
    run_fragmentation,
)
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import ChromaticityError, lift_size
from rainbowspread.limits import LimitExceeded
from rainbowspread.rng import RngStream
from rainbowspread.spread import max_spread, rank_tables, size_keys


def schedule(r, kappa, gamma, C):
    """The schedule of an edgeless hypergraph of rank r at q = r colors."""
    return make_schedule(Hypergraph(0, (), r), r, kappa, gamma, C)


def test_schedule_reference_point():
    # r=100, gamma=0.1: smallest ell with 0.9^ell <= sqrt(log 100)/100
    s = schedule(100, 1000.0, 0.1, 1.0)
    assert s.ell == 37
    assert (1 - 0.1) ** s.ell <= math.sqrt(math.log(100)) / 100 < (1 - 0.1) ** (s.ell - 1)
    assert s.ell <= math.log(100) / 0.1
    assert s.delta == 1.0 / (2 * s.ell)
    assert s.p == 1.0 / 1000.0
    assert s.rho == math.log(100) / 1000.0
    assert s.feasible
    assert (s.q, s.lift_size) == (100, 0)


def test_schedule_ell_shrinks_as_gamma_grows():
    ells = [schedule(50, 500.0, g, 1.0).ell for g in (0.05, 0.2, 0.5, 0.9)]
    assert ells == sorted(ells, reverse=True)
    assert ells[-1] >= 1


def test_schedule_strict_rejections():
    # an infeasible rate is recorded, not rejected
    s = schedule(100, 5.0, 0.1, 1.0)  # 37 * 0.2 + rho > 1
    assert (s.p, s.C / s.kappa, s.feasible) == (0.2, 0.2, False)  # not clamped
    s = schedule(4, 2 + math.log(4), 0.5, 1.0)  # a total rate of exactly 1 is feasible
    assert (s.ell, s.ell * s.p + s.rho, s.feasible) == (2, 1.0, True)
    with pytest.raises(ValueError):
        schedule(2, 10.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        schedule(10, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="1 - gamma rounds to 1"):
        schedule(10, 10.0, 1e-17, 1.0)
    assert schedule(10, 10.0, 1e-16, 1.0).ell > 10**16  # 1 - 1e-16 is below 1, though 1 + 1e-16 is not above it
    for C in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite C >= 1"):
            schedule(10, 10.0, 0.3, C)
    for kappa in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="need kappa > 0"):
            schedule(10, kappa, 0.3, 1.0)


def test_schedule_ell_matches_the_stepping_search():
    # ell from the closed form, corrected by the float test, is the least
    # ell >= 1 that stepping up from 1 finds
    for r in (3, 4, 7, 10, 100, 10**6):
        target = math.sqrt(math.log(r)) / r
        for gamma in (1e-3, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999, 1 - 1e-12):
            ell = 1
            while (1 - gamma) ** ell > target:
                ell += 1
            assert schedule(r, 10.0, gamma, 1.0).ell == ell


@pytest.mark.parametrize("r,gamma,estimate,ell", [(3, 0.0839023952417058, 13, 12), (4, 0.33479437596314704, 3, 4)])
def test_schedule_ell_corrects_the_log_estimate(r, gamma, estimate, ell):
    # the closed form is one above and one below the least ell here, and the
    # float test steps it down and up to what stepping up from 1 finds
    target = math.sqrt(math.log(r)) / r
    assert math.ceil(math.log(target) / math.log(1.0 - gamma)) == estimate
    assert (1 - gamma) ** ell <= target < (1 - gamma) ** (ell - 1)
    assert schedule(r, 10.0, gamma, 1.0).ell == ell


def test_schedule_nonstrict_clamps():
    s = schedule(10, 2.0, 0.3, 3.0)  # p = 1.5 > 1
    assert s.p == 1.0 < s.C / s.kappa
    assert not s.feasible


# two fragments on 3 vertices under q = 2 colors; lineages are ranks, so
# a store of both holds each at the row its lineage names
FRAG_A = (((0, 1), (1, 1)), 1, 0)
FRAG_B = (((0, 1), (1, 1), (2, 2)), 1, 1)


def _both_picks(frags, wmap):
    """The oracle's picks and the store's, which must agree."""
    store = oracles.store_from_dict({e: (m, lin) for e, m, lin in frags}, 3, 2, 3)
    picks = oracles.psi_round(frags, wmap)
    for order in ("subsets", "candidates"):
        assert oracles.psi_round(frags, wmap, order) == picks
    assert oracles.store_picks(store, wmap) == picks
    return picks


def _both_rounds(survivors, wmap, r_i):
    """The oracle's round and the store's, which must agree."""
    expected = oracles.apply_round(survivors, wmap, r_i)
    new, compatible, good = apply_round(oracles.store_from_dict(survivors, 3, 2, 3), [wmap], r_i)
    assert (oracles.store_rows(new), compatible.tolist(), good.tolist()) == (
        oracles.by_lineage(expected[0]), [expected[1]], [expected[2]]
    )
    return expected


def test_psi_chi_clash_and_selection():
    frags = [FRAG_A, FRAG_B]
    # color clash on vertex 2 kills B, A keeps its own remainder
    picks = _both_picks(frags, {2: 1})
    assert picks[1] is None
    assert picks[0] == (((0, 1), (1, 1)), FRAG_A[2])

    # both compatible with the same remainder: min lineage wins
    picks = _both_picks(frags, {2: 2})
    assert picks[0] == picks[1] == (((0, 1), (1, 1)), FRAG_A[2])

    # B's remainder strictly contains A's, so B collapses onto A's
    picks = _both_picks(frags, {0: 1})
    assert picks[0] == (((1, 1),), FRAG_A[2])
    assert picks[1] == (((1, 1),), FRAG_A[2])


def test_psi_chi_empty_sample_collapses_subsets():
    # with nothing sampled, remainders equal element sets; a fragment
    # whose set contains another fragment's set points at the smaller one
    picks = _both_picks([FRAG_A, FRAG_B], {})
    assert picks[0] == (FRAG_A[0], FRAG_A[2])
    assert picks[1] == (FRAG_A[0], FRAG_A[2])


def test_row_order_breaks_ties():
    # X's remainder holds two different remainders of size 1, A and B;
    # whichever comes first in the store is X's pick, and the same holds
    # for the oracle, whose lineages the row order stands for
    a, b, x = ((0, 1),), ((1, 1),), ((0, 1), (1, 1))
    for first, second in ((a, b), (b, a)):
        survivors = {first: (1, 0), second: (1, 1), x: (1, 2)}
        store = oracles.store_from_dict(survivors, 3, 2, 3)
        assert [elems for elems, _ in oracles.store_rows(store)] == [first, second, x]
        picks = oracles.store_picks(store, {})
        assert picks == [(first, 0), (second, 1), (first, 0)]
        frags = [(elems, mult, lin) for elems, (mult, lin) in survivors.items()]
        assert oracles.psi_round(frags, {}) == picks


def test_apply_round_counts_and_merge():
    survivors = {FRAG_A[0]: (2, FRAG_A[2]), FRAG_B[0]: (3, FRAG_B[2])}
    new, compatible, good = _both_rounds(survivors, {0: 1}, r_i=2.0)
    assert compatible == 5
    assert good == 5
    # both collapse onto the same remainder, multiplicities add
    assert new == {((1, 1),): (5, FRAG_A[2])}


def test_apply_round_threshold_boundary():
    survivors = {FRAG_B[0]: (1, FRAG_B[2])}
    # remainder after removing vertex 0 has size 2; r_i below that drops it
    new, compatible, good = _both_rounds(survivors, {0: 1}, r_i=1.9)
    assert compatible == 1 and good == 0 and new == {}
    new, _, good = _both_rounds(survivors, {0: 1}, r_i=2.0)
    assert good == 1 and list(new) == [((1, 1), (2, 2))]


def test_apply_round_full_coloring():
    survivors = {FRAG_A[0]: (1, FRAG_A[2])}
    # sample colors every vertex compatibly: remainder is empty
    new, compatible, good = _both_rounds(survivors, {0: 1, 1: 1}, r_i=5.0)
    assert compatible == 1 and good == 1
    assert new == {(): (1, FRAG_A[2])}
    # one wrong color and nothing survives
    new, compatible, _ = _both_rounds(survivors, {0: 1, 1: 2}, r_i=5.0)
    assert compatible == 0 and new == {}


def test_empty_round_keeps_rows_as_long_as_r_i():
    # gamma 0.5 on r = 4 gives r_1 = 2.0 and r_2 = 1.0; an empty round keeps
    # a row whose length equals r_i, as the round with an empty sample does
    s = schedule(4, 10.0, 0.5, 1.0)
    assert [(1 - s.gamma) ** i * s.r for i in (1, 2)] == [2.0, 1.0]
    # an antichain with rows of lengths 1, 2 and 3
    survivors = {((0, 1),): (1, 0), ((1, 2), (2, 2)): (2, 1), ((0, 2), (1, 1), (2, 1)): (3, 2)}
    store = oracles.store_from_dict(survivors, 3, 2, 3)
    for r_i in (2.0, 1.0):
        expected = oracles.apply_round(survivors, {}, r_i)
        new, compatible, good = empty_round(store, r_i)
        assert (oracles.store_rows(new), compatible.tolist(), good.tolist()) == (
            oracles.by_lineage(expected[0]), [expected[1]], [expected[2]]
        )
        assert _both_rounds(survivors, {}, r_i) == expected


def run_once(h, q, seed, stream=0, gamma=0.3):
    sched = make_schedule(h, q, max_spread(h).kappa, gamma, 1.0)
    return run_fragmentation(h, sched, [RngStream(seed, stream)])[0]


@pytest.mark.parametrize("seed", range(10))
def test_trace_invariants(seed):
    h = gen_perfect_matching(6, 2)
    q = 4
    tr = run_once(h, q, seed)
    assert isinstance(tr, FragmentationTrace)
    assert len(tr.rounds) == tr.schedule.ell
    for i, rec in enumerate(tr.rounds, start=1):
        assert rec.round == i
        assert 0 <= rec.survivors_after <= rec.compatible <= rec.survivors_before
        assert 0.0 <= rec.good_fraction <= 1.0
    assert tr.rounds[0].survivors_before == tr.schedule.lift_size == lift_size(h, q)
    for prev, rec in zip(tr.rounds, tr.rounds[1:]):
        assert rec.survivors_before == prev.survivors_after
    assert tr.final_survivors == tr.rounds[-1].survivors_after
    if tr.endgame_hit:
        # an endgame-covered fragment is a rainbow piece of the union
        assert tr.outcome_rainbow


def test_trace_deterministic_serialization():
    h = gen_hamilton(5)
    a = run_once(h, 5, seed=7).serialize()
    b = run_once(h, 5, seed=7).serialize()
    assert a == b
    c = run_once(h, 5, seed=8).serialize()
    assert a != c
    # every line parses as JSON
    import json

    for line in a.strip().split("\n"):
        json.loads(line)


def test_traces_frozen():
    # sha256 of these traces as the full-lift implementation wrote them
    digest = hashlib.sha256()
    for h, q in [(gen_perfect_matching(6, 2), 4), (gen_hamilton(5), 6)]:
        for sid in range(10):
            for gamma in (0.1, 0.3):
                digest.update(run_once(h, q, 11, sid, gamma).serialize().encode())
    assert digest.hexdigest() == "0963f455239428733e2d5b51720000119f468dd92a8fe6724c22d1fdba7fe55f"


def test_initial_survivors_multiset():
    h = gen_hamilton(4)
    q = 4
    init = initial_survivors(h, q, [{}])
    assert int(init.mult.sum()) == lift_size(h, q)
    # distinct base edges never share (vertex, color) element tuples here,
    # so every multiplicity is 1, and the rows are the lift in its order
    assert (init.mult == 1).all()
    assert oracles.store_rows(init) == oracles.by_lineage(oracles.initial_survivors(h, q, {}))
    # the store's lengths, which round 1 does not read, are its rows' lengths too
    assert init.lengths.tolist() == (init.codes < init.pad).sum(axis=1).tolist()


def test_remainders_of_no_sample_are_the_store():
    # with no sample every row is compatible and is its own remainder, so
    # the store's own arrays come back, uncopied
    h, q = gen_hamilton(5), 5
    store = initial_survivors(h, q, [{0: 1, 3: 2}, {}, {4: 5}])
    codes, lengths = store.codes.copy(), store.lengths.copy()
    compat, rem, rem_lengths = _blocks.remainders(store, [{}, {}, {}])
    assert compat.all() and len(compat) == len(store)
    assert rem is store.codes and rem_lengths is store.lengths
    assert np.array_equal(rem, codes) and np.array_equal(rem_lengths, lengths)


def _random_hypergraph(rnd):
    n = rnd.randint(4, 7)
    edges = [tuple(rnd.sample(range(n), rnd.randint(1, 3))) for _ in range(rnd.randint(1, 6))]
    edges += rnd.sample(edges, min(2, len(edges)))  # repeated edges
    return Hypergraph.from_edges(n, edges)


@pytest.mark.parametrize("seed", range(30))
def test_round_one_from_restricted_lift(seed):
    # psi never indexes a clashing fragment, so round 1 over the lift
    # restricted to its sample gives what it gives over the full lift,
    # row for row
    rnd = random.Random(seed)
    h = _random_hypergraph(rnd)
    q = h.r_bound + rnd.randint(0, 2)
    full = initial_survivors(h, q, [{}])
    for _ in range(6):
        w1 = {v: rnd.randint(1, q) for v in range(h.num_vertices) if rnd.random() < 0.4}
        r_i = rnd.choice([0.5, 1.0, 2.0, 3.0])
        new, compatible, good = apply_round(initial_survivors(h, q, [w1]), [w1], r_i)
        new_full, compatible_full, good_full = apply_round(full, [w1], r_i)
        assert (compatible.tolist(), good.tolist()) == (compatible_full.tolist(), good_full.tolist())
        assert np.array_equal(new.codes, new_full.codes)
        assert np.array_equal(new.mult, new_full.mult)
        assert compatible.tolist() == _blocks.lift_groups(h, q, [w1])[1]


def test_key_width_boundary():
    # the keys of the sets of at most 7 of n elements fill [0, sum_{j<=7} C(n, j)),
    # which first passes 2^63 at n = 1733
    offsets, binom = rank_tables(1732, 7)
    ends = np.array([range(7), range(1725, 1732)])
    assert size_keys(ends, (7,), offsets, binom)[0].tolist() == [int(offsets[7]), 9202297430591509407]
    with pytest.raises(LimitExceeded, match="keys need 9239596690719816320 values"):
        rank_tables(1733, 7)
    assert issubclass(LimitExceeded, RainbowSpreadError)


def test_key_width_checked_before_the_lift(monkeypatch):
    # N*q = 14,000 elements, so keys of up to 7 codes do not fit int64,
    # while the spread keys of the 700 vertices do
    def no_lift(*args, **kwargs):
        raise AssertionError("lift built before the key width was checked")

    h = Hypergraph.from_edges(700, [range(7)])
    assert max_spread(h).witness == (0,)
    monkeypatch.setattr(_blocks, "lift_block", no_lift)
    with pytest.raises(LimitExceeded, match="all subsets of at most 7 of 14000 elements"):
        initial_survivors(h, 20, [{}])


def test_run_rejects_small_q():
    h = gen_hamilton(5)
    with pytest.raises(ChromaticityError, match="q=3 < r=5"):
        make_schedule(h, 3, max_spread(h).kappa, 0.3, 1.0)


def test_rounds_get_their_size_bounds(monkeypatch):
    # round i keeps the remainders of size at most r_i = (1-gamma)^i r
    h, q, gamma = gen_hamilton(5), 6, 0.3
    bounds = []

    def record(survivors, wmap, r_i):
        bounds.append(r_i)
        return apply_round(survivors, wmap, r_i)

    def record_empty(survivors, r_i):
        bounds.append(r_i)
        return empty_round(survivors, r_i)

    monkeypatch.setattr(fragmentation, "apply_round", record)
    monkeypatch.setattr(fragmentation, "empty_round", record_empty)
    tr = run_once(h, q, 3, gamma=gamma)
    assert bounds == [(1 - gamma) ** i * h.r_bound for i in range(1, tr.schedule.ell + 1)]


def test_seeds_share_the_schedule(monkeypatch):
    # every seed-independent step happens in make_schedule: a run reads
    # |H*|, kappa and ell from the schedule and validates nothing again
    h, q = gen_perfect_matching(6, 2), 4
    sched = make_schedule(h, q, max_spread(h).kappa, 0.3, 1.0)
    expected = [run_fragmentation(h, sched, [RngStream(5, sid)])[0].serialize() for sid in range(6)]

    def per_run(*args, **kwargs):
        raise AssertionError("seed-independent work done again for a seed")

    for name in ("lift_size", "max_spread", "check_fragment_inputs"):
        monkeypatch.setattr(fragmentation, name, per_run)
    traces = run_fragmentation(h, sched, [RngStream(5, sid) for sid in range(6)])
    assert [trace.serialize() for trace in traces] == expected
