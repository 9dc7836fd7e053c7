"""Round schedule, psi/chi selection, and whole-process traces."""

import hashlib
import math
import random

import pytest

from rainbowspread.fragmentation import (
    FragmentationTrace,
    ScheduleInfeasibleError,
    apply_round,
    initial_survivors,
    make_schedule,
    run_fragmentation,
    select_psi_chi,
)
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import lift_size
from rainbowspread.rng import RngStream
from rainbowspread.sampling import ColoredSet


def test_schedule_reference_point():
    # r=100, gamma=0.1: smallest ell with 0.9^ell <= sqrt(log 100)/100
    s = make_schedule(100, 1000.0, 0.1, 1.0)
    assert s.ell == 37
    assert (1 - 0.1) ** s.ell <= math.sqrt(math.log(100)) / 100 < (1 - 0.1) ** (s.ell - 1)
    assert s.ell <= math.log(100) / 0.1
    assert s.ell_log_bound_ok
    assert s.delta == 1.0 / (2 * s.ell)
    assert s.p == 1.0 / 1000.0
    assert s.rho == math.log(100) / 1000.0
    assert s.feasible
    assert len(s.r_bounds) == s.ell + 1
    assert s.r_bounds[0] == 100
    assert math.isclose(s.r_bounds[-1], 0.9**37 * 100, rel_tol=1e-12)
    assert s.r_ell_endgame == math.sqrt(math.log(100))


def test_schedule_ell_shrinks_as_gamma_grows():
    ells = [make_schedule(50, 500.0, g, 1.0).ell for g in (0.05, 0.2, 0.5, 0.9)]
    assert ells == sorted(ells, reverse=True)
    assert ells[-1] >= 1


def test_schedule_strict_rejections():
    with pytest.raises(ScheduleInfeasibleError):
        make_schedule(10, 2.0, 0.3, 3.0)  # p = 1.5 > 1
    with pytest.raises(ScheduleInfeasibleError):
        make_schedule(100, 5.0, 0.1, 1.0)  # 37 * 0.2 + rho > 1
    with pytest.raises(ValueError):
        make_schedule(2, 10.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        make_schedule(10, 10.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_schedule(10, 10.0, 0.3, 0.5)


def test_schedule_nonstrict_clamps():
    s = make_schedule(10, 2.0, 0.3, 3.0, strict=False)
    assert s.p == 1.0
    assert s.p_clamped
    assert not s.feasible


FRAG_A = (((0, 1), (1, 1)), 1, (0, (1, 1)))
FRAG_B = (((0, 1), (1, 1), (2, 2)), 1, (1, (1, 1, 2)))


def test_psi_chi_clash_and_selection():
    frags = [FRAG_A, FRAG_B]
    # color clash on vertex 2 kills B, A keeps its own remainder
    picks = select_psi_chi(frags, ColoredSet.from_dict({2: 1}))
    assert picks[1] is None
    assert picks[0] == (((0, 1), (1, 1)), FRAG_A[2])

    # both compatible with the same remainder: min lineage wins
    picks = select_psi_chi(frags, ColoredSet.from_dict({2: 2}))
    assert picks[0] == picks[1] == (((0, 1), (1, 1)), FRAG_A[2])

    # B's remainder strictly contains A's, so B collapses onto A's
    picks = select_psi_chi(frags, ColoredSet.from_dict({0: 1}))
    assert picks[0] == (((1, 1),), FRAG_A[2])
    assert picks[1] == (((1, 1),), FRAG_A[2])


def test_psi_chi_empty_sample_collapses_subsets():
    # with nothing sampled, remainders equal element sets; a fragment
    # whose set contains another fragment's set points at the smaller one
    picks = select_psi_chi([FRAG_A, FRAG_B], ColoredSet.from_dict({}))
    assert picks[0] == (FRAG_A[0], FRAG_A[2])
    assert picks[1] == (FRAG_A[0], FRAG_A[2])


def test_apply_round_counts_and_merge():
    survivors = {FRAG_A[0]: (2, FRAG_A[2]), FRAG_B[0]: (3, FRAG_B[2])}
    new, compatible, good = apply_round(survivors, {0: 1}, r_i=2.0)
    assert compatible == 5
    assert good == 5
    # both collapse onto the same remainder, multiplicities add
    assert new == {((1, 1),): (5, FRAG_A[2])}


def test_apply_round_threshold_boundary():
    survivors = {FRAG_B[0]: (1, FRAG_B[2])}
    # remainder after removing vertex 0 has size 2; r_i below that drops it
    new, compatible, good = apply_round(survivors, {0: 1}, r_i=1.9)
    assert compatible == 1 and good == 0 and new == {}
    new, _, good = apply_round(survivors, {0: 1}, r_i=2.0)
    assert good == 1 and list(new) == [((1, 1), (2, 2))]


def test_apply_round_full_coloring():
    survivors = {FRAG_A[0]: (1, FRAG_A[2])}
    # sample colors every vertex compatibly: remainder is empty
    new, compatible, good = apply_round(survivors, {0: 1, 1: 1}, r_i=5.0)
    assert compatible == 1 and good == 1
    assert new == {(): (1, FRAG_A[2])}
    # one wrong color and nothing survives
    new, compatible, _ = apply_round(survivors, {0: 1, 1: 2}, r_i=5.0)
    assert compatible == 0 and new == {}


def run_once(h, q, seed, stream=0):
    return run_fragmentation(h, q, 0.3, 1.0, RngStream(seed, stream))


@pytest.mark.parametrize("seed", range(10))
def test_trace_invariants(seed):
    h = gen_perfect_matching(6, 2)
    q = 4
    tr = run_once(h, q, seed)
    assert isinstance(tr, FragmentationTrace)
    assert len(tr.rounds) == tr.schedule.ell
    for i, rec in enumerate(tr.rounds, start=1):
        assert rec.index == i
        assert 0 <= rec.survivors_after <= rec.compatible <= rec.survivors_before
        assert 0.0 <= rec.good_fraction <= 1.0
    assert tr.rounds[0].survivors_before == tr.lift_size
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
                digest.update(run_fragmentation(h, q, gamma, 1.0, RngStream(11, sid)).serialize().encode())
    assert digest.hexdigest() == "0963f455239428733e2d5b51720000119f468dd92a8fe6724c22d1fdba7fe55f"


def test_initial_survivors_multiset():
    h = gen_hamilton(4)
    q = 4
    init = initial_survivors(h, q, {})
    total = sum(mult for mult, _ in init.values())
    assert total == lift_size(h, q)
    # distinct base edges never share (vertex, color) element tuples here,
    # so every multiplicity is 1
    assert all(mult == 1 for mult, _ in init.values())


def _random_hypergraph(rnd):
    n = rnd.randint(4, 7)
    edges = [tuple(rnd.sample(range(n), rnd.randint(1, 3))) for _ in range(rnd.randint(1, 6))]
    edges += rnd.sample(edges, min(2, len(edges)))  # repeated edges
    return Hypergraph.from_edges(n, edges)


@pytest.mark.parametrize("seed", range(30))
def test_round_one_from_restricted_lift(seed):
    # psi never indexes a clashing fragment, so round 1 over the lift
    # restricted to its sample gives what it gives over the full lift
    rnd = random.Random(seed)
    h = _random_hypergraph(rnd)
    q = h.r_bound + rnd.randint(0, 2)
    full = initial_survivors(h, q, {})
    for _ in range(6):
        w1 = {v: rnd.randint(1, q) for v in range(h.num_vertices) if rnd.random() < 0.4}
        r_i = rnd.choice([0.5, 1.0, 2.0, 3.0])
        restricted = apply_round(initial_survivors(h, q, w1), w1, r_i)
        assert restricted == apply_round(full, w1, r_i)
        assert restricted[1] == lift_size(h, q, w1)


def test_run_rejects_small_q():
    h = gen_hamilton(5)
    with pytest.raises(ValueError):
        run_fragmentation(h, 3, 0.3, 1.0, RngStream(0, 0))


def test_fixed_size_rounds_mode():
    h = gen_perfect_matching(6, 2)
    tr = run_fragmentation(
        h, 4, 0.3, 1.0, RngStream(11, 0), fixed_size_rounds=True
    )
    assert len(tr.rounds) == tr.schedule.ell
    if tr.endgame_hit:
        assert tr.outcome_rainbow
