"""Threshold estimation: coupling, bisection, and the sweep table."""

import math

import numpy as np
import oracles
import pytest

from rainbowspread import threshold
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.rng import _PHI, _STREAM_SALT, RngStream, mix64
from rainbowspread.threshold import (
    ThresholdUnreachable,
    TrialPool,
    estimate_threshold,
    hit_probability,
    sweep,
    wilson_interval,
)


def test_wilson_interval_endpoints():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_coupled_trials_are_monotone_in_m():
    # a single hit time per trial makes the hit indicator monotone exactly
    h = gen_hamilton(6)
    pool = TrialPool(h, 6, RngStream(31, 0))
    times = pool.colored_times(500)
    prev = -1
    for m in range(0, h.num_vertices + 1):
        hits = int(np.count_nonzero(times <= m))
        assert hits >= prev
        prev = hits


def test_uncolored_time_never_later():
    h = gen_perfect_matching(6, 2)
    pool = TrialPool(h, 4, RngStream(32, 0))
    ct = pool.colored_times(500)
    ut = pool.uncolored_times(500)
    assert np.all(ut <= ct)


def test_single_edge_closed_form():
    # one edge on all of [n], q >= n: the colored m-sample contains the
    # edge iff m = n and the n colors are pairwise distinct
    n, q = 4, 6
    h = Hypergraph.from_edges(n, [tuple(range(n))])
    p_full = math.perm(q, n) / q**n
    pool = TrialPool(h, q, RngStream(33, 0))
    phat, (lo, hi) = hit_probability(pool, n, 20_000)
    assert lo <= p_full <= hi or abs(phat - p_full) < 0.02
    phat_below, _ = hit_probability(pool, n - 1, 20_000)
    assert phat_below == 0.0


def test_estimate_threshold_single_edge():
    # distinct colors are certain with q so large that collisions are
    # negligible? no: with one edge the hit time is n exactly when colors
    # are distinct, so for a target below the distinct-color probability
    # the threshold is n
    n = 3
    h = Hypergraph.from_edges(n, [tuple(range(n))])
    q = 64  # distinct-color probability ~0.953
    est = estimate_threshold(TrialPool(h, q, RngStream(34, 0)), 0.5, 4000)
    assert est.m_star == n
    assert math.isnan(est.implied_C) is False or h.r_bound > 1


def test_estimate_threshold_matches_curve_scan():
    h = gen_hamilton(7)
    q, target, trials = 7, 0.5, 3000
    est = estimate_threshold(TrialPool(h, q, RngStream(35, 0)), target, trials)
    # recompute from the raw hit times: smallest m with rate >= target
    times = TrialPool(h, q, RngStream(35, 0)).colored_times(trials)
    scan = next(
        m
        for m in range(1, h.num_vertices + 1)
        if np.count_nonzero(times <= m) / trials >= target
    )
    assert est.m_star == scan
    assert est.kappa > 0
    assert est.implied_C == est.m_star * est.kappa / (
        h.num_vertices * math.log(h.r_bound)
    )


def test_estimate_threshold_unreachable():
    h = gen_hamilton(5)
    with pytest.raises(ThresholdUnreachable):
        estimate_threshold(TrialPool(h, 1, RngStream(36, 0)), 0.5, 500)  # q below edge size
    # an impossible target: even m=N misses sometimes
    with pytest.raises(ThresholdUnreachable):
        estimate_threshold(TrialPool(h, 5, RngStream(36, 0)), 0.99999, 500)


def test_sweep_rows():
    h = gen_perfect_matching(6, 2)
    m_list = [2, 4, 8, 15]
    pool = TrialPool(h, 4, RngStream(37, 0))
    rows = sweep(pool, m_list, 1000)
    assert [r[0] for r in rows] == m_list
    rates = [r[3] for r in rows]
    assert rates == sorted(rates)
    for m, hits, trials, phat, lo, hi, uhits in rows:
        assert hits / trials == phat
        assert lo <= phat <= hi
        assert uhits >= hits  # dropping the color requirement only helps
    with pytest.raises(ValueError):
        sweep(pool, [5, 2], 100)


def test_hit_probability_validation():
    pool = TrialPool(gen_hamilton(4), 4, RngStream(38, 0))
    with pytest.raises(ValueError):
        hit_probability(pool, 99, 100)
    with pytest.raises(ValueError):
        hit_probability(pool, 2, 0)


def test_determinism_across_pools():
    h = gen_hamilton(6)
    a = TrialPool(h, 6, RngStream(39, 0)).colored_times(300)
    b = TrialPool(h, 6, RngStream(39, 0)).colored_times(300)
    assert np.array_equal(a, b)
    c = TrialPool(h, 6, RngStream(40, 0)).colored_times(300)
    assert not np.array_equal(a, c)


MASK = 2**64 - 1


def random_hypergraph(rng, n, max_edges=12, max_size=6, min_size=1):
    """Mixed edge sizes, and the first two edges repeated."""
    edges = [
        rng.sample_without_replacement(n, rng.randint(min(min_size, n), min(max_size, n)))
        for _ in range(rng.randint(1, max_edges))
    ]
    return Hypergraph.from_edges(n, edges + edges[:2])


# n and q on both sides of the uint8 and uint16 boundaries of the block dtype
@pytest.mark.parametrize("n,q", [
    (1, 1), (2, 1), (6, 2), (9, 5), (12, 127), (12, 128), (16, 255), (16, 256), (12, 1000),
    (127, 4), (128, 4), (255, 7), (256, 7), (300, 1000), (100, 70_000),
])
def test_batched_trials_match_scalar_reference(n, q):
    rng = RngStream(900 + n, q)
    # no singleton edges, whose hit times would not depend on the colors
    pool = TrialPool(random_hypergraph(rng, n, min_size=2), q, rng.child(0))
    colored, uncolored = oracles.scalar_times(pool, 40)
    assert pool.colored_times(40).tolist() == colored
    assert pool.uncolored_times(40).tolist() == uncolored


def test_incremental_ensure_matches_scalar_reference(monkeypatch):
    monkeypatch.setattr(threshold, "BLOCK_ELEMENTS", 1000)  # a few dozen trials per block
    h = random_hypergraph(RngStream(47, 0), 15)
    pool = TrialPool(h, 5, RngStream(47, 1))
    for trials in (7, 300, 2000):
        pool.ensure(trials)
        assert len(pool.colored_times(trials)) == len(pool.uncolored_times(trials)) == trials
    colored, uncolored = oracles.scalar_times(pool, 2000)
    assert pool.colored_times(2000).tolist() == colored
    assert pool.uncolored_times(2000).tolist() == uncolored
    assert np.array_equal(TrialPool(h, 5, RngStream(47, 1)).colored_times(2000), colored)


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unmix64(z):
    """Inverse of rng.mix64 (xorshifts and odd multipliers are invertible)."""
    z = _unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & MASK
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK
    return _unxorshift(z, 30)


def stream_with_draw(t, counter, value):
    """RngStream(seed) whose child(t) returns `value` as its draw number `counter`."""
    child_key = (unmix64(value) - counter * _PHI) & MASK
    key = unmix64(child_key ^ mix64(t + _STREAM_SALT))
    return RngStream(unmix64(key ^ mix64(_STREAM_SALT)))


# draw 2**64 - 1 lies above randrange's acceptance bound unless the
# modulus is a power of two; draws 1..n-1 are Fisher-Yates steps
# (modulus n first), draw n is the first color (modulus q)
@pytest.mark.parametrize("counter,n,q,replayed", [
    (1, 9, 4, True), (9, 9, 3, True), (1, 8, 3, False), (8, 8, 4, False),
])
def test_rejected_draw_replayed_on_scalar_path(monkeypatch, counter, n, q, replayed):
    h = Hypergraph.from_edges(n, [(0, 1, 2), (2, 5), (1, n - 1), (3, 4, 6, 7), (2, 5)])
    rng = stream_with_draw(5, counter, MASK)
    child = rng.child(5)
    assert [child.next_u64() for _ in range(counter)][-1] == MASK
    colored, uncolored = oracles.scalar_times(TrialPool(h, q, rng), 12)
    seen = []
    run_trial = TrialPool._run_trial
    monkeypatch.setattr(TrialPool, "_run_trial", lambda self, t: seen.append(t) or run_trial(self, t))
    pool = TrialPool(h, q, rng)
    assert pool.colored_times(12).tolist() == colored
    assert pool.uncolored_times(12).tolist() == uncolored
    assert seen == ([5] if replayed else [])


def test_forced_replay_takes_scalar_results(monkeypatch):
    h = gen_perfect_matching(6, 2)  # 15 edges of 3 vertices: 7 trials per block below
    monkeypatch.setattr(threshold, "BLOCK_ELEMENTS", 7 * 45)
    colored = TrialPool(h, 4, RngStream(44, 0)).colored_times(50).tolist()
    # every block's first and last trial count as rejected
    monkeypatch.setattr(threshold, "_rejected_rows", lambda draws, limits: np.array([0, len(draws) - 1]))
    monkeypatch.setattr(TrialPool, "_run_trial", lambda self, t: (1000 + t, 2000 + t))
    pool = TrialPool(h, 4, RngStream(44, 0))
    ends = {t for lo in range(0, 50, 7) for t in (lo, min(lo + 7, 50) - 1)}
    want = [1000 + t if t in ends else c for t, c in enumerate(colored)]
    assert pool.colored_times(50).tolist() == want
    assert all(pool.uncolored_times(50)[t] == 2000 + t for t in ends)


def test_shared_pool_gives_the_same_results():
    # one pool serving every call gives what a fresh pool gives each call
    h, q = gen_hamilton(5), 5

    def fresh():
        return TrialPool(h, q, RngStream(46, 0))

    pool = fresh()
    assert estimate_threshold(pool, 0.2, 400) == estimate_threshold(fresh(), 0.2, 400)
    assert sweep(pool, [3, 5, 8], 400) == sweep(fresh(), [3, 5, 8], 400)
    assert hit_probability(pool, 8, 600) == hit_probability(fresh(), 8, 600)
    assert sweep(pool, [3, 5, 8], 300) == sweep(fresh(), [3, 5, 8], 300)
    assert len(pool.colored_times(600)) == 600


def test_pool_times_are_read_only():
    times = TrialPool(gen_hamilton(5), 5, RngStream(48, 0)).colored_times(10)
    with pytest.raises(ValueError):
        times[0] = 0
