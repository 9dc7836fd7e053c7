"""Threshold estimation: coupling, the hit-time count, and the sweep table."""

import json
import math
import time
import tracemalloc

import numpy as np
import oracles
import pytest

from rainbowspread import cli, limits, threshold
from rainbowspread.generators import gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, write_hypergraph
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


@pytest.mark.parametrize("h,q", [
    (gen_hamilton(4), 4),
    (gen_hamilton(4), 5),
    (gen_perfect_matching(4, 2), 3),
    (Hypergraph.from_edges(6, [(0, 1), (1, 2, 3), (3, 4), (0, 2, 4, 5), (5,), (1, 2, 3)]), 4),
    (Hypergraph.from_edges(5, [(0,), (1, 2), (2, 3, 4)]), 3),
])
def test_trials_have_the_model_distribution(h, q):
    # X_m is a uniform m-subset with a uniform color on each vertex: both hit
    # times' counts of fixed-seed trials against the exact curves, every m at
    # once within one |z| bound (a pool drawing colors from q + 1 values
    # reads |z| 62.9 on hamilton n=4 at q=4); the edge (0,) sees X_1, which a
    # shuffle that skips its last swap leaves at vertex 0 too often
    trials = 20_000
    pool = TrialPool(h, q, RngStream(0, 0))
    for times, curve in zip((pool.colored_times(trials), pool.uncolored_times(trials)), oracles.hit_curves(h, q)):
        for m, p in enumerate(curve):
            hits = int(np.count_nonzero(times <= m))
            if p in (0, 1):
                assert hits == p * trials
            else:
                assert abs(hits - trials * p) <= 4 * math.sqrt(trials * p * (1 - p)), (m, hits / trials, float(p))


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


def test_estimate_threshold_single_edge(tmp_path):
    # with one edge the hit time is n exactly when its colors are distinct,
    # so for a target below the distinct-color probability the threshold is n
    n = 3
    h = Hypergraph.from_edges(n, [tuple(range(n))])
    q = 64  # distinct-color probability ~0.953
    est = estimate_threshold(TrialPool(h, q, RngStream(34, 0)), 0.5, 4000)
    assert est.m_star == n
    assert est.implied_C == est.m_star * est.kappa / (n * math.log(h.r_bound))
    # at r = 1 there is no implied C: NaN here, null in the CLI's JSON
    singletons = Hypergraph.from_edges(n, [(0,), (1,), (2,)])
    assert math.isnan(estimate_threshold(TrialPool(singletons, 1, RngStream(34, 0)), 0.5, 50).implied_C)
    write_hypergraph(singletons, tmp_path / "r1.json")
    out = tmp_path / "out.txt"
    argv = ["threshold", "--hypergraph", str(tmp_path / "r1.json"), "--q", "1", "--trials", "50"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text().splitlines()[-1], parse_constant=_refuse)
    assert report["m_star"] == 1 and report["implied_C"] is None


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_estimate_threshold_matches_curve_scan():
    # hamilton n=7, then two instances on trial counts that are not
    # multiples of 200: the mixed-size one of the CLI's frozen outputs, and pm(6,3)
    mixed = Hypergraph.from_edges(9, [(0, 1), (1, 2, 3), (2, 5, 7, 8), (0, 4, 6), (1, 2, 3), (4, 8), (3, 6)])
    cases = [(gen_hamilton(7), 7, 0.5, 3000), (mixed, 4, 0.5, 1234), (gen_perfect_matching(6, 3), 3, 0.3, 777)]
    for h, q, target, trials in cases:
        est = estimate_threshold(TrialPool(h, q, RngStream(35, 0)), target, trials)
        # recompute from the raw hit times: smallest m with rate >= target
        times = TrialPool(h, q, RngStream(35, 0)).colored_times(trials)
        scan = next(
            m
            for m in range(1, h.num_vertices + 1)
            if np.count_nonzero(times <= m) / trials >= target
        )
        assert est.m_star == scan
        assert est.trials == trials
        assert est.kappa > 0
        assert est.implied_C == est.m_star * est.kappa / (
            h.num_vertices * math.log(h.r_bound)
        )


# cases where a sequential test on the leading trials once settled one
# m too low (pm(8,2): rate 0.1995 at m = 9) or kept m too high
# (hamilton n=7: rate 0.575 at m = 20 but only 0.482 at 19)
@pytest.mark.parametrize("h,q,rng,target", [
    (gen_perfect_matching(8, 2), 7, RngStream(1, 0), 0.2),
    (gen_hamilton(7), 7, RngStream(16), 0.5),
], ids=["pm8-2", "hamilton7"])
def test_estimate_threshold_is_least_m_over_all_trials(h, q, rng, target):
    pool = TrialPool(h, q, rng)
    est = estimate_threshold(pool, target, 2000)
    colored = np.array(oracles.scalar_times(pool, 2000)[0])
    hits = int(np.count_nonzero(colored <= est.m_star))
    assert hits / 2000 >= target > np.count_nonzero(colored <= est.m_star - 1) / 2000
    lo, hi = wilson_interval(hits, 2000)
    assert est.ci_halfwidth == (hi - lo) / 2


def test_estimate_threshold_at_a_target_equal_to_a_hit_rate():
    # a target equal to a hit rate read from the pool is reached at that m:
    # at m = N, where a rate equal to the target is not refused, and at an m
    # where the rate rises, which is m* and not the next m
    h, trials = gen_hamilton(5), 500
    pool = TrialPool(h, 5, RngStream(36, 0))
    hits = np.cumsum(np.bincount(pool.colored_times(trials), minlength=h.num_vertices + 2))
    n = h.num_vertices
    assert hits[n] < trials
    top = estimate_threshold(pool, hits[n] / trials, trials)
    assert top.m_star == int(np.argmax(hits == hits[n]))
    rises = [m for m in range(1, n) if hits[m - 1] < hits[m] < hits[m + 1]]
    assert rises
    for m in rises:
        assert estimate_threshold(pool, hits[m] / trials, trials).m_star == m


def test_estimate_threshold_unreachable():
    h = gen_hamilton(5)
    with pytest.raises(ThresholdUnreachable):
        estimate_threshold(TrialPool(h, 1, RngStream(36, 0)), 0.5, 500)  # q below edge size
    # an impossible target: even m=N misses sometimes
    with pytest.raises(ThresholdUnreachable):
        estimate_threshold(TrialPool(h, 5, RngStream(36, 0)), 0.99999, 500)


def test_spread_refusal_comes_before_any_trial(monkeypatch):
    # the spread keys of 7-sets of 2000 vertices do not fit int64, so
    # max_spread refuses the instance, and no trial may be drawn first
    def no_trials(*args):
        raise AssertionError("a trial was drawn before the spread check")

    rnd = np.random.default_rng(0)
    h = Hypergraph.from_edges(2000, [rnd.choice(2000, 7, replace=False).tolist() for _ in range(50)])
    monkeypatch.setattr(TrialPool, "_run_block", no_trials)
    with pytest.raises(limits.LimitExceeded, match="above int64"):
        estimate_threshold(TrialPool(h, 7, RngStream(0)), 0.0001, 200000)


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
    # the trials that never hit have time N + 1 = 16
    assert sweep(pool, [0, 15], 100)[0][1] == 0
    for m_list in ([2, 16], [-1, 2]):
        with pytest.raises(ValueError, match=r"m_list must lie in \[0, 15\]"):
            sweep(pool, m_list, 100)
    with pytest.raises(ValueError, match="trials must be positive"):
        sweep(pool, m_list, 0)


def test_hit_probability_validation():
    pool = TrialPool(gen_hamilton(4), 4, RngStream(38, 0))
    for m in (-1, 99):
        with pytest.raises(ValueError, match=r"m must lie in \[0, 6\]"):
            hit_probability(pool, m, 100)
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
    (127, 4), (128, 4), (255, 7), (256, 7), (300, 1000), (100, 70_000), (5, 2**64 - 1),
])
def test_batched_trials_match_scalar_reference(n, q):
    rng = RngStream(900 + n, q)
    # no singleton edges, whose hit times would not depend on the colors
    pool = TrialPool(random_hypergraph(rng, n, min_size=2), q, rng.child(0))
    colored, uncolored = oracles.scalar_times(pool, 40)
    assert pool.colored_times(40).tolist() == colored
    assert pool.uncolored_times(40).tolist() == uncolored


def test_incremental_ensure_matches_scalar_reference(monkeypatch):
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", 1000)  # a few dozen trials per block
    h = random_hypergraph(RngStream(47, 0), 15)
    pool = TrialPool(h, 5, RngStream(47, 1))
    for trials in (7, 300, 2000):
        pool.ensure(trials)
        assert len(pool.colored_times(trials)) == len(pool.uncolored_times(trials)) == trials
    colored, uncolored = oracles.scalar_times(pool, 2000)
    assert pool.colored_times(2000).tolist() == colored
    assert pool.uncolored_times(2000).tolist() == uncolored
    assert np.array_equal(TrialPool(h, 5, RngStream(47, 1)).colored_times(2000), colored)


# one path for every block size: one trial per block (as on many
# vertices), a handful and dozens (hamilton n=7)
@pytest.mark.parametrize("per_block", [1, 6, 52])
@pytest.mark.parametrize("case", ["hamilton", "mixed", "sparse"])
def test_block_sizes_match_scalar_reference(per_block, case):
    if case == "hamilton":
        h, q, rng = gen_hamilton(5), 5, RngStream(49, 0)
    elif case == "mixed":
        h, q, rng = random_hypergraph(RngStream(49, 1), 11), 4, RngStream(49, 2)
    else:  # a trial's 2N draws outnumber its slot entries
        h, q, rng = Hypergraph.from_edges(30, [(0, 1), (5, 7, 9)]), 3, RngStream(49, 3)
    pool = TrialPool(h, q, rng)
    pool._block = per_block
    colored, uncolored = oracles.scalar_times(pool, 110)
    assert pool.colored_times(110).tolist() == colored
    assert pool.uncolored_times(110).tolist() == uncolored


# a trial counts its 2N draws in full and its slot entries up to
# BLOCK_ELEMENTS // 32; each gather of a block takes at most
# 64 * BLOCK_ELEMENTS bytes
@pytest.mark.parametrize("case,q,block_elements,block", [
    ("hamilton7", 9, 1 << 17, 52),  # 2,520 entries a trial, under the cap
    ("hamilton8", 9, 1 << 17, 32),  # 20,160 entries count as 4,096
    ("sparse", 9, 1 << 17, 2184),  # 60 draws outnumber 6 entries
    ("one-edge", 9, 1 << 17, 1),  # 140,000 draws fill a block alone
    ("hamilton8", 9, 4095, 13),  # 13 trials gather 262,080 bytes, exactly 64 * 4,095
    ("hamilton8", 9, 4400, 13),  # 14 trials would gather 282,240 bytes, above 64 * 4,400
    ("hamilton8", 2**40, 1 << 14, 6),  # 8 B an entry: 7 trials would gather 1,128,960 bytes
])
def test_trial_block_rule(monkeypatch, case, q, block_elements, block):
    h = {
        "hamilton7": lambda: gen_hamilton(7),
        "hamilton8": lambda: gen_hamilton(8),
        "sparse": lambda: Hypergraph.from_edges(30, [(0, 1), (5, 7, 9)]),
        "one-edge": lambda: Hypergraph.from_edges(70_000, [(0, 1)]),
    }[case]()
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", block_elements)
    pool = TrialPool(h, q, RngStream(0))
    assert pool._block == block
    assert block == 1 or block * 2 * h.num_vertices <= block_elements
    assert block * h.packed[0].size * pool._dtype.itemsize <= 64 * block_elements


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
    h = gen_perfect_matching(6, 2)
    colored, uncolored = oracles.scalar_times(TrialPool(h, 4, RngStream(44, 0)), 50)
    # every block's first and last trial count as rejected, and their
    # replays draw another stream's picks
    other = TrialPool(h, 4, RngStream(45, 0))
    other_colored, other_uncolored = oracles.scalar_times(other, 50)
    monkeypatch.setattr(threshold, "_rejected_rows", lambda draws, limits: np.array([0, len(draws) - 1]))
    run_trial = TrialPool._run_trial
    monkeypatch.setattr(TrialPool, "_run_trial", lambda self, t: run_trial(other, t))
    pool = TrialPool(h, 4, RngStream(44, 0))
    pool._block = 7
    ends = {t for lo in range(0, 50, 7) for t in (lo, min(lo + 7, 50) - 1)}
    assert pool.colored_times(50).tolist() == [other_colored[t] if t in ends else c for t, c in enumerate(colored)]
    assert pool.uncolored_times(50).tolist() == [
        other_uncolored[t] if t in ends else u for t, u in enumerate(uncolored)]
    assert [other_colored[t] for t in ends] != [colored[t] for t in ends]


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


@pytest.mark.parametrize("grown", [False, True])
def test_trial_pool_holds_at_most_32_bytes_a_trial(grown, monkeypatch):
    # beyond the per-block arrays, the peak grows by at most the 32 B a
    # trial that `_check_trials` budgets, whether the pool starts empty or
    # grows from half the trials; blocks of 10 trials, so that nothing
    # kept per block hides in the count
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", 200)  # 2N = 20 draws a trial
    h = gen_hamilton(5)
    peaks = []
    for trials in (2_000, 10_000):
        tracemalloc.start()
        pool = TrialPool(h, 5, RngStream(3))
        if grown:
            pool.colored_times(trials // 2)
        pool.colored_times(trials)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 32 * 8_000



def test_one_trial_on_many_vertices_takes_linear_time():
    # 200,000 vertices make a block of one trial and 199,999 Fisher-Yates
    # steps; a step that copied the whole block would make the trial
    # quadratic, about 8 s here, where a linear one takes about 0.2 s
    n = 200_000
    pool = TrialPool(Hypergraph.from_edges(n, [(0, 1)]), 7, RngStream(5))
    assert pool._block == 1
    start = time.process_time()
    colored, uncolored = pool.colored_times(1), pool.uncolored_times(1)
    assert time.process_time() - start < 3.0
    assert 2 <= uncolored[0] <= colored[0] <= n + 1


# q = 2**63 + 1 rejects about half of all color draws, so the trial is
# replayed through _run_trial.  Below about 16,400 vertices a trial's
# draws fill less than 256 KiB, where numpy reuses no temporary by itself,
# so N = 5,000 checks that `rng.stream_draws` keeps its own peak
@pytest.mark.parametrize(
    "n,q",
    [(70_000, 7), (20_000, 2**63 + 1), (5_000, 7), (5_000, 2**63 + 1)],
    ids=["one-pass", "replayed", "one-pass-small", "replayed-small"],
)
def test_trial_pool_charges_its_peak_per_vertex(n, q):
    # the pool's set-up and one trial peak at VERTEX_BYTES a vertex, give
    # or take a few fixed arrays: the figure the pool charges
    h = Hypergraph.from_edges(n, [(0, 1), (2, 3, 4)])
    h.packed
    tracemalloc.start()
    TrialPool(h, q, RngStream(6)).ensure(1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert threshold.VERTEX_BYTES * n - 2**14 < peak <= threshold.VERTEX_BYTES * n + 2**14
