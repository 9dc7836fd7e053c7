"""Monte Carlo estimation of rainbow-containment curves and thresholds.

Coupled sampling: each trial draws one uniform permutation of the ground
set and one color per vertex; X_m is the permutation prefix of length m.
The per-trial hit indicator is then literally monotone in m, and the
whole trial reduces to a single hit time computed by the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import RainbowSpreadError
from .hypergraph import Hypergraph
from .rng import RngStream, accept_limits, child_keys, stream_draws
from .spread import max_spread

Z95 = 1.959963984540054


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    z = Z95
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    hw = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - hw)  # center-hw cancels to ~1e-19
    hi = 1.0 if hits == n else min(1.0, center + hw)
    return lo, hi


class ThresholdUnreachable(RainbowSpreadError, RuntimeError):
    pass


@dataclass
class ThresholdEstimate:
    m_star: int
    target: float
    trials_per_point: int
    curve: list[tuple[int, int, int]] = field(default_factory=list)  # (m, hits, trials)
    ci_halfwidth: float = 0.0
    kappa: float = 0.0
    implied_C: float = 0.0  # m_star * kappa / (N log r)


# a block of trials holds about this many (trial, edge, slot) entries at once
BLOCK_ELEMENTS = 1 << 17


def _rejected_rows(draws: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Rows holding a draw that RngStream.randrange would reject."""
    return np.flatnonzero((draws > limits).any(axis=1))


class TrialPool:
    """Caches per-trial hit times; trial t uses stream_id = t.

    Trials are computed in blocks with array draws (`rng.stream_draws`)
    and one batched kernel call each, bit-exact with `_run_trial`, the
    scalar reference.  A trial with a draw that randrange would reject
    (probability below max(n, q) / 2**64 per draw) is recomputed there.
    """

    def __init__(self, h: Hypergraph, q: int, rng: RngStream):
        self.h = h
        self.q = q
        self.rng = rng
        self.n = h.num_vertices
        self.matrix, self.sizes = h.packed
        # narrowest type holding every position, the sentinel n and every color
        self._dtype = np.min_scalar_type(max(self.n, q))
        self._block = max(1, BLOCK_ELEMENTS // max(self.matrix.size, 2 * self.n, 1))
        self._colored = np.empty(0, dtype=np.int64)
        self._uncolored = np.empty(0, dtype=np.int64)

    def _run_trial(self, t: int) -> tuple[int, int]:
        s = self.rng.child(t)
        perm = s.permutation(self.n)
        pos = np.empty(self.n, dtype=np.int64)
        for i, v in enumerate(perm):
            pos[v] = i
        colors = np.array([s.randint(1, self.q) for _ in range(self.n)], dtype=np.int64)
        ct = _kernels.rainbow_hit_time(self.matrix, self.sizes, pos, colors)
        ut = _kernels.cover_hit_time(self.matrix, pos)
        return ct, ut

    def _run_block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Hit times of trials lo..hi-1, as _run_trial computes them."""
        n = self.n
        # a trial's draws: Fisher-Yates steps randrange(n), ..., randrange(2),
        # then randint(1, q) for each vertex
        moduli = [*range(n, 1, -1), *[self.q] * n]
        limits = accept_limits(moduli)
        draws = stream_draws(child_keys(self.rng.key, np.arange(lo, hi)), len(moduli))
        picks = (draws % np.array(moduli, dtype=np.uint64)).astype(self._dtype)
        rows = np.arange(hi - lo)
        perm = np.tile(np.arange(n, dtype=self._dtype), (hi - lo, 1))
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = picks[:, step]
            swapped = perm[rows, j]
            perm[rows, j] = perm[:, i]
            perm[:, i] = swapped
        pos = np.empty_like(perm)
        pos[rows[:, None], perm] = np.arange(n, dtype=self._dtype)
        colors = picks[:, max(n - 1, 0) :] + 1
        ct = _kernels.rainbow_hit_time(self.matrix, self.sizes, pos, colors)
        ut = _kernels.cover_hit_time(self.matrix, pos)
        for row in _rejected_rows(draws, limits):
            ct[row], ut[row] = self._run_trial(lo + int(row))
        return ct, ut

    def ensure(self, trials: int) -> None:
        starts = range(len(self._colored), trials, self._block)
        blocks = [self._run_block(lo, min(lo + self._block, trials)) for lo in starts]
        if blocks:
            self._colored = np.concatenate([self._colored, *(ct for ct, _ in blocks)])
            self._uncolored = np.concatenate([self._uncolored, *(ut for _, ut in blocks)])
            # callers get slices of these arrays, so no caller may write them
            self._colored.flags.writeable = self._uncolored.flags.writeable = False

    def colored_times(self, trials: int) -> np.ndarray:
        self.ensure(trials)
        return self._colored[:trials]

    def uncolored_times(self, trials: int) -> np.ndarray:
        self.ensure(trials)
        return self._uncolored[:trials]


def _check_trials(trials: int) -> None:
    if trials <= 0:
        raise ValueError("trials must be positive")


def hit_probability(pool: TrialPool, m: int, trials: int):
    """(p_hat, (ci_lo, ci_hi)) for a rainbow edge inside a colored m-sample."""
    _check_trials(trials)
    if m > pool.n:
        raise ValueError(f"m={m} exceeds ground set size {pool.n}")
    hits = int(np.count_nonzero(pool.colored_times(trials) <= m))
    return hits / trials, wilson_interval(hits, trials)


# trials added per step of the sequential test at one bisection point
DECIDE_BLOCK = 200


def _decide_point(times, m: int, target: float, max_trials: int):
    """Sequentially add trials until the Wilson CI excludes the target.

    Returns (at_least_target, hits, trials_used).
    """
    used = 0
    hits = 0
    while used < max_trials:
        step = min(DECIDE_BLOCK, max_trials - used)
        hits += int(np.count_nonzero(times[used : used + step] <= m))
        used += step
        lo, hi = wilson_interval(hits, used)
        if lo > target:
            return True, hits, used
        if hi < target:
            return False, hits, used
    return hits / used >= target, hits, used


def estimate_threshold(pool: TrialPool, target: float, trials: int) -> ThresholdEstimate:
    """Bisection for the smallest m with hit probability >= target.

    Deterministic given the seed; converges in at most ceil(log2(N-r))
    bisection levels because each level halves the integer interval.
    """
    h, q = pool.h, pool.q
    _check_trials(trials)
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if not h.edges:
        raise ThresholdUnreachable("hypergraph has no edges")
    r = h.r_bound
    n = h.num_vertices
    min_edge = min(len(e) for e in h.edges)
    if q < min_edge:
        raise ThresholdUnreachable(f"q={q} colors cannot make any edge rainbow")
    times = pool.colored_times(trials)
    curve: list[tuple[int, int, int]] = []
    # below the smallest edge size no sample can contain an edge
    assert int(np.count_nonzero(times <= min_edge - 1)) == 0

    hits_n = int(np.count_nonzero(times <= n))
    curve.append((n, hits_n, trials))
    if hits_n / trials < target:
        raise ThresholdUnreachable(
            f"hit rate at m=N is {hits_n / trials:.4f} < target {target}"
        )

    lo, hi = min_edge, n
    while lo < hi:
        mid = (lo + hi) // 2
        ge, hits, used = _decide_point(times, mid, target, trials)
        curve.append((mid, hits, used))
        if ge:
            hi = mid
        else:
            lo = mid + 1
    m_star = lo

    hits_star = int(np.count_nonzero(times <= m_star))
    ci_lo, ci_hi = wilson_interval(hits_star, trials)
    kappa = max_spread(h).kappa
    return ThresholdEstimate(
        m_star=m_star,
        target=target,
        trials_per_point=trials,
        curve=curve,
        ci_halfwidth=(ci_hi - ci_lo) / 2.0,
        kappa=kappa,
        implied_C=m_star * kappa / (n * math.log(r)) if r > 1 else float("nan"),
    )


def sweep(pool: TrialPool, m_list, trials: int):
    """Curve rows (m, hits, trials, p_hat, ci_lo, ci_hi, uncolored_hits).

    The uncolored column ignores colors (plain containment), so each row
    compares rainbow containment against ordinary containment at that m.
    """
    _check_trials(trials)
    if sorted(m_list) != list(m_list):
        raise ValueError("m_list must be sorted")
    colored = pool.colored_times(trials)
    uncolored = pool.uncolored_times(trials)
    rows = []
    for m in m_list:
        hits = int(np.count_nonzero(colored <= m))
        uhits = int(np.count_nonzero(uncolored <= m))
        lo, hi = wilson_interval(hits, trials)
        rows.append((m, hits, trials, hits / trials, lo, hi, uhits))
    return rows
