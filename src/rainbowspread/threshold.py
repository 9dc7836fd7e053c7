"""Monte Carlo estimation of rainbow-containment curves and thresholds.

Coupled sampling: each trial draws one uniform permutation of the ground
set and one color per vertex; X_m is the permutation prefix of length m.
The per-trial hit indicator is then literally monotone in m, and the
whole trial reduces to a single hit time computed by the kernel.  Every
curve and the threshold are counts of these hit times.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels, limits
from .errors import RainbowSpreadError
from .hypergraph import Hypergraph
from .limits import block_rows, check_bytes
from .rng import RngStream, accept_limits, child_keys, stream_draws
from .spread import max_spread

Z95 = 1.959963984540054
# A trial pool's peak bytes a vertex, with one trial a block (tracemalloc,
# N = 17,000 to 1,000,000, replayed or not): the moduli and limits, 32, and
# the trial's draws.
VERTEX_BYTES = 80


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


class ThresholdEstimate(NamedTuple):
    m_star: int
    target: float
    trials: int
    ci_halfwidth: float
    kappa: float
    implied_C: float  # m_star * kappa / (N log r)


def _rejected_rows(draws: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Rows holding a draw that RngStream.randrange would reject."""
    return np.flatnonzero((draws > limits).any(axis=1))


class TrialPool:
    """Caches per-trial hit times; trial t uses stream_id = t.

    Trials are computed in blocks with array draws (`rng.stream_draws`)
    and one batched kernel call each; a block holds up to 32 trials where
    a trial's slot entries alone would make it smaller, each gather at
    most 64 * BLOCK_ELEMENTS bytes, and one trial where its draws fill
    it.  A trial with a draw that randrange would reject (probability
    below max(n, q) / 2**64 per draw) is replayed: its picks, not its
    hit times, come from `_run_trial`.
    Before it builds anything, the pool charges VERTEX_BYTES a vertex:
    its uint64 moduli and accept limits, and a block of one trial,
    replayed or not.
    """

    def __init__(self, h: Hypergraph, q: int, rng: RngStream):
        if not 1 <= q < 2**64:  # a color draw is randint(1, q) on one uint64
            raise ValueError(f"q={q}: the trials need 1 <= q < 2**64 colors")
        check_bytes(VERTEX_BYTES * h.num_vertices, f"trials on {h.num_vertices} vertices", "use a smaller hypergraph")
        self.h = h
        self.q = q
        self.rng = rng
        self.n = h.num_vertices
        self.matrix, self.sizes = h.packed
        # narrowest type holding every position, the sentinel n and every color
        self._dtype = np.min_scalar_type(max(self.n, q))
        # a trial counts its 2N draws in full and its gathered slot entries up
        # to BLOCK_ELEMENTS // 32, so that a gather-bound block holds 32 trials;
        # the ceiling of its gathered bytes / 64 keeps each of a block's
        # gathers within 64 * BLOCK_ELEMENTS bytes
        size = self.matrix.size
        gathered = -(-size * self._dtype.itemsize // 64)
        self._block = block_rows(max(min(size, limits.BLOCK_ELEMENTS // 32), gathered, 2 * self.n))
        # a trial's draws: Fisher-Yates steps randrange(n), ..., randrange(2),
        # then randint(1, q) for each vertex
        self._moduli = np.concatenate([np.arange(self.n, 1, -1, dtype=np.uint64), np.full(self.n, q, np.uint64)])
        self._limits = accept_limits(self._moduli)
        self._colored = np.empty(0, dtype=np.int64)
        self._uncolored = np.empty(0, dtype=np.int64)

    def _run_trial(self, t: int) -> np.ndarray:
        """Trial t's picks as its own stream draws them, rejections included,
        as uint64: 8 B a draw, where a list would hold a Python int each."""
        s = self.rng.child(t)
        return np.fromiter((s.randrange(int(m)) for m in self._moduli), np.uint64, len(self._moduli))

    def _run_block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Hit times of trials lo..hi-1, from one kernel call; a replay
        replaces a row's picks before the shuffle, not its hit times.

        The block is vertex-major, one column per trial, so the kernel
        gets transposed views of positions and colors in its own layout."""
        n, b = self.n, hi - lo
        steps = n - 1  # n = 0 leaves both slices of picks below empty
        draws = stream_draws(child_keys(self.rng.key, np.arange(lo, hi)), len(self._moduli))
        rejected = _rejected_rows(draws, self._limits)
        picks = (draws % self._moduli).T.astype(self._dtype, order="C")  # row i: draw i of each trial
        del draws  # before the replays and the shuffle, which VERTEX_BYTES counts without it
        for row in rejected:
            picks[:, row] = self._run_trial(lo + int(row))
        cols = np.arange(b)
        perm = np.repeat(np.arange(n, dtype=self._dtype)[:, None], b, axis=1)
        flat = perm.reshape(-1)  # perm[j, t] is flat[j * b + t]
        for i, at in zip(range(n - 1, 0, -1), picks[:steps].astype(np.intp) * b + cols):
            swapped = flat.take(at)
            flat[at] = perm[i]  # put would copy all of flat, as perm[i] is a view of it
            perm[i] = swapped
        at = None  # the last step's row is a view that holds every step's indices
        pos = np.empty_like(perm)
        pos[perm, cols] = np.arange(n, dtype=self._dtype)[:, None]
        # the colors less one, as the kernel compares colors only for equality
        return _kernels.hit_times(self.matrix, self.sizes, pos.T, picks[steps:].T)

    def ensure(self, trials: int) -> None:
        have = len(self._colored)
        if trials <= have:
            return
        colored, uncolored = np.empty(trials, dtype=np.int64), np.empty(trials, dtype=np.int64)
        colored[:have], uncolored[:have] = self._colored, self._uncolored
        for lo in range(have, trials, self._block):
            hi = min(lo + self._block, trials)
            colored[lo:hi], uncolored[lo:hi] = self._run_block(lo, hi)
        # callers get slices of these arrays, so no caller may write them
        colored.flags.writeable = uncolored.flags.writeable = False
        self._colored, self._uncolored = colored, uncolored

    def colored_times(self, trials: int) -> np.ndarray:
        self.ensure(trials)
        return self._colored[:trials]

    def uncolored_times(self, trials: int) -> np.ndarray:
        self.ensure(trials)
        return self._uncolored[:trials]


def _check_trials(trials: int) -> None:
    """Refuse a trial count below 1, or one whose hit times exceed the
    byte budget: 32 B a trial, two int64 times in the arrays that
    `ensure` fills while the pool still holds its shorter ones."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    check_bytes(32 * trials, f"{trials} trials", "use fewer --trials")


def hit_probability(pool: TrialPool, m: int, trials: int):
    """(p_hat, (ci_lo, ci_hi)) for a rainbow edge inside a colored m-sample."""
    _check_trials(trials)
    if not 0 <= m <= pool.n:  # as in sweep
        raise ValueError(f"m must lie in [0, {pool.n}]")
    hits = int(np.count_nonzero(pool.colored_times(trials) <= m))
    return hits / trials, wilson_interval(hits, trials)


def estimate_threshold(pool: TrialPool, target: float, trials: int) -> ThresholdEstimate:
    """The smallest m whose hit rate over all trials is >= target.

    The coupled hit indicator is monotone in m, so hits(m), the trials
    whose hit time is at most m, is one cumulative count of the hit
    times, and m* is read off it exactly.
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
    # before any trial is drawn, so that an instance the spread oracle
    # refuses is refused at once
    kappa = max_spread(h).kappa
    # hits[m] for m = 0..n; a trial that never hits has time n + 1
    hits = np.cumsum(np.bincount(pool.colored_times(trials), minlength=n + 2))
    # below the smallest edge size no sample can contain an edge
    assert hits[min_edge - 1] == 0
    if hits[n] / trials < target:
        raise ThresholdUnreachable(
            f"hit rate at m=N is {hits[n] / trials:.4f} < target {target}"
        )
    m_star = int(np.argmax(hits / trials >= target))
    ci_lo, ci_hi = wilson_interval(int(hits[m_star]), trials)
    return ThresholdEstimate(
        m_star=m_star,
        target=target,
        trials=trials,
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
    if any(not 0 <= m <= pool.n for m in m_list):  # a trial that never hits has time n + 1
        raise ValueError(f"m_list must lie in [0, {pool.n}]")
    colored = pool.colored_times(trials)
    uncolored = pool.uncolored_times(trials)
    rows = []
    for m in m_list:
        hits = int(np.count_nonzero(colored <= m))
        uhits = int(np.count_nonzero(uncolored <= m))
        lo, hi = wilson_interval(hits, trials)
        rows.append((m, hits, trials, hits / trials, lo, hi, uhits))
    return rows
