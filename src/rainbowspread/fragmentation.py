"""Iterative fragmentation: absorb rainbow edges piece by piece.

Each round samples a small colored set, replaces every compatible
surviving fragment by the smallest fragment residue it can point to
(the psi/chi minimization), and keeps the ones whose remainder is small
enough.  After the last round a final uniform sample must cover some
surviving fragment outright.

Seeds run in blocks, and fragments live in an integer store per block
(see `FragmentStore`): one row of element codes per distinct element
set of a seed, with a multiplicity, in the one fixed order that breaks
psi's ties.  Merging equal element sets preserves the multiset
semantics exactly because psi only looks at element sets.  A block's
array work, its restricted lift and psi's search, is in `_blocks`.
tests/oracles.py holds the dict-based reference form of the round.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import limits
from .hypergraph import Hypergraph
from .lifting import check_chromatic, fragment_row_bytes, lift_size
# lift_rainbow and max_spread are not called here; they stay bound by
# name because perfbench's tracer wraps them in every module that names them
from .lifting import lift_rainbow  # noqa: F401
from .limits import block_rows
from .rng import RngStream, round_half_up
from .sampling import ColoredSet, contains_rainbow_edge, sample_colored_m, sample_colored_p
from .spread import max_spread, rank_tables  # noqa: F401


class Schedule(NamedTuple):
    """What every seed of one run shares: the rates, ell and |H*|."""

    q: int
    lift_size: int  # |H*|
    r: int
    kappa: float
    gamma: float
    C: float
    ell: int
    p: float
    rho: float
    delta: float
    feasible: bool  # ell*p + rho <= 1


def check_fragment_inputs(h: Hypergraph, q: int, gamma: float, C: float) -> int:
    """Refuse q < r and what `make_schedule` refuses at any kappa; return
    ell, the least ell >= 1 with (1-gamma)^ell <= sqrt(log r)/r."""
    check_chromatic(h, q)
    r = h.r_bound
    if r < 3:
        raise ValueError("need r >= 3")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if 1.0 - gamma == 1.0:
        raise ValueError(f"gamma={gamma} is too small: 1 - gamma rounds to 1")
    if not (math.isfinite(C) and C >= 1):
        raise ValueError("need kappa > 0 and a finite C >= 1")
    target = math.sqrt(math.log(r)) / r
    ell = math.ceil(math.log(target) / math.log(1.0 - gamma))  # >= 1, as target < 1
    # the float test decides, so ell is what stepping up from 1 would give
    while ell > 1 and (1.0 - gamma) ** (ell - 1) <= target:
        ell -= 1
    while (1.0 - gamma) ** ell > target:
        ell += 1
    return ell


def make_schedule(h: Hypergraph, q: int, kappa: float, gamma: float, C: float) -> Schedule:
    """Round schedule: ell rounds at rate p = C/kappa, endgame rate rho.

    A p above 1 is clamped to 1, and a total rate ell*p + rho above 1 is
    recorded (feasible), not rejected.
    """
    ell = check_fragment_inputs(h, q, gamma, C)
    if not kappa > 0:
        raise ValueError("need kappa > 0 and a finite C >= 1")
    r = h.r_bound
    p = min(C / kappa, 1.0)
    rho = math.log(r) / kappa
    return Schedule(
        q=q,
        lift_size=lift_size(h, q),
        r=r,
        kappa=kappa,
        gamma=gamma,
        C=C,
        ell=ell,
        p=p,
        rho=rho,
        delta=1.0 / (2 * ell),
        feasible=ell * p + rho <= 1.0,
    )


# The fragment store.  Element (v, c) of X x [q] is coded v*q + c - 1 (as
# in `lift_codes`), and a fragment is a row of its element codes in
# ascending order, padded on the right with pad = N*q; a row's length is
# its count of codes below pad.  Each row carries a multiplicity and the
# index of its seed in the store's block of seeds.  Rows are sorted by
# seed; within a seed they are distinct, and their order is the one fixed
# order on fragments that psi needs to break ties between minimal
# remainders: the order of round 1's restricted lift (by base edge, then
# colors), each row standing where the lifted edge it descends from
# stood.  Every round keeps it, so a row's position is its lineage.  A
# row, or a subset of one, is searched by its `spread` key as a set of
# N*q elements, plus seed * M, where M = offsets[-1] counts every key of
# one seed, so that the seeds of a block never meet.


class FragmentStore:
    """Surviving fragments of a block of seeds, in (seed, lineage) order:
    codes (F, r) in the least unsigned type that holds pad = N*q, and
    mult, seed and lengths (F,) int64; totals holds each seed's total
    multiplicity."""

    def __init__(self, codes, mult, seed, seeds: int, q: int, pad: int, lengths):
        self.codes = codes
        self.mult = mult
        self.seed = seed
        self.seeds = seeds
        self.q = q
        self.pad = pad
        self.lengths = lengths
        self.totals = _per_seed(seed, mult, seeds)

    def __len__(self) -> int:
        return len(self.mult)


def _per_seed(seed, values, seeds: int):
    """Each seed's sum of values, over rows sorted by seed."""
    bounds = np.searchsorted(seed, np.arange(seeds + 1))
    sums = np.concatenate(([0], np.cumsum(values)))
    return sums[bounds[1:]] - sums[bounds[:-1]]


def apply_round(survivors: FragmentStore, wmaps, r_i: float):
    """One fragmentation round against each seed's already-sampled colored
    set, wmaps[i] for the store's seed i.

    Returns the new store plus each seed's (compatible, good) counts with
    multiplicity, as arrays.  Good means the chosen remainder has size
    <= r_i; the good rows, merged by chosen remainder, are the new store,
    so good is also its total multiplicity.
    """
    from . import _blocks

    compat, rem, src, lengths = _blocks.psi_round(survivors, wmaps)
    mult, seed = survivors.mult[compat], survivors.seed[compat]
    good = lengths[src] <= r_i
    merged = np.zeros(len(rem), dtype=np.int64)
    np.add.at(merged, src[good], mult[good])
    # every multiplicity is positive, and chosen ascends, so rows keep their order
    chosen = np.flatnonzero(merged)
    new = FragmentStore(
        rem.take(chosen, axis=0), merged[chosen], seed[chosen], survivors.seeds, survivors.q, survivors.pad,
        lengths[chosen],
    )
    return new, _per_seed(seed, mult, survivors.seeds), new.totals


def empty_round(survivors: FragmentStore, r_i: float):
    """`apply_round` with an empty sample for every seed, on a store that
    psi made.

    psi's output is an antichain: a kept row Y inside a kept row X would
    be a smaller remainder inside the row that picked X.  With no sample
    every row is compatible and is its own remainder, the only indexed
    set inside it, so it picks itself: the round keeps the rows of
    length <= r_i.
    """
    keep = survivors.lengths <= r_i
    if keep.all():
        return survivors, survivors.totals, survivors.totals
    s = survivors
    codes = np.compress(keep, s.codes, axis=0)
    new = FragmentStore(codes, s.mult[keep], s.seed[keep], s.seeds, s.q, s.pad, s.lengths[keep])
    return new, survivors.totals, new.totals


def endgame_hit(survivors: FragmentStore, wmaps):
    """Per seed, whether its colored set covers one of its surviving
    fragments outright."""
    from . import _blocks

    q, pad = survivors.q, survivors.pad
    kind = _blocks.elements(wmaps, q, pad)
    at = survivors.seed * (pad + 1)
    rows = np.ones(len(survivors), dtype=bool)
    for col in survivors.codes.T:
        rows &= kind.take(at + col) == 1
    hit = np.zeros(survivors.seeds, dtype=bool)
    hit[survivors.seed[rows]] = True
    return hit


class RoundRecord(NamedTuple):
    round: int
    w_size: int
    survivors_before: int
    compatible: int
    survivors_after: int
    good_fraction: float
    successful: bool


class FragmentationTrace(NamedTuple):
    seed: int
    stream_id: int
    schedule: Schedule
    rounds: list[RoundRecord]
    endgame_w_size: int
    endgame_hit: bool
    outcome_rainbow: bool
    all_rounds_successful: bool
    final_survivors: int

    def serialize(self) -> str:
        """Canonical line-delimited form (no timing, byte-deterministic)."""
        import json

        lines = [
            json.dumps(
                {
                    "seed": self.seed,
                    "stream_id": self.stream_id,
                    "q": self.schedule.q,
                    "r": self.schedule.r,
                    "kappa": round(self.schedule.kappa, 12),
                    "gamma": self.schedule.gamma,
                    "C": self.schedule.C,
                    "ell": self.schedule.ell,
                    "p": round(self.schedule.p, 12),
                    "rho": round(self.schedule.rho, 12),
                    "feasible": self.schedule.feasible,
                    "lift_size": self.schedule.lift_size,
                },
                sort_keys=True,
            )
        ]
        for rec in self.rounds:
            lines.append(json.dumps(rec._asdict(), sort_keys=True))
        lines.append(
            json.dumps(
                {
                    "endgame_w_size": self.endgame_w_size,
                    "endgame_hit": self.endgame_hit,
                    "outcome_rainbow": self.outcome_rainbow,
                    "all_rounds_successful": self.all_rounds_successful,
                    "final_survivors": self.final_survivors,
                },
                sort_keys=True,
            )
        )
        return "\n".join([*lines, ""])


def initial_survivors(h: Hypergraph, q: int, wmaps) -> FragmentStore:
    """The lift restricted to each seed's round-1 sample, wmaps[i] for
    seed i, as one fragment store.

    These are the fragments compatible with round 1's samples.  The
    clashing ones are left out: psi never indexes them, so round 1 picks
    the same remainders as it would over the full lift.  Rows repeat only
    where an edge repeats, so each distinct edge is lifted once, at its
    first copy, with the copy count as multiplicity (`Hypergraph.distinct`).
    psi's keys are checked before the lift exists.
    """
    pad = h.num_vertices * q
    rank_tables(pad, h.r_bound, "fragment keys", "use a smaller --q or a smaller hypergraph")
    from . import _blocks

    distinct, copies = h.distinct
    codes, base, seed = _blocks.lift_block(distinct, q, wmaps)
    return FragmentStore(codes, copies[base], seed, len(wmaps), q, pad, distinct.packed[1][base])


class _Draws(NamedTuple):
    """A stream's samples: rounds maps each round that samples some
    vertex to its colored set."""

    rng: RngStream
    rounds: dict[int, dict[int, int]]
    endgame: dict[int, int]


def _draw(n: int, sched: Schedule, rng: RngStream) -> _Draws:
    """Every sample of one run, in the order the run takes them: each
    depends only on the stream and the residual that the run's own
    earlier samples leave.  Round samples use the binomial colored model
    on the residual ground set; the endgame is a uniform N*rho-subset of
    the residual, randomly colored."""
    residual = list(range(n))
    rounds = {}
    for i in range(1, sched.ell + 1):
        sample = sample_colored_p(len(residual), sched.p, sched.q, rng)
        if sample.assignment:
            wmap = rounds[i] = {residual[j]: c for j, c in sample.assignment}
            residual = [v for v in residual if v not in wmap]
    m_end = min(round_half_up(n * sched.rho), len(residual))
    sample = sample_colored_m(len(residual), m_end, sched.q, rng)
    return _Draws(rng, rounds, {residual[j]: c for j, c in sample.assignment})


def run_fragmentation(h: Hypergraph, sched: Schedule, rngs) -> list[FragmentationTrace]:
    """Run the full process once per stream of rngs on `sched`, made for h
    by `make_schedule`, and record per-round statistics: one trace per
    stream, in order.

    Each stream's samples are drawn first; then a block of consecutive
    streams goes through the rounds together, one psi call a round for
    the block.  A block is one stream, or the most streams whose round-1
    restricted lifts fit `block_rows` and the byte budget in all.  At
    desk scale the schedule's total rate often exceeds 1, which only
    invalidates the size claim of the final union, not the execution;
    feasibility is recorded in the trace.
    """
    # here, so that only a command that fragments compiles it; before the
    # run's own objects exist, which then reuse the compiler's freed memory
    from . import _blocks

    pad = h.num_vertices * sched.q
    offsets, _ = rank_tables(pad, h.r_bound, "fragment keys", "use a smaller --q or a smaller hypergraph")
    most = (2**63 - 1) // int(offsets[-1])  # seed * M + key stays in int64
    # a round-1 row holds row_bytes // 8 int64s' worth at the round's peak
    row_bytes = fragment_row_bytes(h.r_bound)
    cap = block_rows(row_bytes // 8)
    distinct = h.distinct[0]
    streams = iter(rngs)
    # streams are drawn and their round-1 rows counted a chunk at a time,
    # the count's array holding edges * r pins per stream
    ahead = block_rows(len(distinct.edges) * h.r_bound)
    traces, block, rows = [], [], 0
    while chunk := [_draw(h.num_vertices, sched, rng) for rng in islice(streams, ahead)]:
        sizes = _blocks.lift_groups(distinct, sched.q, [draws.rounds.get(1, {}) for draws in chunk])[1]
        for draws, size in zip(chunk, sizes):
            n = max(1, size)
            if block and (rows + n > cap or (rows + n) * row_bytes > limits.MEMORY_BYTES or len(block) == most):
                traces += _run_block(h, sched, block)
                block, rows = [], 0
            block.append(draws)
            rows += n
    if block:
        traces += _run_block(h, sched, block)
    return traces


def _run_block(h: Hypergraph, sched: Schedule, block: list[_Draws]) -> list[FragmentationTrace]:
    """The traces of a block of streams whose samples are drawn."""
    survivors = initial_survivors(h, sched.q, [draws.rounds.get(1, {}) for draws in block])
    before = [sched.lift_size] * len(block)
    rounds = [[] for _ in block]
    for i in range(1, sched.ell + 1):
        wmaps = [draws.rounds.get(i, {}) for draws in block]
        r_i = (1.0 - sched.gamma) ** i * sched.r
        if i == 1 or any(wmaps):  # round 1's restricted lift need not be an antichain
            survivors, compatible, after = apply_round(survivors, wmaps, r_i)
        else:
            survivors, compatible, after = empty_round(survivors, r_i)
        for s, (c, a) in enumerate(zip(compatible.tolist(), after.tolist())):
            rounds[s].append(
                RoundRecord(
                    round=i,
                    w_size=len(wmaps[s]),
                    survivors_before=before[s],
                    compatible=c,
                    survivors_after=a,
                    good_fraction=a / before[s] if before[s] else 0.0,
                    successful=a >= (1.0 - sched.delta) * before[s],
                )
            )
            before[s] = a

    traces = []
    hits = endgame_hit(survivors, [draws.endgame for draws in block]).tolist()
    for draws, records, hit, final in zip(block, rounds, hits, before):
        w_union = dict(draws.endgame)
        for wmap in draws.rounds.values():
            w_union.update(wmap)
        traces.append(
            FragmentationTrace(
                seed=draws.rng.master_seed,
                stream_id=draws.rng.stream_id,
                schedule=sched,
                rounds=records,
                endgame_w_size=len(draws.endgame),
                endgame_hit=hit,
                outcome_rainbow=contains_rainbow_edge(h, ColoredSet.from_dict(w_union)) is not None,
                all_rounds_successful=all(rec.successful for rec in records),
                final_survivors=final,
            )
        )
    return traces
