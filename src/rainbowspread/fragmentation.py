"""Iterative fragmentation: absorb rainbow edges piece by piece.

Each round samples a small colored set, replaces every compatible
surviving fragment by the smallest fragment residue it can point to
(the psi/chi minimization), and keeps the ones whose remainder is small
enough.  After the last round a final uniform sample must cover some
surviving fragment outright.

Round 1 runs per block of seeds, from the remainders of each block's
restricted lift; the later rounds and the endgame run once per group of
consecutive blocks, on their joined round-1 survivors.  Fragments live in
an integer store per block or group (see `FragmentStore`): rows of element
codes, each with a multiplicity and its seed, in the one fixed order that
breaks psi's ties.  Round 1's store holds one row per lifted edge, so the
lifted edges of one remainder give equal rows; psi gives equal rows the
first one's remainder, so from round 1's merge on each row of a seed is a
distinct element set.  Merging equal element sets preserves the
multiset semantics exactly because psi only looks at element sets.  The
array work, the restricted lift, the remainders and psi's search, is in
`_blocks`.  tests/oracles.py holds the dict-based reference form of the
round.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import limits
from .hypergraph import Hypergraph
from .lifting import check_chromatic, lift_size
# lift_rainbow and max_spread are not called here; they stay bound by
# name because perfbench's tracer wraps them in every module that names them
from .lifting import lift_rainbow  # noqa: F401
from .limits import block_rows
from .rng import RngStream, round_half_up
from .sampling import contains_rainbow_edge, sample_colored_m, sample_colored_p
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
    while (1.0 - gamma) ** (ell - 1) <= target:  # false at ell = 1, as target < 1
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
# in `_blocks.lift_block`), and a fragment is a row of its element codes in
# ascending order, padded on the right with pad = N*q; a row's length is
# its count of codes below pad.  Each row carries a multiplicity and the
# index of its seed among the store's seeds.  Rows are sorted by seed;
# within a seed they are distinct from round 1's merge on (lifted edges
# with one remainder give equal rows), and their order is the one fixed
# order on fragments that psi needs to break ties between minimal
# remainders: the order of round 1's restricted lift (by base edge, then
# colors), each row standing where the lifted edge it descends from
# stood.  Every round keeps it, so a row's position is its lineage.  A
# row, or a subset of one, is searched by its `spread` key as a set of
# N*q elements, plus seed * M, where M = offsets[-1] counts every key of
# one seed, so that the seeds of a store never meet.


class FragmentStore:
    """Surviving fragments of consecutive seeds, in (seed, lineage) order:
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

    Each compatible row's remainder (`_blocks.remainders`) picks the
    smallest remainder of its seed inside it (`_blocks.psi`).  Returns
    the new store plus each seed's (compatible, good) counts with
    multiplicity, as arrays.  Good means the chosen remainder has size
    <= r_i; the good rows, merged by chosen remainder, are the new store,
    so good is also its total multiplicity.  Equal rows share their first
    one's remainder, so round 1 merges the copies of a repeated edge here.
    """
    from . import _blocks

    compat, rem, lengths = _blocks.remainders(survivors, wmaps)
    mult, seed = survivors.mult[compat], survivors.seed[compat]
    src = _blocks.psi(rem, lengths, seed, survivors.q, survivors.pad)
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
    fragments outright: leaves one of them an empty remainder."""
    from . import _blocks

    compat, _, lengths = _blocks.remainders(survivors, wmaps)
    hit = np.zeros(survivors.seeds, dtype=bool)
    hit[survivors.seed[compat][lengths == 0]] = True
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


def fragment_row_bytes(r: int) -> int:
    """A fragmentation round's peak per row of round 1's restricted lift,
    4r + 140 bytes: per code the store's and the remainders' one-byte
    copies and the clash tests; per row the int64 multiplicity, seed and
    length in the store and among the remainders, the own and vertex
    keys, np.unique's buffers and the picks, and a margin (tracemalloc over
    a whole seed-0 run: 136 B/row on hamilton n=7 at q=7 and q=8, 134 on
    n=6 at q=8, 140 on pm(8,2) at q=12 and 146 on pm(10,2) at q=8, seed 1),
    with round 1 on whole lifted edges: on its remainders, 120 on n=7 at q=8."""
    return 4 * r + 140


def initial_survivors(h: Hypergraph, q: int, wmaps) -> FragmentStore:
    """The remainders of the lift restricted to each seed's round-1
    sample, wmaps[i] for seed i, as one fragment store: round 1's store.

    The clashing fragments are left out: psi never indexes them, so
    round 1 picks the same remainders as it would over the full lift.
    Each row is a compatible lifted edge less the sampled elements, with
    multiplicity 1; lifted edges with one remainder give equal rows,
    which round 1's `apply_round` merges.  psi's keys and the lift's
    bytes are checked before the lift exists.
    """
    pad = h.num_vertices * q
    rank_tables(pad, h.r_bound, "fragment keys", "use a smaller --q or a smaller hypergraph")
    from . import _blocks

    codes, lengths, _, seed = _blocks.lift_block(h, q, wmaps, fragment_row_bytes(h.r_bound), "lifted edges")
    return FragmentStore(codes, np.ones(len(codes), dtype=np.int64), seed, len(wmaps), q, pad, lengths)


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
        if not residual:
            break
        sample = sample_colored_p(len(residual), sched.p, sched.q, rng)
        if sample:
            wmap = rounds[i] = {residual[j]: c for j, c in sample.items()}
            residual = [v for v in residual if v not in wmap]
    m_end = min(round_half_up(n * sched.rho), len(residual))
    sample = sample_colored_m(len(residual), m_end, sched.q, rng)
    return _Draws(rng, rounds, {residual[j]: c for j, c in sample.items()})


def run_fragmentation(h: Hypergraph, sched: Schedule, rngs) -> list[FragmentationTrace]:
    """Run the full process once per stream of rngs on `sched`, made for h
    by `make_schedule`, and record per-round statistics: one trace per
    stream, in order.

    Each stream's samples are drawn first.  Round 1 then runs in blocks
    of consecutive streams, one restricted lift and one psi call a block:
    a block is one stream, or the most streams whose round-1 restricted
    lifts fit `block_rows` and the byte budget in all.  Round 1 leaves
    far fewer rows than its lift, so consecutive blocks' survivors join
    in groups under the same cap, and the later rounds, the endgame and
    the traces run once per group, one psi call a round.  At desk scale
    the schedule's total rate often exceeds 1, which only invalidates the
    size claim of the final union, not the execution; feasibility is
    recorded in the trace.
    """
    pad = h.num_vertices * sched.q
    offsets, _ = rank_tables(pad, h.r_bound, "fragment keys", "use a smaller --q or a smaller hypergraph")
    most = (2**63 - 1) // int(offsets[-1])  # seed * M + key stays in int64
    # a round-1 row holds row_bytes // 8 int64s' worth at the round's peak,
    # and a block's rows fit the byte budget that `initial_survivors` checks;
    # a group's rows meet the same cap, so no later round's psi call holds
    # more rows than the largest block's round 1
    row_bytes = fragment_row_bytes(h.r_bound)
    cap = min(block_rows(row_bytes // 8), limits.MEMORY_BYTES // row_bytes)

    stages = (_round_one(h, sched, block) for block in _packs(_drawn(h, sched, rngs), cap, most))
    # a stream counts as one row at least, in a group as in a block
    sized = ((stage, max(len(stage.store), len(stage.draws)), len(stage.draws)) for stage in stages)
    return [trace for group in _packs(sized, cap, most) for trace in _later_rounds(h, sched, group)]


def _drawn(h: Hypergraph, sched: Schedule, rngs):
    """Each stream's draws, in order, as (draws, rows, 1): rows is the size
    of its round-1 restricted lift, or 1 if that is empty."""
    # here, so that only a command that fragments compiles it; before the
    # run's own objects exist, which then reuse the compiler's freed memory
    from . import _blocks

    streams = iter(rngs)
    # streams are drawn and their rows counted a chunk at a time, the
    # count's array holding edges * r pins per stream
    ahead = block_rows(len(h.edges) * h.r_bound)
    while chunk := [_draw(h.num_vertices, sched, rng) for rng in islice(streams, ahead)]:
        sizes = _blocks.lift_groups(h, sched.q, [draws.rounds.get(1, {}) for draws in chunk])[1]
        for draws, size in zip(chunk, sizes):
            yield draws, max(1, size), 1


def _packs(items, cap: int, most: int):
    """Consecutive (item, rows, seeds) triples, in order, as lists of
    items: each list is one item, or the most items whose rows together
    fit cap and whose seeds fit most."""
    pack, rows, seeds = [], 0, 0
    for item, n, s in items:
        if pack and (rows + n > cap or seeds + s > most):
            yield pack
            pack, rows, seeds = [], 0, 0
        pack.append(item)
        rows += n
        seeds += s
    if pack:
        yield pack


class _Stage(NamedTuple):
    """A block of streams after round 1: their draws, the store (its seed
    i is draws[i]) and each stream's records."""

    draws: list[_Draws]
    store: FragmentStore
    rounds: list[list[RoundRecord]]


def _round_one(h: Hypergraph, sched: Schedule, block: list[_Draws]) -> _Stage:
    """Round 1 of a block of streams whose samples are drawn, on a store
    with those samples applied.  It runs psi even where no stream samples:
    the restricted lift need not be an antichain."""
    wmaps = [draws.rounds.get(1, {}) for draws in block]
    store = initial_survivors(h, sched.q, wmaps)
    survivors, compatible, after = apply_round(store, [{}] * len(block), _bound(sched, 1))
    rounds = [
        [_record(sched, 1, wmap, sched.lift_size, c, a)]
        for wmap, c, a in zip(wmaps, compatible.tolist(), after.tolist())
    ]
    return _Stage(block, survivors, rounds)


def _later_rounds(h: Hypergraph, sched: Schedule, group: list[_Stage]) -> list[FragmentationTrace]:
    """The traces of a group of consecutive blocks after their round 1:
    rounds 2..ell on their joined store, then the endgame."""
    streams = [draws for stage in group for draws in stage.draws]
    rounds = [records for stage in group for records in stage.rounds]
    survivors = _join([stage.store for stage in group])
    before = [records[-1].survivors_after for records in rounds]
    for i in range(2, sched.ell + 1):
        wmaps = [draws.rounds.get(i, {}) for draws in streams]
        r_i = _bound(sched, i)
        if any(wmaps):
            survivors, compatible, after = apply_round(survivors, wmaps, r_i)
        else:
            survivors, compatible, after = empty_round(survivors, r_i)
        for s, (wmap, c, a) in enumerate(zip(wmaps, compatible.tolist(), after.tolist())):
            rounds[s].append(_record(sched, i, wmap, before[s], c, a))
            before[s] = a

    traces = []
    hits = endgame_hit(survivors, [draws.endgame for draws in streams]).tolist()
    for draws, records, hit, final in zip(streams, rounds, hits, before):
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
                outcome_rainbow=contains_rainbow_edge(h, w_union) is not None,
                all_rounds_successful=all(rec.successful for rec in records),
                final_survivors=final,
            )
        )
    return traces


def _join(stores: list[FragmentStore]) -> FragmentStore:
    """One store of consecutive blocks' stores, their seeds numbered on in
    order, so that its rows stay sorted by seed."""
    at = np.cumsum([0] + [store.seeds for store in stores]).tolist()
    first = stores[0]
    return FragmentStore(
        np.concatenate([store.codes for store in stores]),
        np.concatenate([store.mult for store in stores]),
        np.concatenate([store.seed + base for store, base in zip(stores, at)]),
        at[-1],
        first.q,
        first.pad,
        np.concatenate([store.lengths for store in stores]),
    )


def _bound(sched: Schedule, i: int) -> float:
    """r_i, the largest remainder size that round i keeps."""
    return (1.0 - sched.gamma) ** i * sched.r


def _record(sched: Schedule, i: int, wmap, before: int, compatible: int, after: int) -> RoundRecord:
    """Round i's record of a stream that sampled wmap, with multiplicities:
    before fragments held, compatible of them, after kept."""
    return RoundRecord(
        round=i,
        w_size=len(wmap),
        survivors_before=before,
        compatible=compatible,
        survivors_after=after,
        good_fraction=after / before if before else 0.0,
        successful=after >= (1.0 - sched.delta) * before,
    )
