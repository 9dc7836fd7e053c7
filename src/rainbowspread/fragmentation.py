"""Iterative fragmentation: absorb rainbow edges piece by piece.

Each round samples a small colored set, replaces every compatible
surviving fragment by the smallest fragment residue it can point to
(the psi/chi minimization), and keeps the ones whose remainder is small
enough.  After the last round a final uniform sample must cover some
surviving fragment outright.

Fragments live in an integer store (see `FragmentStore`): one row of
element codes per distinct element set, with a multiplicity, in the one
fixed order that breaks psi's ties.  Merging equal element sets
preserves the multiset semantics exactly because psi only looks at
element sets.
tests/oracles.py holds the dict-based reference form of the round.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hypergraph import Hypergraph
# lift_rainbow and max_spread are not called here; they stay bound by
# name because perfbench's tracer wraps them in every module that names them
from .lifting import check_chromatic, lift_codes, lift_rainbow, lift_size  # noqa: F401
from .limits import block_rows
from .rng import RngStream, round_half_up
from .sampling import ColoredSet, contains_rainbow_edge, sample_colored_m, sample_colored_p
from .spread import max_spread, rank_tables, size_keys  # noqa: F401


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
# its count of codes below pad.  Each row carries a multiplicity.  Rows
# are distinct, and their order is the one fixed order on fragments that
# psi needs to break ties between minimal remainders: the order of round
# 1's restricted lift (by base edge, then colors), each row standing
# where the lifted edge it descends from stood.  Every round keeps it,
# so a row's position is its lineage.  A row, or a subset of one, is
# searched by its `spread` key as a set of N*q elements.


class FragmentStore:
    """Surviving fragments, in lineage order: codes (F, r) int64 and
    mult (F,) int64; pad = N*q."""

    def __init__(self, codes: np.ndarray, mult: np.ndarray, q: int, pad: int):
        self.codes = codes
        self.mult = mult
        self.q = q
        self.pad = pad

    def __len__(self) -> int:
        return len(self.mult)


def _sampled_codes(wmap: dict[int, int], q: int):
    """The sampled vertices and the codes of their sampled elements; a
    color outside [1, q] has no element."""
    v = np.fromiter(wmap.keys(), dtype=np.int64, count=len(wmap))
    c = np.fromiter(wmap.values(), dtype=np.int64, count=len(wmap))
    return v, (v * q + c - 1)[(1 <= c) & (c <= q)]


def _psi_round(store: FragmentStore, wmap: dict[int, int]):
    """Apply the psi/chi minimization for one sampled colored set.

    Returns (compat, rem, src, lengths): compat marks the rows that agree
    with the sample, rem holds their remainders (the elements on
    unsampled vertices) as padded rows, lengths their sizes, and src[i]
    is the compatible row whose remainder row i picks: the smallest
    remainder inside row i's own, ties broken by row order.

    Every remainder is indexed by its key.  Per remainder length k, in
    blocks of rows, the keys of a row's subsets of each size up to k
    that some remainder has are looked up at once; a row takes the hit
    of least size, and there of least row.  Its own remainder is
    indexed, so every row hits.
    """
    q, pad = store.q, store.pad
    offsets, binom = rank_tables(pad, store.codes.shape[1])
    kind = np.zeros(pad + 1, dtype=np.int8)  # 0 unsampled, 1 sampled or pad, 2 clash
    kind[pad] = 1
    v, sampled = _sampled_codes(wmap, q)
    kind[:pad].reshape(-1, q)[v] = 2
    kind[sampled] = 1
    compat = ~(kind[store.codes] == 2).any(axis=1)
    rem = store.codes[compat]
    rem[kind[rem] == 1] = pad
    rem.sort(axis=1)  # pad is the largest code, so this moves it to the end
    lengths = (rem != pad).sum(axis=1)

    # only subsets of these sizes can hit; bincount, because np.unique
    # without index or count outputs imports numpy.ma
    sizes = np.flatnonzero(np.bincount(lengths)).tolist()
    if 0 in sizes:  # the empty remainder is inside every row's
        return compat, rem, np.full(len(rem), np.argmax(lengths == 0)), lengths
    # a remainder's own key in closed form: code j of a length-k row is the
    # (k - j)-th smallest reflected element, adding C(pad - 1 - code, k - j)
    index_keys = offsets[lengths + 1] - 1
    for j in range(rem.shape[1]):
        live = np.flatnonzero(lengths > j)
        index_keys[live] -= binom[lengths[live] - j, pad - 1 - rem[live, j]]
    # np.unique's index is a key's first row, the least in row order
    index_keys, index_rows = np.unique(index_keys, return_index=True)
    src = np.empty(len(rem), dtype=np.int64)
    # a hit on row j of size s ranks s * span + j: size first, then row
    span = len(rem) + 1
    rank = index_rows + span * lengths[index_rows]
    for k in sizes:
        rows_k = np.flatnonzero(lengths == k)
        ks = [s for s in sizes if s <= k]
        # per row: its k codes, given and reflected, and at most six arrays over
        # the looked-up keys, the last block's keys and positions among them
        block = block_rows(2 * k + 6 * sum(math.comb(k, s) for s in ks))
        for lo in range(0, len(rows_k), block):
            todo = rows_k[lo : lo + block]
            found = size_keys(rem[todo, :k], ks, offsets, binom)
            pos = np.minimum(np.searchsorted(index_keys, found), len(index_keys) - 1)
            best = np.where(index_keys[pos] == found, rank[pos], span * (k + 1)).min(axis=0)
            src[todo] = best % span
    return compat, rem, src, lengths


def apply_round(survivors: FragmentStore, wmap: dict[int, int], r_i: float):
    """One fragmentation round against an already-sampled colored set.

    Returns the new store plus (compatible, good) counts with
    multiplicity.  Good means the chosen remainder has size <= r_i; the
    good rows, merged by chosen remainder, are the new store, so good is
    also its total multiplicity.
    """
    compat, rem, src, lengths = _psi_round(survivors, wmap)
    mult = survivors.mult[compat]
    good = lengths[src] <= r_i
    merged = np.zeros(len(rem), dtype=np.int64)
    np.add.at(merged, src[good], mult[good])
    # every multiplicity is positive, and chosen ascends, so rows keep their order
    chosen = np.flatnonzero(merged)
    new = FragmentStore(codes=rem[chosen], mult=merged[chosen], q=survivors.q, pad=survivors.pad)
    return new, int(mult.sum()), int(merged.sum())


def empty_round(survivors: FragmentStore, r_i: float):
    """`apply_round` with an empty sample on a store that psi made.

    psi's output is an antichain: a kept row Y inside a kept row X would
    be a smaller remainder inside the row that picked X.  With no sample
    every row is compatible and is its own remainder, the only indexed
    set inside it, so it picks itself: the round keeps the rows of
    length <= r_i.
    """
    keep = (survivors.codes != survivors.pad).sum(axis=1) <= r_i
    new = FragmentStore(survivors.codes[keep], survivors.mult[keep], survivors.q, survivors.pad)
    return new, int(survivors.mult.sum()), int(new.mult.sum())


def endgame_hit(survivors: FragmentStore, wmap: dict[int, int]) -> bool:
    """Whether the colored set wmap covers some surviving fragment outright."""
    covered = np.zeros(survivors.pad + 1, dtype=bool)
    covered[survivors.pad] = True
    covered[_sampled_codes(wmap, survivors.q)[1]] = True
    return bool(covered[survivors.codes].all(axis=1).any())


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


def initial_survivors(h: Hypergraph, q: int, wmap: dict[int, int]) -> FragmentStore:
    """The lift restricted to wmap as a fragment store.

    These are the fragments compatible with round 1's sample wmap.  The
    clashing ones are left out: psi never indexes them, so round 1 picks
    the same remainders as it would over the full lift.  Rows repeat only
    where an edge repeats, so each distinct edge is lifted once, at its
    first copy, with the copy count as multiplicity (`Hypergraph.distinct`).
    psi's keys are checked before the lift exists.
    """
    pad = h.num_vertices * q
    rank_tables(pad, h.r_bound, "fragment keys", "use a smaller --q or a smaller hypergraph")
    distinct, copies = h.distinct
    codes, base = lift_codes(distinct, q, wmap)
    return FragmentStore(codes=codes, mult=copies[base], q=q, pad=pad)


def run_fragmentation(h: Hypergraph, sched: Schedule, rng: RngStream) -> FragmentationTrace:
    """Run the full process once on `sched`, made for h by `make_schedule`,
    and record per-round statistics.

    Round samples use the binomial colored model on the residual ground
    set.  At desk scale the schedule's total rate often exceeds 1, which
    only invalidates the size claim of the final union, not the
    execution; feasibility is recorded in the trace.
    """
    q = sched.q
    residual = list(range(h.num_vertices))
    w_union: dict[int, int] = {}
    rounds = []
    before = sched.lift_size

    for i in range(1, sched.ell + 1):
        sample = sample_colored_p(len(residual), sched.p, q, rng)
        wmap = {residual[j]: c for j, c in sample.assignment}
        r_i = (1.0 - sched.gamma) ** i * sched.r
        if i == 1:
            survivors = initial_survivors(h, q, wmap)
        if wmap or i == 1:  # round 1's restricted lift need not be an antichain
            survivors, compatible, after = apply_round(survivors, wmap, r_i)
        else:
            survivors, compatible, after = empty_round(survivors, r_i)
        rounds.append(
            RoundRecord(
                round=i,
                w_size=len(wmap),
                survivors_before=before,
                compatible=compatible,
                survivors_after=after,
                good_fraction=after / before if before else 0.0,
                successful=after >= (1.0 - sched.delta) * before,
            )
        )
        before = after
        w_union.update(wmap)
        residual = [v for v in residual if v not in wmap]

    # endgame: a uniform Nrho-subset of the residual, randomly colored
    m_end = min(round_half_up(h.num_vertices * sched.rho), len(residual))
    sample = sample_colored_m(len(residual), m_end, q, rng)
    wend = {residual[j]: c for j, c in sample.assignment}
    w_union.update(wend)
    return FragmentationTrace(
        seed=rng.master_seed,
        stream_id=rng.stream_id,
        schedule=sched,
        rounds=rounds,
        endgame_w_size=len(wend),
        endgame_hit=endgame_hit(survivors, wend),
        outcome_rainbow=contains_rainbow_edge(h, ColoredSet.from_dict(w_union)) is not None,
        all_rounds_successful=all(rec.successful for rec in rounds),
        final_survivors=before,
    )
