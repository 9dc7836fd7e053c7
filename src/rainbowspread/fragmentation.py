"""Iterative fragmentation: absorb rainbow edges piece by piece.

Each round samples a small colored set, replaces every compatible
surviving fragment by the smallest fragment residue it can point to
(the psi/chi minimization), and keeps the ones whose remainder is small
enough.  After the last round a final uniform sample must cover some
surviving fragment outright.

Fragments live in an integer store (see `FragmentStore`): one row of
element codes per distinct element set, with a multiplicity and a
lineage rank.  Merging equal element sets preserves the multiset
semantics exactly because psi only looks at element sets.
tests/oracles.py holds the dict-based reference form of the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph
# lift_rainbow is not called here; it stays bound by name because
# perfbench's tracer wraps it in every module that names it
from .lifting import lift_codes, lift_rainbow, lift_size  # noqa: F401
from .rng import RngStream, round_half_up
from .sampling import ColoredSet, contains_rainbow_edge
from .spread import max_spread


@dataclass(frozen=True)
class Schedule:
    r: int
    kappa: float
    gamma: float
    C: float
    ell: int
    p: float
    rho: float
    delta: float
    r_bounds: tuple[float, ...]  # r_0 .. r_ell, r_i = (1-gamma)^i r
    r_ell_endgame: float  # sqrt(log r), the endgame fragment bound
    feasible: bool  # ell*p + rho <= 1
    ell_log_bound_ok: bool  # ell <= log(r)/gamma
    p_clamped: bool


def make_schedule(r: int, kappa: float, gamma: float, C: float) -> Schedule:
    """Round schedule: ell rounds at rate p = C/kappa, endgame rate rho.

    ell is the smallest positive integer with (1-gamma)^ell <= sqrt(log r)/r.
    A p above 1 is clamped to 1 (p_clamped), and a total rate ell*p + rho
    above 1 is recorded (feasible), not rejected.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if not (kappa > 0 and math.isfinite(C) and C >= 1):
        raise ValueError("need kappa > 0 and a finite C >= 1")
    target = math.sqrt(math.log(r)) / r
    ell = 1
    while (1.0 - gamma) ** ell > target:
        ell += 1
    p_clamped = C / kappa > 1.0
    p = min(C / kappa, 1.0)
    rho = math.log(r) / kappa
    feasible = ell * p + rho <= 1.0
    return Schedule(
        r=r,
        kappa=kappa,
        gamma=gamma,
        C=C,
        ell=ell,
        p=p,
        rho=rho,
        delta=1.0 / (2 * ell),
        r_bounds=tuple((1.0 - gamma) ** i * r for i in range(ell + 1)),
        r_ell_endgame=math.sqrt(math.log(r)),
        feasible=feasible,
        ell_log_bound_ok=ell <= math.log(r) / gamma,
        p_clamped=p_clamped,
    )


# The fragment store.  Element (v, c) of X x [q] is coded v*q + c - 1 (as
# in `lift_codes`), and a fragment is a row of its element codes in
# ascending order, padded on the right with pad = N*q; a row's length is
# its count of codes below pad.  Each row carries a multiplicity and a
# lineage rank: the position, in round 1's restricted lift, of the lifted
# edge that the fragment descends from.  That lift is in canonical order,
# which is the order of (base edge, colors) lineages, so ranks break ties
# as those lineages would.  Rows are distinct and kept in ascending
# lineage order, so a row's position orders lineages too.
#
# A row, or a subset of one, is searched by its key: its codes padded to
# the store's width r and read as the digits of a base N*q + 1 number.
SEARCH_BLOCK = 1024  # rows per subset search step; bounds its arrays


class KeyWidthExceeded(RainbowSpreadError, RuntimeError):
    pass


@dataclass(frozen=True)
class FragmentStore:
    """Surviving fragments: codes (F, r) int64, mult (F,) int64 and
    lineage (F,) int64 ranks, ascending; pad = N*q."""

    codes: np.ndarray
    mult: np.ndarray
    lineage: np.ndarray
    q: int
    pad: int

    def __len__(self) -> int:
        return len(self.mult)


def _key_weights(pad: int, width: int) -> np.ndarray:
    """Digit weights of the row key, (pad+1)^(width-1) .. 1, once the
    largest key is known to fit int64."""
    if (pad + 1) ** width > 2**63:
        raise KeyWidthExceeded(
            f"fragment keys need (N*q + 1)^r = {pad + 1}^{width} values, above int64; "
            "use a smaller --q or a smaller hypergraph"
        )
    return (pad + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def _subset_columns(k: int, s: int) -> np.ndarray:
    """combinations(range(k), s) as a (C, s) array, in lexicographic order."""
    return np.array(list(combinations(range(k), s)), dtype=np.intp).reshape(math.comb(k, s), s)


def _sampled_codes(wmap: dict[int, int], q: int):
    """The sampled vertices and the codes of their sampled elements; a
    color outside [1, q] has no element."""
    v = np.fromiter(wmap.keys(), dtype=np.int64, count=len(wmap))
    c = np.fromiter(wmap.values(), dtype=np.int64, count=len(wmap))
    return v, (v * q + c - 1)[(1 <= c) & (c <= q)]


def _psi_round(store: FragmentStore, wmap: dict[int, int]):
    """Apply the psi/chi minimization for one sampled colored set.

    Returns (compat, rem, src): compat marks the rows that agree with the
    sample, rem holds their remainders (the elements on unsampled
    vertices) as padded rows, and src[i] is the compatible row whose
    remainder row i picks: the smallest remainder inside row i's own,
    ties broken by lineage.

    Every remainder is indexed by its key.  Per remainder length k, in
    blocks of rows, the keys of all s-subsets are looked up in the index,
    for each length s that some remainder has, ascending; a row takes its
    first size with a hit, and there the hit of least lineage.  Its own
    remainder is indexed, so every row hits by s = k.
    """
    q, pad = store.q, store.pad
    weights = _key_weights(pad, store.codes.shape[1])
    kind = np.zeros(pad + 1, dtype=np.int8)  # 0 unsampled, 1 sampled or pad, 2 clash
    kind[pad] = 1
    v, sampled = _sampled_codes(wmap, q)
    kind[:pad].reshape(-1, q)[v] = 2
    kind[sampled] = 1
    k_of = kind[store.codes]
    compat = ~(k_of == 2).any(axis=1)
    rem = store.codes[compat]
    rem[k_of[compat] == 1] = pad
    rem.sort(axis=1)  # pad is the largest code, so this moves it to the end
    lengths = (rem != pad).sum(axis=1)

    # compatible rows ascend in lineage, so a key's first row has the least
    index_keys, index_rows = np.unique(rem @ weights, return_index=True)
    # tails[s]: the key part of the pads that follow s codes
    tails = np.append(pad * np.cumsum(weights[::-1])[::-1], 0)
    none = len(rem)
    src = np.empty(len(rem), dtype=np.int64)
    sizes = np.unique(lengths).tolist()  # only subsets of these sizes can hit
    for k in sizes:
        rows_k = np.flatnonzero(lengths == k)
        for lo in range(0, len(rows_k), SEARCH_BLOCK):
            todo = rows_k[lo : lo + SEARCH_BLOCK]
            for s in sizes[: sizes.index(k) + 1]:
                subsets = rem[todo[:, None, None], _subset_columns(k, s)]  # (rows, C, s)
                keys = subsets @ weights[:s] + tails[s]
                pos = np.minimum(np.searchsorted(index_keys, keys), len(index_keys) - 1)
                best = np.where(index_keys[pos] == keys, index_rows[pos], none).min(axis=1)
                hit = best < none
                src[todo[hit]] = best[hit]
                todo = todo[~hit]
                if not len(todo):
                    break
    return compat, rem, src


def apply_round(survivors: FragmentStore, wmap: dict[int, int], r_i: float):
    """One fragmentation round against an already-sampled colored set.

    Returns the new store plus (compatible, good) counts with
    multiplicity.  Good means the chosen remainder has size <= r_i; the
    good rows, merged by chosen remainder, are the new store, so good is
    also its total multiplicity.
    """
    compat, rem, src = _psi_round(survivors, wmap)
    mult = survivors.mult[compat]
    good = (rem != survivors.pad).sum(axis=1)[src] <= r_i
    chosen, inverse = np.unique(src[good], return_inverse=True)
    merged = np.zeros(len(chosen), dtype=np.int64)
    np.add.at(merged, inverse, mult[good])
    new = FragmentStore(
        codes=rem[chosen],
        mult=merged,
        lineage=survivors.lineage[compat][chosen],
        q=survivors.q,
        pad=survivors.pad,
    )
    return new, int(mult.sum()), int(merged.sum())


def endgame_hit(survivors: FragmentStore, wmap: dict[int, int]) -> bool:
    """Whether the colored set wmap covers some surviving fragment outright."""
    covered = np.zeros(survivors.pad + 1, dtype=bool)
    covered[survivors.pad] = True
    covered[_sampled_codes(wmap, survivors.q)[1]] = True
    return bool(covered[survivors.codes].all(axis=1).any())


@dataclass
class RoundRecord:
    index: int
    w_size: int
    survivors_before: int
    compatible: int
    survivors_after: int
    good_fraction: float
    successful: bool

    def as_dict(self) -> dict:
        return {
            "round": self.index,
            "w_size": self.w_size,
            "survivors_before": self.survivors_before,
            "compatible": self.compatible,
            "survivors_after": self.survivors_after,
            "good_fraction": self.good_fraction,
            "successful": self.successful,
        }


@dataclass
class FragmentationTrace:
    seed: int
    stream_id: int
    q: int
    schedule: Schedule
    lift_size: int
    rounds: list[RoundRecord] = field(default_factory=list)
    endgame_w_size: int = 0
    endgame_hit: bool = False
    outcome_rainbow: bool = False
    all_rounds_successful: bool = False
    final_survivors: int = 0

    def serialize(self) -> str:
        """Canonical line-delimited form (no timing, byte-deterministic)."""
        import json

        lines = [
            json.dumps(
                {
                    "seed": self.seed,
                    "stream_id": self.stream_id,
                    "q": self.q,
                    "r": self.schedule.r,
                    "kappa": round(self.schedule.kappa, 12),
                    "gamma": self.schedule.gamma,
                    "C": self.schedule.C,
                    "ell": self.schedule.ell,
                    "p": round(self.schedule.p, 12),
                    "rho": round(self.schedule.rho, 12),
                    "feasible": self.schedule.feasible,
                    "lift_size": self.lift_size,
                },
                sort_keys=True,
            )
        ]
        for rec in self.rounds:
            lines.append(json.dumps(rec.as_dict(), sort_keys=True))
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
        return "\n".join(lines) + "\n"


def initial_survivors(h: Hypergraph, q: int, wmap: dict[int, int]) -> FragmentStore:
    """The lift restricted to wmap as a fragment store.

    These are the fragments compatible with round 1's sample wmap.  The
    clashing ones are left out: psi never indexes them, so round 1 picks
    the same remainders as it would over the full lift.  Repeated edges
    give equal rows, merged into one with their count as multiplicity and
    the first one's rank as lineage.
    """
    weights = _key_weights(h.num_vertices * q, h.r_bound)
    codes, _ = lift_codes(h, q, wmap)
    _, first, counts = np.unique(codes @ weights, return_index=True, return_counts=True)
    order = np.argsort(first)
    return FragmentStore(
        codes=codes[first[order]],
        mult=counts[order],
        lineage=first[order],
        q=q,
        pad=h.num_vertices * q,
    )


def run_fragmentation(
    h: Hypergraph,
    q: int,
    gamma: float,
    C: float,
    rng: RngStream,
    kappa: float | None = None,
    fixed_size_rounds: bool = False,
) -> FragmentationTrace:
    """Run the full process once and record per-round statistics.

    Round samples use the binomial colored model on the residual ground
    set (fixed_size_rounds=True switches to the m-subset model).  At desk
    scale the schedule's total rate often exceeds 1, which only
    invalidates the size claim of the final union, not the execution;
    feasibility is recorded in the trace.
    """
    if q < h.r_bound:
        raise ValueError(f"q={q} < r={h.r_bound}")
    if kappa is None:
        kappa = max_spread(h).kappa
    sched = make_schedule(h.r_bound, kappa, gamma, C)

    trace = FragmentationTrace(
        seed=rng.master_seed,
        stream_id=rng.stream_id,
        q=q,
        schedule=sched,
        lift_size=lift_size(h, q),
    )

    residual = list(range(h.num_vertices))
    w_union: dict[int, int] = {}
    all_successful = True
    before = trace.lift_size

    for i in range(1, sched.ell + 1):
        if fixed_size_rounds:
            m_i = round_half_up(sched.p * len(residual))
            chosen = [residual[j] for j in rng.sample_without_replacement(len(residual), m_i)]
        else:
            chosen = [v for v in residual if rng.bernoulli(sched.p)]
        wmap = {v: rng.randint(1, q) for v in chosen}
        if i == 1:
            survivors = initial_survivors(h, q, wmap)

        survivors, compatible, after = apply_round(survivors, wmap, sched.r_bounds[i])
        successful = after >= (1.0 - sched.delta) * before
        all_successful = all_successful and successful
        trace.rounds.append(
            RoundRecord(
                index=i,
                w_size=len(wmap),
                survivors_before=before,
                compatible=compatible,
                survivors_after=after,
                good_fraction=after / before if before else 0.0,
                successful=successful,
            )
        )
        before = after
        for v, c in wmap.items():
            w_union[v] = c
        residual = [v for v in residual if v not in wmap]

    # endgame: a uniform Nrho-subset of the residual, randomly colored
    m_end = min(round_half_up(h.num_vertices * sched.rho), len(residual))
    chosen = [residual[j] for j in rng.sample_without_replacement(len(residual), m_end)]
    wend = {v: rng.randint(1, q) for v in chosen}
    hit = endgame_hit(survivors, wend)
    for v, c in wend.items():
        w_union[v] = c

    trace.endgame_w_size = len(wend)
    trace.endgame_hit = hit
    trace.final_survivors = before
    trace.all_rounds_successful = all_successful
    trace.outcome_rainbow = (
        contains_rainbow_edge(h, ColoredSet.from_dict(w_union)) is not None
    )
    return trace
