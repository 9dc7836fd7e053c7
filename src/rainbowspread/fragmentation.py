"""Iterative fragmentation: absorb rainbow edges piece by piece.

Each round samples a small colored set, replaces every compatible
surviving fragment by the smallest fragment residue it can point to
(the psi/chi minimization), and keeps the ones whose remainder is small
enough.  After the last round a final uniform sample must cover some
surviving fragment outright.

Fragments with equal element sets are merged with multiplicities; this
preserves the multiset semantics exactly because psi only looks at
element sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .errors import RainbowSpreadError
from .hypergraph import Hypergraph
from .lifting import lift_rainbow, lift_size
from .rng import RngStream, round_half_up
from .sampling import ColoredSet, contains_rainbow_edge
from .spread import max_spread


class ScheduleInfeasibleError(RainbowSpreadError, ValueError):
    pass


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


def make_schedule(r: int, kappa: float, gamma: float, C: float, strict: bool = True) -> Schedule:
    """Round schedule: ell rounds at rate p = C/kappa, endgame rate rho.

    ell is the smallest positive integer with (1-gamma)^ell <= sqrt(log r)/r.
    With strict=True, parameters whose total rate ell*p + rho exceeds 1
    (or whose p exceeds 1) are rejected rather than clamped.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if kappa <= 0 or C < 1:
        raise ValueError("need kappa > 0 and C >= 1")
    target = math.sqrt(math.log(r)) / r
    ell = 1
    while (1.0 - gamma) ** ell > target:
        ell += 1
    p = C / kappa
    p_clamped = False
    if p > 1.0:
        if strict:
            raise ScheduleInfeasibleError(f"p = C/kappa = {p:.4f} exceeds 1")
        p, p_clamped = 1.0, True
    rho = math.log(r) / kappa
    feasible = ell * p + rho <= 1.0
    if strict and not feasible:
        raise ScheduleInfeasibleError(
            f"total sampling rate ell*p + rho = {ell * p + rho:.4f} exceeds 1"
        )
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


# a fragment: (elements, multiplicity, lineage); elements is a tuple of
# (vertex, color) sorted by vertex, lineage = (base edge id, color tuple)
# of the originating lifted edge, used only for deterministic tie-breaks.
Fragment = tuple[tuple[tuple[int, int], ...], int, tuple]


def _psi_round(fragments: list[Fragment], wmap: dict[int, int]):
    """Apply the psi/chi minimization for one sampled colored set.

    Returns a list with one entry per input fragment: None when the
    fragment clashes with the sample, else the chosen remainder (the
    smallest compatible fragment remainder inside this fragment's own
    remainder) together with its lineage.
    """
    compat = []
    remainders = []
    for elems, mult, lineage in fragments:
        clash = any(wmap.get(v, c) != c for v, c in elems)
        if clash:
            compat.append(False)
            remainders.append(None)
        else:
            compat.append(True)
            remainders.append(tuple((v, c) for v, c in elems if v not in wmap))

    # index every compatible remainder: remainder -> (size, best lineage)
    by_remainder: dict[tuple, tuple[int, tuple]] = {}
    for ok, rem, (elems, mult, lineage) in zip(compat, remainders, fragments):
        if not ok:
            continue
        prev = by_remainder.get(rem)
        if prev is None or lineage < prev[1]:
            by_remainder[rem] = (len(rem), lineage)

    candidates = sorted((len(rem), lin, rem) for rem, (sz, lin) in by_remainder.items())

    results = []
    for ok, rem in zip(compat, remainders):
        if not ok:
            results.append(None)
            continue
        rem_set = set(rem)
        # two equivalent search orders; pick the cheaper one
        if 2 ** len(rem) <= len(by_remainder) * max(1, len(rem)):
            best = None
            for size in range(len(rem) + 1):
                found = []
                for sub in combinations(rem, size):
                    hit = by_remainder.get(sub)
                    if hit is not None:
                        found.append((hit[1], sub))
                if found:
                    lin, sub = min(found)
                    best = (sub, lin)
                    break
            assert best is not None  # rem itself is always indexed
            results.append(best)
        else:
            for size, lin, cand in candidates:
                if size > len(rem):
                    results.append((rem, by_remainder[rem][1]))
                    break
                if rem_set.issuperset(cand):
                    results.append((cand, lin))
                    break
    return results


def select_psi_chi(fragments: list[Fragment], w: ColoredSet):
    """Per-fragment (chosen remainder, lineage), None for incompatible ones."""
    return _psi_round(fragments, w.as_dict())


def apply_round(survivors: dict, wmap: dict[int, int], r_i: float):
    """One fragmentation round against an already-sampled colored set.

    survivors: {elements: (multiplicity, lineage)}.  Returns the new
    survivor dict plus (compatible, good) counts with multiplicity.  Good
    means the chosen remainder has size <= r_i.
    """
    fragments = [(elems, mult, lin) for elems, (mult, lin) in sorted(survivors.items())]
    picks = _psi_round(fragments, wmap)

    new_survivors: dict[tuple, tuple[int, tuple]] = {}
    compatible = 0
    good = 0
    for (elems, mult, lineage), pick in zip(fragments, picks):
        if pick is None:
            continue
        compatible += mult
        chi, chi_lineage = pick
        if len(chi) <= r_i:
            good += mult
            prev = new_survivors.get(chi)
            if prev is None:
                new_survivors[chi] = (mult, chi_lineage)
            else:
                new_survivors[chi] = (prev[0] + mult, min(prev[1], chi_lineage))
    return new_survivors, compatible, good


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


def initial_survivors(h: Hypergraph, q: int, wmap: dict[int, int]):
    """The lift restricted to wmap as a fragment multiset.

    These are the fragments compatible with round 1's sample wmap.  The
    clashing ones are left out: psi never indexes them, so round 1 picks
    the same remainders as it would over the full lift.
    """
    survivors: dict[tuple, tuple[int, tuple]] = {}
    for le in lift_rainbow(h, q, wmap):
        elems = tuple(zip(h.edges[le.base], le.colors))
        lineage = (le.base, le.colors)
        prev = survivors.get(elems)
        if prev is None:
            survivors[elems] = (1, lineage)
        else:
            survivors[elems] = (prev[0] + 1, min(prev[1], lineage))
    return survivors


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
    set (fixed_size_rounds=True switches to the m-subset model).  The
    schedule is computed non-strictly: at desk scale the total rate often
    exceeds 1, which only invalidates the size claim of the final union,
    not the execution; feasibility is recorded in the trace.
    """
    if q < h.r_bound:
        raise ValueError(f"q={q} < r={h.r_bound}")
    if kappa is None:
        kappa = max_spread(h).kappa
    sched = make_schedule(h.r_bound, kappa, gamma, C, strict=False)

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

        new_survivors, compatible, good = apply_round(survivors, wmap, sched.r_bounds[i])
        after = sum(mult for mult, _ in new_survivors.values())
        successful = after >= (1.0 - sched.delta) * before
        all_successful = all_successful and successful
        trace.rounds.append(
            RoundRecord(
                index=i,
                w_size=len(wmap),
                survivors_before=before,
                compatible=compatible,
                survivors_after=after,
                good_fraction=good / before if before else 0.0,
                successful=successful,
            )
        )
        survivors = new_survivors
        before = after
        for v, c in wmap.items():
            w_union[v] = c
        residual = [v for v in residual if v not in wmap]

    # endgame: a uniform Nrho-subset of the residual, randomly colored
    m_end = min(round_half_up(h.num_vertices * sched.rho), len(residual))
    chosen = [residual[j] for j in rng.sample_without_replacement(len(residual), m_end)]
    wend = {v: rng.randint(1, q) for v in chosen}
    hit = any(
        all(wend.get(v) == c for v, c in elems) for elems in sorted(survivors)
    )
    for v, c in wend.items():
        w_union[v] = c

    trace.endgame_w_size = len(wend)
    trace.endgame_hit = hit
    trace.final_survivors = sum(mult for mult, _ in survivors.values())
    trace.all_rounds_successful = all_successful
    trace.outcome_rainbow = (
        contains_rainbow_edge(h, ColoredSet.from_dict(w_union)) is not None
    )
    return trace
