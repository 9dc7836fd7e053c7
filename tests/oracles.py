"""Reference implementations that the library's fast paths must match.

Each one is the plain-Python form that a faster design in `src/`
replaced.  They favour obviousness over speed and are called only from
tests.

Fragmentation here works on the dict form of the fragment store:
{elements: (multiplicity, lineage)}, where elements is a tuple of
(vertex, color) sorted by vertex and lineage is any ordered value, in
round 1 the (base edge, colors) of the originating lifted edge.  A
store holds the same fragments as rows in ascending lineage, without
the lineages themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from rainbowspread._blocks import lift_block, psi, remainders
from rainbowspread.fragmentation import FragmentationTrace, FragmentStore, RoundRecord
from rainbowspread.lifting import LiftedEdge, lift_size
from rainbowspread.rng import round_half_up
from rainbowspread.sampling import sample_colored_m, sample_colored_p
from rainbowspread.spread import containment_count

# a fragment: (elements, multiplicity, lineage)
Fragment = tuple[tuple[tuple[int, int], ...], int, object]


def lift_rainbow(h, q: int, w: dict[int, int] | None = None) -> list[LiftedEdge]:
    """Every (edge, injective coloring) that agrees with w on the shared
    vertices, by base edge and then colors lexicographically."""
    w = w or {}
    out = []
    for i, e in enumerate(h.edges):
        for colors in permutations(range(1, q + 1), len(e)):
            if all(w.get(v, c) == c for v, c in zip(e, colors)):
                out.append(LiftedEdge(base=i, colors=colors))
    return out


def remainder_rows(h, q: int, w: dict[int, int], lifted: list[LiftedEdge]) -> list:
    """The lifted edges of the lift restricted to w in the rows of
    `_blocks.lift_block`: per edge, its base edge and the codes
    v*q + c - 1 of its elements on the vertices that w does not pin,
    ascending, padded to h.r_bound with N*q."""
    pad = h.num_vertices * q
    out = []
    for le in lifted:
        codes = sorted(v * q + c - 1 for v, c in zip(h.edges[le.base], le.colors) if v not in w)
        out.append((le.base, codes + [pad] * (h.r_bound - len(codes))))
    return out


# largest lift whose ordered pairs delta_pairs enumerates
PAIRS_LIFT_CAP = 3000


def delta_pairs(h, q: int, x: float) -> float:
    """Delta over every ordered pair (A, B) of lifted edges: x^(|A|+|B|-t)
    for each pair whose colored intersection has t >= 1 elements.  Each A
    is compared with every B at once, through a 0/1 element matrix."""
    size = lift_size(h, q)
    if size > PAIRS_LIFT_CAP:
        raise ValueError(f"lift has {size} edges, above the pair enumeration's {PAIRS_LIFT_CAP}")
    elements = [[v * q + c - 1 for v, c in le.elements(h)] for le in lift_rainbow(h, q)]
    inc = np.zeros((len(elements), h.num_vertices * q), dtype=np.int64)
    for row, cols in zip(inc, elements):
        row[cols] = 1
    sizes = inc.sum(axis=1)
    weight_counts = np.zeros(2 * h.r_bound + 1, dtype=np.int64)
    for cols in elements:
        t = inc[:, cols].sum(axis=1)  # elements of A in each B
        hit = t >= 1
        weight_counts += np.bincount(len(cols) + sizes[hit] - t[hit], minlength=len(weight_counts))
    return math.fsum(int(cnt) * x**expo for expo, cnt in enumerate(weight_counts) if cnt)


def _candidates(h) -> list[tuple[int, ...]]:
    """Every distinct nonempty edge subset, sorted."""
    return sorted({s for e in h.edges for k in range(1, len(e) + 1) for s in combinations(e, k)})


def spread_witness(h) -> tuple[tuple[int, ...], int]:
    """(S, count) minimizing (|H|/count(S))^(1/|S|), the lexicographically
    smallest S on ties; counts rescanned per candidate, compared as
    rationals: (m/c)^(1/s) < (m/c')^(1/s') iff (m/c)^s' < (m/c')^s."""
    m = len(h.edges)
    best, best_cnt = None, 0
    for s in _candidates(h):
        cnt = containment_count(h, s)
        if best is None or Fraction(m, cnt) ** len(best) < Fraction(m, best_cnt) ** len(s):
            best, best_cnt = s, cnt
    return best, best_cnt


def spread_violator(h, kappa: float):
    """The lexicographically smallest S with count(S) kappa^|S| > |H|, or None."""
    exact = Fraction(kappa)
    return next(
        (s for s in _candidates(h) if containment_count(h, s) * exact ** len(s) > len(h.edges)), None
    )


def scalar_times(pool, trials: int) -> tuple[list[int], list[int]]:
    """(colored, uncolored) hit times of the pool's first trials, one at a
    time and without the library's kernels: trial t's stream draws a
    permutation and then one color per vertex, and an edge is inside the
    first m vertices from m = its last position + 1 on."""
    n, colored, uncolored = pool.n, [], []
    for t in range(trials):
        s = pool.rng.child(t)
        pos = {v: i for i, v in enumerate(s.permutation(n))}
        color = [s.randint(1, pool.q) for _ in range(n)]
        edges = [(max(pos[v] for v in e) + 1, len({color[v] for v in e}) == len(e)) for e in pool.h.edges]
        colored.append(min((m for m, rainbow in edges if rainbow), default=n + 1))
        uncolored.append(min((m for m, _ in edges), default=n + 1))
    return colored, uncolored


def uncover_by_states(g, q: int, alpha: float) -> float:
    """Pr(no rainbow edge of g in the colored alpha-sample): one product of
    vertex probabilities per uncovered state of the (q+1)^N."""
    total = 0.0
    for states in product(range(q + 1), repeat=g.num_vertices):
        w = {v: c for v, c in enumerate(states) if c}
        if not any(all(v in w for v in e) and len({w[v] for v in e}) == len(e) for e in g.edges):
            total += math.prod(alpha / q if c else 1.0 - alpha for c in states)
    return total


def hit_curves(h, q: int) -> tuple[list[Fraction], list[Fraction]]:
    """(rainbow, cover): for m = 0..N, the exact chance that a uniform
    m-subset of the vertices, each given a uniform color from [q], holds
    a rainbow edge, and that the m-subset holds an edge at all.  These are
    P(T <= m) for the coupled trials' colored and uncolored hit times T.

    Every one of the (q+1)^N states (0 = unsampled) with k colored
    vertices is one equally likely outcome of a k-sample, so the rainbow
    curve is 1 - U_k / (C(N, k) q^k), U_k counting the uncovered states;
    the cover curve counts the k-subsets that hold no edge."""
    n = h.num_vertices
    uncovered, empty = [0] * (n + 1), [0] * (n + 1)
    for states in product(range(q + 1), repeat=n):
        w = {v: c for v, c in enumerate(states) if c}
        if not any(all(v in w for v in e) and len({w[v] for v in e}) == len(e) for e in h.edges):
            uncovered[len(w)] += 1
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            empty[k] += not any(set(e) <= set(subset) for e in h.edges)
    rainbow = [1 - Fraction(uncovered[k], math.comb(n, k) * q**k) for k in range(n + 1)]
    cover = [1 - Fraction(empty[k], math.comb(n, k)) for k in range(n + 1)]
    return rainbow, cover


def initial_survivors(h, q: int, wmap: dict[int, int]) -> dict:
    """The lift restricted to wmap, merged by element set; the lineage of
    a merged set is the least (base, colors) among its lifted edges."""
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


def psi_round(fragments: list[Fragment], wmap: dict[int, int], order: str | None = None):
    """The psi/chi minimization for one sampled colored set.

    One entry per fragment: None when it clashes with the sample, else
    (chosen remainder, its lineage), the smallest compatible remainder
    inside the fragment's own, ties broken by lineage.  Two equivalent
    search orders: "subsets" looks up every subset of the remainder by
    size, "candidates" scans the indexed remainders by (size, lineage);
    None picks the cheaper one per fragment.
    """
    compat = []
    remainders = []
    for elems, mult, lineage in fragments:
        clash = any(wmap.get(v, c) != c for v, c in elems)
        compat.append(not clash)
        remainders.append(None if clash else tuple((v, c) for v, c in elems if v not in wmap))

    # every compatible remainder -> (size, least lineage)
    by_remainder: dict[tuple, tuple[int, object]] = {}
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
        use = order or ("subsets" if 2 ** len(rem) <= len(by_remainder) * max(1, len(rem)) else "candidates")
        if use == "subsets":
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
            results.append(best)
        else:
            rem_set = set(rem)
            for size, lin, cand in candidates:
                if rem_set.issuperset(cand):
                    results.append((cand, lin))
                    break
    return results


def apply_round(survivors: dict, wmap: dict[int, int], r_i: float, order: str | None = None):
    """One round on the dict form: (new survivors, compatible, good)."""
    fragments = [(elems, mult, lin) for elems, (mult, lin) in sorted(survivors.items())]
    picks = psi_round(fragments, wmap, order)

    new_survivors: dict[tuple, tuple[int, object]] = {}
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


def endgame_hit(survivors: dict, wmap: dict[int, int]) -> bool:
    return any(all(wmap.get(v) == c for v, c in elems) for elems in survivors)


def fragmentation_trace(h, sched, rng) -> FragmentationTrace:
    """One run, seed by seed: round i draws its sample from the residual,
    then runs the dict-form round, full psi on every round, an empty
    sample's too; the endgame samples the residual, and the outcome is a
    scan of the edges for one that the union covers in distinct colors."""
    residual = list(range(h.num_vertices))
    w_union: dict[int, int] = {}
    rounds = []
    before = sched.lift_size
    for i in range(1, sched.ell + 1):
        sample = sample_colored_p(len(residual), sched.p, sched.q, rng)
        wmap = {residual[j]: c for j, c in sample.items()}
        if i == 1:
            survivors = initial_survivors(h, sched.q, wmap)
        survivors, compatible, after = apply_round(survivors, wmap, (1.0 - sched.gamma) ** i * sched.r)
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
    m_end = min(round_half_up(h.num_vertices * sched.rho), len(residual))
    sample = sample_colored_m(len(residual), m_end, sched.q, rng)
    wend = {residual[j]: c for j, c in sample.items()}
    w_union.update(wend)
    return FragmentationTrace(
        seed=rng.master_seed,
        stream_id=rng.stream_id,
        schedule=sched,
        rounds=rounds,
        endgame_w_size=len(wend),
        endgame_hit=endgame_hit(survivors, wend),
        outcome_rainbow=any(
            all(v in w_union for v in e) and len({w_union[v] for v in e}) == len(e) for e in h.edges
        ),
        all_rounds_successful=all(rec.successful for rec in rounds),
        final_survivors=before,
    )


# adapters between the dict form and `FragmentStore`


def by_lineage(survivors: dict) -> list:
    """The dict's fragments as (elements, multiplicity), in ascending
    lineage: the rows a store of them holds, in its order."""
    return [(elems, mult) for elems, (mult, _) in sorted(survivors.items(), key=lambda item: item[1][1])]


def merged(rows: list) -> list:
    """(elements, multiplicity) rows with equal elements merged, their
    multiplicities added, in the order the elements first appear."""
    out: dict[tuple, int] = {}
    for elems, mult in rows:
        out[elems] = out.get(elems, 0) + mult
    return list(out.items())


def store_from_dicts(seeds: list[dict], num_vertices: int, q: int, width: int) -> FragmentStore:
    """A store of one seed per dict, seed i holding the fragments of
    seeds[i]; the lineages of one dict must be distinct."""
    rows = [(i, elems, mult) for i, survivors in enumerate(seeds) for elems, mult in by_lineage(survivors)]
    pad = num_vertices * q
    codes = np.full((len(rows), width), pad, dtype=np.int64)
    for row, (_, elems, _) in zip(codes, rows):
        row[: len(elems)] = [v * q + c - 1 for v, c in elems]
    seed = np.array([i for i, _, _ in rows], dtype=np.int64)
    mult = np.array([mult for _, _, mult in rows], dtype=np.int64)
    lengths = np.array([len(elems) for _, elems, _ in rows], dtype=np.int64)
    return FragmentStore(codes, mult, seed, len(seeds), q, pad, lengths)


def block_rows(h, q: int, w: dict[int, int]) -> list:
    """`_blocks.lift_block` on the one coloring w, in the form of
    `remainder_rows`; each row's length must be its count of codes."""
    codes, lengths, base, _ = lift_block(h, q, [w], 1, "rows")
    assert lengths.tolist() == (codes < h.num_vertices * q).sum(axis=1).tolist()
    return list(zip(base.tolist(), codes.tolist()))


def _elements(store: FragmentStore, row) -> tuple:
    return tuple((int(c) // store.q, int(c) % store.q + 1) for c in row if c < store.pad)


def store_rows(store: FragmentStore) -> list:
    """The store's rows as (elements, multiplicity), in its order."""
    return [(_elements(store, row), int(mult)) for row, mult in zip(store.codes, store.mult)]


def store_picks(store: FragmentStore, wmap: dict[int, int]) -> list:
    """`_blocks.psi` on a store of one seed in `psi_round`'s form, one
    entry per store row, with the store row that the chosen remainder
    comes from in place of its lineage."""
    compat, rem, lengths = remainders(store, [wmap])
    src = psi(rem, lengths, store.seed[compat], store.q, store.pad)
    rows = np.flatnonzero(compat)
    picks = iter(src.tolist())
    out = []
    for ok in compat.tolist():
        chosen = next(picks) if ok else None
        out.append(None if chosen is None else (_elements(store, rem[chosen]), int(rows[chosen])))
    return out
