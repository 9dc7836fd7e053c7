"""The fast paths against their references in oracles.py, on random small
multiset hypergraphs with mixed edge sizes and repeated edges."""

import json
import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rainbowspread import _blocks, fragmentation, limits
from rainbowspread.fragmentation import apply_round, endgame_hit, initial_survivors, make_schedule, run_fragmentation
from rainbowspread.generators import gen_hamilton
from rainbowspread.hypergraph import Hypergraph
from rainbowspread.lifting import lift_rainbow, lift_size
from rainbowspread.moments import chebyshev_report, exact_uncover_probability, janson_delta_exact
from rainbowspread.rng import RngStream
from rainbowspread.sampling import contains_rainbow_edge, sample_colored_p
from rainbowspread.spread import is_kappa_spread, max_spread, pad_to_uniform, rank_tables
from rainbowspread.threshold import TrialPool


@st.composite
def instances(draw, min_r=1, max_n=7):
    """(hypergraph, q): up to 6 distinct edges of sizes 1-4 on up to max_n
    vertices, some of them repeated, and q from r_bound to r_bound + 2."""
    n = draw(st.integers(4, max_n))
    edge = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=6))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    r = max(min_r, max(len(e) for e in edges))
    h = Hypergraph.from_edges(n, edges, r_bound=r)
    return h, draw(st.integers(r, r + 2))


def block_elements():
    """One row per block, a few rows per block, or the default."""
    return st.sampled_from([1, 100, limits.BLOCK_ELEMENTS])


def colorings(h, q):
    # a color of q + 1 lies outside [1, q]: it clashes with every element on its vertex
    return st.dictionaries(st.integers(0, h.num_vertices - 1), st.integers(1, q + 1), max_size=h.num_vertices)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lift_matches_oracle(data):
    h, q = data.draw(instances())
    w = data.draw(colorings(h, q))
    expected = oracles.lift_rainbow(h, q, w)
    assert oracles.block_rows(h, q, w) == oracles.remainder_rows(h, q, w, expected)
    assert _blocks.lift_groups(h, q, [w])[1] == [len(expected)]
    assert lift_rainbow(h, q) == oracles.lift_rainbow(h, q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rounds_match_oracle(data):
    # round 1 from its restricted lift, then further rounds, on the store
    # and on the dict form; both search orders of the reference agree.
    # Small blocks split the psi search of one remainder length.
    h, q = data.draw(instances())
    samples = data.draw(st.lists(colorings(h, q), min_size=1, max_size=4))
    bounds = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), min_size=4, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        store = initial_survivors(h, q, [samples[0]])
        expected = oracles.initial_survivors(h, q, samples[0])
        # the store holds the restricted lift less the sampled elements: the
        # lifted edges of one remainder give equal rows, which round 1 merges
        w = samples[0]
        unpinned = [(tuple(e for e in elems if e[0] not in w), mult) for elems, mult in oracles.by_lineage(expected)]
        assert oracles.merged(oracles.store_rows(store)) == oracles.merged(unpinned)
        for wmap, r_i in zip(samples, bounds):
            reference = oracles.apply_round(expected, wmap, r_i)
            assert oracles.apply_round(expected, wmap, r_i, order="subsets") == reference
            assert oracles.apply_round(expected, wmap, r_i, order="candidates") == reference
            store, compatible, good = apply_round(store, [wmap], r_i)
            expected = reference[0]
            assert [compatible.tolist(), good.tolist()] == [[count] for count in reference[1:]]
            assert oracles.store_rows(store) == oracles.by_lineage(expected)
    wend = data.draw(colorings(h, q))
    assert endgame_hit(store, [wend]).tolist() == [oracles.endgame_hit(expected, wend)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_traces_match_oracle(data):
    # whole runs of a range of streams, in blocks of seeds, against the
    # per-seed reference loop; small blocks split both the range and psi's
    # searches, and C = 2 samples more, often a rainbow edge in round 1
    h, q = data.draw(instances(min_r=3))
    gamma, C = data.draw(st.sampled_from([0.1, 0.3, 0.5])), data.draw(st.sampled_from([1.0, 2.0]))
    seed, first = data.draw(st.integers(0, 2**32)), data.draw(st.integers(0, 50))
    streams = range(first, first + data.draw(st.integers(1, 6)))
    sched = make_schedule(h, q, max_spread(h).kappa, gamma, C)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        traces = run_fragmentation(h, sched, [RngStream(seed, sid) for sid in streams])
    assert [trace.serialize() for trace in traces] == [oracle_trace(h, sched, RngStream(seed, sid)) for sid in streams]


@pytest.mark.parametrize("q, empty", [(5, [5]), (7, [3, 8])])
def test_seed_blocks_match_the_seeds_one_by_one(monkeypatch, q, empty):
    # streams 0-11 of hc5 at gamma 0.3: round 1 of the seeds in `empty`
    # samples a rainbow edge, so their remainders include the empty one,
    # beside seeds whose remainders do not; in round 2 some seeds sample and
    # others do not.  Each block and group size gives the per-seed
    # reference's traces.
    h = gen_hamilton(5)
    sched = make_schedule(h, q, max_spread(h).kappa, 0.3, 1.0)
    streams = range(12)
    rainbow = [
        contains_rainbow_edge(h, sample_colored_p(h.num_vertices, sched.p, q, RngStream(0, sid))) is not None
        for sid in streams
    ]
    assert [sid for sid in streams if rainbow[sid]] == empty
    expected = [oracle_trace(h, sched, RngStream(0, sid)) for sid in streams]
    sampled = [json.loads(trace.splitlines()[2])["w_size"] > 0 for trace in expected]
    assert any(sampled) and not all(sampled)
    blocks, groups = record_stages(monkeypatch)
    assert run_fragmentation(h, sched, []) == [] and blocks == groups == []

    row_bytes = fragmentation.fragment_row_bytes(h.r_bound)
    first = [fragmentation._draw(h.num_vertices, sched, RngStream(0, sid)).rounds.get(1, {}) for sid in streams]
    rows = [max(1, n) for n in _blocks.lift_groups(h, q, first)[1]]

    def run():
        """The seeds of each block and the blocks of each group of one run,
        whose traces are the reference's, and in which each block (group)
        is one seed (block), or the most of the next ones that fit the cap."""
        blocks.clear()
        groups.clear()
        traces = run_fragmentation(h, sched, [RngStream(0, sid) for sid in streams])
        assert [trace.serialize() for trace in traces] == expected
        cap = min(limits.block_rows(row_bytes // 8), limits.MEMORY_BYTES // row_bytes)
        at = 0
        for size in blocks:
            assert size == 1 or sum(rows[at : at + size]) <= cap
            assert at + size == len(rows) or sum(rows[at : at + size + 1]) > cap
            at += size
        assert at == len(streams)
        stages = [stage for group in groups for stage in group]
        assert [seeds for seeds, _ in stages] == blocks
        at = 0
        for group in groups:
            held = sum(n for _, n in group)
            assert len(group) == 1 or held <= cap
            at += len(group)
            assert at == len(stages) or held + stages[at][1] > cap
        return list(blocks), [len(group) for group in groups]

    sizes = {}
    for elements in (1, 600, 6000, 60000, limits.BLOCK_ELEMENTS):
        monkeypatch.setattr(limits, "BLOCK_ELEMENTS", elements)
        sizes[elements] = run()
    # one seed a block and one block a group; one block and one group
    assert sizes.pop(1) == ([1] * len(streams), [1] * len(streams))
    assert sizes.pop(limits.BLOCK_ELEMENTS) == ([len(streams)], [1])
    # several blocks of several seeds, several blocks in one group, and
    # groups closed by rows beside one of several blocks
    assert any(len(seeds) > 1 and max(seeds) > 1 for seeds, _ in sizes.values())
    assert any(max(group) > 1 for _, group in sizes.values())
    assert any(len(group) > 1 and max(group) > 1 for _, group in sizes.values())

    # a byte budget between the largest seed's round-1 charge and the two
    # largest seeds' together: the run goes through in blocks and groups
    # that each fit it (a lone seed fits, as the budget holds the largest),
    # and at q=5 the first budget closes a group
    largest, second = sorted(rows, reverse=True)[:2]
    counts = []
    for budget in (largest * row_bytes, (largest + second) * row_bytes - 1):
        monkeypatch.setattr(limits, "MEMORY_BYTES", budget)
        counts.append(len(run()[1]))
    assert counts == ([2, 1] if q == 5 else [1, 1])


@pytest.mark.parametrize(
    "C, elements, blocks, groups",
    [
        # blocks closed by the seed bound
        (1.0, limits.BLOCK_ELEMENTS, [5, 5, 2], [[5], [5], [2]]),
        # blocks of one seed or five under a cap of 200 rows, and groups
        # closed by the seed bound: the first 3 seeds and the next 5 hold
        # 164 rows after round 1, within the cap
        (1.0, 4000, [1, 1, 1, 5, 1, 1, 2], [[1, 1, 1], [5], [1, 1, 2]]),
        # p = 1 under a cap of 3 rows: most round-1 lifts are empty, and
        # each seed counts as one row at least, in a block and in a group
        (2.0, 60, [3, 3, 3, 3], [[3], [3], [3], [3]]),
    ],
)
def test_stores_hold_the_seeds_whose_keys_fit_int64(monkeypatch, C, elements, blocks, groups):
    # 550 vertices at q=6 and r=6: a seed has M = sum_{j<=6} C(3300, j)
    # keys, so seed * M + key stays in int64 for 5 seeds a store
    h = Hypergraph.from_edges(550, [tuple(range(i, i + 6)) for i in range(0, 36, 3)])
    offsets, _ = rank_tables(550 * 6, 6)
    assert (2**63 - 1) // int(offsets[-1]) == 5
    sched = make_schedule(h, 6, max_spread(h).kappa, 0.3, C)
    streams = range(12)
    seen_blocks, seen_groups = record_stages(monkeypatch)
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", elements)
    traces = run_fragmentation(h, sched, [RngStream(0, sid) for sid in streams])
    assert [trace.serialize() for trace in traces] == [oracle_trace(h, sched, RngStream(0, sid)) for sid in streams]
    assert (seen_blocks, [[seeds for seeds, _ in group] for group in seen_groups]) == (blocks, groups)


def record_stages(monkeypatch):
    """Lists that collect, as a run goes, each round-1 block's seed count
    and each group's (seeds, rows) per block, a block's rows being its
    round-1 survivors or its seeds, if more."""
    blocks, groups = [], []
    round_one, later_rounds = fragmentation._round_one, fragmentation._later_rounds

    def record_block(h, sched, block):
        blocks.append(len(block))
        return round_one(h, sched, block)

    def record_group(h, sched, group):
        groups.append([(len(stage.draws), max(len(stage.store), len(stage.draws))) for stage in group])
        return later_rounds(h, sched, group)

    monkeypatch.setattr(fragmentation, "_round_one", record_block)
    monkeypatch.setattr(fragmentation, "_later_rounds", record_group)
    return blocks, groups


def test_later_rounds_run_once_per_group(monkeypatch):
    # streams 0-11 of hc5 at q=5 with 6000 block elements: round 1 runs in
    # two blocks, of 11 streams and 1, whose survivors join in one group;
    # so each later round, in all of which some stream samples, makes one
    # psi call over all twelve streams, not one per block
    h, q = gen_hamilton(5), 5
    sched = make_schedule(h, q, max_spread(h).kappa, 0.3, 1.0)
    streams = range(12)
    calls, apply = [], fragmentation.apply_round

    def record(survivors, wmaps, r_i):
        calls.append((r_i, survivors.seeds))
        return apply(survivors, wmaps, r_i)

    monkeypatch.setattr(fragmentation, "apply_round", record)
    monkeypatch.setattr(limits, "BLOCK_ELEMENTS", 6000)
    traces = run_fragmentation(h, sched, [RngStream(0, sid) for sid in streams])
    assert [trace.serialize() for trace in traces] == [oracle_trace(h, sched, RngStream(0, sid)) for sid in streams]
    r_1 = (1.0 - sched.gamma) * sched.r
    assert [seeds for r_i, seeds in calls if r_i == r_1] == [11, 1]
    assert [seeds for r_i, seeds in calls if r_i != r_1] == [len(streams)] * (sched.ell - 1)


def oracle_trace(h, sched, rng) -> str:
    """The serialized run of the per-seed reference loop."""
    return oracles.fragmentation_trace(h, sched, rng).serialize()


def test_round_one_runs_psi_on_an_empty_sample():
    # round 1 samples no vertex here, and its restricted lift holds the
    # triangle's colorings above the colorings of its sides: psi must
    # still shrink them to the sides, which fit r_1 = 2.1
    h = Hypergraph.from_edges(3, [(0, 1, 2), (0, 1), (1, 2), (0, 2), (0, 1, 2)])
    sched = make_schedule(h, 3, max_spread(h).kappa, 0.3, 1.0)
    trace = run_fragmentation(h, sched, [RngStream(0, 37)])[0]
    first = trace.rounds[0]
    assert (first.w_size, first.compatible, first.survivors_after) == (0, 30, 30)
    assert trace.serialize() == oracle_trace(h, sched, RngStream(0, 37))


def test_round_one_applies_no_sample(monkeypatch):
    # round 1's store holds its remainders already, so round 1 never
    # reaches the sample path: each of its `remainders` calls has empty
    # samples and gets the store back as it is; the later rounds and the
    # endgame still apply theirs
    h = gen_hamilton(5)
    sched = make_schedule(h, 5, max_spread(h).kappa, 0.3, 1.0)
    remainders, calls, stage = _blocks.remainders, [], ["later"]

    def recorded(store, wmaps):
        out = remainders(store, wmaps)
        calls.append((stage[0], store, wmaps, out))
        return out

    def staged(name, run):
        def wrapped(*args):
            stage[0] = name
            try:
                return run(*args)
            finally:
                stage[0] = "later"
        return wrapped

    monkeypatch.setattr(_blocks, "remainders", recorded)
    monkeypatch.setattr(fragmentation, "_round_one", staged("round 1", fragmentation._round_one))
    monkeypatch.setattr(fragmentation, "endgame_hit", staged("endgame", fragmentation.endgame_hit))
    streams = range(6)
    traces = run_fragmentation(h, sched, [RngStream(0, sid) for sid in streams])
    assert [trace.serialize() for trace in traces] == [oracle_trace(h, sched, RngStream(0, sid)) for sid in streams]
    assert all(trace.rounds[0].w_size for trace in traces)
    firsts = [(store, wmaps, out) for name, store, wmaps, out in calls if name == "round 1"]
    assert firsts
    for store, wmaps, (compat, rem, lengths) in firsts:
        assert not any(wmaps) and compat.all() and rem is store.codes and lengths is store.lengths
    sampled = {name for name, _, wmaps, _ in calls if any(wmaps)}
    assert sampled == {"later", "endgame"}


def test_rounds_stop_at_an_empty_residual(monkeypatch):
    # at gamma 1e-3 hc5's 10 vertices are all sampled within a few of its
    # 1,371 rounds; the reference samples every round, and the run makes no
    # sampler call on an empty residual, yet gives the same traces
    h = gen_hamilton(5)
    sched = make_schedule(h, 5, max_spread(h).kappa, 1e-3, 1.0)
    calls = []
    sample = fragmentation.sample_colored_p
    monkeypatch.setattr(fragmentation, "sample_colored_p", lambda n, *args: calls.append(n) or sample(n, *args))
    streams = range(4)
    traces = run_fragmentation(h, sched, [RngStream(0, sid) for sid in streams])
    assert [trace.serialize() for trace in traces] == [oracle_trace(h, sched, RngStream(0, sid)) for sid in streams]
    assert all(sum(r.w_size for r in trace.rounds) == h.num_vertices for trace in traces)
    assert 0 not in calls and len(calls) < 10 * len(streams) < sched.ell


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_matches_oracle(data):
    # Delta of h padded to r-uniform, and the endgame sum of h itself, which
    # counts h as padded without building the padding
    h, q = data.draw(instances())
    g = pad_to_uniform(h)
    assume(lift_size(g, q) <= oracles.PAIRS_LIFT_CAP)
    p = data.draw(st.floats(0.0, 1.0))
    assert math.isclose(janson_delta_exact(g, q, p), oracles.delta_pairs(g, q, 1.0 - p), rel_tol=1e-10)
    alpha = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    delta = chebyshev_report(h, q, alpha).delta
    assert math.isclose(delta, oracles.delta_pairs(g, q, alpha / q), rel_tol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spread_matches_oracle(data):
    h, _ = data.draw(instances())
    # vertex ids past 63, up to N = 70, as well as the small ones
    shift = data.draw(st.sampled_from([0, 63]))
    h = Hypergraph.from_edges(h.num_vertices + shift, [[v + shift for v in e] for e in h.edges], h.r_bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        cert = max_spread(h)
        witness, count = oracles.spread_witness(h)
        assert (cert.witness, cert.containment_count) == (witness, count)
        # the float kappa is at most the exact value, and within rounding of it
        bound = Fraction(len(h.edges), count)
        assert Fraction(cert.kappa) ** len(witness) <= bound
        assert math.isclose(cert.kappa, float(bound) ** (1 / len(witness)), rel_tol=1e-12)
        for kappa in (cert.kappa, math.nextafter(cert.kappa, math.inf), data.draw(st.floats(0.5, 4.0))):
            assert is_kappa_spread(h, kappa) == oracles.spread_violator(h, kappa)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trial_blocks_match_scalar_trials(data):
    h, q = data.draw(instances())
    seed, trials = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 60))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "BLOCK_ELEMENTS", data.draw(block_elements()))
        pool = TrialPool(h, q, RngStream(seed))
        colored, uncolored = oracles.scalar_times(pool, trials)
        assert pool.colored_times(trials).tolist() == colored
        assert pool.uncolored_times(trials).tolist() == uncolored


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_uncover_matches_oracle(data):
    h, q = data.draw(instances(max_n=5))  # at most 7^5 vertex states
    alpha = data.draw(st.floats(0.0, 1.0))
    want = oracles.uncover_by_states(h, q, alpha)
    assert math.isclose(exact_uncover_probability(h, q, alpha), want, rel_tol=1e-12, abs_tol=1e-15)
