"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

The seed-state test runs one traced pass of every workload (about a
minute on two cores).
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def test_self_times_on_synthetic_tree():
    spans = [
        ("root", None, 0, 100),
        ("a", 0, 10, 40),
        ("a1", 1, 15, 25),
        ("b", 0, 50, 90),
        ("b1", 3, 55, 70),
        ("b2", 3, 60, 80),  # overlaps b1: the union 55..80 is covered once
        ("a", 0, 92, 97),
        ("c", 6, 95, 99),  # runs past its parent: only 95..97 counts
    ]
    got = tracer.self_times(spans)
    assert got["root"] == (100 - 30 - 40 - 5, 1)
    assert got["a"] == ((30 - 10) + (5 - 2), 2)
    assert got["a1"] == (10, 1)
    assert got["b"] == (40 - 25, 1)
    assert got["b1"] == (15, 1)
    assert got["b2"] == (20, 1)
    assert got["c"] == (4, 1)


def test_recorder_spans_nest_and_count_rng_draws(lib):
    from rainbowspread.rng import RngStream

    rec = tracer.Recorder()
    outer = rec.wrap("x.outer", lambda f: f())
    inner = rec.wrap("x.inner", lambda: time.sleep(0.001))
    perm = rec.wrap_rng("rng.permutation", RngStream.permutation)
    outer(inner)
    perm(RngStream(1), 10)
    names = [rec.names[s[0]] for s in rec.spans]
    assert names == ["x.outer", "x.inner", "rng.permutation"]
    assert rec.spans[1][1] == 0 and rec.spans[0][1] == -1
    assert rec.counts["rng.draws"] >= 9  # one randrange per Fisher-Yates step, rejections add more


def test_speed_probe_scale_uses_the_window_or_the_nearest_samples():
    probe = run.SpeedProbe()
    ref = run.PROBE_REF_S
    probe.samples = [(t, ref * f) for t, f in [(0, 1.0), (10, 2.0), (20, 2.0), (30, 2.0), (40, 1.0), (50, 4.0)]]
    assert probe.scale(5, 35) == pytest.approx(0.5)  # three samples inside
    assert probe.scale(44, 46) == pytest.approx(3 / 7)  # nearest three: 40, 50, 30


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (9, 0)
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(100))) == (90, 89)


def test_metric_printout_parses_and_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in wl.WORKLOADS.values()]

    record = {
        "correct": True,
        "attempted": 6,
        "failed": 2,
        "trace": 0,
        "wall_samples": [1.0, 3.0, 2.0],
        "setup_samples": [0.2, 0.1, 0.3],
        "peak_rss_mb": 40.5,
    }
    line = json.loads(json.dumps(run.contract_line(record)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        "wall_s": {"value": 2.0, "unit": "s"},
        "setup_s": {"value": 0.2, "unit": "s"},
        "peak_rss_mb": {"value": 40.5, "unit": "MB"},
    }
    record.update(trace=1, per_layer={k: 1 for k in run.PER_LAYER})
    line = json.loads(json.dumps(run.contract_line(record)))
    assert set(line["metrics"]) == set(run.PER_LAYER)


def test_checks_reject_broken_outputs(lib):
    bench = run.Bench(wl.WORKLOADS["certify-hc7"], 5, time.monotonic() + 120)
    bench.setup()
    inv = bench.invocations[0]
    out = bench.run([sys.executable, "-m", "rainbowspread.cli", *inv.argv]).stdout
    h = bench.graphs[inv.input]
    assert inv.check(lib, out, h) == ([], {})
    broken = out.replace("containment_count = 1", "containment_count = 2")
    assert any("containment_count" in e for e in inv.check(lib, broken, h)[0])

    janson = bench.invocations[1]
    proc = bench.run([sys.executable, "-m", "rainbowspread.cli", *janson.argv])
    header, body = proc.stdout.splitlines()
    report = json.loads(body)
    report["mu"] *= 1.001
    errors, _ = janson.check(lib, header + "\n" + json.dumps(report) + "\n", h)
    assert any("mu" in e for e in errors)


def test_threshold_check_rejects_decreasing_hits(lib):
    h = lib.hypergraph.read_hypergraph(str(run.ROOT / wl.input_path("hc7")))
    rows = ["7,0,2000,0,0,0,0", "10,5,2000,0,0,0,5", "13,4,2000,0,0,0,3"]
    out = "\n".join(["{}", "m,hits,trials,p_hat,ci_lo,ci_hi,uncolored_hits", *rows, '{"m_star": 30}', "m_star"])
    errors, _ = wl.check_threshold(lib, out, h, 7, [7, 10, 13])
    assert any("decrease" in e for e in errors)
    assert any("uncolored_hits" in e for e in errors)
    assert any("m_star" in e for e in errors)


# seed-state figures of one traced pass per workload; certify runs
# max_spread and is_kappa_spread once in each of its three commands
SEED_STATE = {
    "threshold-hc7": {
        "threshold.trials_computed": 4000,
        "threshold.trial_reuse_ratio": 0.5,
        "spread.max_spread_calls": 1,
        "lifting.lift_rainbow_calls": 0,
        "moments.base_pairs": 0,
    },
    "fragment-hc6": {
        "lifting.lift_rainbow_calls": 20,
        "lifting.lifted_edges": 20 * 43200,
        "spread.max_spread_calls": 1,
        "threshold.trials_computed": 0,
    },
    "certify-hc7": {
        "spread.max_spread_calls": 3,
        "spread.is_kappa_spread_calls": 3,
        "moments.base_pairs": 360**2,
        "kernels.calls": 0,
    },
    "moments-hc8": {
        "moments.base_pairs": 6_350_400,
        "spread.max_spread_calls": 0,
        "kernels.calls": 0,
    },
}
KERNEL_CALLS = {"threshold-hc7": {"kernels.rainbow_hit_time": 4000, "kernels.cover_hit_time": 4000}}
FAILED = {"threshold-hc7": 0, "fragment-hc6": 0, "certify-hc7": 1, "moments-hc8": 0}


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_wrapper_is_hit_with_seed_state_counts(lib, workload):
    bench = run.Bench(wl.WORKLOADS[workload], 11, time.monotonic() + 160)
    bench.setup()
    res = bench.one_pass(traced=True)
    assert res.errors == []
    assert res.missing == set()
    assert (res.attempted, res.failed) == (len(bench.invocations), FAILED[workload])
    metrics = run.layer_metrics(res)
    for key, value in SEED_STATE[workload].items():
        assert metrics[key] == value, key
    calls = {name: n for name, (_, n) in tracer.self_times(res.spans).items()}
    for name, n in KERNEL_CALLS.get(workload, {}).items():
        assert calls[name] == n
    assert sum(metrics[k] for k in run.ACCOUNTED) == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert all(metrics[k] >= 0 for k in run.ACCOUNTED)
    if workload == "fragment-hc6":
        assert 0 < metrics["fragmentation.compatible_ratio"] < 1
        assert metrics["sampling.contains_rainbow_edge_s"] > 0
