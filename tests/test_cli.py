"""End-to-end CLI behavior: exit codes, reproducible outputs, bad inputs."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rainbowspread import _kernels, cli
from rainbowspread.cli import main
from rainbowspread.errors import RainbowSpreadError
from rainbowspread.fragmentation import KeyWidthExceeded
from rainbowspread.generators import GeneratorError, gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError, write_hypergraph
from rainbowspread.lifting import ChromaticityError, LiftCapExceeded
from rainbowspread.spread import EnumerationCapExceeded
from rainbowspread.threshold import ThresholdUnreachable, TrialPool


@pytest.fixture()
def hc5_path(tmp_path):
    path = tmp_path / "hc5.json"
    write_hypergraph(gen_hamilton(5), str(path))
    return str(path)


def _single_error(capsys, message):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_spread_ok_and_check(hc5_path, capsys):
    assert main(["spread", hc5_path]) == 0
    out = capsys.readouterr().out
    assert "kappa =" in out and "witness =" in out

    assert main(["spread", hc5_path, "--check-kappa", "1.01"]) == 0
    assert main(["spread", hc5_path, "--check-kappa", "50"]) == 2
    out = capsys.readouterr().out
    assert "violating S" in out


@pytest.mark.parametrize("argv", [
    ["spread", "{h}", "--check-kappa", "nan"],
    ["spread", "{h}", "--check-kappa", "inf"],
    ["moments", "{h}", "--janson", "--q", "5", "--kappa", "nan"],
])
def test_non_finite_kappa_rejected(hc5_path, capsys, argv):
    assert main([a.format(h=hc5_path) for a in argv]) == 1
    _single_error(capsys, "kappa must be positive and finite")


def test_generate_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert main(["generate", "hamilton:n=6", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "generated edges = 60" in text
    assert out.exists()
    assert main(["spread", str(out)]) == 0


def test_generate_bad_spec():
    assert main(["generate", "hamilton:n=banana"]) == 1
    assert main(["generate", "nosuchkind:n=5"]) == 1


def test_moments_janson(hc5_path, tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main([
        "moments", hc5_path, "--janson", "--q", "5", "--p", "0.2",
        "--out", str(out), "--human",
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["tool"] == "rainbowspread"
    report = json.loads(lines[1])
    assert report["checks"]["delta_le_intermediate"] is True
    human = capsys.readouterr().out
    assert "mu" in human and "pass" in human


def test_moments_janson_accepts_own_kappa(tmp_path):
    # max_spread's kappa for pm(6,3) must pass the spread check it feeds
    path = tmp_path / "pm63.json"
    write_hypergraph(gen_perfect_matching(6, 3), str(path))
    out = tmp_path / "m.json"
    rc = main(["moments", str(path), "--janson", "--q", "3", "--p", "0.05", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text().split("\n")[1])["checks"]["delta_le_intermediate"] is True


def test_moments_chebyshev(hc5_path, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["moments", hc5_path, "--chebyshev", "--q", "5", "--alpha", "0.5",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text().strip().split("\n")[1])
    assert "chebyshev_zero_bound" in report["chain_bounds"]


def test_threshold_and_sweep_reproducible(hc5_path, tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    # the hit rate for this instance saturates around 0.33, so aim lower
    argv = [
        "threshold", "--hypergraph", hc5_path, "--q", "5", "--trials", "400",
        "--target", "0.2", "--m-list", "3,4,5", "--seed", "12",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[1] == "m,hits,trials,p_hat,ci_lo,ci_hi,uncolored_hits"
    tail = json.loads(lines[-1])
    assert 1 <= tail["m_star"] <= 10


def test_threshold_outputs_frozen(tmp_path, monkeypatch):
    # sha256 of these outputs as the one-trial-at-a-time engine wrote them;
    # relative paths, since the header echoes the --hypergraph argument
    monkeypatch.chdir(tmp_path)
    write_hypergraph(gen_hamilton(5), "hc5.json")
    mixed = [(0, 1), (1, 2, 3), (2, 5, 7, 8), (0, 4, 6), (1, 2, 3), (4, 8), (3, 6)]
    write_hypergraph(Hypergraph.from_edges(9, mixed), "mixed.json")
    runs = [
        (["--hypergraph", "hc5.json", "--q", "5", "--target", "0.1", "--trials", "400"], (0, 1, 2)),
        (["--hypergraph", "hc5.json", "--q", "5", "--target", "0.2", "--trials", "400",
          "--m-list", "3,5,8,10"], (0, 1, 2)),
        (["--hypergraph", "mixed.json", "--q", "4", "--trials", "300", "--m-list", "2,4,9"], (0, 1)),
    ]
    digest = hashlib.sha256()
    for argv, seeds in runs:
        for seed in seeds:
            assert main(["threshold", *argv, "--seed", str(seed), "--out", "out.txt"]) == 0
            digest.update((tmp_path / "out.txt").read_bytes())
    assert digest.hexdigest() == "9bef53090e477275f84c2da23df977a6d41c842f07fac811be3a67564894c194"


def test_threshold_m_list_computes_each_trial_once(hc5_path, monkeypatch):
    computed = {}
    for name in ("rainbow_hit_time", "cover_hit_time"):
        kernel = getattr(_kernels, name)

        def counting(*args, kernel=kernel, name=name):
            times = kernel(*args)
            computed[name] = computed.get(name, 0) + np.size(times)
            return times

        monkeypatch.setattr(_kernels, name, counting)
    argv = ["threshold", "--hypergraph", hc5_path, "--q", "5", "--trials", "500",
            "--target", "0.2", "--m-list", "3,5"]
    assert main(argv) == 0
    assert computed == {"rainbow_hit_time": 500, "cover_hit_time": 500}


def test_threshold_unreachable_exit(hc5_path):
    rc = main(["threshold", "--hypergraph", hc5_path, "--q", "1",
               "--trials", "100"])
    assert rc == 1


@pytest.mark.parametrize("extra,message", [
    (["--trials", "0"], "trials must be positive"),
    (["--trials", "-5"], "trials must be positive"),
    (["--trials", "0", "--m-list", "3,5"], "trials must be positive"),
    (["--target", "0"], "target must be in (0, 1]"),
    (["--target", "1.5"], "target must be in (0, 1]"),
    # a second --hypergraph replaces the first
    (["--hypergraph", "edgeless.json"], "hypergraph has no edges"),
])
def test_threshold_rejects_bad_trials_and_target(hc5_path, tmp_path, monkeypatch, capsys,
                                                  extra, message):
    write_hypergraph(Hypergraph(5, (), 2), str(tmp_path / "edgeless.json"))
    monkeypatch.chdir(tmp_path)
    rc = main(["threshold", "--hypergraph", hc5_path, "--q", "5", *extra])
    assert rc == 1
    _single_error(capsys, message)


@pytest.mark.parametrize("edges,m_list,message", [
    ((), "2,3", "hypergraph has no edges"),
    (((0, 1),), "3,2", "--m-list must be sorted"),
])
def test_threshold_validates_before_trials(tmp_path, monkeypatch, capsys, edges, m_list, message):
    path = tmp_path / "h.json"
    write_hypergraph(Hypergraph(5, edges, 2), str(path))

    def no_trial(self, trials):
        raise AssertionError("trial drawn before the input was validated")

    monkeypatch.setattr(TrialPool, "ensure", no_trial)
    assert main(["threshold", "--hypergraph", str(path), "--q", "3", "--m-list", m_list]) == 1
    _single_error(capsys, message)


def test_fragment_rejects_reversed_seed_range(hc5_path, tmp_path, capsys):
    out = tmp_path / "f.txt"
    rc = main(["fragment", "--hypergraph", hc5_path, "--q", "5",
               "--seeds", "5:3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --seeds 5:3")
    assert not out.exists()


@pytest.mark.parametrize("C", ["nan", "inf"])
def test_fragment_rejects_non_finite_C(hc5_path, tmp_path, capsys, C):
    out = tmp_path / "f.txt"
    assert main(["fragment", "--hypergraph", hc5_path, "--q", "5", "--C", C, "--out", str(out)]) == 1
    _single_error(capsys, "need kappa > 0 and a finite C >= 1")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["moments", "{hc5}", "--janson", "--q", "5", "--p", "1.5"],
    ["moments", "{hc5}", "--janson", "--q", "5", "--p", "-0.5"],
    ["moments", "{hc5}", "--janson", "--q", "5", "--p", "nan"],
    ["sample", "--model", "binomial-p", "--n", "10", "--p", "nan"],
    ["sample", "--model", "colored-p", "--n", "10", "--q", "3", "--p", "nan"],
    ["sample", "--model", "colored-p", "--n", "10", "--q", "3", "--p", "1.5"],
    ["sample", "--model", "lifted-p", "--n", "10", "--q", "3", "--p", "nan"],
    ["sample", "--model", "lifted-p", "--n", "10", "--q", "0", "--p", "0.5"],
])
def test_probability_out_of_range_rejected(hc5_path, tmp_path, capsys, argv):
    out = tmp_path / "o.txt"
    argv = [hc5_path if a == "{hc5}" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    _single_error(capsys, "need q >= 1 and 0 <= p <= q" if "lifted-p" in argv else "p must be in [0, 1]")
    assert not out.exists()


def test_fragment_lift_over_cap(tmp_path, capsys):
    # pm(8,2) at q=40: round 1's restricted lift has 94,394,734 edges, above the cap
    path = tmp_path / "pm82.json"
    write_hypergraph(gen_perfect_matching(8, 2), str(path))
    assert main(["fragment", "--hypergraph", str(path), "--q", "40"]) == 1
    _single_error(capsys, "lift has 94394734 edges")


def test_fragment_lift_cap_before_allocation(tmp_path, capsys):
    # hc7 at q=9: round 1's restricted lift has 14,459,760 edges, about
    # 0.8 GB as code rows; the cap stops the run before any of it exists
    path = tmp_path / "hc7.json"
    write_hypergraph(gen_hamilton(7), str(path))
    tracemalloc.start()
    try:
        rc = main(["fragment", "--hypergraph", str(path), "--q", "9", "--seeds", "0:1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    _single_error(capsys, "lift has 14459760 edges, above cap 2000000; use a smaller --q or a smaller hypergraph")
    assert peak < 64 * 2**20


def test_fragment_key_width_is_one_error_line(tmp_path, capsys):
    # 100 vertices at q=7 give 701^7 keys of 7 codes, beyond int64
    path = tmp_path / "wide.json"
    write_hypergraph(Hypergraph.from_edges(100, [range(7)]), str(path))
    assert main(["fragment", "--hypergraph", str(path), "--q", "7"]) == 1
    _single_error(capsys, "fragment keys need (N*q + 1)^r = 701^7 values, above int64")


def test_fragment_full_lift_over_cap_runs(hc5_path, tmp_path):
    # hc5 at q=20 lifts to 22,325,760 edges; only round 1's restricted lift is built
    out = tmp_path / "f.txt"
    argv = ["fragment", "--hypergraph", hc5_path, "--q", "20", "--seeds", "0:4", "--out", str(out)]
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    heads = [rec for rec in records if "lift_size" in rec]
    assert len(heads) == 5 and all(rec["lift_size"] == 22325760 for rec in heads)


def test_fragment_reproducible(hc5_path, tmp_path):
    out_a = tmp_path / "fa.txt"
    out_b = tmp_path / "fb.txt"
    argv = ["fragment", "--hypergraph", hc5_path, "--q", "5",
            "--seeds", "0:4", "--seed", "3"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    for line in lines:
        json.loads(line)


def test_sample_models(tmp_path):
    out = tmp_path / "s.txt"
    rc = main(["sample", "--model", "colored-m", "--n", "10", "--m", "4",
               "--q", "3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        v, c = map(int, line.split())
        assert 0 <= v < 10 and 1 <= c <= 3

    rc = main(["sample", "--model", "uniform-m", "--n", "5", "--m", "9"])
    assert rc == 1  # m > n


def test_seed_env_fallback(tmp_path, monkeypatch):
    out_a = tmp_path / "ea.txt"
    out_b = tmp_path / "eb.txt"
    monkeypatch.setenv("RAINBOWSPREAD_SEED", "77")
    main(["sample", "--model", "uniform-m", "--n", "20", "--m", "5",
          "--out", str(out_a)])
    header = json.loads(out_a.read_text().split("\n")[0])
    assert header["seed"] == 77
    # explicit flag wins over the environment
    main(["sample", "--model", "uniform-m", "--n", "20", "--m", "5",
          "--seed", "9", "--out", str(out_b)])
    assert json.loads(out_b.read_text().split("\n")[0])["seed"] == 9


def test_library_errors_share_one_base():
    for cls, builtin in [
        (HypergraphError, ValueError), (GeneratorError, ValueError), (ChromaticityError, ValueError),
        (ThresholdUnreachable, RuntimeError),
        (EnumerationCapExceeded, RuntimeError), (LiftCapExceeded, RuntimeError),
        (KeyWidthExceeded, RuntimeError),
    ]:
        assert issubclass(cls, RainbowSpreadError) and issubclass(cls, builtin)


def test_benchmark_hook_sites_exist():
    # perfbench/traced_cli.py imports the CLI, then installs the tracer,
    # which wraps functions by name in every module that binds them
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, tracer\n"
        "from rainbowspread import cli\n"
        "print(json.dumps(tracer.install(tracer.Recorder())))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_library_error_is_one_error_line(hc5_path, monkeypatch, capsys):
    def fail(path):
        raise RainbowSpreadError("no such instance")

    monkeypatch.setattr(cli, "read_hypergraph", fail)
    assert main(["spread", hc5_path]) == 1
    _single_error(capsys, "no such instance")


def test_malformed_hypergraph_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spread", str(bad)]) == 1
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"format": "other"}))
    assert main(["spread", str(worse)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["spread", str(missing)]) == 1
