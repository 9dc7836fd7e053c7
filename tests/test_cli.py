"""End-to-end CLI behavior: exit codes, reproducible outputs, bad inputs."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rainbowspread import _kernels, cli, limits, spread
from rainbowspread.cli import main
from rainbowspread.errors import RainbowSpreadError
from rainbowspread.generators import GeneratorError, gen_hamilton, gen_perfect_matching
from rainbowspread.hypergraph import Hypergraph, HypergraphError, write_hypergraph
from rainbowspread.lifting import ChromaticityError
from rainbowspread.limits import LimitExceeded
from rainbowspread.rng import RngStream
from rainbowspread.threshold import ThresholdUnreachable, TrialPool


# sha256 of the trace of `fragment hc7 --q 8 --gamma 0.3 --seeds 0:0`, after the header
HC7_Q8_SEED0 = "763c852011a7ee92ca6202f01fdb32341ac15d82e3ecf2904d9177cb393869fc"


@pytest.fixture()
def hc5_path(tmp_path):
    path = tmp_path / "hc5.json"
    write_hypergraph(gen_hamilton(5), str(path))
    return str(path)


def _single_error(capsys, message):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [[], ["spread"], ["threshold", "--hypergraph", "h.json", "--q", "x"],
                                  ["sample", "--model", "none", "--n", "3"]])
def test_argument_refusals_are_one_error_line(capsys, argv):
    # exit 2 means a requested check failed, so argparse refusals exit 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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
    ["spread", "{h}", "--check-kappa", "0"],
    ["spread", "{h}", "--check-kappa", "-2"],
    ["moments", "{h}", "--janson", "--q", "5", "--kappa=-inf"],
    ["moments", "{h}", "--chebyshev", "--q", "5", "--kappa", "nan"],
    ["moments", "{h}", "--chebyshev", "--q", "5", "--kappa", "inf"],
    ["moments", "{h}", "--chebyshev", "--q", "5", "--kappa", "0"],
])
def test_non_finite_kappa_rejected(hc5_path, tmp_path, monkeypatch, capsys, argv):
    def no_read(path):
        raise AssertionError("hypergraph read before kappa was checked")

    monkeypatch.setattr(cli, "read_hypergraph", no_read)
    out = tmp_path / "o.txt"
    extra = ["--out", str(out)] if argv[0] == "moments" else []
    assert main([a.format(h=hc5_path) for a in argv] + extra) == 1
    _single_error(capsys, "kappa must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("extra,message", [
    (["--p", "nan"], "p must be in [0, 1]"),
    (["--p", "1.5"], "p must be in [0, 1]"),
    (["--q", "4"], "q=4 < r=5"),
])
def test_janson_inputs_checked_before_spread(hc5_path, monkeypatch, capsys, extra, message):
    def no_spread(h):
        raise AssertionError("spread oracle ran before p and q were checked")

    monkeypatch.setattr(cli, "max_spread", no_spread)
    assert main(["moments", hc5_path, "--janson", "--q", "5", *extra]) == 1
    _single_error(capsys, message)


@pytest.mark.parametrize("argv", [
    ["spread", "{h}", "--check-kappa", "1.5"],
    ["moments", "{h}", "--janson", "--q", "5", "--p", "0.05"],
    ["threshold", "--hypergraph", "{h}", "--q", "5", "--trials", "200", "--target", "0.2", "--m-list", "3,5"],
    ["fragment", "--hypergraph", "{h}", "--q", "5", "--seeds", "0:2"],
    # Delta counts its pairs from the same table as the spread check
    ["moments", "{h}", "--janson", "--q", "5", "--p", "0.05", "--kappa", "1.01"],
    ["moments", "{h}", "--chebyshev", "--q", "5"],
])
def test_one_candidate_pass_per_invocation(hc5_path, tmp_path, monkeypatch, argv):
    calls = []
    build = spread._candidate_sets

    def counting(h):
        calls.append(h)
        return build(h)

    monkeypatch.setattr(spread, "_candidate_sets", counting)
    out = [] if argv[0] == "spread" else ["--out", str(tmp_path / "o.txt")]
    assert main([a.format(h=hc5_path) for a in argv] + out) == 0
    assert len(calls) == 1


def test_spread_budget_before_allocation(tmp_path, monkeypatch, capsys):
    # one 26-vertex edge: its largest set size holds C(26, 13) keys, at 34
    # bytes a key, and the 27 x 26 binomials; one byte less is refused
    path = tmp_path / "big.json"
    write_hypergraph(Hypergraph.from_edges(26, [range(26)]), str(path))
    monkeypatch.setattr(limits, "MEMORY_BYTES", 353626015)
    tracemalloc.start()
    try:
        rc = main(["spread", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    _single_error(capsys, "10400600 candidate keys of one set size need 353626016 bytes, above the budget of 353626015")
    assert peak < 2**20


def test_moments_refuses_what_spread_refuses(tmp_path, monkeypatch, capsys):
    # --chebyshev counts the padded pairs from G's own summary, so a 30-vertex
    # edge is refused as `spread` refuses it: the C(30, 15) keys of its largest
    # set size exceed the byte budget
    path = tmp_path / "wide.json"
    write_hypergraph(Hypergraph.from_edges(40, [range(30), *([v] for v in range(30, 40))]), str(path))

    def no_keys(*args):
        raise AssertionError("a key array before the byte budget was checked")

    monkeypatch.setattr(spread, "size_keys", no_keys)
    message = (
        f"155117520 candidate keys of one set size need 5274005600 bytes, above the budget of {2**30}; "
        "instance too large to count its edge subsets exactly"
    )
    assert main(["moments", str(path), "--chebyshev", "--q", "30", "--out", str(tmp_path / "o.txt")]) == 1
    _single_error(capsys, message)
    assert not (tmp_path / "o.txt").exists()
    assert main(["spread", str(path)]) == 1
    _single_error(capsys, message)


@pytest.mark.parametrize("argv,message", [
    (["--model", "binomial-p", "--n", "-3", "--p", "0.5"], "p must be in [0, 1] and n >= 0"),
    (["--model", "uniform-m", "--n", "-3"], "need 0 <= m <= n"),
    (["--model", "lifted-p", "--n", "-3", "--q", "2", "--p", "0.5"], "need q >= 1 and 0 <= p <= q and n >= 0"),
    (["--model", "colored-m", "--n", "10", "--m", "4", "--q", "0"], "need q >= 1 colors"),
    (["--model", "colored-p", "--n", "10", "--p", "0.5", "--q", "0"], "need q >= 1 colors"),
    # above 2^64 colors randrange would reject every draw
    (["--model", "colored-m", "--n", "10", "--m", "3", "--q", str(2**64 + 1)], "need q <= 2**64 colors"),
    (["--model", "colored-p", "--n", "10", "--p", "0.5", "--q", str(2**64 + 1)], "need q <= 2**64 colors"),
])
def test_sample_sizes_checked_before_the_first_draw(monkeypatch, capsys, argv, message):
    def no_draw(self):
        raise AssertionError("a draw before n and q were checked")

    monkeypatch.setattr(RngStream, "next_u64", no_draw)
    assert main(["sample", *argv]) == 1
    _single_error(capsys, message)


def test_spread_key_width_is_one_error_line(tmp_path, capsys):
    # C(2000, 7) > 2^63: the 7-subsets of 2000 vertices have no int64 colex rank
    path = tmp_path / "wide.json"
    write_hypergraph(Hypergraph.from_edges(2000, [range(1993, 2000)]), str(path))
    assert main(["spread", str(path)]) == 1
    _single_error(capsys, "candidate keys need 25")


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


@pytest.mark.parametrize("spec", [
    "pm:n=6,k=0",
    "pm:n=-4,k=2",
    "pm:n=0,k=2",
    "loose:n=6,k=1",
    "loose:n=-2,k=3",
    "cactus:loosepath,n=5,k=1",
    "cactus:loosepath,n=0,k=3",
    "tree:path,n=-1",
    "tree:star,n=0",
])
def test_generate_bad_sizes_are_one_error_line(capsys, spec):
    # each is refused before anything divides by k or takes a factorial
    assert main(["generate", spec]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "needs n >= 1 and k >= " in err[0]


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


@pytest.mark.parametrize("mode", ["--janson", "--chebyshev"])
@pytest.mark.parametrize("q", [10**30, 10**50])
def test_moments_counts_beyond_the_float_range(tmp_path, capsys, mode, q):
    # at r = 7 the pair sums hold q^13 colorings, above a float at q = 10^30
    h = Hypergraph.from_edges(9, [tuple(range(i, i + 7)) for i in range(3)])
    path = tmp_path / "u7.json"
    write_hypergraph(h, str(path))
    assert main(["moments", str(path), mode, "--q", str(q), "--p", "0.05"]) == 1
    names = f"q={q}, kappa={spread.max_spread(h).kappa}" if mode == "--janson" else f"q={q}"
    _single_error(capsys, f"{names}: the moments exceed the float range")


def test_moments_overflow_names_kappa(hc5_path, capsys):
    # x = e / (q kappa (1-p)) is about 5.7e299, so (1 + x)^5 has no float
    assert main(["moments", hc5_path, "--janson", "--q", "5", "--p", "0.05", "--kappa", "1e-300"]) == 1
    _single_error(capsys, "q=5, kappa=1e-300: the moments exceed the float range")


def test_moments_janson_at_huge_q(hc5_path, tmp_path):
    # x = e / (q kappa (1-p)) is below float epsilon at q = 10^17, where
    # (1 + x)^r - 1 once read 0 and the chain check failed
    out = tmp_path / "m.json"
    assert main(["moments", hc5_path, "--janson", "--q", str(10**17), "--p", "0.05", "--out", str(out)]) == 0
    report = json.loads(out.read_text().split("\n")[1])
    assert report["chain_bounds"]["intermediate_bound"] > report["delta"] > 0
    assert report["checks"] == {"delta_le_intermediate": True}


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
    computed = {"rainbow": 0, "cover": 0}
    kernel = _kernels.hit_times

    def counting(*args):
        rainbow, cover = kernel(*args)
        computed["rainbow"] += np.size(rainbow)
        computed["cover"] += np.size(cover)
        return rainbow, cover

    monkeypatch.setattr(_kernels, "hit_times", counting)
    argv = ["threshold", "--hypergraph", hc5_path, "--q", "5", "--trials", "500",
            "--target", "0.2", "--m-list", "3,5"]
    assert main(argv) == 0
    assert computed == {"rainbow": 500, "cover": 500}


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
    (["--trials", "18446744073709551616"], "18446744073709551616 trials need 590295810358705651712 bytes"),
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
    (((0, 1),), ",3", "--m-list ,3: expected comma-separated integers"),
    # a trial that never hits has time N + 1, which m = N + 1 would count as a hit
    (((0, 1),), "2,6", "--m-list 2,6: each m must lie in [0, 5]"),
    (((0, 1),), "-1", "--m-list -1: each m must lie in [0, 5]"),
])
def test_threshold_validates_before_trials(tmp_path, monkeypatch, capsys, edges, m_list, message):
    path = tmp_path / "h.json"
    write_hypergraph(Hypergraph(5, edges, 2), str(path))

    def no_trial(self, trials):
        raise AssertionError("trial drawn before the input was validated")

    monkeypatch.setattr(TrialPool, "ensure", no_trial)
    assert main(["threshold", "--hypergraph", str(path), "--q", "3", "--m-list", m_list]) == 1
    _single_error(capsys, message)


@pytest.mark.parametrize("q", ["0", "-1", "18446744073709551616"])
def test_threshold_refuses_q_out_of_range(hc5_path, monkeypatch, capsys, q):
    def no_array(*args, **kwargs):
        raise AssertionError("array built before q was checked")

    monkeypatch.setattr(np, "array", no_array)
    assert main(["threshold", "--hypergraph", hc5_path, "--q", q]) == 1
    _single_error(capsys, f"q={q}: the trials need 1 <= q < 2**64 colors")


def test_threshold_refuses_a_pool_above_the_budget(tmp_path, monkeypatch, capsys):
    # one edge on 3 * 10**7 vertices: the pool's 80 B a vertex is refused
    # before any of its arrays is built
    path = tmp_path / "h.json"
    path.write_text('{"n": 30000000, "r": 2, "edges": [[0, 1]]}')

    def no_array(*args, **kwargs):
        raise AssertionError("pool array built before its charge")

    for name in ("arange", "full", "concatenate"):
        monkeypatch.setattr(np, name, no_array)
    assert main(["threshold", "--hypergraph", str(path), "--q", "2"]) == 1
    _single_error(capsys, f"trials on 30000000 vertices need 2400000000 bytes, above the budget of {2**30}")


def test_threshold_trials_ceiling(hc5_path, monkeypatch, capsys):
    # 32 bytes a trial: at a budget of 32,000 bytes 1,000 trials run and
    # 1,001 are refused before any trial is drawn
    monkeypatch.setattr(limits, "MEMORY_BYTES", 32_000)
    argv = ["threshold", "--hypergraph", hc5_path, "--q", "5", "--target", "0.2", "--m-list", "3,5"]
    assert main([*argv, "--trials", "1000"]) == 0
    capsys.readouterr()

    def no_trial(self, trials):
        raise AssertionError("trial drawn before the trial count was checked")

    monkeypatch.setattr(TrialPool, "ensure", no_trial)
    assert main([*argv, "--trials", "1001"]) == 1
    _single_error(capsys, "1001 trials need 32032 bytes, above the budget of 32000")


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


@pytest.mark.parametrize("extra,message", [
    (["--q", "4"], "q=4 < r=5"),
    (["--gamma", "0"], "gamma must be in (0, 1)"),
    (["--gamma", "1.5"], "gamma must be in (0, 1)"),
    (["--C", "0.5"], "need kappa > 0 and a finite C >= 1"),
    (["--C", "nan"], "need kappa > 0 and a finite C >= 1"),
    (["--seeds", "3:"], "--seeds 3:: expected a stream id a or a range a:b"),
    (["--seeds", ":"], "--seeds :: expected a stream id a or a range a:b"),
    (["--seeds", ":4"], "--seeds :4: expected a stream id a or a range a:b"),
    (["--seeds", "a"], "--seeds a: expected a stream id a or a range a:b"),
    (["--seeds", "5:3"], "--seeds 5:3: range end is below its start"),
    (["--gamma", "1e-17"], "gamma=1e-17 is too small: 1 - gamma rounds to 1"),
    (["--gamma", "1e-9"], "1 traces need 1053308509440 bytes"),  # ell = 1,371,495,453
    (["--gamma", "1"], "gamma must be in (0, 1)"),
])
def test_fragment_arguments_checked_before_spread(hc5_path, tmp_path, monkeypatch, capsys, extra, message):
    def no_spread(h):
        raise AssertionError("spread oracle ran before the arguments were checked")

    monkeypatch.setattr(cli, "max_spread", no_spread)
    out = tmp_path / "f.txt"
    assert main(["fragment", "--hypergraph", hc5_path, "--q", "5", *extra, "--out", str(out)]) == 1
    _single_error(capsys, message)
    assert not out.exists()


def test_fragment_seed_range_ceiling(hc5_path, tmp_path, monkeypatch, capsys):
    # hc5 at the default gamma 0.1 has ell 14, so a trace has 16 lines,
    # charged 512 bytes each plus 256 bytes each of the one trace being
    # recorded: at a budget of (3 * 512 + 256) * 16 bytes 0:2 runs, and
    # 0:3 is refused before the spread oracle runs
    monkeypatch.setattr(limits, "MEMORY_BYTES", (3 * 512 + 256) * 16)
    argv = ["fragment", "--hypergraph", hc5_path, "--q", "5"]
    assert main([*argv, "--seeds", "0:2", "--out", str(tmp_path / "f.txt")]) == 0

    def no_spread(h):
        raise AssertionError("spread oracle ran before the seed range was checked")

    monkeypatch.setattr(cli, "max_spread", no_spread)
    out = tmp_path / "g.txt"
    assert main([*argv, "--seeds", "0:3", "--out", str(out)]) == 1
    _single_error(capsys, "4 traces need 36864 bytes, above the budget of 28672; "
                  "use a shorter --seeds range or a larger --gamma")
    monkeypatch.setattr(limits, "MEMORY_BYTES", 1 << 30)
    assert main([*argv, "--seeds", "0:100000000", "--out", str(out)]) == 1
    _single_error(capsys, "100000001 traces need 819200012288 bytes")
    assert not out.exists()


def test_fragment_one_long_trace_refused(tmp_path, monkeypatch, capsys):
    # hc6 at gamma 1e-6 has ell 1,500,160: one trace of 1,500,162 lines is
    # charged 768 bytes a line, above the default budget, before any round
    path = tmp_path / "hc6.json"
    write_hypergraph(gen_hamilton(6), str(path))

    def no_spread(h):
        raise AssertionError("spread oracle ran before the trace was charged")

    monkeypatch.setattr(cli, "max_spread", no_spread)
    out = tmp_path / "f.txt"
    assert main(["fragment", "--hypergraph", str(path), "--q", "6", "--gamma", "1e-6", "--seeds", "0:0",
                 "--out", str(out)]) == 1
    _single_error(capsys, "1 traces need 1152124416 bytes, above the budget of 1073741824")
    assert not out.exists()


@pytest.mark.parametrize("argv,env,message", [
    (["fragment", "--hypergraph", "{h}", "--q", "5", "--seed", "-1"], None, "seed -1"),
    (["fragment", "--hypergraph", "{h}", "--q", "5", "--seeds", "-1"], None, "stream id -1"),
    (["fragment", "--hypergraph", "{h}", "--q", "5", "--seeds", "3:18446744073709551616"], None,
     "stream id 18446744073709551616"),
    (["fragment", "--hypergraph", "{h}", "--q", "5"], "-1", "seed -1"),
    (["threshold", "--hypergraph", "{h}", "--q", "5", "--seed", "18446744073709551616"], None,
     "seed 18446744073709551616"),
    (["sample", "--model", "uniform-m", "--n", "5", "--m", "2", "--stream", "-1"], None, "stream id -1"),
    (["sample", "--model", "colored-m", "--n", "5", "--m", "2", "--q", "3", "--stream", "18446744073709551616"], None,
     "stream id 18446744073709551616"),
    (["sample", "--model", "uniform-m", "--n", "5", "--m", "2"], "18446744073709551616", "seed 18446744073709551616"),
    (["moments", "{h}", "--chebyshev", "--q", "5", "--seed", "-1"], None, "seed -1"),
    (["moments", "{h}", "--chebyshev", "--q", "5", "--seed", "18446744073709551616"], None,
     "seed 18446744073709551616"),
    (["moments", "{h}", "--chebyshev", "--q", "5"], "-1", "seed -1"),
])
def test_seeds_outside_64_bits_refused(hc5_path, tmp_path, monkeypatch, capsys, argv, env, message):
    # RngStream used to keep the low 64 bits, so --seeds -1 ran as stream 2**64 - 1
    def no_spread(h):
        raise AssertionError("spread oracle ran before the seed was checked")

    monkeypatch.setattr(cli, "max_spread", no_spread)
    if env is not None:
        monkeypatch.setenv("RAINBOWSPREAD_SEED", env)
    out = tmp_path / "o.txt"
    assert main([arg.format(h=hc5_path) for arg in argv] + ["--out", str(out)]) == 1
    _single_error(capsys, f"{message} is outside [0, 2**64)")
    assert not out.exists()


SAMPLE_WORST_CASES = [
    # model, arguments, elements: every vertex, the m drawn, or every (vertex, color) pair
    ("uniform-m", ["--n", "40000", "--m", "40000"], 40000),
    ("binomial-p", ["--n", "40000", "--p", "1"], 40000),
    ("colored-m", ["--n", "40000", "--m", "40000", "--q", "1000000"], 40000),
    ("colored-p", ["--n", "40000", "--p", "1", "--q", "1000000"], 40000),
    ("lifted-p", ["--n", "40", "--q", "1000", "--p", "1000"], 40000),
]


@pytest.mark.parametrize("model,argv,elements", SAMPLE_WORST_CASES, ids=[c[0] for c in SAMPLE_WORST_CASES])
def test_sample_budget_covers_its_output(tmp_path, monkeypatch, capsys, model, argv, elements):
    out = tmp_path / "s.txt"
    argv = ["sample", "--model", model, *argv, "--out", str(out)]
    monkeypatch.setattr(limits, "MEMORY_BYTES", 256 * elements - 1)
    assert main(argv) == 1
    _single_error(capsys, f"{elements} sampled elements need {256 * elements} bytes, above the budget of {256 * elements - 1}")
    assert not out.exists()
    monkeypatch.setattr(limits, "MEMORY_BYTES", 256 * elements)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) == elements + 1  # the header, then every element
    assert peak <= 256 * elements


@pytest.mark.parametrize("argv,elements", [
    (["--model", "binomial-p", "--n", "100000000000", "--p", "0.5"], 10**11),
    (["--model", "colored-m", "--n", "100000000000", "--m", "10000000", "--q", "3"], 10**7),
    (["--model", "lifted-p", "--n", "1000000", "--q", "1000", "--p", "0"], 10**9),
])
def test_sample_refused_before_the_first_draw(monkeypatch, capsys, argv, elements):
    def no_draw(self):
        raise AssertionError("a draw before the output size was checked")

    monkeypatch.setattr(RngStream, "next_u64", no_draw)
    assert main(["sample", *argv]) == 1
    _single_error(capsys, f"{elements} sampled elements need {256 * elements} bytes, above the budget of {2**30}")


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


# an option the mode does not read is still echoed in the header
@pytest.mark.parametrize("argv,message", [
    (["moments", "{hc5}", "--janson", "--q", "5", "--alpha", "nan"], "--alpha nan"),
    (["moments", "{hc5}", "--chebyshev", "--q", "5", "--p", "inf"], "--p inf"),
    (["sample", "--model", "uniform-m", "--n", "10", "--m", "3", "--p=-inf"], "--p -inf"),
], ids=["janson-alpha", "chebyshev-p", "uniform-m-p"])
def test_unread_option_must_be_finite(hc5_path, tmp_path, capsys, argv, message):
    out = tmp_path / "o.txt"
    argv = [hc5_path if a == "{hc5}" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    _single_error(capsys, f"{message}: expected a finite number")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["moments", "{hc7}", "--chebyshev", "--q", "7", "--p", "inf"], "--p inf"),
    (["moments", "{hc7}", "--janson", "--q", "7", "--alpha", "nan"], "--alpha nan"),
    (["sample", "--model", "uniform-m", "--n", "10", "--m", "3", "--p=-inf"], "--p -inf"),
    (["sample", "--model", "colored-m", "--n", "10", "--m", "3", "--q", "3", "--p", "nan"], "--p nan"),
], ids=["chebyshev-p", "janson-alpha", "uniform-m-p", "colored-m-p"])
def test_unread_option_refused_before_the_work(tmp_path, monkeypatch, capsys, argv, message):
    # the header's finite check comes after the command's own checks and
    # before its first heavy stage
    def heavy(*args, **kwargs):
        raise AssertionError("work done before the header was checked")

    for name in ("max_spread", "chebyshev_report", "janson_chain_check", "sample_uniform_subset",
                 "sample_binomial_subset", "sample_colored_m", "sample_colored_p", "sample_lifted_binomial"):
        monkeypatch.setattr(cli, name, heavy)
    path = tmp_path / "hc7.json"
    write_hypergraph(gen_hamilton(7), str(path))
    assert main([str(path) if a == "{hc7}" else a for a in argv]) == 1
    _single_error(capsys, f"{message}: expected a finite number")


def test_fragment_lift_over_cap(tmp_path, capsys):
    # pm(8,2) at q=40: round 1's restricted lift has 94,394,734 edges, above the budget
    path = tmp_path / "pm82.json"
    write_hypergraph(gen_perfect_matching(8, 2), str(path))
    assert main(["fragment", "--hypergraph", str(path), "--q", "40"]) == 1
    _single_error(capsys, "94394734 lifted edges need 14725578504 bytes")


def _refused_before_allocation(tmp_path, capsys, n, q, message):
    path = tmp_path / "h.json"
    write_hypergraph(gen_hamilton(n), str(path))
    tracemalloc.start()
    try:
        rc = main(["fragment", "--hypergraph", str(path), "--q", str(q), "--seeds", "0:1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    _single_error(capsys, f"{message}, above the budget of 1073741824; use a smaller --q or a smaller hypergraph")
    assert peak < 64 * 2**20


def test_fragment_lift_cap_before_allocation(tmp_path, capsys):
    # hc7 at q=9: round 1's restricted lift has 14,459,760 edges, about
    # 2.4 GB at the fragmentation's peak; the budget stops the run before
    # any of it exists
    _refused_before_allocation(tmp_path, capsys, 7, 9, "14459760 lifted edges need 2429239680 bytes")


def test_fragment_hc8_at_q8_refused_before_allocation(tmp_path, capsys):
    # hc8 at q=8: 18,396,520 edges, about 3.2 GB
    _refused_before_allocation(tmp_path, capsys, 8, 8, "18396520 lifted edges need 3164201440 bytes")


def test_fragment_hc7_at_q8_runs(tmp_path):
    # 3,310,800 round-1 rows, charged 556 MB: under the budget, so the run
    # goes through, with the trace that the seed-by-seed runs wrote
    path = tmp_path / "hc7.json"
    write_hypergraph(gen_hamilton(7), str(path))
    out = tmp_path / "f.txt"
    assert main(["fragment", "--hypergraph", str(path), "--q", "8", "--gamma", "0.3", "--seeds", "0:0",
                 "--out", str(out)]) == 0
    body = out.read_text().split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == HC7_Q8_SEED0


def test_fragment_seed_range_is_the_single_seeds(hc5_path, capsys):
    # a range runs in blocks of seeds; its traces are the traces of the
    # seeds run one by one
    argv = ["fragment", "--hypergraph", hc5_path, "--q", "5", "--gamma", "0.3"]
    assert main([*argv, "--seeds", "0:19"]) == 0
    whole = capsys.readouterr().out.split("\n", 1)[1]
    singles = []
    for sid in range(20):
        assert main([*argv, "--seeds", f"{sid}:{sid}"]) == 0
        singles.append(capsys.readouterr().out.split("\n", 1)[1])
    assert whole == "".join(singles)


def test_fragment_key_width_is_one_error_line(tmp_path, capsys):
    # 700 vertices at q=20 give 14,000 elements, whose sets of up to 7 have no int64 key
    path = tmp_path / "wide.json"
    write_hypergraph(Hypergraph.from_edges(700, [range(7)]), str(path))
    assert main(["fragment", "--hypergraph", str(path), "--q", "20"]) == 1
    _single_error(
        capsys,
        "fragment keys need 20894474348977265025277301 values (all subsets of at most 7 of 14000 elements), "
        "above int64; use a smaller --q or a smaller hypergraph",
    )


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


def test_fragment_does_not_import_numpy_ma(hc5_path, tmp_path):
    # numpy.ma costs 12-18 ms to import, and no command needs it
    root = Path(__file__).resolve().parents[1]
    argv = ["fragment", "--hypergraph", hc5_path, "--q", "5", "--seeds", "0:1",
            "--out", str(tmp_path / "f.txt")]
    code = (
        "import sys\n"
        "from rainbowspread import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("model", [["colored-m", "--m", "3"], ["colored-p", "--p", "0.5"]], ids=["colored-m", "colored-p"])
def test_sample_takes_2_64_colors(tmp_path, model):
    # the largest q that randrange accepts: every 64-bit draw is a color
    out = tmp_path / "s.txt"
    assert main(["sample", "--model", *model, "--n", "10", "--q", str(2**64), "--out", str(out)]) == 0
    colors = [int(line.split()[1]) for line in out.read_text().splitlines()[1:]]
    assert colors and all(1 <= c <= 2**64 for c in colors)


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


def test_sample_outputs_frozen(tmp_path):
    # sha256 of these outputs, frozen: one "v" or "v c" line per element, in
    # ascending vertex order
    out = tmp_path / "s.txt"
    digest = hashlib.sha256()
    for model in ("uniform-m", "binomial-p", "colored-m", "colored-p", "lifted-p"):
        for seed, stream in ((0, 0), (1, 3), (7, 3)):
            argv = ["sample", "--model", model, "--n", "40", "--m", "13", "--p", "0.4", "--q", "5",
                    "--seed", str(seed), "--stream", str(stream), "--out", str(out)]
            assert main(argv) == 0
            digest.update(out.read_bytes())
    assert digest.hexdigest() == "9da564350987a32adfbdcad0140a8eb7d666f27046e68f4f53377ab7742ba9b3"


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
        (LimitExceeded, RuntimeError),
    ]:
        assert issubclass(cls, RainbowSpreadError) and issubclass(cls, builtin)


def test_benchmark_hook_sites_exist(hc5_path, tmp_path):
    # perfbench/traced_cli.py imports the CLI, then installs the tracer,
    # which wraps functions by name in every module that binds them
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(spans), "spread", hc5_path]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(argv, env=env, capture_output=True, check=True)
    payload = json.loads(spans.read_text())
    assert payload["missing"] == []
    assert "spread.max_spread" in {payload["names"][span[0]] for span in payload["spans"]}


@pytest.mark.parametrize("argv, code", [
    (["spread", "{h}", "--check-kappa", "1.01"], 0),
    (["spread", "{h}", "--check-kappa", "50"], 2),
    (["moments", "{h}", "--chebyshev", "--q", "5", "--out", "{out}"], 0),
    (["fragment", "--hypergraph", "{h}", "--q", "5", "--seeds", "0:2", "--seed", "3"], 0),
    (["spread", "{missing}"], 1),
], ids=["spread-pass", "spread-fail", "moments-out", "fragment", "missing-input"])
def test_process_exit_matches_main(hc5_path, tmp_path, capsys, argv, code):
    # `python -m rainbowspread.cli` exits through `cli.run`, which freezes
    # the collector before exit; the bytes and the exit code are main()'s
    def fill(out):
        return [a.format(h=hc5_path, out=out, missing=tmp_path / "missing.json") for a in argv]

    assert main(fill(tmp_path / "in.txt")) == code
    assert gc.get_freeze_count() == 0  # main leaves the collector alone
    here = capsys.readouterr()
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "rainbowspread.cli", *fill(tmp_path / "sub.txt")],
                          env=env, capture_output=True)
    assert proc.returncode == code
    assert proc.stdout == here.out.encode()
    assert proc.stderr.decode() == here.err
    if "{out}" in argv:
        assert (tmp_path / "sub.txt").read_bytes() == (tmp_path / "in.txt").read_bytes()
    if code == cli.EXIT_USAGE:
        assert len(here.err.splitlines()) == 1 and here.err.startswith("error: ")


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
