"""The CLI's error contract over drawn arguments.

Every run of `cli.main` exits 0, 1 or 2; a failed run prints exactly one
`error:` line; an argument that argparse refuses exits 1, as every other
usage error; no exception escapes.  Each subcommand runs in-process on
tiny written instances, with its numbers drawn from boundary values,
under a small byte budget and an alarm, so no run starts a process or
runs for long.
"""

import io
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowspread import cli, limits
from rainbowspread.generators import gen_hamilton
from rainbowspread.hypergraph import Hypergraph, write_hypergraph

VALUES = ["nan", "inf", "-1", "0", "1", str(2**63), str(2**64), str(2**64 + 1), "1e-17", str(10**30)]
Q30 = str(10**30)
SECONDS = 2  # per run; a drawn run takes a few milliseconds
MEMORY_BYTES = 1 << 20

INSTANCES = {
    "@u7": Hypergraph.from_edges(9, [tuple(range(i, i + 7)) for i in range(3)]),
    "@hc5": gen_hamilton(5),
    "@mixed": Hypergraph.from_edges(5, [(0, 1), (1, 2, 3), (2, 3, 4), (1, 2, 3)]),
    "@k4": Hypergraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
}

value = st.sampled_from(VALUES)
instance = st.sampled_from(sorted(INSTANCES))


@st.composite
def options(draw, *flags):
    """Each flag present or not, with a drawn value; `--flag=value`, so
    that a value such as -1 is not read as an option."""
    return [f"{flag}={draw(value)}" for flag in flags if draw(st.booleans())]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["spread", "generate", "moments", "threshold", "fragment", "sample"]))
    if command == "spread":
        return ["spread", draw(instance)] + draw(options("--check-kappa"))
    if command == "generate":
        spec = draw(st.sampled_from(["hamilton:n={}", "pm:n={},k={}", "loose:n={},k={}", "tree:path,n={}",
                                     "tree:star,n={}", "cactus:loosepath,n={},k={}"]))
        return ["generate", spec.format(draw(value), draw(value))]
    if command == "moments":
        mode = draw(st.sampled_from(["--janson", "--chebyshev"]))
        return ["moments", draw(instance), mode, f"--q={draw(value)}"] + draw(
            options("--p", "--alpha", "--kappa", "--seed"))
    if command == "threshold":
        argv = ["threshold", "--hypergraph", draw(instance), f"--q={draw(value)}"]
        argv += draw(options("--target", "--trials", "--seed"))
        if draw(st.booleans()):
            argv.append("--m-list=" + ",".join(draw(st.lists(value, min_size=1, max_size=2))))
        return argv
    if command == "fragment":
        argv = ["fragment", "--hypergraph", draw(instance), f"--q={draw(value)}"]
        argv += draw(options("--gamma", "--C", "--seed"))
        if draw(st.booleans()):
            argv.append("--seeds=" + ":".join(draw(st.lists(value, min_size=1, max_size=2))))
        return argv
    model = draw(st.sampled_from(["uniform-m", "binomial-p", "colored-m", "colored-p", "lifted-p"]))
    return ["sample", "--model", model, f"--n={draw(value)}"] + draw(
        options("--m", "--p", "--q", "--stream", "--seed"))


class RunTooLong(Exception):
    pass


def _alarm(signum, frame):
    raise RunTooLong(f"no exit within {SECONDS} s")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("instances")
    out = {}
    for name, h in INSTANCES.items():
        out[name] = str(folder / f"{name[1:]}.json")
        write_hypergraph(h, out[name])
    return out


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["fragment", "--hypergraph", "@hc5", "--q=6", "--gamma=1e-17"])
@example(["fragment", "--hypergraph", "@hc5", "--q=6", "--gamma=1e-9"])
@example(["moments", "@u7", "--janson", f"--q={Q30}", "--p=0.05"])
@example(["moments", "@u7", "--chebyshev", f"--q={Q30}"])
def test_cli_contract(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS)
    try:
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            mp.setattr(limits, "MEMORY_BYTES", MEMORY_BYTES)
            try:
                code = cli.main(argv)
                refused = code == cli.EXIT_USAGE
            except SystemExit as exc:  # argparse refuses an argument, as a usage error
                assert exc.code == cli.EXIT_USAGE
                code, refused = exc.code, True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == (1 if refused else 0), err.getvalue()
    if code == cli.EXIT_USAGE:
        assert lines == errors and lines[0].startswith("error: "), err.getvalue()
