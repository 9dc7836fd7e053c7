"""The benchmark's workloads: fixed lists of rainbowspread CLI invocations
on generated inputs, and the checks applied to each invocation's output.

Each check takes the invocation's standard output and returns
(errors, facts).  Checks run only on invocations that exit 0; `facts`
carries numbers read from the output (the fragmentation round counts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

INPUT_DIR = ".perfbench/inputs"

# input name -> generator spec; the files are written by
# `rainbowspread generate SPEC -o .perfbench/inputs/NAME.json` during set-up.
# Their paths are echoed in every output header, so they never change.
INPUTS = {
    "hc6": "hamilton:n=6",
    "hc7": "hamilton:n=7",
    "hc8": "hamilton:n=8",
    "pm63": "pm:n=6,k=3",
}


def input_path(name: str) -> str:
    return f"{INPUT_DIR}/{name}.json"


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_threshold(lib, out: str, h, q: int, m_list: list[int]):
    lines = out.splitlines()
    errors = []
    if len(lines) != len(m_list) + 4 or lines[1] != "m,hits,trials,p_hat,ci_lo,ci_hi,uncolored_hits":
        return [f"threshold: unexpected layout ({len(lines)} lines)"], {}
    rows = [[float(tok) for tok in line.split(",")] for line in lines[2 : 2 + len(m_list)]]
    if [int(r[0]) for r in rows] != m_list:
        errors.append("threshold: sweep rows do not follow --m-list")
    hits = [int(r[1]) for r in rows]
    if any(b < a for a, b in zip(hits, hits[1:])):
        errors.append(f"threshold: hits decrease along the sweep {hits}")
    for r in rows:
        if int(r[6]) < int(r[1]):
            errors.append(f"threshold: uncolored_hits < hits at m={int(r[0])}")
    est = json.loads(lines[2 + len(m_list)])
    if not h.r_bound <= est["m_star"] <= h.num_vertices:
        errors.append(f"threshold: m_star={est['m_star']} outside [{h.r_bound}, {h.num_vertices}]")
    return errors, {}


def check_fragment(lib, out: str, h, q: int, traces: int):
    errors = []
    expected_lift = lib.lifting.lift_size(h, q)
    seen = 0
    compatible = before = 0
    for line in out.splitlines()[1:]:
        rec = json.loads(line)
        if "stream_id" in rec:
            seen += 1
            if rec["lift_size"] != expected_lift:
                errors.append(f"fragment: lift_size {rec['lift_size']} != lift_size(h, q) {expected_lift}")
        elif "round" in rec:
            if not rec["survivors_after"] <= rec["compatible"] <= rec["survivors_before"]:
                errors.append(f"fragment: round {rec['round']} breaks after <= compatible <= before")
            compatible += rec["compatible"]
            before += rec["survivors_before"]
        elif rec["endgame_hit"] and not rec["outcome_rainbow"]:
            errors.append("fragment: endgame_hit without outcome_rainbow")
    if seen != traces:
        errors.append(f"fragment: {seen} traces, expected {traces}")
    return errors, {"compatible": compatible, "survivors_before": before}


def check_spread(lib, out: str, h, kappa: float):
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    witness = json.loads(fields["witness"])
    count = int(fields["containment_count"])
    errors = []
    if not _rel_close(float(fields["kappa"]), kappa, 1e-10):
        errors.append(f"spread: kappa {fields['kappa']} != {kappa!r}")
    if count != lib.spread.containment_count(h, witness):
        errors.append("spread: witness containment_count disagrees with spread.containment_count")
    if not _rel_close((len(h.edges) / count) ** (1.0 / len(witness)), kappa, 1e-10):
        errors.append("spread: kappa is not (|H| / count)^(1/|witness|)")
    return errors, {}


def check_janson(lib, out: str, h, q: int, p: float):
    report = json.loads(out.splitlines()[1])
    mu = lib.lifting.lift_size(h, q) * (1.0 - p) ** h.r_bound
    errors = []
    if not _rel_close(report["mu"], mu, 1e-12):
        errors.append(f"moments: mu {report['mu']!r} != |H*| (1-p)^r = {mu!r}")
    if not all(report["checks"].values()):
        errors.append(f"moments: failed chain checks {report['checks']}")
    return errors, {}


def check_chebyshev(lib, out: str, h, q: int, alpha: float):
    report = json.loads(out.splitlines()[1])
    padded = lib.spread.pad_to_uniform(h)
    r = padded.r_bound
    mu = alpha**r * lib.lifting.falling_factorial(q, r) / q**r * len(padded.edges)
    errors = []
    if not _rel_close(report["mu"], mu, 1e-12):
        errors.append(f"moments: mu {report['mu']!r} != closed form {mu!r}")
    bound = report["chain_bounds"]["chebyshev_zero_bound"]
    if not 0.0 <= bound <= 1.0:
        errors.append(f"moments: chebyshev_zero_bound {bound} outside [0, 1]")
    return errors, {}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    input: str  # the input the check reads
    check: Callable  # check(lib, stdout, hypergraph) -> (errors, facts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[str, ...]
    invocations: Callable[[int], list[Invocation]]  # seed -> invocations


THRESHOLD_M = [7, 10, 13, 16, 19, 21]


def _threshold(seed: int) -> list[Invocation]:
    argv = ("threshold", "--hypergraph", input_path("hc7"), "--q", "7", "--target", "0.5",
            "--trials", "2000", "--m-list", ",".join(map(str, THRESHOLD_M)), "--seed", str(seed))
    return [Invocation(argv, "hc7", lambda lib, out, h: check_threshold(lib, out, h, 7, THRESHOLD_M))]


def _fragment(seed: int) -> list[Invocation]:
    argv = ("fragment", "--hypergraph", input_path("hc6"), "--q", "6", "--gamma", "0.3",
            "--seeds", "0:19", "--seed", str(seed))
    return [Invocation(argv, "hc6", lambda lib, out, h: check_fragment(lib, out, h, 6, 20))]


def _certify(seed: int) -> list[Invocation]:
    # the seed has no effect: all three commands are deterministic
    return [
        Invocation(("spread", input_path("hc7"), "--check-kappa", "2.3"), "hc7",
                   lambda lib, out, h: check_spread(lib, out, h, 360 ** (1 / 7))),
        Invocation(("moments", input_path("hc7"), "--janson", "--q", "7", "--p", "0.05"), "hc7",
                   lambda lib, out, h: check_janson(lib, out, h, 7, 0.05)),
        # pm(6,3) rejects its own max_spread kappa today and exits 1; that
        # failure is counted like any other
        Invocation(("moments", input_path("pm63"), "--janson", "--q", "3", "--p", "0.05"), "pm63",
                   lambda lib, out, h: check_janson(lib, out, h, 3, 0.05)),
    ]


def _moments(seed: int) -> list[Invocation]:
    # deterministic; the seed has no effect
    argv = ("moments", input_path("hc8"), "--chebyshev", "--q", "8", "--alpha", "0.5")
    return [Invocation(argv, "hc8", lambda lib, out, h: check_chebyshev(lib, out, h, 8, 0.5))]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("threshold-hc7", "coupled Monte Carlo trials: rng draws, hit-time kernels and max_spread; no lift, no moments",
                 ("hc7",), _threshold),
        Workload("fragment-hc6", "lift_rainbow once per seed and the psi rounds over 43,200 fragments; spread and kernels negligible",
                 ("hc6",), _fragment),
        Workload("certify-hc7", "exact spread oracle two ways (argmin and first violator), plus the known pm(6,3) self-check failure",
                 ("hc7", "pm63"), _certify),
        Workload("moments-hc8", "Delta aggregation over 6,350,400 base pairs; the only workload that stresses memory",
                 ("hc8",), _moments),
    ]
}


def compatible_ratio(facts: list[dict]) -> float:
    """Sum of compatible over sum of survivors_before, over every round."""
    before = sum(f.get("survivors_before", 0) for f in facts)
    return sum(f.get("compatible", 0) for f in facts) / before if before else 0.0
