"""Unified command line: spread, generate, fragment, threshold, moments, sample.

Exit codes: 0 success, 1 usage/parse error, 2 requested check failed (a
witness is printed), 3 internal cross-check mismatch.  Every emitted file
starts with a header record carrying the tool version, the full config
echo and the master seed, so runs are reproducible from their outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import __version__
from .errors import RainbowSpreadError
from .fragmentation import check_fragment_inputs, make_schedule, run_fragmentation
from .hypergraph import read_hypergraph, write_hypergraph
from .limits import check_bytes
from .moments import chebyshev_report, check_chebyshev_inputs, check_janson_inputs, janson_chain_check
from .rng import RngStream
from .sampling import (
    check_model,
    sample_binomial_subset,
    sample_colored_m,
    sample_colored_p,
    sample_lifted_binomial,
    sample_uniform_subset,
)
from .spread import check_kappa, is_kappa_spread, max_spread
from .threshold import TrialPool, estimate_threshold, sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_MISMATCH = 3


def _header(args, seed: int) -> str:
    # the output path is not part of the run semantics, so the same run
    # written to two places produces identical bytes
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    for name, value in config.items():
        # even an option this mode does not read is echoed, and JSON has no NaN or infinity
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name} {value}: expected a finite number")
    return json.dumps(
        {"tool": "rainbowspread", "version": __version__, "seed": seed, "config": config},
        sort_keys=True,
    )


def _resolve_seed(args) -> int:
    """--seed, else RAINBOWSPREAD_SEED, else 0; refused outside [0, 2**64)."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("RAINBOWSPREAD_SEED")
        seed = int(env) if env else 0
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


def _emit(path: str | None, *parts: str) -> None:
    if path:
        with open(path, "w") as f:
            f.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def cmd_spread(args) -> int:
    if args.check_kappa is not None:
        check_kappa(args.check_kappa)
    h = read_hypergraph(args.hypergraph)
    cert = max_spread(h)
    print(f"kappa = {cert.kappa:.12g}")
    print(f"witness = {list(cert.witness)}")
    print(f"containment_count = {cert.containment_count}")
    if args.check_kappa is not None:
        witness = is_kappa_spread(h, args.check_kappa)
        if witness is not None:
            print(f"NOT {args.check_kappa}-spread; violating S = {list(witness)}")
            return EXIT_CHECK_FAILED
        print(f"{args.check_kappa}-spread: pass")
    return EXIT_OK


def cmd_generate(args) -> int:
    from .generators import parse_spec  # here, so that no other command compiles or runs the generators

    spec = parse_spec(args.spec)
    h = spec.generate()
    expected = spec.count_formula()
    print(f"generated edges = {len(h.edges)}")
    print(f"count formula   = {expected}")
    if len(h.edges) != expected:
        print("MISMATCH between enumeration and closed form", file=sys.stderr)
        return EXIT_MISMATCH
    if args.out:
        write_hypergraph(h, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_moments(args) -> int:
    seed = _resolve_seed(args)
    if args.kappa is not None:
        check_kappa(args.kappa)
    h = read_hypergraph(args.hypergraph)
    if args.janson:
        check_janson_inputs(h, args.q, args.p)
    else:
        check_chebyshev_inputs(h, args.q, args.alpha)
    header = _header(args, seed)  # before the spread oracle and the moments run
    if args.janson:
        kappa = args.kappa if args.kappa is not None else max_spread(h).kappa
    try:  # exact counts times float weights
        report = janson_chain_check(h, args.q, args.p, kappa) if args.janson else chebyshev_report(h, args.q, args.alpha)
    except OverflowError:
        names = f"q={args.q}, kappa={kappa}" if args.janson else f"q={args.q}"
        raise ValueError(f"{names}: the moments exceed the float range") from None
    _emit(args.out, header + "\n" + json.dumps(report.as_dict(), sort_keys=True) + "\n")
    if args.human:
        print(f"mu            = {report.mu:.12g}")
        print(f"delta         = {report.delta:.12g}")
        print(f"janson_bound  = {report.janson_bound:.12g}")
        for label, value in report.chain_bounds:
            print(f"{label:28s} {value:.12g}")
        for label, ok in report.checks:
            print(f"{label:28s} {'pass' if ok else 'FAIL'}")
    if any(not ok for _, ok in report.checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_threshold(args) -> int:
    seed = _resolve_seed(args)
    h = read_hypergraph(args.hypergraph)
    lines = [_header(args, seed)]
    try:
        m_list = [int(tok) for tok in args.m_list.split(",")] if args.m_list else []
    except ValueError:
        raise ValueError(f"--m-list {args.m_list}: expected comma-separated integers") from None
    if m_list != sorted(m_list):
        raise ValueError("--m-list must be sorted")
    if m_list and not 0 <= m_list[0] <= m_list[-1] <= h.num_vertices:
        raise ValueError(f"--m-list {args.m_list}: each m must lie in [0, {h.num_vertices}]")
    # one pool, so the sweep reads the trials the estimate drew; the
    # estimate validates the instance before any trial is drawn
    pool = TrialPool(h, args.q, RngStream(seed))
    est = estimate_threshold(pool, args.target, args.trials)
    if m_list:
        rows = sweep(pool, m_list, args.trials)
        lines.append("m,hits,trials,p_hat,ci_lo,ci_hi,uncolored_hits")
        for m, hits, trials, p_hat, lo, hi, uhits in rows:
            lines.append(f"{m},{hits},{trials},{p_hat:.6f},{lo:.6f},{hi:.6f},{uhits}")
    lines.append(
        json.dumps(
            {
                "m_star": est.m_star,
                "target": est.target,
                "trials": est.trials,
                "ci_halfwidth": round(est.ci_halfwidth, 9),
                "kappa": round(est.kappa, 12),
                # no implied C at r = 1, where log r = 0; NaN is not JSON
                "implied_C": None if math.isnan(est.implied_C) else round(est.implied_C, 9),
            },
            sort_keys=True,
        )
    )
    _emit(args.out, "\n".join(lines) + "\n")
    print(f"m_star = {est.m_star} (target {est.target}), implied C = {est.implied_C:.4f}")
    return EXIT_OK


def cmd_fragment(args) -> int:
    seed = _resolve_seed(args)
    h = read_hypergraph(args.hypergraph)
    first, colon, last = args.seeds.partition(":")
    try:
        stream_ids = range(int(first), int(last if colon else first) + 1)
    except ValueError:
        raise ValueError(f"--seeds {args.seeds}: expected a stream id a or a range a:b") from None
    if not stream_ids:
        raise ValueError(f"--seeds {args.seeds}: range end is below its start")
    # before the spread oracle runs; ell does not depend on kappa
    ell = check_fragment_inputs(h, args.q, args.gamma, args.C)
    for sid in (stream_ids[0], stream_ids[-1]):  # RngStream refuses an id outside [0, 2**64)
        RngStream(seed, sid)
    # held until written: 512 B a line of every trace's header, ell rounds and endgame,
    # and 256 B more a line of the one trace being recorded (tracemalloc, a line: 409 B
    # over ten traces, 576 B over one)
    traces = stream_ids.stop - stream_ids.start  # len() stops at 2**63
    check_bytes((512 * traces + 256) * (ell + 2), f"{traces} traces", "use a shorter --seeds range or a larger --gamma")
    sched = make_schedule(h, args.q, max_spread(h).kappa, args.gamma, args.C)
    body = run_fragmentation(h, sched, (RngStream(seed, sid) for sid in stream_ids))
    for i, trace in enumerate(body):  # each trace's text replaces it, so the two are not all held at once
        body[i] = trace.serialize()
    _emit(args.out, _header(args, seed) + "\n", *body)
    return EXIT_OK


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    # the largest output, every vertex, the m drawn or every (vertex, color) pair, at 256 B
    # an element (tracemalloc peak: 213 B a colored vertex with 7-digit ids, 194 a pair)
    elements = {"uniform-m": args.m, "colored-m": args.m, "lifted-p": args.n * args.q}.get(args.model, args.n)
    check_bytes(256 * elements, f"{elements} sampled elements", "use a smaller --n, --m or --q")
    rng = RngStream(seed, args.stream)
    check_model(args.model, args.n, args.m, args.p, args.q)
    header = _header(args, seed)  # before the first draw
    if args.model == "uniform-m":
        body = "".join(f"{v}\n" for v in sample_uniform_subset(args.n, args.m, rng))
    elif args.model == "binomial-p":
        body = "".join(f"{v}\n" for v in sample_binomial_subset(args.n, args.p, rng))
    elif args.model == "colored-m":
        body = sample_colored_m(args.n, args.m, args.q, rng).serialize()
    elif args.model == "colored-p":
        body = sample_colored_p(args.n, args.p, args.q, rng).serialize()
    else:  # lifted-p
        body = sample_lifted_binomial(args.n, args.q, args.p, rng).serialize()
    _emit(args.out, header + "\n" + body)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Refuses an argument as every other refusal: one `error:` line and
    EXIT_USAGE, no usage block.  Subparsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="rainbowspread", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spread", help="exact spread certificate for a hypergraph file")
    sp.add_argument("hypergraph")
    sp.add_argument("--check-kappa", type=float, default=None)
    sp.set_defaults(func=cmd_spread)

    gp = sub.add_parser("generate", help="generate an application hypergraph")
    gp.add_argument("spec", help="e.g. hamilton:n=6 | pm:n=6,k=3 | loose:n=6,k=3 | tree:path,n=6 | cactus:loosepath,n=7,k=3")
    gp.add_argument("-o", "--out", default=None)
    gp.set_defaults(func=cmd_generate)

    mp = sub.add_parser("moments", help="Janson chain or Chebyshev endgame report")
    mp.add_argument("hypergraph")
    group = mp.add_mutually_exclusive_group(required=True)
    group.add_argument("--janson", action="store_true")
    group.add_argument("--chebyshev", action="store_true")
    mp.add_argument("--q", type=int, required=True)
    mp.add_argument("--p", type=float, default=0.1)
    mp.add_argument("--alpha", type=float, default=0.5)
    mp.add_argument("--kappa", type=float, default=None)
    mp.add_argument("--seed", type=int, default=None)
    mp.add_argument("--out", default=None)
    mp.add_argument("--human", action="store_true")
    mp.set_defaults(func=cmd_moments)

    tp = sub.add_parser("threshold", help="Monte Carlo threshold estimate")
    tp.add_argument("--hypergraph", required=True)
    tp.add_argument("--q", type=int, required=True)
    tp.add_argument("--target", type=float, default=0.5)
    tp.add_argument("--trials", type=int, default=2000)
    tp.add_argument("--m-list", default=None, help="comma-separated m values for a sweep")
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument("--out", default=None)
    tp.set_defaults(func=cmd_threshold)

    fp = sub.add_parser("fragment", help="run the fragmentation process")
    fp.add_argument("--hypergraph", required=True)
    fp.add_argument("--q", type=int, required=True)
    fp.add_argument("--gamma", type=float, default=0.1)
    fp.add_argument("--C", type=float, default=1.0)
    fp.add_argument("--seeds", default="0", help="stream id or range a:b")
    fp.add_argument("--seed", type=int, default=None)
    fp.add_argument("--out", default=None)
    fp.set_defaults(func=cmd_fragment)

    xp = sub.add_parser("sample", help="draw from one of the random models")
    xp.add_argument("--model", required=True,
                    choices=["uniform-m", "binomial-p", "colored-m", "colored-p", "lifted-p"])
    xp.add_argument("--n", type=int, required=True)
    xp.add_argument("--m", type=int, default=0)
    xp.add_argument("--p", type=float, default=0.0)
    xp.add_argument("--q", type=int, default=1)
    xp.add_argument("--stream", type=int, default=0)
    xp.add_argument("--seed", type=int, default=None)
    xp.add_argument("--out", default=None)
    xp.set_defaults(func=cmd_sample)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (RainbowSpreadError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """The process entry of `python -m rainbowspread.cli` and of the
    `rainbowspread` script: exit with `main()`'s code.  What lives until
    exit is frozen first, so that the shutdown collections do not walk it
    again; stdio is still flushed and `atexit` still runs.  `main` itself
    leaves the collector alone, because it also runs in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
