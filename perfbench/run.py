"""End-to-end and per-layer benchmark of the rainbowspread command line.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn and a summary is printed.
The program is run from source (`src/` beside this directory); nothing is
installed and the compiled kernel extension is not needed.

Set-up generates the inputs with `rainbowspread generate` and times a fresh
interpreter that imports `rainbowspread.cli` and reads them (setup_s, the
median of several).  With --trace 0 the workload's invocations then run
one at a time, each in a fresh process, pass after pass while another
pass is expected to fit in --seconds (at least one); wall_s is the median
pass time.  With --trace 1 two untraced passes alternate with two traced
passes, where each invocation runs `rainbowspread.cli.main(argv)`
in-process with spans recorded around every layer's entry points
(traced_cli.py); the per-layer self times and work counts come from those.

The harness and its children are pinned to one CPU, and wall_s and
setup_s are scaled by SpeedProbe to the speed of an uncontended core, so
that slowdowns caused by other tenants of the host do not show as
regressions; the raw times are printed beside them and kept in the
record.  A change that spreads work over several cores gains nothing here.

Every invocation's output is checked, outputs must be byte-identical
across passes, and traced work counts must repeat exactly.  The last line
of standard output is one JSON object; the exit code is 1 when a check
fails.  Working files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SRC = ROOT / "src"

SETUP_REPEATS = 7
TRACED_PASSES = 2
RUN_DEADLINE_S = 165.0  # a run must end within 180 s
INVOCATION_TIMEOUT_S = 150.0
PROBE_PERIOD_S = 0.05
PROBE_LOOP = 10_000
PROBE_REF_S = 0.00065  # CPU time of one probe loop on an uncontended core of a 2-vCPU x86-64 VM, Python 3.11

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; "_s" metrics are self times unless noted
PER_LAYER = {
    "spread.max_spread_s": "s",
    "spread.is_kappa_spread_s": "s",
    "spread.max_spread_calls": "count",
    "spread.is_kappa_spread_calls": "count",
    "spread.candidate_sets": "count",
    "kernels.rainbow_hit_time_s": "s",
    "kernels.cover_hit_time_s": "s",
    "kernels.first_rainbow_edge_s": "s",
    "kernels.calls": "count",
    "rng.self_s": "s",
    "rng.draws": "count",
    "threshold.self_s": "s",
    "threshold.trials_computed": "count",
    "threshold.trial_reuse_ratio": "ratio",
    "lifting.lift_rainbow_s": "s",
    "lifting.lift_rainbow_calls": "count",
    "lifting.lifted_edges": "count",
    "fragmentation.initial_survivors_s": "s",
    "fragmentation.apply_round_s": "s",
    "fragmentation.self_s": "s",
    "fragmentation.fragments_scanned": "count",
    "fragmentation.compatible_ratio": "ratio",
    "sampling.contains_rainbow_edge_s": "s",
    "moments.self_s": "s",
    "moments.base_pairs": "count",
    "hypergraph.read_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# self-time metrics that together cover every span, so their sum is the
# traced wall time
ACCOUNTED = [k for k in PER_LAYER if k.endswith("_s") and k.split(".")[0] not in ("process", "trace")]

# counts that depend only on the inputs and seed; they must repeat exactly
EXACT_COUNTS = [
    "threshold.trials_computed",
    "lifting.lift_rainbow_calls",
    "lifting.lifted_edges",
    "spread.max_spread_calls",
    "spread.is_kappa_spread_calls",
    "spread.candidate_sets",
    "moments.base_pairs",
    "fragmentation.fragments_scanned",
    "kernels.calls",
    "rng.draws",
]

SETUP_PROBE = (
    "import json, sys, numpy, rainbowspread.cli as cli\n"
    "from rainbowspread import _kernels\n"
    "for path in sys.argv[1:]:\n"
    "    cli.read_hypergraph(path)\n"
    "print(json.dumps({'implementation': _kernels.IMPLEMENTATION, 'numpy': numpy.__version__}))\n"
)


class HarnessError(RuntimeError):
    pass


def _probe_loop() -> int:
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class SpeedProbe:
    """Tracks how fast the benchmark's CPU runs right now.

    Other tenants of the host slow this CPU down by up to 1.6x for seconds
    to minutes at a time.  A thread times a fixed loop (thread CPU time)
    every PROBE_PERIOD_S on the same CPU as the measured processes, so
    that a wall time can be scaled to the speed at which the loop takes
    PROBE_REF_S.  It costs about 2 % of that CPU.
    """

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (monotonic ns, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.thread_time()
            _probe_loop()
            self.samples.append((time.monotonic_ns(), time.thread_time() - t0))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Reference over measured loop time, from the samples taken in
        [start_ns, end_ns], or the three nearest when fewer fall inside."""
        inside = [d for t, d in self.samples if start_ns <= t <= end_ns]
        if len(inside) < 3:
            mid = (start_ns + end_ns) // 2
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return PROBE_REF_S / statistics.mean(inside)


@dataclass
class Proc:
    code: int
    start_ns: int
    end_ns: int
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    digest: str  # sha256 of the stdout bytes

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("RAINBOWSPREAD_SEED", None)  # the CLI would read it when --seed is absent
    return env


def spawn(argv: list[str], timeout: float) -> Proc:
    """Run one process from the checkout root; wall time and peak RSS come
    from the parent's clock and os.wait4."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic_ns()
            reaped.set()
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        start_ns=start,
        end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        digest=hashlib.sha256(out_path.read_bytes()).hexdigest(),
    )


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s scaled to the reference speed
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # traced: (name, parent, start, end)
    counts: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)


class Bench:
    def __init__(self, workload: wl.Workload, seed: int, deadline: float, probe: SpeedProbe | None = None):
        self.workload = workload
        self.deadline = deadline
        self.probe = probe
        self.invocations = workload.invocations(seed)
        self.lib = None
        self.graphs = {}

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str]) -> Proc:
        if self.remaining() <= 0:
            raise HarnessError("run deadline reached")
        return spawn(argv, min(INVOCATION_TIMEOUT_S, self.remaining()))

    def scaled(self, proc: Proc) -> float:
        return proc.wall_s * (self.probe.scale(proc.start_ns, proc.end_ns) if self.probe else 1.0)

    def setup(self) -> tuple[list[float], list[float], dict]:
        """Generate the inputs, then time the set-up probe."""
        (ROOT / wl.INPUT_DIR).mkdir(parents=True, exist_ok=True)
        for name in self.workload.inputs:
            proc = self.run([sys.executable, "-m", "rainbowspread.cli", "generate", wl.INPUTS[name], "-o", wl.input_path(name)])
            if proc.code != 0:
                raise HarnessError(f"generating {name} failed (exit {proc.code}): {proc.stderr.strip()}")
        self.lib = load_library()
        self.graphs = {name: self.lib.hypergraph.read_hypergraph(str(ROOT / wl.input_path(name))) for name in self.workload.inputs}
        paths = [wl.input_path(name) for name in self.workload.inputs]
        raw, scaled, info = [], [], {}
        for _ in range(SETUP_REPEATS):
            proc = self.run([sys.executable, "-c", SETUP_PROBE, *paths])
            if proc.code != 0:
                raise HarnessError(f"set-up probe failed (exit {proc.code}): {proc.stderr.strip()}")
            raw.append(proc.wall_s)
            scaled.append(self.scaled(proc))
            info = json.loads(proc.stdout)
        return raw, scaled, info

    def one_pass(self, traced: bool) -> PassResult:
        res = PassResult(traced=traced)
        spans_path = WORK / "spans.json"
        for inv in self.invocations:
            if traced:
                spans_path.unlink(missing_ok=True)
                proc = self.run([sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_path), *inv.argv])
            else:
                proc = self.run([sys.executable, "-m", "rainbowspread.cli", *inv.argv])
            res.attempted += 1
            res.wall_s += proc.wall_s
            res.scaled_s += self.scaled(proc)
            res.cpu_s += proc.cpu_s
            res.rss_mb = max(res.rss_mb, proc.rss_mb)
            res.digests.append(proc.digest)
            errors = []
            if proc.code == 0:
                try:
                    errors, facts = inv.check(self.lib, proc.stdout, self.graphs[inv.input])
                except (ValueError, KeyError, IndexError) as exc:
                    errors = [f"{inv.argv[0]}: output does not parse: {exc!r}"]
                else:
                    res.facts.append(facts)
            res.errors += errors
            if proc.code != 0 or errors or "Traceback (most recent call last)" in proc.stderr:
                res.failed += 1
            if traced:
                self._collect_spans(res, proc, spans_path)
        return res

    def _collect_spans(self, res: PassResult, proc: Proc, path: Path) -> None:
        if not path.exists():
            raise HarnessError("traced invocation wrote no spans")
        data = json.loads(path.read_text())
        root = len(res.spans)
        res.spans.append(("cli", None, proc.start_ns, proc.end_ns))
        for name_id, parent, start, end in data["spans"]:
            if not proc.start_ns <= start <= end <= proc.end_ns:
                raise HarnessError("a span lies outside its process; the clocks disagree")
            res.spans.append((data["names"][name_id], root + (parent + 1 if parent >= 0 else 0), start, end))
        for key, value in data["counts"].items():
            res.counts[key] = res.counts.get(key, 0) + value
        res.missing.update(data["missing"])


def load_library():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rainbowspread
    from rainbowspread import hypergraph, lifting, spread

    if Path(rainbowspread.__file__).resolve().parent != SRC / "rainbowspread":
        raise HarnessError(f"imported rainbowspread from {rainbowspread.__file__}, not from {SRC}")
    return SimpleNamespace(hypergraph=hypergraph, lifting=lifting, spread=spread)


def layer_metrics(res: PassResult) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    selfs = tracer.self_times(res.spans)
    t = lambda name: selfs.get(name, (0, 0))[0] / 1e9  # noqa: E731
    calls = lambda name: selfs.get(name, (0, 0))[1]  # noqa: E731

    def layer(prefix: str, exclude=()) -> float:
        return sum(v[0] for k, v in selfs.items() if k.split(".")[0] == prefix and k not in exclude) / 1e9

    computed = res.counts.get("threshold.trials_computed", 0)
    return {
        "spread.max_spread_s": t("spread.max_spread"),
        "spread.is_kappa_spread_s": t("spread.is_kappa_spread"),
        "spread.max_spread_calls": calls("spread.max_spread"),
        "spread.is_kappa_spread_calls": calls("spread.is_kappa_spread"),
        "spread.candidate_sets": res.counts.get("spread.candidate_sets", 0),
        "kernels.rainbow_hit_time_s": t("kernels.rainbow_hit_time"),
        "kernels.cover_hit_time_s": t("kernels.cover_hit_time"),
        "kernels.first_rainbow_edge_s": t("kernels.first_rainbow_edge"),
        "kernels.calls": sum(v[1] for k, v in selfs.items() if k.startswith("kernels.")),
        "rng.self_s": layer("rng"),
        "rng.draws": res.counts.get("rng.draws", 0),
        "threshold.self_s": layer("threshold"),
        "threshold.trials_computed": computed,
        "threshold.trial_reuse_ratio": res.counts.get("threshold.trials_requested", 0) / computed if computed else 0.0,
        "lifting.lift_rainbow_s": t("lifting.lift_rainbow"),
        "lifting.lift_rainbow_calls": calls("lifting.lift_rainbow"),
        "lifting.lifted_edges": res.counts.get("lifting.lifted_edges", 0),
        "fragmentation.initial_survivors_s": t("fragmentation.initial_survivors"),
        "fragmentation.apply_round_s": t("fragmentation.apply_round"),
        "fragmentation.self_s": layer(
            "fragmentation", exclude=("fragmentation.initial_survivors", "fragmentation.apply_round")
        ),
        "fragmentation.fragments_scanned": res.counts.get("fragmentation.fragments_scanned", 0),
        "fragmentation.compatible_ratio": wl.compatible_ratio(res.facts),
        "sampling.contains_rainbow_edge_s": t("sampling.contains_rainbow_edge"),
        "moments.self_s": layer("moments"),
        "moments.base_pairs": res.counts.get("moments.base_pairs", 0),
        "hypergraph.read_s": t("hypergraph.read_hypergraph"),
        "cli.self_s": t("cli"),
        "process.cpu_s": res.cpu_s,
        "trace.wall_s": res.wall_s,
    }


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (see main for its use)."""
    started = time.monotonic()
    # the speed probe must share the CPU with the measured processes
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        bench = Bench(wl.WORKLOADS[name], seed, started + RUN_DEADLINE_S, probe)
        raw_setup, setup_samples, info = bench.setup()
        passes: list[PassResult] = []
        measure_start = time.monotonic()
        if trace:
            # alternate, so that a slow spell of the machine hits both sides
            for _ in range(TRACED_PASSES):
                passes.append(bench.one_pass(traced=False))
                passes.append(bench.one_pass(traced=True))
        else:
            while True:
                passes.append(bench.one_pass(traced=False))
                typical = statistics.median(p.wall_s for p in passes)
                # another pass only when it is expected to end within --seconds
                if time.monotonic() - measure_start + typical > seconds or 1.5 * typical > bench.remaining():
                    break

    errors = []
    for p in passes:
        errors += [e for e in p.errors if e not in errors]
    if len({tuple(p.digests) for p in passes}) != 1:
        errors.append("outputs differ between passes of the same seed")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "meta": {
            "git_sha": git_sha(),
            "implementation": info.get("implementation"),
            "python": platform.python_version(),
            "numpy": info.get("numpy"),
            "nproc": os.cpu_count(),
            "seed": seed,
        },
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wall_samples": [p.scaled_s for p in untraced],
        "raw_wall_samples": [p.wall_s for p in untraced],
        "setup_samples": setup_samples,
        "raw_setup_samples": raw_setup,
        "peak_rss_mb": max(p.rss_mb for p in untraced),
        "untraced_processes": sum(p.attempted for p in untraced),
        "digests": passes[0].digests,
    }
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        for key in EXACT_COUNTS:
            if len({m[key] for m in per_pass}) != 1:
                errors.append(f"work count {key} differs between passes: {[m[key] for m in per_pass]}")
        for p, m in zip(traced, per_pass):
            # a span that no metric covers would leave a gap here
            if abs(sum(m[k] for k in ACCOUNTED) - m["trace.wall_s"]) > 1e-6 * (1 + len(p.spans)):
                errors.append("layer self times do not add up to the traced wall time")
        # times are medians over the traced passes; counts are equal in all
        layers = {k: statistics.median(m[k] for m in per_pass) if PER_LAYER[k] == "s" else per_pass[0][k] for k in per_pass[0]}
        layers["trace.overhead_s"] = statistics.median(p.scaled_s for p in traced) - statistics.median(record["wall_samples"])
        record["per_layer"] = layers
        record["meta"]["missing_hooks"] = sorted(set().union(*(p.missing for p in traced)))
        if record["meta"]["missing_hooks"]:
            errors.append(f"hook sites not found: {record['meta']['missing_hooks']}")
    record["errors"] = errors
    record["correct"] = not errors
    record["run_s"] = time.monotonic() - started
    return record


def contract_line(record: dict) -> dict:
    """The last output line: end-to-end metrics, or per-layer ones when traced."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(record["wall_samples"]),
            "setup_s": statistics.median(record["setup_samples"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def tail_percentile(samples):
    """(percentile, value) for the highest percentile that has at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def summary(record: dict) -> list[str]:
    walls, setups = record["wall_samples"], record["setup_samples"]
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile (needs 11 samples)"
    lines = [
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  " + json.dumps(record["meta"], sort_keys=True),
        f"  wall_s       {statistics.median(walls):10.4f} s    median of {len(walls)} passes at reference speed"
        f" (raw {statistics.median(record['raw_wall_samples']):.4f} s); {tail_text}",
        f"  setup_s      {statistics.median(setups):10.4f} s    median of {len(setups)} at reference speed"
        f" (raw {statistics.median(record['raw_setup_samples']):.4f} s)",
        f"  peak_rss_mb  {record['peak_rss_mb']:10.1f} MB   largest of {record['untraced_processes']} processes",
        f"  failed_ops   {record['failed'] / record['attempted']:10.4f}      {record['failed']} of {record['attempted']} invocations",
    ]
    for key, value in record.get("per_layer", {}).items():
        lines.append(f"  {key:36s} {value:16.6f} {PER_LAYER[key]}" if isinstance(value, float) else f"  {key:36s} {value:16d} {PER_LAYER[key]}")
    lines += [f"  CHECK FAILED: {e}" for e in record["errors"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), default=None, help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (SRC / "rainbowspread" / "cli.py").is_file():
        print(f"error: no rainbowspread sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    ok = True
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        (WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print("\n".join(summary(record)))
        ok = ok and record["correct"]
        if args.workload:
            print(json.dumps(contract_line(record)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
