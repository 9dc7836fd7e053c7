"""Layer spans for the traced benchmark run, recorded from outside the library.

`install` wraps each layer's public entry points at every name a caller
binds (a module that does `from .spread import max_spread` holds its own
reference, so the wrapper is set there too).  Nothing under `src/` changes.

A span is (name, parent, start_ns, end_ns).  Spans are kept in memory and
written out once when the traced invocation ends.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, modules that bind the same function by name).
# The span is named "<layer>.<attribute>"; the layer is the module name
# without its leading underscore.
SPANS = [
    ("spread", "max_spread", ("threshold", "fragmentation", "cli")),
    ("spread", "is_kappa_spread", ("moments", "cli")),
    ("_kernels", "rainbow_hit_time", ()),
    ("_kernels", "cover_hit_time", ()),
    ("_kernels", "first_rainbow_edge", ()),
    ("threshold", "estimate_threshold", ("cli",)),
    ("threshold", "sweep", ("cli",)),
    ("threshold", "hit_probability", ()),
    ("lifting", "lift_rainbow", ("fragmentation", "moments")),
    ("fragmentation", "run_fragmentation", ("cli",)),
    ("fragmentation", "initial_survivors", ()),
    ("fragmentation", "apply_round", ()),
    ("sampling", "contains_rainbow_edge", ("fragmentation",)),
    ("moments", "janson_chain_check", ("cli",)),
    ("moments", "chebyshev_report", ("cli",)),
    ("moments", "janson_mu", ()),
    ("moments", "janson_delta_exact", ()),
    ("moments", "exact_uncover_probability", ()),
    ("hypergraph", "read_hypergraph", ("cli",)),
]

# RngStream methods; only the outermost call of a nested chain
# (randint -> randrange -> next_u64) opens a span.
RNG_METHODS = (
    "child",
    "next_u64",
    "random",
    "randrange",
    "randint",
    "bernoulli",
    "permutation",
    "sample_without_replacement",
)


def _add(counter: str, amount):
    def hook(rec, args, result):
        rec.counts[counter] += amount(args, result)

    return hook


def _request_trials(rec, args, result):
    # TrialPool.ensure(pool, trials): pools over the same stream and
    # instance compute the same trials, so distinct requests are per key
    pool, trials = args[0], args[1]
    key = (pool.rng.key, pool.q, pool.n)
    rec.requested[key] = max(rec.requested.get(key, 0), trials)


# Count-only hooks: (module, dotted attribute, hook(rec, args, result)).
# They open no span, so their time stays in the caller's self time.
COUNTERS = [
    ("spread", "_candidate_sets", _add("spread.candidate_sets", lambda a, r: len(r))),
    ("threshold", "TrialPool._run_trial", _add("threshold.trials_computed", lambda a, r: 1)),
    ("threshold", "TrialPool.ensure", _request_trials),
    ("lifting", "lift_rainbow", _add("lifting.lifted_edges", lambda a, r: len(r))),
    ("fragmentation", "apply_round", _add("fragmentation.fragments_scanned", lambda a, r: len(a[0]))),
    ("moments", "_delta_aggregate", _add("moments.base_pairs", lambda a, r: len(a[0]) ** 2)),
]


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, parent index or -1, start ns, end ns]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.requested: dict = {}  # trial pool key -> most trials requested
        self.in_rng = False

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, parent, time.monotonic_ns(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def wrap_rng(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(stream, *args, **kwargs):
            if self.in_rng:
                return fn(stream, *args, **kwargs)
            self.in_rng = True
            before = stream.counter
            idx = self.open(name_id)
            try:
                return fn(stream, *args, **kwargs)
            finally:
                self.close(idx)
                self.in_rng = False
                self.counts["rng.draws"] += stream.counter - before

        return wrapper

    def wrap_counter(self, hook, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return wrapper

    def dump(self, path: str, missing: list[str]) -> None:
        counts = dict(self.counts)
        counts["threshold.trials_requested"] = sum(self.requested.values())
        with open(path, "w") as f:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": counts, "missing": missing},
                f,
            )


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def install(rec: Recorder) -> list[str]:
    """Install every hook; returns the hook sites that do not exist."""
    mod = lambda name: importlib.import_module(f"rainbowspread.{name}")  # noqa: E731
    missing = []
    originals = {}

    # counters go innermost, so a function with a counter and a span
    # (lift_rainbow, apply_round) is counted inside its span
    for module, dotted, hook in COUNTERS:
        owner, attr = _resolve(mod(module), dotted)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{module}.{dotted}")
            continue
        originals[(module, dotted)] = fn
        setattr(owner, attr, rec.wrap_counter(hook, fn))

    for module, attr, binders in SPANS:
        home = mod(module)
        fn = getattr(home, attr, None)
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        original = originals.get((module, attr), fn)
        wrapper = rec.wrap(f"{module.lstrip('_')}.{attr}", fn)
        setattr(home, attr, wrapper)
        for binder in binders:
            b = mod(binder)
            if getattr(b, attr, None) is original:
                setattr(b, attr, wrapper)
            else:
                missing.append(f"{binder}.{attr}")

    stream = mod("rng").RngStream
    for attr in RNG_METHODS:
        fn = getattr(stream, attr, None)
        if fn is None:
            missing.append(f"rng.RngStream.{attr}")
            continue
        setattr(stream, attr, rec.wrap_rng(f"rng.{attr}", fn))
    return missing


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span name: (total self time, calls).

    spans is a list of (name, parent index or None, start, end).  Self time
    is the span's duration minus the union of its children's intervals.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        own = (end - start) - _covered(children.get(i, ()), start, end)
        acc = out.setdefault(name, [0, 0])
        acc[0] += own
        acc[1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}
