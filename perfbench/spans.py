"""In-memory span tracing around the public functions of each levsketch layer.

A :class:`Tracer` replaces each traced function with a wrapper at every
module that binds it (the defining module, every module that imported it by
name, and the package root), so calls made through ``levsketch.experiment``,
``levsketch.solver`` or ``levsketch.diagnostics`` are all seen.  Each call
becomes a :class:`Span` with a name, start, end, thread, parent and the RNG
stream index of the trial it belongs to.  Spans stay in memory; the caller
writes them out when the run ends.  Leaving the ``with`` block restores every
original function.

Nothing here changes the library: spans are recorded from the benchmark's
side of each call.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

#: Traced public functions, by layer (module of ``levsketch``).
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "experiment": ("run_experiment", "write_report"),
    "problems": ("generate_problem",),
    "mmio": ("read_matrix", "write_matrix"),
    "linalg": ("orthonormal_basis", "exact_lstsq", "spectral_extremes"),
    "leverage": (
        "leverage_scores",
        "profile_from_basis",
        "leverage_distribution",
        "uniform_distribution",
        "blended_distribution",
        "misestimation_beta",
    ),
    "sketch": ("multinomial_draws", "build_sketch", "apply_sketch"),
    "solver": ("solve_with_plan", "accuracy_ratio"),
    "diagnostics": ("check_structural", "check_bounds"),
}

#: The per-trial stages; a trial's latency is the summed duration of its
#: stage spans, so work the caller does between trials is not counted.
TRIAL_STAGES = frozenset({
    "sketch.build_sketch",
    "diagnostics.check_structural",
    "solver.solve_with_plan",
    "solver.accuracy_ratio",
    "diagnostics.check_bounds",
})

#: Spans of tracing bookkeeping; they are children of the span whose call
#: they follow, so they never count as that caller's self time.
HOOK = "trace.hook"

FACTORIZATIONS = ("linalg.orthonormal_basis", "linalg.exact_lstsq", "linalg.spectral_extremes")


class Span:
    __slots__ = ("id", "name", "start", "end", "thread", "parent", "trial", "error")

    def __init__(self, id_, name, thread, parent, trial):
        self.id = id_
        self.name = name
        self.thread = thread
        self.parent = parent
        self.trial = trial
        self.start = self.end = 0.0
        self.error = ""


class Tracer:
    """Wraps the functions of :data:`LAYER_FUNCTIONS` while active.

    ``spans`` and ``counters`` accumulate across activations until
    :meth:`take` hands them over, so one tracer can record several ops.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[Span] = []
        self._cli_calls = 0
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"levsketch.{layer}"]
            for name in names:
                originals[id(getattr(module, name))] = f"{layer}.{name}"
        wrappers = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "levsketch" or n.startswith("levsketch.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                qualname = originals.get(id(value))
                if qualname is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(qualname, value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[Span], Counter]:
        """Return and reset the spans and counters recorded so far."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname: str, fn):
        hook = _HOOKS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                # A worker thread's first call belongs to whatever the main
                # thread is inside (the pool lives in run_experiment).
                main = tracer._main_stack
                parent = main[-1].id if main else 0
            if qualname == "cli.main":
                tracer._cli_calls += 1
                tracer._local.trial = None
            elif qualname == "sketch.build_sketch":
                rng = kwargs["rng"] if "rng" in kwargs else args[2]
                tracer._local.trial = (tracer._cli_calls, rng.stream_index)
            span = Span(next(tracer._ids), qualname, threading.get_ident(), parent,
                        getattr(tracer._local, "trial", None))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook:
                h = Span(next(tracer._ids), HOOK, span.thread, parent, span.trial)
                h.start = span.end
                with tracer._lock:
                    hook(tracer.counters, span, args, kwargs, result)
                h.end = time.perf_counter()
                tracer.spans.append(h)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _count_command(counters, span, args, kwargs, _code):
    argv = args[0] if args else kwargs["argv"]
    counters[f"{argv[0]}_s"] += span.end - span.start


def _count_plan(counters, span, args, kwargs, plan):
    counters["samples"] += plan.n_samples
    counters["unique_rows"] += int(
        np.count_nonzero(np.bincount(plan.draws, minlength=plan.n_source_rows))
    )


def _count_gather(counters, span, args, kwargs, gathered):
    counters["gather_bytes"] += gathered.array.nbytes


def _count_read(counters, span, args, kwargs, m):
    counters["read_bytes"] += os.path.getsize(_path_arg(args, kwargs))
    counters["read_entries"] += m.rows * m.cols


def _count_write(counters, span, args, kwargs, _none):
    counters["write_bytes"] += os.path.getsize(_path_arg(args, kwargs))


def _count_attempts(counters, span, args, kwargs, result):
    counters["attempts"] += result[2]["attempts"]


#: Counter bookkeeping run after a traced call returns.
_HOOKS = {
    "cli.main": _count_command,
    "sketch.build_sketch": _count_plan,
    "sketch.apply_sketch": _count_gather,
    "mmio.read_matrix": _count_read,
    "mmio.write_matrix": _count_write,
    "problems.generate_problem": _count_attempts,
}


# -- analysis ----------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children may run on other threads (trials in the experiment's pool), so
    overlapping children are counted once.
    """
    children = defaultdict(list)
    for sp in spans:
        children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        kids = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.id, ())]
        out[sp.id] = (sp.end - sp.start) - union_length([k for k in kids if k[1] > k[0]])
    return out


def trial_latencies(spans: list[Span]) -> list[float]:
    """Summed stage durations per trial (spans sharing a stream index)."""
    stage_ids = {sp.id for sp in spans if sp.name in TRIAL_STAGES}
    per_trial = defaultdict(float)
    for sp in spans:
        if sp.name in TRIAL_STAGES and sp.trial is not None and sp.parent not in stage_ids:
            per_trial[sp.trial] += sp.end - sp.start
    return list(per_trial.values())


def write_spans(path, ops: list[list[Span]]) -> None:
    """Write spans as JSON lines: a header naming the fields, then one array
    per span, led by the index of the traced op it belongs to."""
    with open(path, "w") as fh:
        fh.write(json.dumps(["op", *Span.__slots__]) + "\n")
        for op_index, spans in enumerate(ops):
            for sp in spans:
                fh.write(json.dumps([op_index, *(getattr(sp, k) for k in Span.__slots__)]) + "\n")


#: Per-layer self time as a share of the traced op's wall time, in percent.
SHARE_METRICS = {
    "sketch.draw_pct": ("sketch.multinomial_draws",),
    "sketch.build_pct": ("sketch.build_sketch",),
    "sketch.gather_pct": ("sketch.apply_sketch",),
    "solver.solve_pct": ("solver.solve_with_plan",),
    "solver.accuracy_ratio_pct": ("solver.accuracy_ratio",),
    "diagnostics.structural_pct": ("diagnostics.check_structural",),
    "diagnostics.bounds_pct": ("diagnostics.check_bounds",),
    "linalg.orthonormal_basis_pct": ("linalg.orthonormal_basis",),
    "linalg.exact_lstsq_pct": ("linalg.exact_lstsq",),
    "linalg.spectral_extremes_pct": ("linalg.spectral_extremes",),
    "problems.generate_pct": ("problems.generate_problem",),
    "leverage.profile_pct": ("leverage.profile_from_basis", "leverage.leverage_scores"),
    "leverage.distribution_pct": (
        "leverage.leverage_distribution",
        "leverage.uniform_distribution",
        "leverage.blended_distribution",
    ),
    "leverage.beta_pct": ("leverage.misestimation_beta",),
    "mmio.read_pct": ("mmio.read_matrix",),
    "mmio.write_pct": ("mmio.write_matrix",),
    "experiment.self_pct": ("experiment.run_experiment",),
    "experiment.report_write_pct": ("experiment.write_report",),
    "cli.self_pct": ("cli.main",),
}

#: Counts that must repeat exactly on every op of one run.
EXACT_METRICS = {
    "sketch.gathers_per_trial": "count",
    "sketch.gather_bytes": "bytes",
    "sketch.unique_row_frac": "frac",
    "solver.rank_deficient": "count",
    "linalg.factorizations_per_problem": "count",
    "problems.attempts": "count",
    "mmio.read_bytes": "bytes",
    "mmio.write_bytes": "bytes",
}


def op_layer_metrics(spans: list[Span], counters: Counter, wall_s: float,
                     n_problems: int) -> dict[str, float]:
    """Per-layer metrics of one traced op that ran for ``wall_s`` seconds."""
    own = self_times(spans)
    by_name = Counter()
    calls = Counter()
    for sp in spans:
        by_name[sp.name] += own[sp.id]
        calls[sp.name] += 1
    out = {m: 100.0 * sum(by_name[n] for n in names) / wall_s
           for m, names in SHARE_METRICS.items()}
    for cmd in ("solve", "leverage"):
        out[f"cli.{cmd}_pct"] = 100.0 * counters[f"{cmd}_s"] / wall_s
    trials = calls["sketch.build_sketch"]
    read_s = sum(sp.end - sp.start for sp in spans if sp.name == "mmio.read_matrix")
    out.update({
        "sketch.gathers_per_trial": calls["sketch.apply_sketch"] / trials if trials else 0.0,
        "sketch.gather_bytes": counters["gather_bytes"],
        "sketch.unique_row_frac": (counters["unique_rows"] / counters["samples"]
                                   if counters["samples"] else 0.0),
        "solver.rank_deficient": sum(1 for sp in spans if sp.name == "solver.solve_with_plan"
                                     and sp.error == "SketchRankDeficientError"),
        "linalg.factorizations_per_problem": sum(calls[n] for n in FACTORIZATIONS) / n_problems,
        "problems.attempts": counters["attempts"],
        "mmio.read_bytes": counters["read_bytes"],
        "mmio.read_entries_per_s": counters["read_entries"] / read_s if read_s else 0.0,
        "mmio.write_bytes": counters["write_bytes"],
    })
    return out
