"""levsketch benchmark: one workload, one seed, one measured window.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-desk --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout it runs in.  Inputs
come from ``--seed`` only.  Set-up is measured five times: building the
workload's inputs plus importing ``levsketch.cli`` in a fresh interpreter
(the interpreter's own start-up is not counted).  Then
ops run back to back for ``--seconds`` and every op's outputs are checked.

Times are reported in calibrated seconds (see ``yardstick.py``): each
measured duration is scaled by how fast a fixed reference kernel ran just
before and just after it, which cancels the speed swings of a shared host.
``setup_s`` and ``op_p50_s`` are medians of calibrated durations.  The raw
wall-clock figures are printed too, in the line before the result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance of the run and the raw details.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced ops,
reports the per-layer metrics of the traced ones and the tracing overhead,
and writes every span to ``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Exit status is 0 whenever a result line is printed (``correct`` says whether
the checks passed), and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import levsketch.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_levsketch():
    """Import levsketch from this checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    if not (src / "levsketch" / "__init__.py").is_file():
        raise ImportError(f"no levsketch sources under {src}")
    sys.path.insert(0, str(src))
    import levsketch

    if not Path(levsketch.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"levsketch was imported from {levsketch.__file__}, not {src}")
    return levsketch


def import_seconds() -> float:
    """Time to import levsketch.cli (numpy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def per_layer_units() -> dict[str, str]:
    import spans

    units = {name: "%" for name in spans.SHARE_METRICS}
    units.update({"cli.solve_pct": "%", "cli.leverage_pct": "%"})
    units.update(spans.EXACT_METRICS)
    units.update({
        "mmio.read_entries_per_s": "entries/s",
        "experiment.trial_p50_ms": "ms",
        "experiment.trial_tail_ms": "ms",
        "trace.op_wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it.

    With ten values or fewer no such percentile exists; the median stands in.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return statistics.median(ordered)
    return ordered[len(ordered) - 11]


def _same_files(first: Path, other: Path) -> bool:
    names = sorted(p.name for p in first.iterdir())
    return names == sorted(p.name for p in other.iterdir()) and all(
        (first / n).read_bytes() == (other / n).read_bytes() for n in names
    )


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levsketch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, seconds: int, trace: int, sizes) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


class Run:
    """Ops of one run, with the output and count checks that link them."""

    def __init__(self, wl, inputs, op_dir: Path):
        self.wl = wl
        self.inputs = inputs
        self.op_dir = op_dir
        self.ops = []
        self.reference = None

    def op(self, tracer=None):
        if tracer is None:
            result = self.wl.op(self.inputs, self.op_dir)
        else:
            with tracer:
                result = self.wl.op(self.inputs, self.op_dir)
        if self.reference is None and not result.errors:
            self.reference = result
        elif self.reference is not None:
            changed = sorted(k for k in set(result.outputs) | set(self.reference.outputs)
                             if result.outputs.get(k) != self.reference.outputs.get(k))
            if changed:
                result.errors.append(f"outputs differ from the first op's: {changed}")
            result.outputs = {}  # only the reference's are kept, so memory stays flat
        self.ops.append(result)
        return result

    def finish(self, directory: Path) -> None:
        if self.reference is not None:
            serial = self.wl.final_check(self.inputs, directory, self.reference)
            if serial is not None:
                self.ops.append(serial)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if r.errors)

    def errors(self) -> list[str]:
        return [e for r in self.ops for e in r.errors]


def _untraced(run: Run, seconds: float, ruler) -> tuple[dict, dict]:
    """End-to-end op metrics of a timed loop, plus raw wall-clock details."""
    timed, calibrated = [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(run.op())
        calibrated.append(ruler.calibrate(timed[-1].wall_s))
    op_p50 = statistics.median(calibrated)
    wall_p50 = statistics.median(r.wall_s for r in timed)
    detail = {
        "ops": len(timed),
        "op_tail_s": tail(calibrated),
        "wall_op_p50_s": wall_p50,
        "wall_trials_per_s": timed[0].trials / wall_p50,
        "wall_command_p50_s": [[c, statistics.median(t)] for c, t in
                               zip(timed[0].commands, zip(*(r.command_s for r in timed)))],
        "yardstick_p50_s": statistics.median(ruler.samples),
    }
    return {"op_p50_s": op_p50}, detail


def _traced(run: Run, seconds: float, spans_path: Path) -> dict:
    import spans

    tracer = spans.Tracer()
    untraced, traced, per_op, recorded = [], [], [], []
    trial_ms = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run.op())
        result = run.op(tracer)
        op_spans, counters = tracer.take()
        traced.append(result)
        recorded.append(op_spans)
        metrics = spans.op_layer_metrics(op_spans, counters, result.wall_s, run.wl.n_problems)
        for name in spans.EXACT_METRICS:
            if per_op and metrics[name] != per_op[0][name]:
                result.errors.append(f"{name}={metrics[name]!r}, first op had {per_op[0][name]!r}")
        per_op.append(metrics)
        trial_ms.extend(1e3 * t for t in spans.trial_latencies(op_spans))
    spans.write_spans(spans_path, recorded)

    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    out.update({name: per_op[0][name] for name in spans.EXACT_METRICS})
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out.update({
        "experiment.trial_p50_ms": statistics.median(trial_ms) if trial_ms else 0.0,
        "experiment.trial_tail_ms": tail(trial_ms) if trial_ms else 0.0,
        "trace.op_wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
    })
    return out


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  tiny: bool = False) -> tuple[dict, dict, dict]:
    """Run one workload; return the result, its provenance and details."""
    import workloads
    import yardstick

    wl = workloads.workloads(tiny)[workload]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        with yardstick.Yardstick(wl.threads) as ruler:
            setups, dirs = [], []
            for k in range(SETUP_REPEATS):
                d = work / f"inputs{k}"
                d.mkdir()
                t0 = time.perf_counter()
                inputs = wl.build(seed, d)
                build_s = time.perf_counter() - t0
                setups.append(ruler.calibrate(import_seconds() + build_s))
                dirs.append(d)
            setup_s = statistics.median(setups)
            setup_errors = [f"set-up {d.name} differs from {dirs[0].name}"
                            for d in dirs[1:] if not _same_files(dirs[0], d)]

            op_dir = work / "op"
            op_dir.mkdir()
            run = Run(wl, inputs, op_dir)
            if trace:
                spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
                metrics, detail = _traced(run, seconds, spans_path), {}
                units = per_layer_units()
            else:
                metrics, detail = _untraced(run, seconds, ruler)
                units = END_TO_END_UNITS
            (work / "serial").mkdir()
            run.finish(work / "serial")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run.ops)
    failed = min(attempted, run.failed + (1 if setup_errors else 0))
    if not trace:
        metrics.update({
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        })
    for err in (setup_errors + run.errors())[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    sizes = run.reference.sizes if run.reference is not None else []
    return result, provenance(workload, seed, seconds, trace, sizes), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_levsketch()
    except ImportError as exc:
        print(f"error: cannot import levsketch: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.workloads():
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.workloads())}", file=sys.stderr)
        return 2
    result, prov, detail = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"provenance": prov, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
