"""Self-tests of the benchmark at tiny sizes, on the code path of real runs.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_levsketch()  # before the modules that import levsketch

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.workloads())


@pytest.mark.parametrize("name", list(workloads.workloads(tiny=True)))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, prov, _ = run.run_benchmark(name, seed=5, seconds=0.05, trace=trace,
                                        tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert prov["workload"] == name and prov["seed"] == 5 and prov["sizes"]
    assert set(prov["thread_env"]) == set(run.THREAD_ENV)
    json.dumps(result)


def test_traced_run_checks_outputs_against_untraced():
    result, _, _ = run.run_benchmark("mc-desk", seed=2, seconds=0.05, trace=1,
                                     tiny=True)
    assert result["correct"] and result["attempted"] >= 2
    # The gate itself: an op whose outputs differ from the first is failed.
    outputs = iter([b"a", b"a", b"b"])

    class Drifting:
        n_problems = 1

        def op(self, inputs, directory):
            return workloads.OpResult(0.1, 1, ["bench"], {"report": next(outputs)})

        def final_check(self, inputs, directory, reference):
            return None

    r = run.Run(Drifting(), None, None)
    for _ in range(3):
        r.op()
    assert r.failed == 1 and "report" in r.errors()[0]


@pytest.mark.parametrize("name", ["mc-desk", "files-solve"])
def test_malformed_output_is_a_failed_op(name, tmp_path, monkeypatch):
    # Exit 0 with no output files and an unparsable standard output.
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (0, "s=x", "", 0.01))
    wl = workloads.workloads(tiny=True)[name]
    result = wl.op(wl.build(1, tmp_path), tmp_path)
    assert result.errors and "checking raised" in result.errors[0]


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "levsketch" or name.startswith("levsketch.")
            for attr, value in vars(mod).items()}


def test_wrappers_cover_every_importer_and_are_restored():
    import levsketch.diagnostics
    import levsketch.experiment
    import levsketch.sketch
    import levsketch.solver

    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            for mod in (levsketch.experiment, levsketch.solver, levsketch.sketch):
                assert mod.build_sketch is not before[(mod.__name__, "build_sketch")]
            for mod in (levsketch.solver, levsketch.diagnostics, levsketch.sketch):
                assert mod.apply_sketch.__wrapped__ is before[(mod.__name__, "apply_sketch")]
            raise RuntimeError("leave the block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_counts_overlapping_children_once():
    def span(id_, parent, start, end):
        sp = spans.Span(id_, "x", 0, parent, None)
        sp.start, sp.end = start, end
        return sp

    tree = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 1, 3.0, 6.0),
            span(4, 2, 1.5, 2.0)]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.5)
    assert spans.union_length([(0, 1), (2, 3), (2.5, 4)]) == pytest.approx(3.0)


def test_tail_leaves_ten_values_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == 2.0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
