"""The benchmark's workloads: inputs made from the seed, one op, its checks.

Every workload is a closed loop of one client: the next op starts only after
the previous one has finished.  An op drives the command line in-process
through ``levsketch.cli.main([...])``, so no interpreter start-up is timed.

Why these four:

* ``mc-desk`` is the ``main-theorem-desk`` shape (n=50000, r=5, s=27016 from
  the auto rule).  Per-row trial work (draws, gathers, the small solve, the
  structural and bound checks) is nearly all of its time; set-up
  factorizations are under 1%.  Per-trial kernel changes show here.
* ``mc-sweep-t2`` is the implication sweep (9 small problems, s=24) run with
  two pool threads.  Fixed per-call cost and the thread pool dominate and
  per-row cost is nil, so batching or validation removal shows here and
  per-row gains must not.
* ``mc-wide-setup`` has three 100000x40 problems with few trials, so problem
  generation and the set-up factorizations take most of the time; without
  it the ``linalg`` layer is below 1% everywhere.
* ``files-solve`` runs ``solve`` and ``leverage`` on Matrix Market files;
  parsing dominates and there is no trial loop, so per-trial gains should
  not move it.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field, replace

import levsketch.cli
import levsketch.mmio
import levsketch.problems


@dataclass
class OpResult:
    """What one op did: each command's wall time, the outputs and failed checks."""

    command_s: list[float]
    trials: int
    commands: list[str]
    outputs: dict[str, bytes]
    errors: list[str] = field(default_factory=list)
    sizes: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.command_s)


def run_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one command in-process and time it.

    Returns the exit code (None when an exception escaped), standard output,
    standard error and the wall time in seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = levsketch.cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


@contextlib.contextmanager
def _checking(result: OpResult, what: str):
    """Record an exception raised while checking outputs as a failed check."""
    try:
        yield
    except Exception as exc:  # a malformed output is a failed op, not a crash
        result.errors.append(f"{what}: checking raised {type(exc).__name__}: {exc}")


def _seeds(name: str, seed: int, count: int) -> list[int]:
    rnd = random.Random(f"{name}:{seed}")
    return [rnd.randrange(2**31) for _ in range(count)]


def _stdout_field(text: str, key: str) -> str:
    for token in text.split():
        if token.startswith(key + "="):
            return token[len(key) + 1:]
    raise ValueError(f"no {key}= in output {text[:200]!r}")


@dataclass(frozen=True)
class BenchConfig:
    kind: str
    n_rows: int
    n_cols: int
    dist: str
    samples: str
    epsilon: float
    delta: float
    trials: int
    rhs_cols: int = 2
    noise_scale: float = 1.0
    coherence_target: float = 0.0


@dataclass(frozen=True)
class BenchWorkload:
    """One op runs ``bench`` once per config, each writing a CSV report."""

    name: str
    configs: tuple[BenchConfig, ...]
    threads: int = 1

    @property
    def n_problems(self) -> int:
        return len(self.configs)

    def build(self, seed: int, directory) -> list[str]:
        seeds = _seeds(self.name, seed, 2 * len(self.configs))
        paths = []
        for i, cfg in enumerate(self.configs):
            path = directory / f"run{i}.cfg"
            lines = [f"{k} = {v}" for k, v in vars(cfg).items()]
            lines.append(f"problem_seed = {seeds[2 * i]}")
            lines.append(f"seed = {seeds[2 * i + 1]}")
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        return paths

    def op(self, inputs: list[str], directory, threads: int | None = None) -> OpResult:
        threads = self.threads if threads is None else threads
        reports = [str(directory / f"report{i}.csv") for i in range(len(inputs))]
        runs = [run_cli(["bench", "--config", cfg, "--out", out, "--threads", str(threads)])
                for cfg, out in zip(inputs, reports)]
        result = OpResult(command_s=[r[3] for r in runs],
                          trials=sum(c.trials for c in self.configs),
                          commands=["bench"] * len(inputs), outputs={})
        for i, (cfg, out, (code, stdout, stderr, _)) in enumerate(zip(self.configs, reports, runs)):
            if code != 0:
                result.errors.append(f"bench {i} exited {code}: {stderr.strip()[:200]}")
                continue
            with _checking(result, f"report {i}"):
                with open(out, "rb") as fh:
                    text = fh.read()
                body, s, errors = _check_report(text.decode(), cfg.trials)
                result.errors.extend(f"report {i}: {e}" for e in errors)
                result.outputs[f"report{i}.csv"] = body
                result.outputs[f"stdout{i}"] = stdout.encode()
                result.sizes.append({"n": cfg.n_rows, "r": cfg.n_cols, "m": cfg.rhs_cols,
                                     "s": s, "trials": cfg.trials,
                                     "entries": cfg.n_rows * (cfg.n_cols + cfg.rhs_cols)})
        return result

    def final_check(self, inputs: list[str], directory, reference: OpResult) -> OpResult | None:
        """With pool threads, a 1-thread run whose reports must equal the reference op's."""
        if self.threads == 1:
            return None
        serial = self.op(inputs, directory, threads=1)
        for key, body in serial.outputs.items():
            if key.endswith(".csv") and body != reference.outputs.get(key):
                serial.errors.append(f"{key} differs from the {self.threads}-thread report")
        return serial


def _check_report(text: str, trials: int) -> tuple[bytes, int, list[str]]:
    """Return the report without its wall-time line, its ``s`` and failures."""
    lines = text.rstrip("\n").split("\n")
    errors = []
    if not lines[-1].startswith("# wall_time_s="):
        errors.append("last line is not '# wall_time_s='")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    trailer = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    if len(rows) != trials or [int(r[0]) for r in rows] != list(range(trials)):
        errors.append(f"expected one record per trial for {trials} trials, got {len(rows)}")
    err_col = header.index("error")
    failed = [r[0] for r in rows if r[err_col]]
    if failed:
        errors.append(f"{len(failed)} trial(s) recorded an error, first {failed[0]}")
    if trailer.get("implication_violations") != "0":
        errors.append(f"implication_violations={trailer.get('implication_violations')}")
    body = "\n".join(lines[:-1]).encode()
    return body, int(trailer.get("s", 0)), errors


@dataclass(frozen=True)
class FilesWorkload:
    """One op runs ``solve --exact --out`` and then ``leverage --out``."""

    name: str
    n_rows: int = 50000
    n_cols: int = 5
    rhs_cols: int = 2
    coherence: float = 0.9
    n_problems: int = 1
    threads = 1  # both commands run on the calling thread

    def build(self, seed: int, directory) -> dict:
        problem_seed, solve_seed = _seeds(self.name, seed, 2)
        spec = levsketch.problems.ProblemSpec(
            "spiked-coherent", self.n_rows, self.n_cols, rhs_cols=self.rhs_cols,
            coherence_target=self.coherence, seed=problem_seed,
        )
        a, b, _meta = levsketch.problems.generate_problem(spec)
        paths = {"a": str(directory / "A.mtx"), "b": str(directory / "B.mtx")}
        levsketch.mmio.write_matrix(paths["a"], a)
        levsketch.mmio.write_matrix(paths["b"], b)
        return {**paths, "seed": solve_seed}

    def op(self, inputs: dict, directory) -> OpResult:
        x_path, scores_path = str(directory / "X.mtx"), str(directory / "scores.txt")
        solve = run_cli(["solve", inputs["a"], inputs["b"], "--exact", "--out", x_path,
                         "--seed", str(inputs["seed"])])
        lev = run_cli(["leverage", inputs["a"], "--out", scores_path])
        result = OpResult(command_s=[solve[3], lev[3]], trials=1,
                          commands=["solve", "leverage"], outputs={})
        for cmd, (code, _out, stderr, _) in (("solve", solve), ("leverage", lev)):
            if code != 0:
                result.errors.append(f"{cmd} exited {code}: {stderr.strip()[:200]}")
        if result.errors:
            return result
        with _checking(result, "outputs"):
            with open(x_path, "rb") as fh:
                x_bytes = fh.read()
            with open(scores_path, "rb") as fh:
                scores_bytes = fh.read()
            result.outputs = {"solve": solve[1].encode(), "leverage": lev[1].encode(),
                              "X.mtx": x_bytes, "scores.txt": scores_bytes}
            result.errors.extend(self._check(solve[1], x_bytes, scores_bytes))
            s = int(_stdout_field(solve[1], "s"))
            result.sizes.append({"n": self.n_rows, "r": self.n_cols, "m": self.rhs_cols, "s": s,
                                 "trials": 1,
                                 "entries": self.n_rows * (self.n_cols + self.rhs_cols)})
        return result

    def _check(self, solve_out: str, x_bytes: bytes, scores_bytes: bytes) -> list[str]:
        errors = []
        ratio = float(_stdout_field(solve_out, "accuracy_ratio"))
        if not (math.isfinite(ratio) and ratio >= 1.0 - 1e-12):
            errors.append(f"accuracy_ratio={ratio!r}")
        x_lines = x_bytes.decode().split()
        shape = x_lines[5:7] if x_lines[:1] == ["%%MatrixMarket"] else []
        entries = [float(v) for v in x_lines[7:]]
        if shape != [str(self.n_cols), str(self.rhs_cols)] or len(entries) != (
            self.n_cols * self.rhs_cols
        ) or not all(map(math.isfinite, entries)):
            errors.append(f"X.mtx does not read back as {self.n_cols}x{self.rhs_cols}")
        scores = [float(v) for v in scores_bytes.decode().split("\n") if v]
        if len(scores) != self.n_rows:
            errors.append(f"scores.txt has {len(scores)} lines, expected {self.n_rows}")
        elif abs(math.fsum(scores) - self.n_cols) > 1e-8:
            errors.append(f"scores sum to {math.fsum(scores)!r}, expected rank {self.n_cols}")
        elif abs(max(scores) - self.coherence) > 1e-9:
            errors.append(f"coherence {max(scores)!r}, planted {self.coherence}")
        return errors

    def final_check(self, inputs, directory, reference) -> None:
        return None


def workloads(tiny: bool = False) -> dict:
    """The workloads by name; ``tiny`` shrinks every size for self-tests."""
    desk = BenchConfig("gaussian-incoherent", 50000, 5, "leverage", "auto", 0.1, 0.2, 50)
    sweep = tuple(
        BenchConfig(kind, 600, 4, dist, "xr:6", 0.3, 0.3, 120, noise_scale=0.8,
                    coherence_target=0.9 if kind == "spiked-coherent" else 0.0)
        for kind in ("gaussian-incoherent", "spiked-coherent", "consistent")
        for dist in ("leverage", "uniform", "blended:0.5")
    )
    wide = (
        BenchConfig("gaussian-incoherent", 100000, 40, "leverage", "xr:10", 0.1, 0.1, 10),
        BenchConfig("spiked-coherent", 100000, 40, "blended:0.5", "xr:10", 0.1, 0.1, 10,
                    coherence_target=0.5),
        BenchConfig("consistent", 100000, 40, "uniform", "xr:10", 0.1, 0.1, 10),
    )
    files = FilesWorkload("files-solve")
    if tiny:
        desk = replace(desk, n_rows=2000, trials=4)
        sweep = tuple(replace(c, n_rows=60, trials=4) for c in sweep[::4])
        wide = tuple(replace(c, n_rows=3000, n_cols=6, trials=3) for c in wide)
        files = replace(files, n_rows=400)
    return {
        "mc-desk": BenchWorkload("mc-desk", (desk,)),
        "mc-sweep-t2": BenchWorkload("mc-sweep-t2", sweep, threads=2),
        "mc-wide-setup": BenchWorkload("mc-wide-setup", wide),
        "files-solve": files,
    }
