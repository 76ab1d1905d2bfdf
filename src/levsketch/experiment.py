"""Monte Carlo bench harness: repeated sketched solves with diagnostics.

A trial config fixes one problem instance, a sampling distribution, a
sample-count rule, and an accuracy target.  Each trial derives its own
random stream from the master seed, so reports are bit-reproducible for a
fixed seed.  Trials run serially: each is one draw, one gather and one small
solve, and BLAS already spreads the solves over the available cores.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .diagnostics import StructuralReport, TrialScore, TrialScorer
from .exceptions import (
    GenerationFailedError,
    InvalidParameterError,
    InvalidSampleCountError,
)
from .leverage import (
    SamplingDistribution,
    blended_distribution,
    leverage_distribution,
    misestimation_beta,
    profile_from_basis,
    uniform_distribution,
)
from .linalg import exact_lstsq
from .problems import ProblemSpec, generate_problem
from .sketch import RngStream, build_sketch
from .solver import AccuracyTarget, required_samples

#: Column order of CSV reports, fixed so reports are byte-comparable.
CSV_COLUMNS = (
    "trial_id",
    "s",
    "beta",
    "sc1_value",
    "sc1_holds",
    "sc2_value",
    "sc2_holds",
    "accuracy_ratio",
    "eps_accurate",
    "solution_err_sq",
    "solution_bound_limit",
    "solution_bound_holds",
    "residual_bound_holds",
    "gamma",
    "gamma_bound_limit",
    "gamma_bound_holds",
    "error",
    "rng_algorithm",
    "rng_seed",
    "rng_stream_index",
)

#: Most rows one sketch may draw; a sketch of s rows is gathered into
#: s x (r + m) float64 arrays.  Larger requests (the auto rule asks for 5e12
#: rows at epsilon = delta = 1e-6) fail before anything is allocated.
MAX_SAMPLES = 10_000_000


def parse_distribution_spec(text: str) -> tuple[str, float]:
    """Parse ``leverage``, ``uniform``, or ``blended:ALPHA``."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "blended":
        try:
            alpha = float(arg)
        except ValueError:
            raise InvalidParameterError(
                f"blended distribution needs a numeric alpha, got {text!r}"
            ) from None
        if not (0.0 <= alpha <= 1.0):
            raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
        return "blended", alpha
    if name in ("leverage", "uniform") and not arg:
        return name, 0.0
    raise InvalidParameterError(
        f"unknown distribution {text!r}; use leverage, uniform, or blended:ALPHA"
    )


def parse_sample_rule(text: str) -> tuple[str, int]:
    """Parse ``auto`` (sample-size formula), an explicit count, or ``xr:C``."""
    t = text.strip().lower()
    if t == "auto":
        return "auto", 0
    if t.startswith("xr:"):
        try:
            c = int(t[3:])
        except ValueError:
            raise InvalidParameterError(
                f"multiple-of-rank rule needs an integer, got {text!r}"
            ) from None
        if c < 1:
            raise InvalidParameterError(f"rank multiple must be >= 1, got {c}")
        return "xr", c
    try:
        s = int(t)
    except ValueError:
        raise InvalidParameterError(
            f"samples must be 'auto', an integer, or 'xr:C', got {text!r}"
        ) from None
    if s < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {s}")
    return "explicit", s


@dataclass(frozen=True)
class TrialConfig:
    """One bench run: a problem, a distribution, a sample rule, a target."""

    problem: ProblemSpec
    distribution: str = "leverage"
    sample_rule: str = "auto"
    target: AccuracyTarget = field(default_factory=lambda: AccuracyTarget(0.1, 0.1))
    n_trials: int = 100
    master_seed: int = 0
    cap_samples: int = 0

    def __post_init__(self) -> None:
        parse_distribution_spec(self.distribution)
        parse_sample_rule(self.sample_rule)
        if self.n_trials < 1:
            raise InvalidParameterError(f"need n_trials >= 1, got {self.n_trials}")
        if self.cap_samples < 0:
            raise InvalidParameterError(
                f"cap_samples must be >= 0 (0 = no cap), got {self.cap_samples}"
            )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single sketched solve."""

    trial_id: int
    s: int
    beta: float
    sc1_value: float
    sc1_holds: bool
    sc2_value: float
    sc2_holds: bool
    accuracy_ratio: float
    eps_accurate: bool
    solution_err_sq: float
    solution_bound_limit: float
    solution_bound_holds: bool
    residual_bound_holds: bool
    gamma: float
    gamma_bound_limit: float
    gamma_bound_holds: bool
    error: str
    rng_algorithm: str
    rng_seed: int
    rng_stream_index: int


@dataclass(frozen=True)
class ExperimentReport:
    """All trial records plus aggregate rates for one config."""

    config: TrialConfig
    records: tuple[TrialRecord, ...]
    s: int
    beta: float
    success_rate: float
    sc1_rate: float
    sc2_rate: float
    implication_violations: int
    wall_time_s: float


def build_distribution(spec_text: str, profile) -> tuple[SamplingDistribution, float]:
    """The distribution named by ``spec_text`` and its ``beta``: the analytic
    annotation when there is one, else the estimate against ``profile``."""
    name, alpha = parse_distribution_spec(spec_text)
    if name == "leverage":
        dist = leverage_distribution(profile)
    elif name == "uniform":
        dist = uniform_distribution(profile.n_rows)
    else:
        dist = blended_distribution(leverage_distribution(profile), alpha)
    beta = dist.beta if dist.beta is not None else misestimation_beta(dist, profile)
    return dist, beta


def sample_count(
    rule_text: str, rank: int, beta: float, target: AccuracyTarget, cap: int = 0
) -> int:
    """Rows per sketch for a sample rule, capped at ``cap`` when ``cap > 0``;
    raises InvalidSampleCountError past :data:`MAX_SAMPLES`."""
    rule, arg = parse_sample_rule(rule_text)
    if rule == "auto":
        s = required_samples(rank, beta, target)
    elif rule == "xr":
        s = arg * rank
    else:
        s = arg
    if cap > 0:
        s = min(s, cap)
    if s > MAX_SAMPLES:
        raise InvalidSampleCountError(
            f"sample rule {rule_text!r} asks for {s} rows per sketch, over the "
            f"budget of {MAX_SAMPLES}; lower it with --cap-samples or an "
            f"explicit --samples count"
        )
    return s


#: Stands in for the bound verdicts of a trial that has none.
_NO_BOUNDS = SimpleNamespace(
    residual_bound_holds=False,
    solution_bound_value=float("nan"),
    solution_bound_limit=float("nan"),
    solution_bound_holds=False,
    gamma=float("nan"),
    gamma_bound_limit=float("nan"),
    gamma_bound_holds=False,
)


def _record(cfg: TrialConfig, t: int, s: int, beta: float, score: TrialScore) -> TrialRecord:
    sr = score.structural
    br = score.bounds or _NO_BOUNDS
    return TrialRecord(
        trial_id=t,
        s=s,
        beta=beta,
        sc1_value=sr.sc1_value,
        sc1_holds=sr.sc1_holds,
        sc2_value=sr.sc2_value,
        sc2_holds=sr.sc2_holds,
        accuracy_ratio=score.accuracy_ratio,
        eps_accurate=score.accuracy_ratio <= 1.0 + cfg.target.epsilon,
        solution_err_sq=br.solution_bound_value,
        solution_bound_limit=br.solution_bound_limit,
        solution_bound_holds=br.solution_bound_holds,
        residual_bound_holds=br.residual_bound_holds,
        gamma=br.gamma,
        gamma_bound_limit=br.gamma_bound_limit,
        gamma_bound_holds=br.gamma_bound_holds,
        error=score.error,
        rng_algorithm=RngStream.algorithm_id,
        rng_seed=cfg.master_seed,
        rng_stream_index=t + 1,
    )


def run_experiment(cfg: TrialConfig) -> ExperimentReport:
    """Run ``cfg.n_trials`` independent sketched solves and score them.

    Trial ``t`` uses the stream ``(master_seed, t + 1)``; stream 0 is
    reserved for problem generation.  The problem is factored once; each
    trial then draws a plan and hands it to a :class:`TrialScorer`, which
    scores it with one gather and one small solve in the coordinates of the
    orthonormal basis.  Trials run one after another.  Per-trial failures (a
    sketch losing rank) become failure records, never batch aborts; so does
    every trial of a problem that cannot be generated.
    """
    t_start = time.perf_counter()
    try:
        a, b, _meta = generate_problem(cfg.problem)
    except GenerationFailedError as exc:
        nan = float("nan")
        s, beta = 0, nan
        failed = TrialScore(
            structural=StructuralReport(nan, False, nan, False),
            accuracy_ratio=float("inf"),
            bounds=None,
            error=f"generation failed: {exc}",
        )
        scores = [failed] * cfg.n_trials
    else:
        exact = exact_lstsq(a, b)
        # Trials read only the factors of the exact solve.  Dropping the
        # problem, and then the column-major copies the scorer's block
        # replaces, keeps peak memory at the factorization's.
        del a, b, _meta
        profile = profile_from_basis(exact.basis)
        dist, beta = build_distribution(cfg.distribution, profile)
        s = sample_count(cfg.sample_rule, profile.rank, beta, cfg.target, cfg.cap_samples)
        scorer = TrialScorer(exact, cfg.target.epsilon)
        del exact, profile
        scores = (
            scorer.score(build_sketch(dist, s, RngStream(cfg.master_seed, stream_index=t + 1)))
            for t in range(cfg.n_trials)
        )
    records = tuple(_record(cfg, t, s, beta, score) for t, score in enumerate(scores))

    n = cfg.n_trials
    violations = sum(
        1
        for r in records
        if r.sc1_holds
        and r.sc2_holds
        and not (r.residual_bound_holds and r.solution_bound_holds)
    )
    return ExperimentReport(
        config=cfg,
        records=records,
        s=s,
        beta=beta,
        success_rate=sum(r.eps_accurate for r in records) / n,
        sc1_rate=sum(r.sc1_holds for r in records) / n,
        sc2_rate=sum(r.sc2_holds for r in records) / n,
        implication_violations=violations,
        wall_time_s=time.perf_counter() - t_start,
    )


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(v).replace(",", ";").replace("\n", " ")


def report_lines(report: ExperimentReport) -> list[str]:
    """CSV lines for a report: header, one row per trial, aggregate trailer.

    The trailer lines start with ``#``; the wall-time line is always last
    so byte-level comparisons can drop it.
    """
    lines = [",".join(CSV_COLUMNS)]
    for rec in report.records:
        lines.append(",".join(_fmt(getattr(rec, c)) for c in CSV_COLUMNS))
    lines.append(f"# n_trials={report.config.n_trials}")
    lines.append(f"# s={report.s}")
    lines.append(f"# beta={_fmt(report.beta)}")
    lines.append(f"# success_rate={_fmt(report.success_rate)}")
    lines.append(f"# sc1_rate={_fmt(report.sc1_rate)}")
    lines.append(f"# sc2_rate={_fmt(report.sc2_rate)}")
    lines.append(f"# implication_violations={report.implication_violations}")
    lines.append(f"# master_seed={report.config.master_seed}")
    lines.append(f"# wall_time_s={_fmt(report.wall_time_s)}")
    return lines


def write_report(report: ExperimentReport, path) -> None:
    """Write the CSV report; bytes are identical for identical records."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(report_lines(report)))
        fh.write("\n")


@dataclass(frozen=True)
class Preset:
    """Named validation scenario: configs plus pass/fail checks."""

    name: str
    description: str
    configs: tuple[TrialConfig, ...]
    checks: tuple[tuple[str, Callable[[list[ExperimentReport]], tuple[bool, str]]], ...]

    def run(self) -> list[ExperimentReport]:
        return [run_experiment(c) for c in self.configs]

    def evaluate(self, reports: list[ExperimentReport]) -> list[tuple[str, bool, str]]:
        return [(name, *check(reports)) for name, check in self.checks]


def _three_se(rate: float, n: int) -> float:
    return 3.0 * math.sqrt(rate * (1.0 - rate) / n)


def _check_success(threshold: float):
    def check(reports: list[ExperimentReport]) -> tuple[bool, str]:
        rate = reports[0].success_rate
        return rate >= threshold, f"success_rate={rate:.4f} threshold={threshold:.4f}"

    return check


def _check_sc2_rate(threshold: float):
    def check(reports: list[ExperimentReport]) -> tuple[bool, str]:
        rate = reports[0].sc2_rate
        return rate >= threshold, f"sc2_rate={rate:.4f} threshold={threshold:.4f}"

    return check


def _check_no_violations(reports: list[ExperimentReport]) -> tuple[bool, str]:
    total = sum(r.implication_violations for r in reports)
    return total == 0, f"implication_violations={total}"


def _check_leverage_beats_uniform(reports: list[ExperimentReport]) -> tuple[bool, str]:
    lev, unif = reports[0].success_rate, reports[1].success_rate
    return lev >= unif, f"leverage={lev:.4f} uniform={unif:.4f}"


def _builtin_presets() -> dict[str, Preset]:
    presets: dict[str, Preset] = {}

    # Desk-scale end-to-end run of the sample-size formula: n=50000, r=5,
    # delta=0.2, eps=0.1 puts the formula on its log branch (s = 27016).
    desk = TrialConfig(
        problem=ProblemSpec("gaussian-incoherent", 50000, 5, rhs_cols=2, seed=20240501),
        distribution="leverage",
        sample_rule="auto",
        target=AccuracyTarget(epsilon=0.1, delta=0.2),
        n_trials=200,
        master_seed=915247,
    )
    presets["main-theorem-desk"] = Preset(
        name="main-theorem-desk",
        description="formula-sized leverage sketch solves within (1+eps) "
        "at rate >= 1-delta minus 3 standard errors (200 trials)",
        configs=(desk,),
        checks=(
            ("success_rate", _check_success(0.8 - _three_se(0.8, 200))),
            ("implication_violations", _check_no_violations),
        ),
    )

    # Cross-term condition at its Markov-bound sample count s = 128.
    sc2 = TrialConfig(
        problem=ProblemSpec("gaussian-incoherent", 20000, 8, rhs_cols=2, seed=77001),
        distribution="leverage",
        sample_rule="128",
        target=AccuracyTarget(epsilon=0.5, delta=0.25),
        n_trials=400,
        master_seed=77002,
    )
    presets["sc2-markov-desk"] = Preset(
        name="sc2-markov-desk",
        description="cross-term condition holds at rate >= 1-delta minus 3 "
        "standard errors with the minimal Markov sample count (400 trials)",
        configs=(sc2,),
        checks=(
            ("sc2_rate", _check_sc2_rate(0.75 - _three_se(0.75, 400))),
            ("implication_violations", _check_no_violations),
        ),
    )

    # Every kind x distribution combination; the structural implication
    # must never be violated, whatever the success rates are.
    sweep = []
    seed = 5150
    for kind in ("gaussian-incoherent", "spiked-coherent", "consistent"):
        for dist in ("leverage", "uniform", "blended:0.5"):
            seed += 1
            spec = ProblemSpec(
                kind,
                600,
                4,
                rhs_cols=2,
                noise_scale=0.8,
                coherence_target=0.9 if kind == "spiked-coherent" else 0.0,
                seed=seed,
            )
            sweep.append(
                TrialConfig(
                    problem=spec,
                    distribution=dist,
                    sample_rule="xr:6",
                    target=AccuracyTarget(epsilon=0.3, delta=0.3),
                    n_trials=120,
                    master_seed=seed * 31 + 7,
                )
            )
    presets["implication-sweep"] = Preset(
        name="implication-sweep",
        description="structural conditions imply both accuracy bounds on "
        "every problem kind and distribution (1080 trials)",
        configs=tuple(sweep),
        checks=(("implication_violations", _check_no_violations),),
    )

    # A planted high-leverage row: leverage sampling must do at least as
    # well as uniform at the same sample count.
    spiked = ProblemSpec(
        "spiked-coherent", 1000, 4, rhs_cols=1, noise_scale=0.5,
        coherence_target=0.99, seed=31337,
    )
    lev_cfg = TrialConfig(
        problem=spiked,
        distribution="leverage",
        sample_rule="xr:12",
        target=AccuracyTarget(epsilon=0.25, delta=0.2),
        n_trials=200,
        master_seed=4242,
    )
    unif_cfg = replace(lev_cfg, distribution="uniform")
    presets["leverage-vs-uniform"] = Preset(
        name="leverage-vs-uniform",
        description="on a coherent problem, leverage sampling succeeds at "
        "least as often as uniform at equal sample count (200 trials each)",
        configs=(lev_cfg, unif_cfg),
        checks=(("leverage_beats_uniform", _check_leverage_beats_uniform),),
    )

    smoke = TrialConfig(
        problem=ProblemSpec("gaussian-incoherent", 300, 3, rhs_cols=1, seed=99),
        distribution="leverage",
        sample_rule="xr:8",
        target=AccuracyTarget(epsilon=0.3, delta=0.3),
        n_trials=20,
        master_seed=100,
    )
    presets["smoke"] = Preset(
        name="smoke",
        description="tiny end-to-end pipeline exercise (20 trials)",
        configs=(smoke,),
        checks=(("implication_violations", _check_no_violations),),
    )
    return presets


PRESETS = _builtin_presets()
