"""Monte Carlo bench harness: repeated sketched solves with diagnostics.

A trial config fixes one problem instance, a sampling distribution, a
sample-count rule, and an accuracy target.  Trial ``t`` draws from its own
random stream ``(master_seed, t + 1)``, so reports are bit-reproducible for a
fixed seed.  Trials run serially, a chunk at a time: the chunk's streams
are one reused Philox with its counter set per stream
(:class:`~levsketch.sketch.TrialStreams`, equal to
:class:`~levsketch.sketch.RngStream` bit for bit), one sort and one
guide-table lookup draw a chunk's sketches, one gather of their distinct
rows and stacked small solves score them, and BLAS already spreads the work
over the available cores.  Reports are byte-identical whatever the chunk size.
A report keeps its trials as the scorer's
:class:`~levsketch.diagnostics.ChunkScores` columns, the one per-trial
schema: they are the report's per-trial CSV columns, and each column's dtype
picks its formatting in the report's one row template.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal
from itertools import chain
from typing import Callable

import numpy as np

from .diagnostics import ChunkScores, TrialScorer
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
    uniform_distribution,
)
from .linalg import as_int
from .problems import ProblemSpec, generate_problem
# build_sketch is unused here; perfbench's tracer test checks that it wraps this binding.
from .sketch import RngStream, TrialStreams, build_sketch, draw_chunk  # noqa: F401
from .solver import AccuracyTarget, required_samples

#: Most rows one sketch may draw; a sketch of s rows is gathered into
#: s x (r + m) float64 arrays.  Larger requests (the auto rule asks for 5e12
#: rows at epsilon = delta = 1e-6) fail before anything is allocated.
MAX_SAMPLES = 10_000_000

#: Most trials one run may make.  A run keeps its trials as report columns,
#: about 70 bytes per trial (7.0 MB held after a 100000-trial run, by
#: tracemalloc), so this many hold ~0.7 GB and twice that while the chunks
#: are joined; larger requests fail before the problem is generated.
MAX_TRIALS = 10_000_000

#: A chunk of trials holds ``max(1, CHUNK_DRAWS // s)`` sketches: at most this
#: many draws, or one sketch of more.  Reports do not depend on it.
CHUNK_DRAWS = 32768


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
        RngStream(self.master_seed)  # the trial streams' seed check, before any work
        for name in ("n_trials", "cap_samples"):
            as_int(getattr(self, name), name)
        if not (1 <= self.n_trials <= MAX_TRIALS):
            raise InvalidParameterError(
                f"need 1 <= n_trials <= {MAX_TRIALS}, got {self.n_trials}"
            )
        if self.cap_samples < 0:
            raise InvalidParameterError(
                f"cap_samples must be >= 0 (0 = no cap), got {self.cap_samples}"
            )


#: Column order of CSV reports, fixed so reports are byte-comparable: the
#: trial id, the run's sample count and beta, the scorer's columns, and the
#: trial's random stream.
CSV_COLUMNS = ("trial_id", "s", "beta", *ChunkScores._fields,
               "rng_algorithm", "rng_seed", "rng_stream_index")


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """One config's trials plus aggregate rates.

    ``scores`` holds the trials as columns: entry ``t`` of each
    :class:`ChunkScores` array is trial ``t``'s value in the CSV column of
    that name.  The other columns of :data:`CSV_COLUMNS` are the run's
    constants (``s``, ``beta``, the seed) or follow from ``t``.  Equality is
    identity, as the generated ``==`` over array fields would raise.
    """

    config: TrialConfig
    scores: ChunkScores
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
        try:
            s = required_samples(rank, beta, target)
        except InvalidSampleCountError:  # past the float range
            s = math.inf
    elif rule == "xr":
        s = arg * rank
    else:
        s = arg
    if cap > 0:
        s = min(s, cap)
    if s > MAX_SAMPLES:
        raise InvalidSampleCountError(  # a count past 1e15 as 5.00e+301, not 302 digits
            f"sample rule {rule_text!r} asks for {s if s <= 1e15 else f'{Decimal(s):.3g}'} "
            f"rows per sketch, over the budget of {MAX_SAMPLES}; lower it with an "
            f"explicit --samples count or, in bench, with --cap-samples"
        )
    return s


def set_up_run(cfg: TrialConfig):
    """The run's ``(a, b, exact, dist, beta, s)``: :func:`generate_problem`,
    then :func:`build_distribution` and :func:`sample_count`.  ``solve`` and
    :func:`run_experiment` both set up here, so they derive ``beta`` and ``s`` alike."""
    a, b, meta = generate_problem(cfg.problem)
    profile = meta["profile"]
    dist, beta = build_distribution(cfg.distribution, profile)
    s = sample_count(cfg.sample_rule, profile.rank, beta, cfg.target, cfg.cap_samples)
    return a, b, meta["exact"], dist, beta, s


def run_experiment(cfg: TrialConfig) -> ExperimentReport:
    """Run ``cfg.n_trials`` independent sketched solves and score them.

    Trial ``t`` uses the stream ``(master_seed, t + 1)``; stream 0 is
    reserved for problem generation.  One :class:`TrialStreams` serves every
    trial, so no stream object is built per trial.  :func:`set_up_run`
    factors the problem once and sets the distribution and ``s``.  Trials
    then run in chunks of ``max(1, CHUNK_DRAWS // s)``:
    :func:`draw_chunk` draws the multisets of a chunk's sketches, and a
    :class:`TrialScorer` scores each from the Gram matrix of its distinct
    rows in the coordinates of the orthonormal basis.  The chunks'
    :class:`ChunkScores`, joined, are the report's ``scores``, and each rate
    is a count over one of their boolean columns.  No per-trial plan, draw
    order, score object or record is built.  Per-trial
    failures (a sketch losing rank) become failure entries, never batch
    aborts; so does every trial of a problem that cannot be generated.
    """
    t_start = time.perf_counter()
    n = cfg.n_trials
    try:
        # Trials read only the factors of the exact solve; the problem
        # itself is dropped here, so peak memory stays at generation's.
        exact, dist, beta, s = set_up_run(cfg)[2:]
    except GenerationFailedError as exc:
        s, beta = 0, float("nan")
        nan, false = np.full(n, np.nan), np.zeros(n, dtype=bool)
        error = np.full(n, f"generation failed: {exc}", dtype=object)
        scores = ChunkScores(
            sc1_value=nan, sc1_holds=false, sc2_value=nan, sc2_holds=false,
            accuracy_ratio=np.full(n, np.inf), eps_accurate=false, solution_err_sq=nan,
            solution_bound_limit=nan, solution_bound_holds=false, residual_bound_holds=false,
            gamma=nan, gamma_bound_limit=nan, gamma_bound_holds=false, error=error,
        )
    else:
        scorer = TrialScorer(exact, cfg.target.epsilon)
        del exact
        chunk = max(1, CHUNK_DRAWS // s)
        streams = TrialStreams(cfg.master_seed)
        chunks = [
            scorer.score_chunk(draw_chunk(
                dist, s, streams, range(first + 1, min(first + chunk, n) + 1)))
            for first in range(0, n, chunk)
        ]
        scores = ChunkScores(*(np.concatenate(column) for column in zip(*chunks)))

    def rate(holds: np.ndarray) -> float:
        return int(np.count_nonzero(holds)) / n

    # The structural conditions must imply both accuracy bounds.
    violations = (scores.sc1_holds & scores.sc2_holds
                  & ~(scores.residual_bound_holds & scores.solution_bound_holds))
    return ExperimentReport(
        config=cfg,
        scores=scores,
        s=s,
        beta=beta,
        success_rate=rate(scores.eps_accurate),
        sc1_rate=rate(scores.sc1_holds),
        sc2_rate=rate(scores.sc2_holds),
        implication_violations=int(np.count_nonzero(violations)),
        wall_time_s=time.perf_counter() - t_start,
    )


#: Trials formatted at a time; bounds the row text :func:`write_report` holds.
REPORT_BLOCK = 16384


def _fmt_float(v) -> str:
    # 17 significant digits round-trip a double; nan and +-inf print as such.
    return format(float(v), ".17g")


def _text(value) -> str:
    # A comma or newline inside a text field would break the CSV row.
    return str(value).replace(",", ";").replace("\n", " ")


#: Per score column ``dtype.kind`` (float, bool, object text): the ``%``
#: conversion of the column in the row template and the Python values it
#: formats.  ``%.17g`` of a Python float is ``_fmt_float``'s text, nan,
#: +-inf and -0 included.
_CONVERSIONS = {
    "f": ("%.17g", np.ndarray.tolist),
    "b": ("%s", lambda column: np.where(column, "true", "false").tolist()),
    "O": ("%s", lambda column: [_text(v) for v in column.tolist()]),
}


def _distinct_texts(column: np.ndarray) -> list[str]:
    """``%.17g`` texts of a float column, each distinct value formatted once.

    Equal bits give equal text, nan and -0 included; for a column that
    holds one value per problem (nan on error rows) that is one or two
    conversions instead of one per row.
    """
    distinct, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    texts = ["%.17g" % v for v in distinct.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


#: Score columns that hold one value per problem, nan on error rows.
_PER_PROBLEM = ("solution_bound_limit", "gamma", "gamma_bound_limit")


def _row_blocks(report: ExperimentReport):
    """Yield the report's CSV rows, :data:`REPORT_BLOCK` trials per list.

    Every row is one ``%`` of a template in which ``s``, ``beta``, the
    algorithm id and the seed are already formatted; its arguments are the
    trial id, the trial's score columns and its stream index.  Each score
    column's conversion follows its dtype (:data:`_CONVERSIONS`), except
    that the per-problem columns arrive as text, each distinct value
    formatted once.
    """
    def const(text: str) -> str:
        return text.replace("%", "%%")

    conversions = [("%s", _distinct_texts) if name in _PER_PROBLEM
                   else _CONVERSIONS[column.dtype.kind]
                   for name, column in zip(ChunkScores._fields, report.scores)]
    template = ",".join([
        "%d", const(str(report.s)), const(_fmt_float(report.beta)),
        *(conversion for conversion, _ in conversions),
        const(_text(RngStream.algorithm_id)), const(str(report.config.master_seed)), "%d",
    ])
    n = len(report.scores.error)
    for start in range(0, n, REPORT_BLOCK):
        stop = min(start + REPORT_BLOCK, n)
        columns = [values(column[start:stop])
                   for (_, values), column in zip(conversions, report.scores)]
        yield [template % row
               for row in zip(range(start, stop), *columns, range(start + 1, stop + 1))]


def _trailer(report: ExperimentReport) -> list[str]:
    return [
        f"# n_trials={report.config.n_trials}",
        f"# s={report.s}",
        f"# beta={_fmt_float(report.beta)}",
        f"# success_rate={_fmt_float(report.success_rate)}",
        f"# sc1_rate={_fmt_float(report.sc1_rate)}",
        f"# sc2_rate={_fmt_float(report.sc2_rate)}",
        f"# implication_violations={report.implication_violations}",
        f"# master_seed={report.config.master_seed}",
        f"# wall_time_s={_fmt_float(report.wall_time_s)}",
    ]


def report_lines(report: ExperimentReport) -> list[str]:
    """CSV lines for a report: header, one row per trial, aggregate trailer.

    Rows are formatted from ``report.scores``, with no per-trial object
    built.  The trailer lines start with ``#``; the wall-time line is always
    last so byte-level comparisons can drop it.
    """
    return [",".join(CSV_COLUMNS), *chain.from_iterable(_row_blocks(report)), *_trailer(report)]


def write_report(report: ExperimentReport, path) -> None:
    """Write the CSV report, ``"\\n".join(report_lines(report)) + "\\n"``.

    Rows are formatted and written :data:`REPORT_BLOCK` trials at a time, so
    the file's text is never held whole.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rows in _row_blocks(report):
            fh.write("\n".join(rows) + "\n")
        fh.write("\n".join(_trailer(report)) + "\n")


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


def _check_rate(attr: str, threshold: float):
    def check(reports: list[ExperimentReport]) -> tuple[bool, str]:
        rate = getattr(reports[0], attr)
        return rate >= threshold, f"{attr}={rate:.4f} threshold={threshold:.4f}"

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
            ("success_rate", _check_rate("success_rate", 0.8 - _three_se(0.8, 200))),
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
            ("sc2_rate", _check_rate("sc2_rate", 0.75 - _three_se(0.75, 400))),
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
