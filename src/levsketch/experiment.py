"""Monte Carlo bench harness: repeated sketched solves with diagnostics.

A trial config fixes one problem instance, a sampling distribution, a
sample-count rule, and an accuracy target.  Trial ``t`` draws from its own
random stream ``(master_seed, t + 1)``, so reports are bit-reproducible for a
fixed seed.  Trials run a chunk at a time: the chunk's streams
are one reused Philox with its counter set per stream
(:class:`~levsketch.sketch.TrialStreams`, equal to
:class:`~levsketch.sketch.RngStream` bit for bit), one sort and one
guide-table lookup draw a chunk's sketches, and one gather of their distinct
rows and stacked small solves score them.  Chunks are scored in order on the
calling thread while a one-worker executor draws the next chunk.  Reports are
byte-identical whatever the chunk size.
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
from .exceptions import InvalidParameterError, InvalidSampleCountError
from .leverage import (
    SamplingDistribution,
    blended_distribution,
    leverage_distribution,
    misestimation_beta,
    uniform_distribution,
)
from .linalg import as_int, as_real
from .problems import ProblemSpec, generate_problem
# build_sketch is unused here; perfbench's tracer test checks that it wraps this binding.
from .sketch import MAX_SEED, RngStream, TrialStreams, build_sketch, draw_chunk  # noqa: F401
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


def _check_text(text, name: str) -> None:
    if not isinstance(text, str):
        raise InvalidParameterError(f"{name} must be text, got {text!r}")


def parse_distribution_spec(text: str) -> tuple[str, float]:
    """Parse ``leverage``, ``uniform``, or ``blended:ALPHA``."""
    _check_text(text, "distribution")
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    if name == "blended":
        try:
            alpha = float(arg)
        except ValueError:
            raise InvalidParameterError(
                f"blended distribution needs a numeric alpha, got {text!r}"
            ) from None
        return "blended", as_real(alpha, "alpha", 0, 1)
    if name in ("leverage", "uniform") and not colon:
        return name, 0.0
    raise InvalidParameterError(
        f"unknown distribution {text!r}; use leverage, uniform, or blended:ALPHA"
    )


def parse_sample_rule(text: str) -> tuple[str, int]:
    """Parse ``auto`` (sample-size formula), an explicit count, or ``xr:C``."""
    _check_text(text, "sample rule")
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
        return "xr", as_int(c, "rank multiple", 1)
    try:
        s = int(t)
    except ValueError:
        raise InvalidParameterError(
            f"samples must be 'auto', an integer, or 'xr:C', got {text!r}"
        ) from None
    return "explicit", as_int(s, "sample count", 1)


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
        for name, kind in (("problem", ProblemSpec), ("target", AccuracyTarget)):
            if not isinstance(getattr(self, name), kind):
                raise InvalidParameterError(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        parse_distribution_spec(self.distribution)
        parse_sample_rule(self.sample_rule)
        as_int(self.master_seed, "seed", 0, MAX_SEED)  # the trial streams' seed, before any work
        as_int(self.n_trials, "n_trials", 1, MAX_TRIALS)
        as_int(self.cap_samples, "cap_samples", 0)  # 0 = no cap


#: Column order of CSV reports, fixed so reports are byte-comparable: the
#: trial id, the run's sample count and beta, the scorer's columns, and the
#: trial's random stream.
CSV_COLUMNS = ("trial_id", "s", "beta", *ChunkScores._fields,
               "rng_algorithm", "rng_seed", "rng_stream_index")


def _share(holds: np.ndarray) -> float:
    """The share of trials on which a boolean score column holds."""
    return int(np.count_nonzero(holds)) / holds.size


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """One config's trials; its aggregate rates are counts over them.

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
    wall_time_s: float

    @property
    def success_rate(self) -> float:
        """Share of trials whose solve is epsilon-accurate."""
        return _share(self.scores.eps_accurate)

    @property
    def sc1_rate(self) -> float:
        """Share of trials on which SC1 holds."""
        return _share(self.scores.sc1_holds)

    @property
    def sc2_rate(self) -> float:
        """Share of trials on which SC2 holds."""
        return _share(self.scores.sc2_holds)

    @property
    def implication_violations(self) -> int:
        """Trials on which both structural conditions hold but an accuracy
        bound does not; the conditions must imply both bounds."""
        sc = self.scores
        return int(np.count_nonzero(sc.sc1_holds & sc.sc2_holds
                                    & ~(sc.residual_bound_holds & sc.solution_bound_holds)))


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


def _drawn_one_ahead(draw, score, keys: range) -> list:
    """``[score(draw(k)) for k in keys]``, with each draw after the first made
    on a one-worker executor while the calling thread scores the chunk before it.

    The first draw is made here, so a single key starts no thread and
    whatever the first draw caches is built before the worker reads it.
    The worker draws the rest in order, one ahead of the scoring and no
    further; scoring stays on this thread, in order.  Leaving the executor
    joins its worker: a draw's exception is raised here by ``result()``,
    and an exception in scoring waits for the draw in flight.
    """
    drawn = draw(keys[0])
    if len(keys) == 1:
        return [score(drawn)]
    # Imported here: concurrent.futures loads logging, which would add to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    scored = []
    with ThreadPoolExecutor(1, thread_name_prefix="levsketch-draw-ahead") as worker:
        for key in keys[1:]:
            ahead = worker.submit(draw, key)
            scored.append(score(drawn))
            drawn = ahead.result()
    scored.append(score(drawn))
    return scored


def run_experiment(cfg: TrialConfig) -> ExperimentReport:
    """Run ``cfg.n_trials`` independent sketched solves and score them.

    Trial ``t`` uses the stream ``(master_seed, t + 1)``; stream 0 is
    reserved for problem generation.  One :class:`TrialStreams` serves every
    trial, so no stream object is built per trial.  :func:`set_up_run`
    factors the problem once and sets the distribution and ``s``.  Trials
    then run in chunks of ``max(1, CHUNK_DRAWS // s)``:
    :func:`draw_chunk` draws the multisets of a chunk's sketches, and a
    :class:`TrialScorer` scores each from the Gram matrix of its distinct
    rows in the coordinates of the orthonormal basis.  Each chunk after the
    first is drawn on a one-worker executor while this thread scores the
    chunk before it (:func:`_drawn_one_ahead`).  The worker makes no BLAS call
    and alone uses the one :class:`TrialStreams`, so the draws are the
    serial loop's bit for bit.  The chunks'
    :class:`ChunkScores`, joined, are the report's ``scores``, over which
    its rates are counted.  No per-trial plan, draw order, score object or
    record is built.  Per-trial failures (a sketch losing rank) become
    failure entries, never batch aborts.  A failed set-up (a problem that
    cannot be generated or read, or a sample rule over :data:`MAX_SAMPLES`)
    raises, and no trial runs.
    """
    t_start = time.perf_counter()
    n = cfg.n_trials
    # Trials read only the factors of the exact solve; the problem itself is
    # dropped here, so peak memory stays at generation's.
    exact, dist, beta, s = set_up_run(cfg)[2:]
    scorer = TrialScorer(exact, cfg.target.epsilon)
    del exact
    chunk = max(1, CHUNK_DRAWS // s)
    streams = TrialStreams(cfg.master_seed)

    def draw(first: int):
        return draw_chunk(dist, s, streams, range(first + 1, min(first + chunk, n) + 1))

    chunks = _drawn_one_ahead(draw, scorer.score_chunk, range(0, n, chunk))
    scores = ChunkScores(*(np.concatenate(column) for column in zip(*chunks)))
    return ExperimentReport(config=cfg, scores=scores, s=s, beta=beta,
                            wall_time_s=time.perf_counter() - t_start)


#: Trials formatted at a time; bounds the row text :func:`write_report` holds.
REPORT_BLOCK = 16384


def _text(value) -> str:
    # A comma or newline inside a text field would break the CSV row.
    return str(value).replace(",", ";").replace("\n", " ")


#: Per score column ``dtype.kind`` (float, bool, object text): the ``%``
#: conversion of the column in the row template and the Python values it
#: formats.  ``%.17g`` round-trips a double and prints nan, +-inf and -0 as such.
_CONVERSIONS = {
    "f": ("%.17g", np.ndarray.tolist),
    "b": ("%s", lambda column: np.where(column, "true", "false").tolist()),
    "O": ("%s", lambda column: [_text(v) for v in column.tolist()]),
}


def _row_blocks(report: ExperimentReport):
    """Yield the report's CSV rows, :data:`REPORT_BLOCK` trials per list.

    Every row is one ``%`` of a template in which ``s``, ``beta``, the
    algorithm id and the seed are already formatted; its arguments are the
    trial id, the trial's score columns and its stream index.  Each score
    column's conversion follows its dtype alone (:data:`_CONVERSIONS`).
    """
    def const(text: str) -> str:
        return text.replace("%", "%%")

    conversions = [_CONVERSIONS[column.dtype.kind] for column in report.scores]
    template = ",".join([
        "%d", const(str(report.s)), const("%.17g" % report.beta),
        *(conversion for conversion, _ in conversions),
        const(_text(RngStream.algorithm_id)), const(str(report.config.master_seed)), "%d",
    ])
    n = len(report.scores[0])
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
        "# beta=%.17g" % report.beta,
        "# success_rate=%.17g" % report.success_rate,
        "# sc1_rate=%.17g" % report.sc1_rate,
        "# sc2_rate=%.17g" % report.sc2_rate,
        f"# implication_violations={report.implication_violations}",
        f"# master_seed={report.config.master_seed}",
        "# wall_time_s=%.17g" % report.wall_time_s,
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
    """Named validation scenario: configs plus pass/fail checks.  Every
    preset is also checked, last, for zero implication violations."""

    name: str
    description: str
    configs: tuple[TrialConfig, ...]
    checks: tuple[tuple[str, Callable[[list[ExperimentReport]], tuple[bool, str]]], ...] = ()

    def run(self) -> list[ExperimentReport]:
        return [run_experiment(c) for c in self.configs]

    def evaluate(self, reports: list[ExperimentReport]) -> list[tuple[str, bool, str]]:
        checks = (*self.checks, ("implication_violations", _check_no_violations))
        return [(name, *check(reports)) for name, check in checks]


def _check_rate(attr: str):
    """The check that the first report's ``attr`` is at least its config's
    1 - delta less three standard errors over its ``n_trials``."""
    def check(reports: list[ExperimentReport]) -> tuple[bool, str]:
        report = reports[0]
        want = 1.0 - report.config.target.delta
        threshold = want - 3.0 * math.sqrt(want * (1.0 - want) / report.config.n_trials)
        rate = getattr(report, attr)
        return rate >= threshold, f"{attr}={rate:.4f} threshold={threshold:.4f}"

    return check


def _check_no_violations(reports: list[ExperimentReport]) -> tuple[bool, str]:
    total = sum(r.implication_violations for r in reports)
    return total == 0, f"implication_violations={total}"


def _check_leverage_beats_uniform(reports: list[ExperimentReport]) -> tuple[bool, str]:
    lev, unif = reports[0].success_rate, reports[1].success_rate
    return lev >= unif, f"leverage={lev:.4f} uniform={unif:.4f}"


def _builtin_presets() -> list[Preset]:
    presets: list[Preset] = []

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
    presets.append(Preset(
        name="main-theorem-desk",
        description="formula-sized leverage sketch solves within (1+eps) "
        "at rate >= 1-delta minus 3 standard errors (200 trials)",
        configs=(desk,),
        checks=(("success_rate", _check_rate("success_rate")),),
    ))

    # Cross-term condition at its Markov-bound sample count s = 128.
    sc2 = TrialConfig(
        problem=ProblemSpec("gaussian-incoherent", 20000, 8, rhs_cols=2, seed=77001),
        distribution="leverage",
        sample_rule="128",
        target=AccuracyTarget(epsilon=0.5, delta=0.25),
        n_trials=400,
        master_seed=77002,
    )
    presets.append(Preset(
        name="sc2-markov-desk",
        description="cross-term condition holds at rate >= 1-delta minus 3 "
        "standard errors with the minimal Markov sample count (400 trials)",
        configs=(sc2,),
        checks=(("sc2_rate", _check_rate("sc2_rate")),),
    ))

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
    presets.append(Preset(
        name="implication-sweep",
        description="structural conditions imply both accuracy bounds on "
        "every problem kind and distribution (1080 trials)",
        configs=tuple(sweep),
    ))

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
    presets.append(Preset(
        name="leverage-vs-uniform",
        description="on a coherent problem, leverage sampling succeeds at "
        "least as often as uniform at equal sample count (200 trials each)",
        configs=(lev_cfg, unif_cfg),
        checks=(("leverage_beats_uniform", _check_leverage_beats_uniform),),
    ))

    smoke = TrialConfig(
        problem=ProblemSpec("gaussian-incoherent", 300, 3, rhs_cols=1, seed=99),
        distribution="leverage",
        sample_rule="xr:8",
        target=AccuracyTarget(epsilon=0.3, delta=0.3),
        n_trials=20,
        master_seed=100,
    )
    presets.append(Preset(
        name="smoke",
        description="tiny end-to-end pipeline exercise (20 trials)",
        configs=(smoke,),
    ))
    return presets


PRESETS = {preset.name: preset for preset in _builtin_presets()}
