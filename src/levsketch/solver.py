"""Sketch-and-solve least squares with the two-branch sample-size rule.

The sketched solver minimizes the subsampled objective
``||S a x - S b||_F^2`` and is judged against the exact solve on the
*original* objective: a solution is epsilon-accurate when its true residual
is within ``(1 + epsilon)`` of the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import SC1_THRESHOLD, _is_zero_residual, _residual_ratio
from .exceptions import (
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    SketchRankDeficientError,
)
from .leverage import SamplingDistribution
from .linalg import RANK_TOL, LstsqSolution, as_int, as_problem, as_real, fro_norm_sq, read_only
from .sketch import RngStream, SketchPlan, apply_sketch, build_sketch

#: Constant in the log branch of the sample-size rule, 144 / (1 - 1/sqrt(2))^2:
#: it pays for SC1 at its threshold.
SAMPLE_SIZE_CONSTANT = 144.0 / (1.0 - SC1_THRESHOLD) ** 2


@dataclass(frozen=True)
class AccuracyTarget:
    """Accuracy ``epsilon`` and failure probability ``delta``, both in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        as_real(self.epsilon, "epsilon", 0, 1, "()")
        as_real(self.delta, "delta", 0, 1, "()")


@dataclass(frozen=True)
class SketchSolution:
    """Minimizer of the sketched objective, with the plan that produced it."""

    x_tilde: np.ndarray
    plan: SketchPlan
    sketched_residual_sq: float


def required_samples(r: int, beta: float, target: AccuracyTarget) -> int:
    """Row count sufficient for an epsilon-accurate solve with probability
    ``1 - delta`` under sampling with misestimation factor ``beta``.

    Evaluates ``ceil((r / beta) * max(C * ln(r / delta), 1 / (delta *
    epsilon)))`` with ``C = SAMPLE_SIZE_CONSTANT``.  The log branch pays for
    rank concentration, the other for the residual cross term; which one
    binds depends on how small ``delta * epsilon`` is.  The result may exceed
    the problem's row count (sampling is with replacement); one past the float
    range raises :class:`InvalidSampleCountError`.
    """
    r = as_int(r, "rank", 1)
    as_real(beta, "beta", 0, 1, "(]")
    log_branch = SAMPLE_SIZE_CONSTANT * math.log(r / target.delta)
    try:
        tail_branch = 1.0 / (target.delta * target.epsilon)
        return math.ceil((r / beta) * max(log_branch, tail_branch))
    except (ZeroDivisionError, OverflowError):
        raise InvalidSampleCountError(f"{target} needs more rows than a float holds") from None


def solve_with_plan(a, b, plan: SketchPlan) -> SketchSolution:
    """Minimize the sketched objective for an already-realized plan."""
    arr, barr = as_problem(a, b)
    n, r = arr.shape
    if n < r:
        raise DimensionError(f"matrix cannot be wider than tall, got {n}x{r}")
    if plan.n_samples < r:
        raise SketchRankDeficientError(
            f"{plan.n_samples} samples cannot cover rank {r}"
        )
    sa = np.asarray(apply_sketch(plan, arr))
    sb = np.asarray(apply_sketch(plan, barr))
    x, _, rank, _ = np.linalg.lstsq(sa, sb, rcond=RANK_TOL)
    if rank < r:
        raise SketchRankDeficientError(
            f"sketch lost rank ({rank} < {r}); caller decides whether to resample"
        )
    if not np.isfinite(x).all():
        raise InvalidParameterError("x_tilde overflows float64")
    return SketchSolution(
        x_tilde=read_only(x),
        plan=plan,
        sketched_residual_sq=fro_norm_sq(sa @ x - sb),
    )


def sketched_lstsq(
    a, b, p: SamplingDistribution, s: int, rng: RngStream
) -> SketchSolution:
    """Sketch-and-solve: draw ``s`` rows from ``p``, solve the small problem.

    Parameters
    ----------
    a : array-like, shape (n, r)
        Full-column-rank design matrix with ``n > r``.
    b : array-like, shape (n, m)
    p : SamplingDistribution
        Row-sampling distribution, typically the leverage distribution or a
        blend of it with uniform.
    s : int
        Number of row draws; must be at least ``r``.
    rng : RngStream
        Consumed deterministically: identical streams give bit-identical
        plans and solutions.

    Raises
    ------
    InvalidSampleCountError
        If ``s`` is not a positive integer.
    SketchRankDeficientError
        If ``s < r`` or the realized sketch loses column rank.  Not retried
        internally, so failure rates stay measurable.
    """
    return solve_with_plan(a, b, build_sketch(p, s, rng))


def accuracy_ratio(a, b, x_tilde, exact: LstsqSolution) -> float:
    """Ratio of the candidate's true residual to the optimal one.

    ``1`` means optimal; ``<= 1 + epsilon`` means epsilon-accurate.  When
    the exact residual is indistinguishable from zero relative to
    ``||b||_F^2`` (``exact.b_norm_sq``, as ``exact`` is the exact solve of
    ``(a, b)``), returns ``1.0`` if the candidate also solves the system to
    working precision and ``inf`` otherwise.
    """
    arr, barr, xt = as_problem(a, b, x_tilde)
    resid_sq = fro_norm_sq(arr @ xt - barr)
    zero = _is_zero_residual(exact.residual_sq, exact.b_norm_sq)
    return float(_residual_ratio(resid_sq, exact.residual_sq, exact.b_norm_sq, zero))
