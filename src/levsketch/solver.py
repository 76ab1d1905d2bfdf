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

from .exceptions import (
    DimensionError,
    InvalidParameterError,
    SketchRankDeficientError,
)
from .leverage import SamplingDistribution
from .linalg import RANK_TOL, DenseMatrix, LstsqSolution, as_array, fro_norm_sq
from .sketch import RngStream, SketchPlan, apply_sketch, build_sketch

#: Constant in the log branch of the sample-size rule: 144 / (1 - 1/sqrt(2))^2.
SAMPLE_SIZE_CONSTANT = 144.0 / (1.0 - 1.0 / math.sqrt(2.0)) ** 2

# Exact residuals at or below this fraction of ||b||_F^2 are treated as zero
# (consistent system); at that scale the residual ratio is pure noise.
_ZERO_RESIDUAL_REL = 1e-18
_ZERO_RESIDUAL_PASS_REL = 1e-12


@dataclass(frozen=True)
class AccuracyTarget:
    """Accuracy ``epsilon`` and failure probability ``delta``, both in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidParameterError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise InvalidParameterError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class SketchSolution:
    """Minimizer of the sketched objective, with the plan that produced it."""

    x_tilde: DenseMatrix
    plan: SketchPlan
    sketched_residual_sq: float


def required_samples(r: int, beta: float, target: AccuracyTarget) -> int:
    """Row count sufficient for an epsilon-accurate solve with probability
    ``1 - delta`` under sampling with misestimation factor ``beta``.

    Evaluates ``ceil((r / beta) * max(C * ln(r / delta), 1 / (delta *
    epsilon)))`` with ``C = SAMPLE_SIZE_CONSTANT``.  The log branch pays for
    rank concentration, the other for the residual cross term; which one
    binds depends on how small ``delta * epsilon`` is.  The result may
    exceed the number of rows of the concrete problem; sampling is with
    replacement, so it is not clipped here.
    """
    if int(r) < 1:
        raise InvalidParameterError(f"rank must be >= 1, got {r}")
    if not (0.0 < beta <= 1.0):
        raise InvalidParameterError(f"beta must lie in (0, 1], got {beta}")
    log_branch = SAMPLE_SIZE_CONSTANT * math.log(int(r) / target.delta)
    tail_branch = 1.0 / (target.delta * target.epsilon)
    return math.ceil((int(r) / beta) * max(log_branch, tail_branch))


def solve_with_plan(a, b, plan: SketchPlan) -> SketchSolution:
    """Minimize the sketched objective for an already-realized plan."""
    arr = as_array(a)
    barr = as_array(b)
    n, r = arr.shape
    if barr.shape[0] != n:
        raise DimensionError(f"row counts differ: a has {n}, b has {barr.shape[0]}")
    if n < r:
        raise DimensionError(f"matrix cannot be wider than tall, got {n}x{r}")
    if plan.n_samples < r:
        raise SketchRankDeficientError(
            f"{plan.n_samples} samples cannot cover rank {r}"
        )
    sa = apply_sketch(plan, arr).array
    sb = apply_sketch(plan, barr).array
    x, _, rank, _ = np.linalg.lstsq(sa, sb, rcond=RANK_TOL)
    if rank < r:
        raise SketchRankDeficientError(
            f"sketch lost rank ({rank} < {r}); caller decides whether to resample"
        )
    return SketchSolution(
        x_tilde=DenseMatrix.from_array(x),
        plan=plan,
        sketched_residual_sq=fro_norm_sq(sa @ x - sb),
    )


def sketched_lstsq(
    a, b, p: SamplingDistribution, s: int, rng: RngStream
) -> SketchSolution:
    """Sketch-and-solve: draw ``s`` rows from ``p``, solve the small problem.

    Parameters
    ----------
    a : DenseMatrix or array-like, shape (n, r)
        Full-column-rank design matrix with ``n > r``.
    b : DenseMatrix or array-like, shape (n, m)
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
    SketchRankDeficientError
        If ``s < r`` or the realized sketch loses column rank.  Not retried
        internally, so failure rates stay measurable.
    """
    arr = as_array(a)
    if s < arr.shape[1]:
        raise SketchRankDeficientError(
            f"{s} samples cannot cover rank {arr.shape[1]}"
        )
    plan = build_sketch(p, s, rng)
    return solve_with_plan(arr, b, plan)


def accuracy_ratio(a, b, x_tilde, exact: LstsqSolution) -> float:
    """Ratio of the candidate's true residual to the optimal one.

    ``1`` means optimal; ``<= 1 + epsilon`` means epsilon-accurate.  When
    the exact residual is indistinguishable from zero relative to
    ``||b||_F^2``, returns ``1.0`` if the candidate also solves the system
    to working precision and ``inf`` otherwise.
    """
    arr = as_array(a)
    barr = as_array(b)
    xt = as_array(x_tilde)
    resid_sq = fro_norm_sq(arr @ xt - barr)
    scale_sq = fro_norm_sq(barr)
    zero = _is_zero_residual(exact.residual_sq, scale_sq)
    return _residual_ratio(resid_sq, exact.residual_sq, scale_sq, zero)


def _is_zero_residual(residual_sq: float, scale_sq: float) -> bool:
    """Whether an exact residual is indistinguishable from zero next to
    ``scale_sq = ||b||_F^2`` (a consistent system)."""
    return residual_sq <= _ZERO_RESIDUAL_REL * scale_sq


def _residual_ratio(
    resid_sq: float, residual_sq: float, scale_sq: float, zero_residual: bool
) -> float:
    """``resid_sq / residual_sq`` under the zero-residual policy of
    :func:`accuracy_ratio`."""
    if zero_residual:
        return 1.0 if resid_sq <= _ZERO_RESIDUAL_PASS_REL * scale_sq else float("inf")
    return resid_sq / residual_sq
