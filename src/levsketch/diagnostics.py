"""Structural-condition checks and accuracy-bound verdicts for a sketch.

Two measurable conditions on a realized sketch plan together guarantee an
epsilon-accurate solve:

* the sketched basis keeps its smallest squared singular value at least
  ``1/sqrt(2)``, and
* the cross term between the sketched basis and the sketched residual
  component is at most ``epsilon * residual_sq / 2``.

When both hold, the true residual of the sketched solution is within
``(1 + epsilon)`` of optimal and the solution error is bounded by
``epsilon * residual_sq / sigma_min(a)^2``.  These implications are what
the bench harness counts violations of.

:class:`TrialScorer` evaluates all of it for one plan in the coordinates of
the orthonormal basis, without touching the ``n`` rows of the problem; the
functions that work on ``(a, b)`` remain the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, InvalidParameterError
from .linalg import (
    RANK_TOL,
    LstsqSolution,
    OrthonormalBasis,
    SpectralSummary,
    as_array,
    fro_norm_sq,
    spectral_extremes,
)
from .sketch import SketchPlan, apply_sketch
from .solver import SketchSolution, _is_zero_residual, _residual_ratio

#: Threshold on the smallest squared singular value of the sketched basis.
SC1_THRESHOLD = 1.0 / math.sqrt(2.0)

# Slack policy: verdict booleans get a 1e-12 (structural) or 1e-10 (bound)
# relative allowance so float ties don't flip them, plus a noise floor
# relative to problem scale so consistent systems (residual ~ rounding
# noise) don't produce spurious violations.
_STRUCTURAL_SLACK = 1e-12
_BOUND_SLACK_REL = 1e-10
_NOISE_FLOOR_REL = 1e-18


@dataclass(frozen=True)
class StructuralReport:
    """Measured values and verdicts for the two structural conditions."""

    sc1_value: float
    sc1_holds: bool
    sc2_value: float
    sc2_holds: bool


@dataclass(frozen=True)
class BoundReport:
    """Verdicts for the residual, solution-error, and gamma bounds."""

    residual_bound_holds: bool
    solution_bound_value: float
    solution_bound_limit: float
    solution_bound_holds: bool
    gamma: float
    gamma_bound_limit: float
    gamma_bound_holds: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= 1.0 + 1e-12):
            raise InvalidParameterError(f"gamma must lie in (0, 1], got {self.gamma}")


def check_structural(
    plan: SketchPlan,
    basis: OrthonormalBasis,
    b_perp,
    epsilon: float,
    residual_sq: float,
) -> StructuralReport:
    """Evaluate both structural conditions for a realized plan.

    Parameters
    ----------
    plan : SketchPlan
    basis : OrthonormalBasis
        Orthonormal basis of the design matrix's column space.
    b_perp : DenseMatrix or array-like
        Residual component of the right-hand side (from the exact solve).
    epsilon : float
        Target accuracy in (0, 1).
    residual_sq : float
        Exact minimal residual ``||b_perp||_F^2``.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if residual_sq < 0.0:
        raise InvalidParameterError(f"residual_sq must be >= 0, got {residual_sq}")
    q = basis.q.array
    r = q.shape[1]
    sq = apply_sketch(plan, q).array
    if plan.n_samples < r:
        # Fewer samples than rank: the sketched basis has a kernel.
        sc1_value = 0.0
    else:
        sv = np.linalg.svd(sq, compute_uv=False)
        sc1_value = float(sv[-1]) ** 2
    sbp = apply_sketch(plan, b_perp).array
    return _structural_report(sc1_value, fro_norm_sq(sq.T @ sbp), epsilon, residual_sq)


def _structural_report(
    sc1_value: float, sc2_value: float, epsilon: float, residual_sq: float
) -> StructuralReport:
    return StructuralReport(
        sc1_value=sc1_value,
        sc1_holds=sc1_value >= SC1_THRESHOLD - _STRUCTURAL_SLACK,
        sc2_value=sc2_value,
        sc2_holds=sc2_value <= epsilon * residual_sq / 2.0 + _STRUCTURAL_SLACK * residual_sq,
    )


def check_bounds(
    a,
    b,
    exact: LstsqSolution,
    sol: SketchSolution,
    epsilon: float,
    *,
    spectral: SpectralSummary | None = None,
) -> BoundReport:
    """Compare a sketched solution against the accuracy bounds.

    Checks three things: the true residual against ``(1 + epsilon)`` times
    the optimum, the solution error against ``epsilon * residual_sq /
    sigma_min(a)^2``, and the solution error against the
    right-hand-side-alignment form ``epsilon * kappa^2 * (1/gamma^2 - 1) *
    ||x_opt||_F^2`` where ``gamma = ||a @ x_opt||_F / ||b||_F``.

    Parameters
    ----------
    spectral : SpectralSummary, optional
        Precomputed extremes of ``a``, to avoid one SVD per call in batch
        loops.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    arr = as_array(a)
    barr = as_array(b)
    xt = as_array(sol.x_tilde)
    xo = as_array(exact.x_opt)
    if spectral is None:
        spectral = spectral_extremes(arr)

    scale_sq = fro_norm_sq(barr)
    fit_norm = float(np.linalg.norm(arr @ xo))
    limits = _BoundLimits.of(
        epsilon,
        exact.residual_sq,
        scale_sq,
        spectral,
        fit_norm,
        fro_norm_sq(xo),
    )
    return limits.report(fro_norm_sq(arr @ xt - barr), fro_norm_sq(xo - xt))


@dataclass(frozen=True)
class _BoundLimits:
    """The per-problem half of the bound checks: limits, slacks and the
    noise floor, so a trial supplies only its residual and solution error."""

    epsilon: float
    residual_sq: float
    noise_floor: float
    solution_limit: float
    solution_floor: float
    gamma: float
    gamma_limit: float

    @classmethod
    def of(
        cls,
        epsilon: float,
        residual_sq: float,
        scale_sq: float,
        spectral: SpectralSummary,
        fit_norm: float,
        x_opt_norm_sq: float,
    ) -> "_BoundLimits":
        """Limits for a problem with ``||b||_F^2 = scale_sq`` and
        ``||a @ x_opt||_F = fit_norm``."""
        noise_floor = _NOISE_FLOOR_REL * scale_sq
        sigma_min_sq = spectral.sigma_min**2
        sol_limit = epsilon * residual_sq / sigma_min_sq if sigma_min_sq > 0 else float("inf")
        sol_floor = noise_floor / sigma_min_sq if sigma_min_sq > 0 else float("inf")
        b_norm = math.sqrt(scale_sq)
        gamma = fit_norm / b_norm if b_norm > 0 else 1.0
        if gamma > 0:
            gamma_limit = epsilon * spectral.kappa**2 * (1.0 / gamma**2 - 1.0) * x_opt_norm_sq
            gamma_limit = max(gamma_limit, 0.0)  # gamma can round a hair past 1
        else:
            # b has no component in the column space: the alignment bound is
            # vacuous, and gamma is floored to keep the report constructible.
            gamma_limit = float("inf")
            gamma = math.ulp(0.0)
        return cls(epsilon, residual_sq, noise_floor, sol_limit, sol_floor, gamma, gamma_limit)

    def report(self, resid_sq: float, sol_value: float) -> BoundReport:
        """Verdicts for a candidate with true residual ``resid_sq`` and
        solution error ``sol_value = ||x_opt - x||_F^2``."""
        r2 = self.residual_sq
        return BoundReport(
            residual_bound_holds=bool(
                resid_sq <= (1.0 + self.epsilon) * r2 + _BOUND_SLACK_REL * r2 + self.noise_floor
            ),
            solution_bound_value=sol_value,
            solution_bound_limit=self.solution_limit,
            solution_bound_holds=bool(
                sol_value <= self.solution_limit * (1.0 + _BOUND_SLACK_REL) + self.solution_floor
            ),
            gamma=min(self.gamma, 1.0 + 1e-13),
            gamma_bound_limit=self.gamma_limit,
            gamma_bound_holds=bool(
                sol_value <= self.gamma_limit * (1.0 + _BOUND_SLACK_REL) + self.solution_floor
            ),
        )


@dataclass(frozen=True)
class TrialScore:
    """Everything one trial measures: the structural report, the accuracy
    ratio, and the bound verdicts (``None``, with ``error`` set, when the
    sketch cannot support a solve)."""

    structural: StructuralReport
    accuracy_ratio: float
    bounds: BoundReport | None
    error: str


class TrialScorer:
    """Scores sketch plans of one problem in the coordinates of ``q``.

    With ``a = q @ r`` and ``z = (S q)^+ (S b_perp)``, the sketched solution
    is ``x_opt + r^{-1} z`` and its true residual is ``residual_sq +
    ||z||_F^2`` (Drineas, Mahoney and Muthukrishnan 2006, "Sampling
    algorithms for l2 regression").  So a trial needs only the sampled rows
    of ``[q | b_perp]``: one gather and one small least-squares solve give
    both structural conditions, the accuracy ratio and all three bound
    verdicts, with no work on the ``n`` rows of the problem.

    The scorer keeps ``[q | b_perp]`` as one C-ordered ``n x (r + m)`` block,
    the triangular factor ``r``, and every per-problem constant of the bound
    and ratio policies; the caller may drop ``a``, ``b`` and ``exact``
    afterwards.  :func:`check_structural`, :func:`solve_with_plan`,
    :func:`accuracy_ratio` and :func:`check_bounds` on ``(a, b)`` remain the
    oracle it is tested against.

    Parameters
    ----------
    exact : LstsqSolution
        The exact solve of the problem, from :func:`exact_lstsq`.
    epsilon : float
        Target accuracy in (0, 1).
    """

    def __init__(self, exact: LstsqSolution, epsilon: float) -> None:
        if not (0.0 < epsilon < 1.0):
            raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
        q = exact.basis.q.array
        columns = (*q.T, *exact.b_perp.array.T)
        block = np.empty((q.shape[0], len(columns)))
        for j, column in enumerate(columns):
            block[:, j] = column
        r_fac = exact.r_factor.array
        xo = exact.x_opt.array
        self._block = block
        self._rank = q.shape[1]
        self._r = r_fac
        self._epsilon = epsilon
        self._residual_sq = exact.residual_sq
        self._scale_sq = exact.b_norm_sq
        self._zero_residual = _is_zero_residual(exact.residual_sq, exact.b_norm_sq)
        # ||a @ x_opt|| = ||q @ r @ x_opt|| = ||r @ x_opt||.
        self._limits = _BoundLimits.of(
            epsilon,
            exact.residual_sq,
            exact.b_norm_sq,
            exact.spectral,
            float(np.linalg.norm(r_fac @ xo)),
            fro_norm_sq(xo),
        )

    def score(self, plan: SketchPlan) -> TrialScore:
        """Measure one realized plan.

        A plan with fewer samples than the rank, or whose sketched basis
        loses rank, gets its structural report and an ``error`` naming the
        cause instead of bound verdicts.
        """
        n = self._block.shape[0]
        if plan.n_source_rows != n:
            raise DimensionError(f"matrix has {n} rows, plan expects {plan.n_source_rows}")
        g = self._block[plan.draws]
        g *= plan.weights[:, None]
        if not np.all(np.isfinite(g)):
            raise InvalidParameterError("matrix entries must be finite")
        r = self._rank
        sq, sbp = g[:, :r], g[:, r:]
        sc2_value = fro_norm_sq(sq.T @ sbp)
        if plan.n_samples < r:
            # Fewer samples than rank: the sketched basis has a kernel.
            return TrialScore(
                structural=_structural_report(0.0, sc2_value, self._epsilon, self._residual_sq),
                accuracy_ratio=float("inf"),
                bounds=None,
                error=f"sketch rank deficient: {plan.n_samples} samples cannot cover rank {r}",
            )
        z, _, rank, sv = np.linalg.lstsq(sq, sbp, rcond=RANK_TOL)
        structural = _structural_report(
            float(sv[-1]) ** 2, sc2_value, self._epsilon, self._residual_sq
        )
        if rank < r:
            return TrialScore(
                structural=structural,
                accuracy_ratio=float("inf"),
                bounds=None,
                error=f"sketch rank deficient: sketch lost rank ({rank} < {r}); "
                "caller decides whether to resample",
            )
        resid_sq = self._residual_sq + fro_norm_sq(z)
        # r is upper triangular: LU with partial pivoting leaves it as is, so
        # this is a back substitution for r^{-1} z.
        sol_value = fro_norm_sq(np.linalg.solve(self._r, z))
        return TrialScore(
            structural=structural,
            accuracy_ratio=_residual_ratio(
                resid_sq, self._residual_sq, self._scale_sq, self._zero_residual
            ),
            bounds=self._limits.report(resid_sq, sol_value),
            error="",
        )
