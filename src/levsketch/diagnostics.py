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

:class:`TrialScorer` evaluates all of it for a chunk of sketches, each from
the small Gram matrix of its distinct rows in the coordinates of the
orthonormal basis, without touching the ``n`` rows of the problem; the
functions that work on ``(a, b)`` remain the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, InvalidParameterError
from .linalg import (
    RANK_TOL,
    LstsqSolution,
    as_problem,
    as_real,
    fill_in_slabs,
    fro_norm_sq,
    fro_norm_sq_each,
)
from .sketch import SketchChunk, SketchPlan, apply_sketch

#: Threshold on the smallest squared singular value of the sketched basis.
SC1_THRESHOLD = 1.0 / math.sqrt(2.0)

# Slack policy: verdict booleans get a 1e-12 (structural) or 1e-10 (bound)
# relative allowance so float ties don't flip them, plus a noise floor
# relative to problem scale so consistent systems (residual ~ rounding
# noise) don't produce spurious violations.
_STRUCTURAL_SLACK = 1e-12
_BOUND_SLACK_REL = 1e-10
_NOISE_FLOOR_REL = 1e-18

# Exact residuals at or below this fraction of ||b||_F^2 are treated as zero
# (consistent system); at that scale the residual ratio is pure noise.
_ZERO_RESIDUAL_REL = 1e-18
_ZERO_RESIDUAL_PASS_REL = 1e-12


def _is_zero_residual(residual_sq: float, scale_sq: float) -> bool:
    """Whether an exact residual is indistinguishable from zero next to
    ``scale_sq = ||b||_F^2`` (a consistent system)."""
    return residual_sq <= _ZERO_RESIDUAL_REL * scale_sq


def _residual_ratio(resid_sq, residual_sq: float, scale_sq: float, zero_residual: bool):
    """``resid_sq / residual_sq`` under the zero-residual policy of
    :func:`~levsketch.solver.accuracy_ratio`, for a scalar or an array ``resid_sq``."""
    if zero_residual:
        return np.where(resid_sq <= _ZERO_RESIDUAL_PASS_REL * scale_sq, 1.0, np.inf)
    return resid_sq / residual_sq


#: The scorer solves the normal equations of a sketch only when
#: ``lambda_min > GRAM_FLOOR * lambda_max`` for the Gram matrix of the
#: sketched basis, i.e. ``kappa(S q) < 100``.  Normal equations square the
#: condition number, so this keeps their rounding near 1e-12 relative, well
#: inside the oracle's 1e-10.  SC1 alone does not clear it: a heavy weight on
#: one row lifts ``lambda_max`` without bound.  But a sketch drawn from ``p``
#: with misestimation factor ``beta`` has ``lambda_max <= tr G_qq <= r / beta``,
#: so with SC1 holding it clears the floor whenever ``r / beta < SC1_THRESHOLD
#: / GRAM_FLOOR`` (about 7071).
GRAM_FLOOR = 1e-4


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
    solution_err_sq: float
    solution_bound_limit: float
    solution_bound_holds: bool
    gamma: float
    gamma_bound_limit: float
    gamma_bound_holds: bool


def check_structural(plan: SketchPlan, exact: LstsqSolution, epsilon: float) -> StructuralReport:
    """Evaluate both structural conditions for a realized plan.

    ``exact`` is the exact solve of the problem the plan samples: SC1 reads
    its basis ``q``, SC2 its residual component ``b_perp`` and the limit
    ``epsilon * residual_sq / 2``.  The SC2 limit includes the noise floor
    relative to ``exact.b_norm_sq``, so on a consistent system rounding
    noise does not decide the verdict.
    """
    as_real(epsilon, "epsilon", 0, 1, "()")
    q = exact.basis.q
    r = q.shape[1]
    sq = np.asarray(apply_sketch(plan, q))
    if plan.n_samples < r:
        # Fewer samples than rank: the sketched basis has a kernel.
        sc1_value = 0.0
    else:
        sv = np.linalg.svd(sq, compute_uv=False)
        sc1_value = float(sv[-1]) ** 2
    sbp = np.asarray(apply_sketch(plan, exact.b_perp))
    sc2_value = fro_norm_sq(sq.T @ sbp)
    sc1_holds, sc2_holds = _structural_verdicts(sc1_value, sc2_value, epsilon,
                                                exact.residual_sq, exact.b_norm_sq)
    return StructuralReport(sc1_value, sc1_holds, sc2_value, sc2_holds)


def _structural_verdicts(sc1_value, sc2_value, epsilon, residual_sq, scale_sq):
    """``(sc1_holds, sc2_holds)`` for scalar values or arrays of them."""
    sc2_limit = (
        epsilon * residual_sq / 2.0
        + _STRUCTURAL_SLACK * residual_sq
        + _NOISE_FLOOR_REL * scale_sq
    )
    return sc1_value >= SC1_THRESHOLD - _STRUCTURAL_SLACK, sc2_value <= sc2_limit


def check_bounds(a, b, x_tilde, exact: LstsqSolution, epsilon: float) -> BoundReport:
    """Compare a candidate solution ``x_tilde`` against the accuracy bounds.

    Checks three things: the true residual against ``(1 + epsilon)`` times
    the optimum, the solution error against ``epsilon * residual_sq /
    sigma_min(a)^2``, and the solution error against the
    right-hand-side-alignment form ``epsilon * kappa^2 * (1/gamma^2 - 1) *
    ||x_opt||_F^2`` where ``gamma = ||a @ x_opt||_F / ||b||_F``.
    ``sigma_min(a)``, ``kappa`` and ``||b||_F^2`` are ``exact.spectral`` and
    ``exact.b_norm_sq``, from the exact solve of ``(a, b)``.
    """
    as_real(epsilon, "epsilon", 0, 1, "()")
    arr, barr, xt = as_problem(a, b, x_tilde)
    xo = exact.x_opt  # checked by exact_lstsq
    limits = _BoundLimits.of(epsilon, exact, fro_norm_sq(arr @ xo))
    sol_value = fro_norm_sq(xo - xt)
    resid_holds, sol_holds, gamma_holds = limits.verdicts(fro_norm_sq(arr @ xt - barr), sol_value)
    return BoundReport(resid_holds, sol_value, limits.solution_limit, sol_holds,
                       limits.gamma, limits.gamma_limit, gamma_holds)


@dataclass(frozen=True)
class _BoundLimits:
    """The per-problem half of the bound checks: the reported limits and
    ``gamma``, and the ceilings (limits plus slack and noise floor) that a
    trial's residual and solution error are compared against."""

    residual_ceiling: float
    solution_limit: float
    solution_ceiling: float
    gamma: float
    gamma_limit: float
    gamma_ceiling: float

    @classmethod
    def of(cls, epsilon: float, exact: LstsqSolution, fit_norm_sq: float) -> "_BoundLimits":
        """Limits for the problem ``exact`` solves, with ``||a @ x_opt||_F^2 =
        fit_norm_sq``; the oracle and the scorer each compute that norm their
        own way."""
        residual_sq, spectral = exact.residual_sq, exact.spectral
        noise_floor = _NOISE_FLOOR_REL * exact.b_norm_sq
        sigma_min_sq = spectral.sigma_min**2
        sol_limit = epsilon * residual_sq / sigma_min_sq if sigma_min_sq > 0 else float("inf")
        sol_floor = noise_floor / sigma_min_sq if sigma_min_sq > 0 else float("inf")
        b_norm = math.sqrt(exact.b_norm_sq)
        gamma = math.sqrt(fit_norm_sq) / b_norm if b_norm > 0 else 1.0
        if gamma > 0:
            gamma_limit = (epsilon * spectral.kappa**2 * (1.0 / gamma**2 - 1.0)
                           * fro_norm_sq(exact.x_opt))
            gamma_limit = max(gamma_limit, 0.0)  # gamma can round a hair past 1
        else:
            # b has no component in the column space: the alignment bound is
            # vacuous, and gamma is floored to stay in (0, 1].
            gamma_limit = float("inf")
            gamma = math.ulp(0.0)
        return cls(
            residual_ceiling=(1.0 + epsilon) * residual_sq + _BOUND_SLACK_REL * residual_sq
            + noise_floor,
            solution_limit=sol_limit,
            solution_ceiling=sol_limit * (1.0 + _BOUND_SLACK_REL) + sol_floor,
            gamma=min(gamma, 1.0 + 1e-13),
            gamma_limit=gamma_limit,
            gamma_ceiling=gamma_limit * (1.0 + _BOUND_SLACK_REL) + sol_floor,
        )

    def verdicts(self, resid_sq, sol_value):
        """``(residual_bound_holds, solution_bound_holds, gamma_bound_holds)``
        for a candidate with true residual ``resid_sq`` and solution error
        ``sol_value = ||x_opt - x||_F^2``, scalars or arrays of them."""
        return (resid_sq <= self.residual_ceiling, sol_value <= self.solution_ceiling,
                sol_value <= self.gamma_ceiling)


class ChunkScores(NamedTuple):
    """What :class:`TrialScorer` measures for a chunk of sketches: one array
    per per-trial column of :data:`~levsketch.experiment.CSV_COLUMNS`, from
    ``sc1_value`` to ``error``, with one entry per sketch.  These fields are
    the report's schema: their names and order are its CSV columns.

    A sketch that cannot support a solve (fewer samples than the rank, or a
    sketched basis that loses rank) keeps its structural values and
    verdicts, and gets an ``inf`` accuracy ratio, ``nan`` solution error,
    limits and ``gamma``, false bound verdicts, and an ``error`` naming the
    cause.  Every other sketch has an empty ``error``.
    """

    sc1_value: np.ndarray
    sc1_holds: np.ndarray
    sc2_value: np.ndarray
    sc2_holds: np.ndarray
    accuracy_ratio: np.ndarray
    eps_accurate: np.ndarray
    solution_err_sq: np.ndarray
    solution_bound_limit: np.ndarray
    solution_bound_holds: np.ndarray
    residual_bound_holds: np.ndarray
    gamma: np.ndarray
    gamma_bound_limit: np.ndarray
    gamma_bound_holds: np.ndarray
    error: np.ndarray


class TrialScorer:
    """Scores the sketches of one problem in the coordinates of ``q``.

    With ``a = q @ r`` and ``z = (S q)^+ (S b_perp)``, the sketched solution
    is ``x_opt + r^{-1} z`` and its true residual is ``residual_sq +
    ||z||_F^2`` (Drineas, Mahoney and Muthukrishnan 2006, "Sampling
    algorithms for l2 regression").  Every trial quantity depends on ``S``
    only through ``S^T S``, so a trial needs only its sketch's distinct rows
    of ``[q | b_perp]``, each scaled by the square root of its
    ``weight_sq_sums`` entry.  :meth:`score_chunk` gathers those rows for a
    whole chunk of sketches at once, and each sketch's slice of them gives
    its ``(r + m) x (r + m)`` Gram matrix ``G``, and from it:

    * SC1 is the smallest eigenvalue of ``G_qq = (S q)^T (S q)``,
    * SC2 is ``||G_qb||_F^2`` with ``G_qb = (S q)^T (S b_perp)``,
    * ``z = G_qq^{-1} G_qb``, which gives the accuracy ratio and all three
      bound verdicts,

    with no work on the ``n`` rows of the problem.  The eigenvalues, the
    normal equations, the back substitution with ``r`` and the squared norms
    are one stacked call per chunk that treats each sketch on its own, so
    scores do not depend on the chunk, and every verdict is one comparison
    of a whole column.  The normal equations are used only while ``G_qq``
    is well conditioned (:data:`GRAM_FLOOR`).  Otherwise, or when ``G``
    overflows, a sketch's gathered rows go through the same rank-revealing
    ``lstsq`` as the oracle: they have the singular values of ``S q``, so
    rank-loss verdicts and error texts do not depend on which path ran.

    The scorer keeps ``[q | b_perp]`` as one C-ordered ``n x (r + m)`` block
    (filled in slabs from column-major ``q``: gathers from C order are faster),
    the triangular factor ``r``, and every per-problem constant of the bound
    and ratio policies; the caller may drop ``a``, ``b`` and ``exact``
    afterwards.  :func:`check_structural`, :func:`solve_with_plan`,
    :func:`accuracy_ratio` and :func:`check_bounds` on ``(a, b)`` remain the
    oracle it is tested against; they share its verdict comparisons.

    Parameters
    ----------
    exact : LstsqSolution
        The exact solve of the problem, from :func:`exact_lstsq`.
    epsilon : float
        Target accuracy in (0, 1).
    """

    def __init__(self, exact: LstsqSolution, epsilon: float) -> None:
        as_real(epsilon, "epsilon", 0, 1, "()")
        q, bp = exact.basis.q, exact.b_perp
        self._block = fill_in_slabs(np.empty((q.shape[0], q.shape[1] + bp.shape[1])), q, bp)
        self._rank = q.shape[1]
        self._r = exact.r_factor
        self._epsilon = epsilon
        self._residual_sq = exact.residual_sq
        self._scale_sq = exact.b_norm_sq
        self._zero_residual = _is_zero_residual(exact.residual_sq, exact.b_norm_sq)
        # ||a @ x_opt|| = ||q @ r @ x_opt|| = ||r @ x_opt||.
        self._limits = _BoundLimits.of(epsilon, exact, fro_norm_sq(exact.r_factor @ exact.x_opt))

    def score_chunk(self, chunk: SketchChunk) -> ChunkScores:
        """Measure every sketch of a chunk: one entry per sketch, in order,
        in each column.

        A sketch with fewer samples than the rank, or whose sketched basis
        loses rank, gets the failure entries described in
        :class:`ChunkScores`.  A sketch whose scaled rows are not finite
        (including squared weights that overflow) is rejected.
        """
        n = self._block.shape[0]
        if chunk.n_source_rows != n:
            raise DimensionError(f"matrix has {n} rows, plan expects {chunk.n_source_rows}")
        r, s = self._rank, chunk.n_samples
        g = np.take(self._block, chunk.unique_rows, axis=0)
        # Overflow is caught below: a non-finite entry of g makes a diagonal
        # entry of its Gram matrix non-finite, so g needs its own scan only
        # when a Gram matrix is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            g *= np.sqrt(chunk.weight_sq_sums)[:, None]
            rows = [g[lo:hi] for lo, hi in zip(chunk.offsets[:-1], chunk.offsets[1:])]
            # np.dot, not @: both make the same BLAS syrk call, but numpy's
            # matmul holds the GIL through it and np.dot releases it, so the
            # draw of the next chunk (experiment.run_experiment) runs meanwhile.
            gram = np.stack([np.dot(x.T, x) for x in rows])
        finite = np.isfinite(gram).all(axis=(1, 2))
        if not all(np.isfinite(rows[t]).all() for t in np.flatnonzero(~finite)):
            raise InvalidParameterError("matrix entries must be finite")
        g_qq, g_qb = gram[:, :r, :r], gram[:, :r, r:]
        sc1, z = np.zeros(len(rows)), np.zeros(g_qb.shape)
        # Fewer samples than rank: the sketched basis has a kernel.
        short = f"sketch rank deficient: {s} samples cannot cover rank {r}" if s < r else ""
        error = np.full(len(rows), short, dtype=object)
        if s >= r:
            eigs = np.linalg.eigvalsh(g_qq[finite])
            sc1[finite] = eigs[:, 0]
            fast = finite.copy()
            fast[finite] = eigs[:, 0] > GRAM_FLOOR * eigs[:, -1]
            z[fast] = np.linalg.solve(g_qq[fast], g_qb[fast])
            for t in np.flatnonzero(~fast):
                x = rows[t]
                z[t], _, rank, sv = np.linalg.lstsq(x[:, :r], x[:, r:], rcond=RANK_TOL)
                # Fewer distinct rows than the rank leave S q a kernel.
                sc1[t] = float(sv[-1]) ** 2 if x.shape[0] >= r else 0.0
                if rank < r:
                    error[t] = (f"sketch rank deficient: sketch lost rank ({rank} < {r}); "
                                "caller decides whether to resample")
        # r is upper triangular: LU with partial pivoting leaves it as is, so
        # this is a back substitution for r^{-1} z.
        x_err = np.linalg.solve(self._r, z)
        z_sq, x_err_sq, sc2 = fro_norm_sq_each(np.concatenate((z, x_err, g_qb))).reshape(3, -1)
        # A sketch with an error has nan residual and solution error, so each
        # of its bound verdicts is false.
        ok = error == ""
        resid_sq = np.where(ok, self._residual_sq + z_sq, np.nan)
        sol_value = np.where(ok, x_err_sq, np.nan)
        ratio = np.where(ok, _residual_ratio(resid_sq, self._residual_sq, self._scale_sq,
                                             self._zero_residual), np.inf)
        sc1_holds, sc2_holds = _structural_verdicts(sc1, sc2, self._epsilon, self._residual_sq,
                                                    self._scale_sq)
        limits = self._limits
        residual_holds, solution_holds, gamma_holds = limits.verdicts(resid_sq, sol_value)
        return ChunkScores(
            sc1_value=sc1, sc1_holds=sc1_holds, sc2_value=sc2, sc2_holds=sc2_holds,
            accuracy_ratio=ratio, eps_accurate=ratio <= 1.0 + self._epsilon,
            solution_err_sq=sol_value,
            solution_bound_limit=np.where(ok, limits.solution_limit, np.nan),
            solution_bound_holds=solution_holds, residual_bound_holds=residual_holds,
            gamma=np.where(ok, limits.gamma, np.nan),
            gamma_bound_limit=np.where(ok, limits.gamma_limit, np.nan),
            gamma_bound_holds=gamma_holds, error=error,
        )
