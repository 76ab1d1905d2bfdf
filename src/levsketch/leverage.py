"""Row leverage scores, coherence, and sampling distributions built from them.

The leverage score of row ``i`` is the squared norm of row ``i`` of any
orthonormal basis for the column space; it measures how much that row
influences the least-squares fit.  Scores sum to the rank, each lies in
``[0, 1]``, and their maximum (the coherence) lies in ``[rank/n, 1]``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, InvalidParameterError, UnsupportedRowError
from .linalg import OrthonormalBasis, orthonormal_basis

_SCORE_SUM_TOL = 1e-8
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class LeverageProfile:
    """Per-row leverage scores of a full-column-rank matrix."""

    scores: np.ndarray
    coherence: float
    rank: int

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or scores.size < 1:
            raise DimensionError("scores must be a nonempty 1-D array")
        if self.rank < 1 or self.rank > scores.size:
            raise InvalidParameterError(f"rank {self.rank} out of range")
        if scores.min() < 0.0 or scores.max() > 1.0 + _UNIT_TOL:
            raise InvalidParameterError("scores must lie in [0, 1]")
        if abs(float(scores.sum()) - self.rank) > _SCORE_SUM_TOL:
            raise InvalidParameterError(
                f"scores sum to {scores.sum()!r}, expected rank {self.rank}"
            )
        if abs(self.coherence - float(scores.max())) > _UNIT_TOL:
            raise InvalidParameterError("coherence must equal max(scores)")
        if self.coherence < self.rank / scores.size - _UNIT_TOL:
            raise InvalidParameterError("coherence below rank/n is impossible")

    @property
    def n_rows(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class SamplingDistribution:
    """Probability vector over rows, optionally annotated with the exact
    misestimation factor ``beta`` relative to the profile it was built from."""

    probs: np.ndarray
    beta: float | None = field(default=None)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise DimensionError("probs must be a nonempty 1-D array")
        if probs.min() < 0.0:
            raise InvalidParameterError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > _UNIT_TOL:
            raise InvalidParameterError(f"probabilities sum to {total!r}, not 1")
        if self.beta is not None and not (0.0 < self.beta <= 1.0):
            raise InvalidParameterError(f"beta must lie in (0, 1], got {self.beta}")

    @property
    def n_rows(self) -> int:
        return self.probs.size

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only running sums of ``probs``: the inverse-CDF table row
        draws search."""
        cdf = np.cumsum(self.probs)
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def last_positive(self) -> int:
        """Index of the last row with positive probability."""
        return int(np.flatnonzero(self.probs > 0.0)[-1])

    @cached_property
    def digest(self) -> str:
        """Stable checksum of the probability vector (for plan provenance)."""
        return hashlib.sha256(np.ascontiguousarray(self.probs).tobytes()).hexdigest()[:16]


def profile_from_basis(basis: OrthonormalBasis) -> LeverageProfile:
    """Leverage profile from an already-computed orthonormal basis."""
    q = basis.q.array
    scores = np.einsum("ij,ij->i", q, q)
    # Rounding can push a score a hair past 1; the profile tolerates 1e-12.
    return LeverageProfile(
        scores=scores, coherence=float(scores.max()), rank=basis.source_rank
    )


def leverage_scores(a) -> LeverageProfile:
    """Leverage scores of a full-column-rank matrix.

    Equivalent to the diagonal of the projection ``a (a^T a)^{-1} a^T`` but
    computed stably from an orthonormal basis.

    Raises
    ------
    RankDeficientError
        If ``a`` is rank deficient; leverage scores are defined here only
        for full column rank.
    """
    return profile_from_basis(orthonormal_basis(a))


def leverage_distribution(profile: LeverageProfile) -> SamplingDistribution:
    """Sampling distribution proportional to the leverage scores.

    By construction its misestimation factor against ``profile`` is 1, the
    best possible.
    """
    return SamplingDistribution(probs=profile.scores / profile.rank, beta=1.0)


def uniform_distribution(n_rows: int) -> SamplingDistribution:
    """Uniform distribution over ``n_rows`` rows."""
    if n_rows < 1:
        raise InvalidParameterError(f"need at least one row, got {n_rows}")
    return SamplingDistribution(probs=np.full(n_rows, 1.0 / n_rows))


def misestimation_beta(candidate: SamplingDistribution, profile: LeverageProfile) -> float:
    """How well ``candidate`` covers the leverage distribution of ``profile``.

    Returns the largest ``beta`` in ``(0, 1]`` such that
    ``candidate.probs[i] >= beta * scores[i] / rank`` for every row with a
    positive score.  ``beta = 1`` means exact (or conservative) coverage;
    small ``beta`` inflates the sample size needed for the same guarantee.

    Raises
    ------
    UnsupportedRowError
        If some row has a positive score but zero candidate probability.
    DimensionError
        If the two row counts differ.
    """
    if candidate.n_rows != profile.n_rows:
        raise DimensionError(
            f"row counts differ: distribution has {candidate.n_rows}, "
            f"profile has {profile.n_rows}"
        )
    mask = profile.scores > 0.0
    p = candidate.probs[mask]
    if np.any(p == 0.0):
        raise UnsupportedRowError(
            "a row with positive leverage has zero sampling probability"
        )
    beta = float(np.min(p * profile.rank / profile.scores[mask]))
    return min(beta, 1.0)


def blended_distribution(dist: SamplingDistribution, alpha: float) -> SamplingDistribution:
    """Mix a distribution with the uniform one: ``(1-alpha)*p + alpha/n``.

    Blending never reduces the misestimation factor below ``(1-alpha)``
    times that of ``dist``, and guarantees every row probability is at
    least ``alpha/n``.  This is the canonical way to build degraded test
    distributions with a known analytic floor on ``beta``.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InvalidParameterError(f"alpha must lie in [0, 1], got {alpha}")
    n = dist.n_rows
    probs = (1.0 - alpha) * dist.probs + alpha / n
    return SamplingDistribution(probs=probs)
