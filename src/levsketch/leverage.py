"""Row leverage scores, coherence, and sampling distributions built from them.

The leverage score of row ``i`` is the squared norm of row ``i`` of any
orthonormal basis for the column space; it measures how much that row
influences the least-squares fit.  Scores sum to the rank, each lies in
``[0, 1]``, and their maximum (the coherence) lies in ``[rank/n, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, InvalidParameterError, UnsupportedRowError
from .linalg import OrthonormalBasis, as_int, as_real, kept, orthonormal_basis, read_only

_SCORE_SUM_TOL = 1e-8
_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LeverageProfile:
    """Per-row leverage scores of a full-column-rank matrix, kept read-only
    as :func:`~levsketch.linalg.kept` keeps them; profiles compare and hash
    by identity."""

    scores: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        scores = kept(self.scores, np.float64)
        object.__setattr__(self, "scores", scores)
        if scores.ndim != 1 or scores.size < 1:
            raise DimensionError("scores must be a nonempty 1-D array")
        if not np.all(np.isfinite(scores)):
            raise InvalidParameterError("scores must be finite")
        object.__setattr__(self, "rank", as_int(self.rank, "rank", 1, scores.size))
        if scores.min() < 0.0 or scores.max() > 1.0 + _UNIT_TOL:
            raise InvalidParameterError("scores must lie in [0, 1]")
        if abs(float(scores.sum()) - self.rank) > _SCORE_SUM_TOL:
            raise InvalidParameterError(
                f"scores sum to {scores.sum()!r}, expected rank {self.rank}"
            )

    @property
    def coherence(self) -> float:
        """The largest score, in ``[rank/n, 1]``."""
        return float(self.scores.max())

    @property
    def n_rows(self) -> int:
        return self.scores.size


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """Probability vector over rows, optionally annotated with the exact
    misestimation factor ``beta`` relative to the profile it was built from.
    ``probs`` is kept read-only as :func:`~levsketch.linalg.kept` keeps it;
    distributions compare and hash by identity."""

    probs: np.ndarray
    beta: float | None = field(default=None)

    def __post_init__(self) -> None:
        probs = kept(self.probs, np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise DimensionError("probs must be a nonempty 1-D array")
        if not np.all(np.isfinite(probs)):
            raise InvalidParameterError("probabilities must be finite")
        if probs.min() < 0.0:
            raise InvalidParameterError("probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > _UNIT_TOL:
            raise InvalidParameterError(f"probabilities sum to {total!r}, not 1")
        if self.beta is not None:
            as_real(self.beta, "beta", 0, 1, "(]")

    @property
    def n_rows(self) -> int:
        return self.probs.size

    @cached_property
    def sentinel_cdf(self) -> np.ndarray:
        """Read-only running sums of ``probs``, then a ``+inf`` sentinel."""
        padded = np.empty(self.n_rows + 1)
        np.cumsum(self.probs, out=padded[:-1])
        padded[-1] = np.inf
        padded.setflags(write=False)
        return padded

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only running sums of ``probs``: a view of :attr:`sentinel_cdf`."""
        return self.sentinel_cdf[:-1]

    @cached_property
    def guide(self) -> np.ndarray:
        """Read-only guide table (Chen & Asau 1974): ``guide[k]`` counts the rows
        with ``cdf <= k / K``, ``K = guide.size - 1`` the least power of two ``>= n``,
        so ``u`` draws a row in ``[guide[b], guide[b + 1]]``, ``b = floor(u * K)``."""
        k = 1 << (self.n_rows - 1).bit_length()
        first = np.minimum(np.ceil(self.cdf * k), k + 1).astype(np.intp)  # cdf[-1] may pass 1
        guide = np.cumsum(np.bincount(first, minlength=k + 2)[:k + 1],
                          dtype=np.int32 if k < 2**31 else np.int64)  # <= the CDF's bytes
        guide.setflags(write=False)
        return guide

    @cached_property
    def last_positive(self) -> int:
        """Index of the last row with positive probability."""
        return int(np.flatnonzero(self.probs > 0.0)[-1])


def profile_from_basis(basis: OrthonormalBasis) -> LeverageProfile:
    """Leverage profile from an already-computed orthonormal basis."""
    q = basis.q
    scores = read_only(np.einsum("ij,ij->i", q, q))  # kept without a copy
    # Rounding can push a score a hair past 1; the profile tolerates 1e-12.
    return LeverageProfile(scores=scores, rank=basis.source_rank)


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
    return SamplingDistribution(probs=read_only(profile.scores / profile.rank), beta=1.0)


def uniform_distribution(n_rows: int) -> SamplingDistribution:
    """Uniform distribution over ``n_rows`` rows."""
    n_rows = as_int(n_rows, "n_rows", 1)
    return SamplingDistribution(probs=read_only(np.full(n_rows, 1.0 / n_rows)))


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
    alpha = float(as_real(alpha, "alpha", 0, 1))  # a Fraction would make an object array
    return SamplingDistribution(probs=read_only((1.0 - alpha) * dist.probs + alpha / dist.n_rows))
