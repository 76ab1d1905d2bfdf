"""Row-sampling sketches: seeded streams, plans, and their application.

A sketch plan records ``s`` independent row draws from a sampling
distribution plus the rescaling weight ``1/sqrt(s * p[draw])`` for each.
It also records the multiset of its draws: the distinct rows drawn and, for
each, the sum of its squared weights.  That is all of ``S^T S``, which is
all a least-squares trial depends on; :func:`draw_chunk` draws only the
multisets of a chunk of sketches.  Applying a plan to a matrix keeps the
sampled, rescaled rows; the implied sketching operator is never materialized
densely outside of tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    UnsupportedRowError,
)
from .leverage import SamplingDistribution
from .linalg import DenseMatrix, as_array


class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by ``(seed, stream_index)``; identical pairs
    yield identical draw sequences on every platform, and distinct stream
    indices give statistically independent streams.  The generator is the
    counter-based Philox 4x64, named by :attr:`algorithm_id`.

    Streams are stateful: each draw consumes from the stream.  Use one
    stream per task.
    """

    algorithm_id = "philox4x64"
    __slots__ = ("seed", "stream_index", "_generator")

    def __init__(self, seed: int, stream_index: int = 0) -> None:
        if not (0 <= int(seed) < 2**64):
            raise InvalidParameterError(f"seed must be a 64-bit integer, got {seed}")
        if int(stream_index) < 0:
            raise InvalidParameterError(
                f"stream_index must be nonnegative, got {stream_index}"
            )
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_index,))
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.seed}, stream_index={self.stream_index}, "
            f"algorithm_id={self.algorithm_id!r})"
        )


@dataclass(frozen=True)
class SketchPlan:
    """Realized row-sampling sketch: draws plus rescaling weights.

    ``weights[t] * sqrt(n_samples * p[draws[t]]) == 1`` for the source
    distribution ``p``, whose checksum is kept in ``source_probs_digest``.
    ``draws`` and ``weights`` are in draw order.

    ``unique_rows`` lists the distinct rows drawn, ascending, and
    ``weight_sq_sums[k]`` is the sum of ``weights[t]**2`` over the draws of
    ``unique_rows[k]``, so ``S^T S`` is the diagonal matrix with
    ``weight_sq_sums`` at ``unique_rows``.  Both are derived from ``draws``
    and ``weights``; :func:`build_sketch` takes them from its sorted search
    instead.
    """

    n_source_rows: int
    n_samples: int
    draws: np.ndarray
    weights: np.ndarray
    source_probs_digest: str
    unique_rows: np.ndarray = field(init=False)
    weight_sq_sums: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        draws = np.asarray(self.draws, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if self.n_samples < 1:
            raise InvalidSampleCountError(f"need n_samples >= 1, got {self.n_samples}")
        if draws.shape != (self.n_samples,) or weights.shape != (self.n_samples,):
            raise DimensionError("draws and weights must both have length n_samples")
        if draws.size and (draws.min() < 0 or draws.max() >= self.n_source_rows):
            raise DimensionError("draw indices out of range")
        if not np.all(np.isfinite(weights)) or weights.min() <= 0.0:
            raise InvalidParameterError("weights must be finite and positive")
        rows, inverse = np.unique(draws, return_inverse=True)
        # A weight past ~1e154 squares to inf; the scorer rejects that.
        with np.errstate(over="ignore"):
            weight_sq_sums = np.bincount(inverse, weights=weights * weights, minlength=rows.size)
        for name, arr in (("draws", draws), ("weights", weights), ("unique_rows", rows),
                          ("weight_sq_sums", weight_sq_sums)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, **fields) -> "SketchPlan":
        """A plan from the arrays :func:`build_sketch` has just made, valid by
        construction: a trial's plan is not checked again."""
        plan = object.__new__(cls)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(plan, name, value)
        return plan


def _uniforms(s: int, streams: Sequence[RngStream]) -> np.ndarray:
    """One row of ``s`` uniforms from each stream, in draw order."""
    if int(s) < 1:
        raise InvalidSampleCountError(f"need s >= 1, got {s}")
    return np.stack([rng.generator.random(int(s)) for rng in streams])


def _search(p: SamplingDistribution, sorted_u: np.ndarray) -> np.ndarray:
    """Rows selected by uniforms ascending along their last axis, by binary
    search of ``p.cdf``; sorted uniforms keep consecutive searches in cache."""
    rows = np.searchsorted(p.cdf, sorted_u, side="right")
    # Guard the (measure ~1e-16) event u >= cdf[-1] from rounding; route it
    # to the largest positive-probability row rather than out of range.
    return np.minimum(rows, p.last_positive, out=rows)


def _multisets(p: SamplingDistribution, sorted_rows: np.ndarray):
    """``(unique_rows, weight_sq_sums, offsets)`` of the sketches in the rows of
    a ``(T, s)`` array sorted along its rows; ``c`` draws of row ``i`` weigh
    ``c / (s * p[i])``."""
    s = sorted_rows.shape[1]
    flat = sorted_rows.ravel()
    first = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first[::s] = True  # a run never spans two sketches
    starts = np.flatnonzero(first)
    unique_rows = flat[starts]
    counts = np.diff(starts, append=flat.size)
    offsets = np.append(np.flatnonzero(starts % s == 0), starts.size)
    return unique_rows, counts / (s * p.probs[unique_rows]), offsets


def multinomial_draws(p: SamplingDistribution, s: int, rng: RngStream) -> np.ndarray:
    """Draw ``s`` independent row indices distributed according to ``p``:
    the draws of :func:`build_sketch`, in draw order.  Rows with zero
    probability are never drawn."""
    return build_sketch(p, s, rng).draws


def build_sketch(p: SamplingDistribution, s: int, rng: RngStream) -> SketchPlan:
    """Draw a sketch plan of ``s`` rows from ``p`` with rescaling weights.

    The weight ``1/sqrt(s * p[i])`` makes sketched squared norms unbiased:
    ``E ||S x||^2 = ||x||^2`` for any fixed vector ``x`` supported on rows
    with positive probability.  Draws are inverse-CDF lookups of ``s``
    uniforms from ``rng`` in ``p.cdf``.  The uniforms are searched in sorted
    order, so runs of equal rows give the plan's multiset, and the draws and
    weights are scattered back to draw order.
    """
    u = _uniforms(s, [rng])[0]
    order = np.argsort(u)
    rows = _search(p, u[order])
    unique_rows, weight_sq_sums, _ = _multisets(p, rows[None])
    draws, weights = np.empty_like(rows), np.empty(rows.size)
    draws[order] = rows
    weights[order] = 1.0 / np.sqrt(rows.size * p.probs[rows])
    return SketchPlan._trusted(
        n_source_rows=p.n_rows,
        n_samples=rows.size,
        draws=draws,
        weights=weights,
        source_probs_digest=p.digest,
        unique_rows=unique_rows,
        weight_sq_sums=weight_sq_sums,
    )


class SketchChunk(NamedTuple):
    """The multisets of consecutive sketches of ``n_samples`` rows each: sketch
    ``t`` drew the rows ``unique_rows[offsets[t]:offsets[t + 1]]``, ascending,
    with summed squared weights in the same slice of ``weight_sq_sums``."""

    n_source_rows: int
    n_samples: int
    unique_rows: np.ndarray
    weight_sq_sums: np.ndarray
    offsets: np.ndarray


def draw_chunk(p: SamplingDistribution, s: int, streams: Sequence[RngStream]) -> SketchChunk:
    """One sketch of ``s`` rows from ``p`` per stream, as multisets only.

    Sketch ``t`` is the multiset of ``build_sketch(p, s, streams[t])`` bit
    for bit, from one sort of the ``(T, s)`` uniforms along their rows, one
    search and one run-length pass, with no draw order.
    """
    u = _uniforms(s, streams)
    u.sort(axis=1)
    return SketchChunk(p.n_rows, u.shape[1], *_multisets(p, _search(p, u)))


def apply_sketch(plan: SketchPlan, m) -> DenseMatrix:
    """Apply the plan to a matrix: gather sampled rows, scaled by weights.

    Equivalent to multiplying by the dense ``s x n`` selection-and-rescale
    operator, at ``O(s * cols)`` cost.
    """
    arr = as_array(m)
    if arr.shape[0] != plan.n_source_rows:
        raise DimensionError(
            f"matrix has {arr.shape[0]} rows, plan expects {plan.n_source_rows}"
        )
    out = arr[plan.draws, :] * plan.weights[:, None]
    return DenseMatrix.from_array(out)


def sketched_norm_sq(plan: SketchPlan, x, probs: SamplingDistribution | None = None) -> float:
    """Squared norm of the sketched vector ``S x``.

    Parameters
    ----------
    plan : SketchPlan
    x : array-like, shape (n,)
        Vector over the source rows.
    probs : SamplingDistribution, optional
        When given, it is checked against the plan's digest and used to
        verify that every nonzero coordinate of ``x`` was drawable;
        otherwise that contract is the caller's responsibility.
    """
    xv = np.asarray(x, dtype=np.float64).reshape(-1)
    if xv.size != plan.n_source_rows:
        raise DimensionError(
            f"vector has {xv.size} entries, plan expects {plan.n_source_rows}"
        )
    if probs is not None:
        if probs.digest != plan.source_probs_digest:
            raise InvalidParameterError(
                "supplied distribution does not match the plan's digest"
            )
        if np.any((xv != 0.0) & (probs.probs == 0.0)):
            raise UnsupportedRowError(
                "a nonzero coordinate of x had zero sampling probability"
            )
    v = xv[plan.draws] * plan.weights
    return float(np.dot(v, v))


def materialize_sketch(plan: SketchPlan) -> DenseMatrix:
    """Dense ``s x n`` sketching operator; for small cases and checks only."""
    s_mat = np.zeros((plan.n_samples, plan.n_source_rows))
    s_mat[np.arange(plan.n_samples), plan.draws] = plan.weights
    return DenseMatrix.from_array(s_mat)


def approx_matmul(a, b, p: SamplingDistribution, s: int, rng: RngStream) -> DenseMatrix:
    """Unbiased sampled estimate of ``a.T @ b``.

    Draws ``s`` rows from ``p`` and returns ``(S a)^T (S b)``, which in
    expectation equals ``a.T @ b``.  When ``p[k] >= beta * ||a[k,:]||^2 /
    ||a||_F^2`` for all rows, the expected squared Frobenius error is at
    most ``||a||_F^2 * ||b||_F^2 / (beta * s)``.

    Raises
    ------
    UnsupportedRowError
        If a row where ``a`` or ``b`` is nonzero has zero probability.
    """
    aarr = as_array(a)
    barr = as_array(b)
    if aarr.shape[0] != barr.shape[0]:
        raise DimensionError(
            f"row counts differ: a has {aarr.shape[0]}, b has {barr.shape[0]}"
        )
    if aarr.shape[0] != p.n_rows:
        raise DimensionError(
            f"matrices have {aarr.shape[0]} rows, distribution has {p.n_rows}"
        )
    zero_p = p.probs == 0.0
    if np.any(zero_p):
        live = np.any(aarr != 0.0, axis=1) | np.any(barr != 0.0, axis=1)
        if np.any(zero_p & live):
            raise UnsupportedRowError(
                "a row with nonzero entries has zero sampling probability"
            )
    plan = build_sketch(p, s, rng)
    sa = apply_sketch(plan, aarr).array
    sb = apply_sketch(plan, barr).array
    return DenseMatrix.from_array(sa.T @ sb)
