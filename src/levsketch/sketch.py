"""Row-sampling sketches: seeded streams, plans, and their application.

A sketch plan holds the sampling distribution ``p`` it was drawn from, its
``s`` independent row draws and the rescaling weight ``1/sqrt(s * p[draw])``
of each.  The multiset of its draws (the distinct rows drawn and, for each,
the sum of its squared weights) is all of ``S^T S``, which is all a
least-squares trial depends on; :func:`draw_chunk` draws only the multisets
of a chunk of sketches.  Applying a plan to a matrix keeps the sampled, rescaled rows; the
implied sketching operator is never materialized densely outside of tests.

Every draw comes from a Philox stream ``(seed, stream_index)``: the seed's
Philox jumped ``stream_index`` times.  :class:`RngStream` is the general
stream; :class:`TrialStreams` gives a run's trial streams a chunk at a time,
bit for bit the same, with no stream object built per trial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    UnsupportedRowError,
)
from .leverage import SamplingDistribution
from .linalg import DenseMatrix, as_array, as_int, as_problem, fro_norm_sq, kept, read_only


def _stream_index(stream_index) -> int:  # a count of Philox jumps, which wrap at 2**128
    index = as_int(stream_index, "stream_index")
    if not (0 <= index < 2**128):
        raise InvalidParameterError(f"stream_index must lie in [0, 2**128), got {stream_index}")
    return index


class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by ``(seed, stream_index)``; identical pairs
    yield identical draw sequences on every platform, and distinct stream
    indices give statistically independent streams.  The generator is the
    counter-based Philox 4x64, named by :attr:`algorithm_id`: stream ``i``
    is stream 0's Philox jumped ``i`` times (``Philox.jumped(i)``, an
    advance of ``i * 2**128`` counter values under one key).

    Streams are stateful: each draw consumes from the stream.  Use one
    stream per task.  This is the general path and the oracle that
    :class:`TrialStreams` is tested against.
    """

    algorithm_id = "philox4x64"
    __slots__ = ("seed", "stream_index", "_generator")

    def __init__(self, seed: int, stream_index: int = 0) -> None:
        self.seed = as_int(seed, "seed")
        if not (0 <= self.seed < 2**64):
            raise InvalidParameterError(f"seed must be a 64-bit integer, got {seed}")
        self.stream_index = _stream_index(stream_index)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            philox = np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=(0,)))
            self._generator = np.random.Generator(philox.advance(self.stream_index << 128))
        return self._generator

    def __repr__(self) -> str:
        return (
            f"RngStream(seed={self.seed}, stream_index={self.stream_index}, "
            f"algorithm_id={self.algorithm_id!r})"
        )


class TrialStreams:
    """The streams ``RngStream(seed, i)`` of one seed, drawn a block at a time
    with no stream object built per stream.

    Jumping ``i`` times from counter 0 sets Philox's counter to ``(0, 0,
    i mod 2**64, i >> 64)`` and empties its buffer, so :meth:`uniforms` draws
    every stream from stream 0's Philox, reused, by writing just those
    counter words: the :class:`RngStream` path bit for bit.

    The Philox is shared state: use one instance per task.
    """

    __slots__ = ("seed", "_bitgen", "_state", "_generator")

    def __init__(self, seed: int) -> None:
        stream = RngStream(seed)
        self.seed, self._generator = stream.seed, stream.generator
        self._bitgen = self._generator.bit_generator
        self._state = self._bitgen.state  # counter 0 and an empty buffer

    def uniforms(self, count: int, stream_indices: range) -> np.ndarray:
        """A ``(len(stream_indices), count)`` array whose row ``t`` is the first
        ``count`` uniforms of stream ``(seed, stream_indices[t])``."""
        if stream_indices:
            _stream_index(min(stream_indices)), _stream_index(max(stream_indices))
        u = np.empty((len(stream_indices), count))
        counter = self._state["state"]["counter"]
        for row, index in zip(u, stream_indices):
            counter[2], counter[3] = index & 0xFFFFFFFFFFFFFFFF, index >> 64
            self._bitgen.state = self._state
            self._generator.random(out=row)
        return u


@dataclass(frozen=True, eq=False)
class SketchPlan:
    """Realized row-sampling sketch: the distribution ``source`` it was drawn
    from, the draws, and their rescaling weights.

    A drawn plan has ``weights[t] * sqrt(n_samples * source.probs[draws[t]]) == 1``;
    a hand-built one may carry any finite positive weights.  ``draws`` and
    ``weights`` are in draw order, int64 and float64, kept as
    :func:`~levsketch.linalg.kept` keeps them.  Plans compare and hash by identity.
    """

    source: SamplingDistribution
    draws: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        draws = kept(self.draws, np.int64)
        weights = kept(self.weights, np.float64)
        if draws.size < 1:
            raise InvalidSampleCountError("a plan needs at least one draw")
        if draws.ndim != 1 or weights.shape != draws.shape:
            raise DimensionError("draws and weights must be 1-D and of equal length")
        if draws.min() < 0 or draws.max() >= self.source.n_rows:
            raise DimensionError("draw indices out of range")
        if not np.all(np.isfinite(weights)) or weights.min() <= 0.0:
            raise InvalidParameterError("weights must be finite and positive")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "weights", weights)

    @property
    def n_source_rows(self) -> int:
        return self.source.n_rows

    @property
    def n_samples(self) -> int:
        return self.draws.size


def _sample_count(s) -> int:
    """``s`` as a row count; every draw goes through here, so a count that is
    not a positive integer (``2.5`` included) raises instead of being truncated."""
    try:
        count = operator.index(s)
    except TypeError:
        count = 0
    if count < 1:
        raise InvalidSampleCountError(f"s must be a positive integer, got {s!r}")
    return count


#: Guide-table passes before keys still moving (in long zero runs) finish by bisection.
_WALK_PASSES = 8


def _search(p: SamplingDistribution, u: np.ndarray) -> np.ndarray:
    """Rows drawn by uniforms ``u``: ``np.searchsorted(p.cdf, u, side="right")``
    exactly, by a guide-table walk (Chen & Asau 1974): each key starts at its
    bucket's first row, and each pass steps up every key with ``cdf <= u``."""
    cdf = p.sentinel_cdf
    rows = p.guide[(u * (p.guide.size - 1)).astype(np.intp)].astype(np.intp)
    for _ in range(_WALK_PASSES):
        step = cdf[rows] <= u
        if not step.any():
            break
        rows += step
    else:
        late = cdf[rows] <= u
        rows[late] = np.searchsorted(p.cdf, u[late], side="right")
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
    """Draw ``s`` independent row indices distributed according to ``p``, in
    draw order: inverse-CDF lookups of ``s`` uniforms from ``rng`` in
    ``p.cdf`` through its guide table (Chen & Asau 1974).  Rows with zero
    probability are never drawn."""
    return _search(p, rng.generator.random(_sample_count(s)))


def build_sketch(p: SamplingDistribution, s: int, rng: RngStream) -> SketchPlan:
    """Draw a sketch plan of ``s`` rows from ``p``: ``SketchPlan(p, draws, weights)``.

    The draws are :func:`multinomial_draws`, and the weight
    ``1/sqrt(s * p[i])`` makes sketched squared norms unbiased:
    ``E ||S x||^2 = ||x||^2`` for any fixed vector ``x`` supported on rows
    with positive probability.
    """
    draws = read_only(multinomial_draws(p, s, rng))
    weights = read_only(1.0 / np.sqrt(draws.size * p.probs[draws]))
    return SketchPlan(p, draws, weights)


class SketchChunk(NamedTuple):
    """The multisets of consecutive sketches of ``n_samples`` rows each: sketch
    ``t`` drew the rows ``unique_rows[offsets[t]:offsets[t + 1]]``, ascending,
    with summed squared weights in the same slice of ``weight_sq_sums``."""

    n_source_rows: int
    n_samples: int
    unique_rows: np.ndarray
    weight_sq_sums: np.ndarray
    offsets: np.ndarray


def draw_chunk(
    p: SamplingDistribution, s: int, streams: TrialStreams, stream_indices: range
) -> SketchChunk:
    """One sketch of ``s`` rows from ``p`` per stream index, as multisets only.

    Sketch ``t`` is the multiset of ``multinomial_draws(p, s,
    RngStream(streams.seed, stream_indices[t]))`` bit for bit, from one sort of
    the ``(T, s)`` uniforms (:meth:`TrialStreams.uniforms`) along their rows,
    one guide-table lookup (:func:`_search`) and one run-length pass.
    """
    u = streams.uniforms(_sample_count(s), stream_indices)
    u.sort(axis=1)
    return SketchChunk(p.n_rows, u.shape[1], *_multisets(p, _search(p, u)))


def apply_sketch(plan: SketchPlan, m) -> DenseMatrix:
    """Apply the plan to a matrix: gather sampled rows, scaled by weights.

    Equivalent to multiplying by the dense ``s x n`` selection-and-rescale
    operator, at ``O(s * cols)`` cost.  The product is written once, column-major,
    and ``np.asarray`` of the result is that read-only array.
    """
    arr = as_array(m)
    if arr.shape[0] != plan.n_source_rows:
        raise DimensionError(
            f"matrix has {arr.shape[0]} rows, plan expects {plan.n_source_rows}"
        )
    # An overflowing product is not finite, which DenseMatrix rejects.
    with np.errstate(over="ignore"):
        product = np.multiply(arr[plan.draws, :], plan.weights[:, None], order="F")
    return DenseMatrix(product)


def sketched_norm_sq(plan: SketchPlan, x) -> float:
    """Squared norm of the sketched vector ``S x`` for a finite ``n``-vector ``x``.

    Raises
    ------
    UnsupportedRowError
        If ``x`` is nonzero on a row that ``plan.source`` never draws.
    """
    xv = np.asarray(x, dtype=np.float64)
    if xv.shape != (plan.n_source_rows,):
        raise DimensionError(
            f"x has shape {xv.shape}, plan expects ({plan.n_source_rows},)"
        )
    if not np.all(np.isfinite(xv)):
        raise InvalidParameterError("x must have finite entries")
    if np.any((xv != 0.0) & (plan.source.probs == 0.0)):
        raise UnsupportedRowError("a nonzero coordinate of x had zero sampling probability")
    with np.errstate(over="ignore"):
        norm_sq = fro_norm_sq(xv[plan.draws] * plan.weights)
    if not math.isfinite(norm_sq):
        raise InvalidParameterError("the sketched norm overflows float64")
    return norm_sq


def approx_matmul(a, b, p: SamplingDistribution, s: int, rng: RngStream) -> np.ndarray:
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
    aarr, barr = as_problem(a, b)
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
    sa = np.asarray(apply_sketch(plan, aarr))
    sb = np.asarray(apply_sketch(plan, barr))
    with np.errstate(over="ignore", invalid="ignore"):
        product = sa.T @ sb
    if not np.isfinite(product).all():
        raise InvalidParameterError("the sampled product overflows float64")
    return read_only(product)
