"""Dense linear-algebra core: the boundary check, orthonormal bases, the
exact least-squares reference solve, and spectral summaries.

Matrices are float64 numpy arrays.  Public functions check each 2-D array-like
they take once, with :func:`as_array` (a problem's shapes with :func:`as_problem`),
and return read-only arrays.  Rank decisions everywhere use the relative
threshold :data:`RANK_TOL`.  QRs are ``dgeqrf``/``dorgqr`` from
:mod:`numpy.linalg.lapack_lite` in place on a column-major copy filled in
cache-sized row slabs (:func:`fill_in_slabs`), so ``q`` keeps LAPACK's layout;
``np.linalg.qr`` gives the same bits and is the tests' oracle.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .exceptions import DimensionError, InvalidParameterError, RankDeficientError

#: Relative singular-value threshold below which a matrix counts as rank
#: deficient: sigma_min <= RANK_TOL * sigma_max.
RANK_TOL = 1e-10

_ORTHONORMALITY_TOL = 1e-10

#: Rows per slab of a copy that changes the memory layout (:func:`fill_in_slabs`).
#: A slab of a 40-column float64 matrix, 1.3 MB, stays in cache while it is
#: transposed; one whole-matrix copy strides through main memory instead.
SLAB_ROWS = 4096


def _cast(m, dtype, copy: bool) -> np.ndarray:
    """``m`` as an array of ``dtype``, float64 or int64.  Entries that are not
    real numbers (complex, text, Python objects), or for int64 not integers
    (floats, bools), raise, where numpy's cast would drop an imaginary part
    with only a warning, parse the text, call ``float()`` or truncate."""
    integer = np.dtype(dtype).kind == "i"
    try:
        a = np.asarray(m)
        if a.dtype.kind not in ("iu" if integer else "biuf"):
            raise TypeError(f"got dtype {a.dtype}")
        return a.astype(dtype, copy=copy)
    except (TypeError, ValueError) as exc:
        what = "integers" if integer else "real numbers"
        raise InvalidParameterError(f"entries must be {what}: {exc}") from None


def as_array(m) -> np.ndarray:
    """The boundary check: ``m`` as a 2-D float64 array with a positive shape
    and finite entries, without a copy when it already is one; entries that
    are not real numbers raise (:func:`_cast`)."""
    a = _cast(m, np.float64, copy=False)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix shape must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError("matrix entries must be finite")
    return a


def as_problem(a, b, x=None) -> tuple[np.ndarray, ...]:
    """The boundary check of a least-squares problem: :func:`as_array` of
    ``a``, ``b`` and, when given, a candidate solution ``x``, with ``b`` on
    the rows of ``a`` and ``x`` of shape ``(a cols, b cols)``."""
    arr, barr = as_array(a), as_array(b)
    if arr.shape[0] != barr.shape[0]:
        raise DimensionError(f"row counts differ: a has {arr.shape[0]}, b has {barr.shape[0]}")
    if x is None:
        return arr, barr
    xarr = as_array(x)
    if xarr.shape != (want := (arr.shape[1], barr.shape[1])):
        raise DimensionError(f"x has shape {xarr.shape}, expected {want}")
    return arr, barr, xarr


def as_int(value, name: str, lo: int | None = None, hi: int | None = None,
           error: type[Exception] = InvalidParameterError) -> int:
    """The boundary check for an integer parameter: ``value`` as an int in
    ``[lo, hi]`` (inclusive; ``hi`` only with ``lo``).  Anything else raises
    ``error``: a value out of range, and a non-integral value such as ``2.5``
    or a bool, which is neither truncated nor counted as 0 or 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if (lo is None or lo <= n) and (hi is None or n <= hi):
                return n
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise error(f"{name} must be an integer{bounds}, got {value!r}")


def as_real(value, name: str, lo, hi, ends: str = "[]"):
    """The boundary check for a real parameter: ``value``, as it is, when it is
    a ``numbers.Real`` but not a bool, finite as a float, in the interval from
    ``lo`` to ``hi`` with the ends ``ends`` marks closed or open (``"[]"``,
    ``"(]"``, ``"()"``, ``"[)"``).  Anything else raises ``InvalidParameterError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        try:
            if (math.isfinite(value) and (lo < value if ends[0] == "(" else lo <= value)
                    and (value < hi if ends[1] == ")" else value <= hi)):
                return value
        except OverflowError:  # an int or a Fraction past the float range
            pass
    raise InvalidParameterError(
        f"{name} must be a finite real number in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")


def fill_in_slabs(out: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``np.concatenate(parts, axis=1)``, :data:`SLAB_ROWS`
    rows at a time, in ``out``'s own layout, and return it.  A copy is exact,
    so ``out`` has the bits of one whole copy."""
    for lo in range(0, out.shape[0], SLAB_ROWS):
        rows = slice(lo, lo + SLAB_ROWS)
        np.concatenate([p[rows] for p in parts], axis=1, out=out[rows])
    return out


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array the library built and hands out as read-only."""
    a.setflags(write=False)
    return a


def kept(a, dtype) -> np.ndarray:
    """``a`` as a read-only array of ``dtype`` for a value type to keep: a
    read-only ndarray of that dtype that owns its data as it is, anything
    else as a read-only copy: a read-only view too, as its base may still be
    written, and a caller's writeable array stays writeable and its own.
    Entries of the wrong kind raise as in :func:`_cast`."""
    if (isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata
            and a.dtype == dtype):
        return a
    return read_only(_cast(a, dtype, copy=True))


class DenseMatrix:
    """Checked read-only view of a matrix, as ``read_matrix`` and ``apply_sketch``
    return it: ``array`` is ``as_array`` of the given array, marked read-only in
    place without a copy, and ``np.asarray(m)`` is ``m.array``."""

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        self.array = read_only(as_array(array))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x passes no ``copy`` and rejects ``np.array(copy=None)``.
        if copy or (dtype is not None and np.dtype(dtype) != np.float64):
            return np.array(self.array, dtype=dtype)
        return self.array


def fro_norm_sq(m) -> float:
    """Squared Frobenius norm: :func:`fro_norm_sq_each` of the one-item stack."""
    return float(fro_norm_sq_each(np.asarray(m)[None])[0])


def fro_norm_sq_each(stack: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each ``stack[t]``.

    numpy's own sum of squares, with no BLAS call: one temporary of squares
    in the stack's memory order, summed per item in that order by numpy's
    pairwise sum.  So the bits do not depend on the BLAS thread count, and
    when axis 0 is the outermost in memory (contiguous stacks and views such
    as ``gram[:, :r, r:]``), item ``t`` has the bits of the one-item stack
    ``stack[t:t + 1]``.  An overflow gives ``inf`` without a warning.
    """
    with np.errstate(over="ignore"):
        sq = np.square(stack, dtype=np.float64)
        return sq.sum(axis=tuple(range(1, sq.ndim)))


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis ``q`` for the column space of a full-rank matrix.

    Construction checks orthonormality and keeps ``q`` as :func:`kept` does.
    """

    q: np.ndarray

    @classmethod
    def _of_qr(cls, q: np.ndarray) -> "OrthonormalBasis":
        """A QR's ``q``, orthonormal by construction: no n x r^2 check."""
        obj = cls.__new__(cls)
        obj.__dict__.update(q=read_only(q))
        return obj

    @property
    def source_rank(self) -> int:
        """The rank of the source matrix: the number of basis columns."""
        return self.q.shape[1]

    def __post_init__(self) -> None:
        qa = as_array(kept(self.q, np.float64))
        object.__setattr__(self, "q", qa)
        n, r = qa.shape
        if n < r:
            raise DimensionError(f"basis cannot be wider than tall, got {n}x{r}")
        gram = qa.T @ qa
        defect = np.max(np.abs(gram - np.eye(r)))
        if defect > _ORTHONORMALITY_TOL:
            raise InvalidParameterError(
                f"columns are not orthonormal (max Gram defect {defect:.3e})"
            )


@dataclass(frozen=True)
class LstsqSolution:
    """Exact least-squares minimizer with its residual decomposition.

    ``b_perp = b - a @ x_opt`` is the component of the right-hand side
    orthogonal to the column space of ``a``; ``residual_sq`` is its squared
    Frobenius norm, the minimal value of the objective.  ``basis`` (whose
    squared row norms are the leverage scores) and ``spectral`` (the extreme
    singular values of ``a``) come from the same QR as the solve.

    ``r_factor`` is the upper-triangular r x r factor of ``a = q @ r``, so a
    step ``z`` in the coordinates of ``q`` moves the solution by
    ``r^{-1} z``.  ``b_norm_sq`` is ``||b||_F^2``, the scale the zero-residual
    and noise-floor policies are relative to.
    """

    x_opt: np.ndarray
    residual_sq: float
    b_perp: np.ndarray
    basis: OrthonormalBasis
    spectral: SpectralSummary
    r_factor: np.ndarray
    b_norm_sq: float


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme singular values and the condition number of a matrix:
    ``0 <= sigma_min <= sigma_max``, both finite."""

    sigma_min: float
    sigma_max: float

    def __post_init__(self) -> None:
        as_real(self.sigma_max, "sigma_max", 0, math.inf, "[)")
        as_real(self.sigma_min, "sigma_min", 0, self.sigma_max)

    @property
    def kappa(self) -> float:
        """``sigma_max / sigma_min``, or ``inf`` when ``sigma_min`` is 0."""
        return self.sigma_max / self.sigma_min if self.sigma_min > 0.0 else float("inf")


def _lapack(routine, *args) -> None:
    """Call a ``lapack_lite`` routine with the workspace it asks for."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(max(1, int(work[0])))
    routine(*args, work, work.size, 0)


def _qr_full_rank(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR ``arr = q @ r`` of a tall full-rank matrix, plus the singular values
    of the r x r factor (which equal those of ``arr``).  ``dgeqrf`` and
    ``dorgqr`` turn one column-major copy of ``arr``, filled in slabs, into
    ``q`` in place."""
    n, r = arr.shape
    if n < r:
        raise DimensionError(f"matrix must be tall, got {n}x{r}")
    q_fac = fill_in_slabs(np.empty((n, r), order="F"), arr)
    # lapack_lite takes C-contiguous arrays: q_fac.T, leading dimension n.
    at, tau = q_fac.T, np.empty(r)
    _lapack(lapack_lite.dgeqrf, n, r, at, n, tau)
    r_fac = np.triu(q_fac[:r])
    sv = np.linalg.svd(r_fac, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficientError(
            f"matrix is rank deficient (sigma_min/sigma_max = "
            f"{sv[-1] / sv[0] if sv[0] > 0 else 0.0:.3e})"
        )
    _lapack(lapack_lite.dorgqr, n, r, r, at, n, tau)
    return q_fac, r_fac, sv


def _spectral_summary(sv: np.ndarray) -> SpectralSummary:
    return SpectralSummary(sigma_min=float(sv[-1]), sigma_max=float(sv[0]))


def orthonormal_basis(a) -> OrthonormalBasis:
    """Orthonormal basis for the column space of a full-column-rank matrix.

    Parameters
    ----------
    a : array-like, shape (n, r)
        Tall matrix with ``n >= r``.

    Returns
    -------
    OrthonormalBasis
        Householder-QR basis.  Row squared norms of the basis are the
        leverage scores of ``a`` and do not depend on which orthonormal
        basis is returned.

    Raises
    ------
    DimensionError
        If ``a`` has more columns than rows.
    RankDeficientError
        If ``sigma_min(a) <= RANK_TOL * sigma_max(a)``.
    """
    q_fac, _, _ = _qr_full_rank(as_array(a))
    return OrthonormalBasis._of_qr(q_fac)


def exact_lstsq(a, b) -> LstsqSolution:
    """Minimize ``||a @ x - b||_F^2`` exactly via one Householder QR.

    This is the reference solve the sketched solver is measured against.
    With ``a = q @ r``, ``x_opt = r^{-1} q^T b`` and ``b_perp = b - q q^T b``;
    ``q``, ``r`` and the singular values of ``r`` are returned as the basis,
    the triangular factor and the spectral summary.  The QR is one in-place
    ``lapack_lite`` ``dgeqrf``/``dorgqr``, tested against ``np.linalg.qr``.
    Normal equations are deliberately not used here; they serve as an
    independent oracle in the test suite instead.

    Parameters
    ----------
    a : array-like, shape (n, r)
        Tall full-column-rank design matrix.
    b : array-like, shape (n, m)
        One or more right-hand-side columns.

    Raises
    ------
    DimensionError
        If row counts differ or ``a`` is wide.
    RankDeficientError
        If ``a`` is rank deficient at :data:`RANK_TOL`.
    InvalidParameterError
        If ``||b||_F^2``, the residual or ``x_opt`` overflows float64.
    """
    arr, barr = as_problem(a, b)
    b_norm_sq = fro_norm_sq(barr)
    if not np.isfinite(b_norm_sq):
        raise InvalidParameterError("b is too large: ||b||_F^2 overflows float64")
    q_fac, r_fac, sv = _qr_full_rank(arr)
    qtb = q_fac.T @ barr
    bp = barr - q_fac @ qtb
    residual_sq = fro_norm_sq(bp)
    x_opt = np.linalg.solve(r_fac, qtb)
    if not (np.isfinite(residual_sq) and np.isfinite(x_opt).all()):
        raise InvalidParameterError("x_opt or the residual overflows float64")
    # r_factor and x_opt stay column-major: the bits of r_factor @ x_opt in
    # the bound checks follow their layouts.
    return LstsqSolution(
        x_opt=read_only(np.asfortranarray(x_opt)),
        residual_sq=residual_sq,
        b_perp=read_only(bp),
        basis=OrthonormalBasis._of_qr(q_fac),
        spectral=_spectral_summary(sv),
        r_factor=read_only(np.asfortranarray(r_fac)),
        b_norm_sq=b_norm_sq,
    )


def spectral_extremes(a) -> SpectralSummary:
    """Extreme singular values ``(sigma_min, sigma_max)`` and ``kappa``.

    ``kappa`` is ``sigma_max / sigma_min``, or ``inf`` when the smallest
    singular value is zero.
    """
    return _spectral_summary(np.linalg.svd(as_array(a), compute_uv=False))
