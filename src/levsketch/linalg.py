"""Dense linear-algebra core: validated matrices, orthonormal bases, the
exact least-squares reference solve, and spectral summaries.

All matrices are real float64.  The canonical layout is column-major so that
in-memory data vectors and matrix files agree entry for entry.  Rank
decisions everywhere use the relative threshold :data:`RANK_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, InvalidParameterError, RankDeficientError

#: Relative singular-value threshold below which a matrix counts as rank
#: deficient: sigma_min <= RANK_TOL * sigma_max.
RANK_TOL = 1e-10

_ORTHONORMALITY_TOL = 1e-10


class DenseMatrix:
    """Immutable real matrix with explicit shape and column-major storage.

    Entries must be finite; NaN and Inf are rejected at construction.
    Instances interoperate with numpy (``np.asarray(m)`` returns a read-only
    2-D view), and are safe to share across threads.
    """

    __slots__ = ("_a",)

    def __init__(self, rows: int, cols: int, data) -> None:
        if rows < 1 or cols < 1:
            raise DimensionError(f"matrix shape must be positive, got {rows}x{cols}")
        flat = np.array(data, dtype=np.float64).reshape(-1)
        if flat.size != rows * cols:
            raise DimensionError(
                f"data length {flat.size} does not match shape {rows}x{cols}"
            )
        self._adopt(flat.reshape((rows, cols), order="F"))

    def _adopt(self, a: np.ndarray) -> None:
        a = np.asfortranarray(a, dtype=np.float64)
        if not np.all(np.isfinite(a)):
            raise InvalidParameterError("matrix entries must be finite")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def from_array(cls, arr) -> "DenseMatrix":
        """Build from any 2-D array-like, copying into column-major storage."""
        a = np.array(arr, dtype=np.float64, order="F", copy=True)
        if a.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError(f"matrix shape must be positive, got {a.shape}")
        obj = cls.__new__(cls)
        obj._adopt(a)
        return obj

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D float64 view."""
        return self._a

    @property
    def data(self) -> np.ndarray:
        """Read-only flat view of the entries in column-major order."""
        return self._a.reshape(-1, order="F")

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._a, dtype=dtype if dtype is not None else np.float64)
        if dtype is None or np.dtype(dtype) == np.float64:
            return self._a
        return self._a.astype(dtype)

    def __repr__(self) -> str:
        return f"DenseMatrix(rows={self.rows}, cols={self.cols})"


def as_array(m) -> np.ndarray:
    """Validated 2-D float64 view of a DenseMatrix or array-like."""
    if isinstance(m, DenseMatrix):
        return m.array
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix shape must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError("matrix entries must be finite")
    return a


def fro_norm_sq(m) -> float:
    """Squared Frobenius norm."""
    # vdot ravels each argument on its own: one shared ravel makes at most
    # one copy of a column-major matrix instead of two.
    a = np.ravel(np.asarray(m, dtype=np.float64))
    return float(np.vdot(a, a))


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis ``q`` for the column space of a full-rank matrix.

    ``source_rank`` is the rank of the source matrix, which equals the
    number of basis columns.  Orthonormality is checked at construction.
    """

    q: DenseMatrix
    source_rank: int

    def __post_init__(self) -> None:
        qa = self.q.array
        n, r = qa.shape
        if self.source_rank != r:
            raise InvalidParameterError(
                f"source_rank {self.source_rank} does not match basis width {r}"
            )
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

    x_opt: DenseMatrix
    residual_sq: float
    b_perp: DenseMatrix
    basis: OrthonormalBasis
    spectral: SpectralSummary
    r_factor: DenseMatrix
    b_norm_sq: float


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme singular values and the condition number of a matrix."""

    sigma_min: float
    sigma_max: float
    kappa: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sigma_min <= self.sigma_max):
            raise InvalidParameterError(
                f"need 0 <= sigma_min <= sigma_max, got {self.sigma_min}, {self.sigma_max}"
            )
        if self.sigma_min > 0:
            expected = self.sigma_max / self.sigma_min
            if abs(self.kappa - expected) > 1e-12 * max(1.0, expected):
                raise InvalidParameterError("kappa does not equal sigma_max/sigma_min")


def _qr_full_rank(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR ``arr = q @ r`` of a tall full-rank matrix, plus the singular values
    of the r x r factor (which equal those of ``arr``)."""
    n, r = arr.shape
    if n < r:
        raise DimensionError(f"matrix must be tall, got {n}x{r}")
    q_fac, r_fac = np.linalg.qr(arr, mode="reduced")
    sv = np.linalg.svd(r_fac, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficientError(
            f"matrix is rank deficient (sigma_min/sigma_max = "
            f"{sv[-1] / sv[0] if sv[0] > 0 else 0.0:.3e})"
        )
    return q_fac, r_fac, sv


def _spectral_summary(sv: np.ndarray) -> SpectralSummary:
    smax = float(sv[0])
    smin = float(sv[-1])
    kappa = smax / smin if smin > 0.0 else float("inf")
    return SpectralSummary(sigma_min=smin, sigma_max=smax, kappa=kappa)


def orthonormal_basis(a) -> OrthonormalBasis:
    """Orthonormal basis for the column space of a full-column-rank matrix.

    Parameters
    ----------
    a : DenseMatrix or array-like, shape (n, r)
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
    return OrthonormalBasis(q=DenseMatrix.from_array(q_fac), source_rank=q_fac.shape[1])


def exact_lstsq(a, b) -> LstsqSolution:
    """Minimize ``||a @ x - b||_F^2`` exactly via one Householder QR.

    This is the reference solve the sketched solver is measured against.
    With ``a = q @ r``, ``x_opt = r^{-1} q^T b`` and ``b_perp = b - q q^T b``;
    ``q``, ``r`` and the singular values of ``r`` are returned as the basis,
    the triangular factor and the spectral summary.  Normal equations are
    deliberately not used here; they serve as an independent oracle in the
    test suite instead.

    Parameters
    ----------
    a : DenseMatrix or array-like, shape (n, r)
        Tall full-column-rank design matrix.
    b : DenseMatrix or array-like, shape (n, m)
        One or more right-hand-side columns.

    Raises
    ------
    DimensionError
        If row counts differ or ``a`` is wide.
    RankDeficientError
        If ``a`` is rank deficient at :data:`RANK_TOL`.
    """
    arr = as_array(a)
    barr = as_array(b)
    if arr.shape[0] != barr.shape[0]:
        raise DimensionError(
            f"row counts differ: a has {arr.shape[0]}, b has {barr.shape[0]}"
        )
    # Before the QR: on column-major b the norm makes row-major copies.
    b_norm_sq = fro_norm_sq(barr)
    q_fac, r_fac, sv = _qr_full_rank(arr)
    # Multiply by q_fac as LAPACK returns it, not by the column-major copy in
    # the basis: on consistent systems b_perp is rounding noise, and the SC2
    # verdicts of seeded reports depend on this summation order.
    qtb = q_fac.T @ barr
    bp = barr - q_fac @ qtb
    return LstsqSolution(
        x_opt=DenseMatrix.from_array(np.linalg.solve(r_fac, qtb)),
        residual_sq=fro_norm_sq(bp),
        b_perp=DenseMatrix.from_array(bp),
        basis=OrthonormalBasis(q=DenseMatrix.from_array(q_fac), source_rank=arr.shape[1]),
        spectral=_spectral_summary(sv),
        r_factor=DenseMatrix.from_array(r_fac),
        b_norm_sq=b_norm_sq,
    )


def spectral_extremes(a) -> SpectralSummary:
    """Extreme singular values ``(sigma_min, sigma_max)`` and ``kappa``.

    ``kappa`` is ``sigma_max / sigma_min``, or ``inf`` when the smallest
    singular value is zero.
    """
    return _spectral_summary(np.linalg.svd(as_array(a), compute_uv=False))
