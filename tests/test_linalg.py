"""Core dense linear algebra: DenseMatrix, bases, exact solves, spectra.

The exact solver is checked against a normal-equations oracle built from
scratch here, and spectral extremes against a closed-form 2x2 eigenvalue
computation, so none of these tests trust the code paths they exercise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    DenseMatrix,
    DimensionError,
    InvalidParameterError,
    OrthonormalBasis,
    RankDeficientError,
    SpectralSummary,
    exact_lstsq,
    fro_norm_sq,
    leverage_scores,
    orthonormal_basis,
    spectral_extremes,
)


def normal_equations_solve(a, b):
    """Independent least-squares oracle: x = (a^T a)^{-1} a^T b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.solve(a.T @ a, a.T @ b)


class TestDenseMatrix:
    def test_data_is_column_major(self):
        m = DenseMatrix(2, 2, [1.0, 2.0, 3.0, 4.0])
        # first column [1, 2], second column [3, 4]
        assert m.array[0, 0] == 1.0
        assert m.array[1, 0] == 2.0
        assert m.array[0, 1] == 3.0
        assert m.array[1, 1] == 4.0
        np.testing.assert_array_equal(m.data, [1.0, 2.0, 3.0, 4.0])

    def test_shape_properties(self):
        m = DenseMatrix(3, 2, np.arange(6.0))
        assert (m.rows, m.cols) == (3, 2)
        assert m.shape == (3, 2)

    def test_wrong_data_length_rejected(self):
        with pytest.raises(DimensionError):
            DenseMatrix(2, 2, [1.0, 2.0, 3.0])

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(DimensionError):
            DenseMatrix(0, 2, [])
        with pytest.raises(DimensionError):
            DenseMatrix(2, 0, [])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameterError):
            DenseMatrix(1, 2, [1.0, np.nan])
        with pytest.raises(InvalidParameterError):
            DenseMatrix.from_array([[np.inf, 0.0]])

    def test_from_array_copies(self):
        src = np.ones((2, 2))
        m = DenseMatrix.from_array(src)
        src[0, 0] = 99.0
        assert m.array[0, 0] == 1.0

    def test_array_is_read_only(self):
        m = DenseMatrix.from_array(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_numpy_interop(self):
        m = DenseMatrix.from_array([[1.0, 2.0], [3.0, 4.0]])
        out = np.asarray(m)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
        assert (m.array + 1.0)[0, 0] == 2.0
        assert np.asarray(m, dtype=np.float32).dtype == np.float32

    def test_from_array_rejects_1d(self):
        with pytest.raises(DimensionError):
            DenseMatrix.from_array([1.0, 2.0])


def test_fro_norm_sq_matches_manual_sum():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 3))
    assert fro_norm_sq(a) == pytest.approx(float((a * a).sum()), rel=1e-14)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(50000, 2), (1000, 7), (3, 3)])
def test_fro_norm_sq_bits_and_one_copy(order, shape):
    # Same bits as vdot of the C-raveled array, for either memory order,
    # and at most one temporary copy of a column-major input.
    a = np.asarray(np.random.default_rng(12).standard_normal(shape), order=order)
    flat = a.ravel()
    assert fro_norm_sq(a) == float(np.vdot(flat, flat))
    del flat
    tracemalloc.start()
    try:
        fro_norm_sq(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes + 4096


class TestOrthonormalBasis:
    def test_basis_is_orthonormal_and_spans(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 4))
        basis = orthonormal_basis(a)
        q = basis.q.array
        assert q.shape == (30, 4)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        # projection onto col(q) must reproduce a exactly
        np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-10)
        assert basis.source_rank == 4

    def test_rank_deficient_rejected(self):
        a = np.ones((5, 2))  # second column repeats the first
        with pytest.raises(RankDeficientError):
            orthonormal_basis(a)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            orthonormal_basis(np.ones((2, 5)))

    def test_constructor_rejects_skewed_basis(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            OrthonormalBasis(q=DenseMatrix.from_array(bad), source_rank=2)

    def test_constructor_rejects_wrong_rank(self):
        q = np.eye(3)[:, :2]
        with pytest.raises(InvalidParameterError):
            OrthonormalBasis(q=DenseMatrix.from_array(q), source_rank=3)


class TestExactLstsq:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((40, 5))
            b = rng.standard_normal((40, 2))
            sol = exact_lstsq(a, b)
            x_ne = normal_equations_solve(a, b)
            np.testing.assert_allclose(sol.x_opt.array, x_ne, rtol=1e-8, atol=1e-10)

    def test_residual_decomposition(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((25, 3))
        b = rng.standard_normal((25, 2))
        sol = exact_lstsq(a, b)
        bp = sol.b_perp.array
        # b_perp is orthogonal to every column of a
        np.testing.assert_allclose(a.T @ bp, 0.0, atol=1e-10)
        assert sol.residual_sq == pytest.approx(fro_norm_sq(bp), rel=1e-14)
        np.testing.assert_allclose(a @ sol.x_opt.array + bp, b, atol=1e-12)

    def test_consistent_system_zero_residual(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 4))
        x = rng.standard_normal((4, 1))
        sol = exact_lstsq(a, a @ x)
        assert sol.residual_sq <= 1e-18 * fro_norm_sq(a @ x)
        np.testing.assert_allclose(sol.x_opt.array, x, atol=1e-10)

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            exact_lstsq(np.ones((4, 2)), np.ones((5, 1)))

    def test_rank_deficient_rejected(self):
        a = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(RankDeficientError):
            exact_lstsq(a, np.ones((6, 1)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            exact_lstsq(np.ones((2, 5)), np.ones((2, 1)))

    def test_basis_and_spectrum_match_independent_paths(self):
        # The basis and spectrum come from the solve's own QR; the leverage
        # scores of a separate factorization and the full SVD of a must agree.
        rng = np.random.default_rng(10)
        for scale in (1.0, 1e-3, 1e4):
            a = rng.standard_normal((60, 4)) * np.array([1.0, 10.0, 0.1, scale])
            sol = exact_lstsq(a, rng.standard_normal((60, 2)))
            q = sol.basis.q.array
            np.testing.assert_allclose(
                np.einsum("ij,ij->i", q, q), leverage_scores(a).scores, rtol=1e-12
            )
            ref = spectral_extremes(a)
            for got, want in ((sol.spectral.sigma_min, ref.sigma_min),
                              (sol.spectral.sigma_max, ref.sigma_max),
                              (sol.spectral.kappa, ref.kappa)):
                assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_exact_solve_is_optimal(seed):
    """No perturbation of the minimizer can reduce the residual."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    r = int(rng.integers(1, min(n, 6)))
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((n, 1))
    try:
        sol = exact_lstsq(a, b)
    except RankDeficientError:
        return  # random Gaussian being singular is measure zero but allowed
    for _ in range(3):
        x_other = sol.x_opt.array + 0.1 * rng.standard_normal((r, 1))
        assert fro_norm_sq(a @ x_other - b) >= sol.residual_sq - 1e-9


class TestSpectralExtremes:
    def test_closed_form_2x2_oracle(self):
        # singular values of M are sqrt of eigenvalues of M^T M; for a 2x2
        # symmetric [[p, q], [q, r]] those are ((p+r) +- sqrt((p-r)^2+4q^2))/2
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            g = m.T @ m
            p, q, r = g[0, 0], g[0, 1], g[1, 1]
            disc = np.sqrt((p - r) ** 2 + 4.0 * q * q)
            lam_hi = (p + r + disc) / 2.0
            lam_lo = (p + r - disc) / 2.0
            summary = spectral_extremes(m)
            assert summary.sigma_max == pytest.approx(np.sqrt(lam_hi), rel=1e-10)
            assert summary.sigma_min == pytest.approx(
                np.sqrt(max(lam_lo, 0.0)), rel=1e-8, abs=1e-12
            )

    def test_diagonal_matrix(self):
        summary = spectral_extremes(np.diag([3.0, 4.0]))
        assert summary.sigma_min == pytest.approx(3.0)
        assert summary.sigma_max == pytest.approx(4.0)
        assert summary.kappa == pytest.approx(4.0 / 3.0)

    def test_singular_matrix_has_infinite_kappa(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        summary = spectral_extremes(a)
        assert summary.sigma_min == 0.0
        assert summary.kappa == np.inf

    def test_summary_validates_kappa(self):
        with pytest.raises(InvalidParameterError):
            SpectralSummary(sigma_min=1.0, sigma_max=2.0, kappa=7.0)
        with pytest.raises(InvalidParameterError):
            SpectralSummary(sigma_min=3.0, sigma_max=2.0, kappa=1.0)
