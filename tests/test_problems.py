"""Synthetic problem generation for the bench harness."""

import numpy as np
import pytest

import levsketch.problems as problems_mod
from levsketch import (
    DenseMatrix,
    GenerationFailedError,
    InvalidParameterError,
    RankDeficientError,
    ProblemSpec,
    PROBLEM_KINDS,
    exact_lstsq,
    fro_norm_sq,
    generate_problem,
    leverage_scores,
    write_matrix,
)


def test_kind_registry():
    assert PROBLEM_KINDS == (
        "gaussian-incoherent",
        "spiked-coherent",
        "consistent",
        "custom-file",
    )


class TestGaussianIncoherent:
    def test_shapes_and_meta(self):
        spec = ProblemSpec("gaussian-incoherent", n_rows=100, n_cols=4, rhs_cols=3, seed=1)
        a, b, meta = generate_problem(spec)
        assert a.shape == (100, 4)
        assert b.shape == (100, 3)
        assert meta["kind"] == "gaussian-incoherent"
        assert meta["x_true"].shape == (4, 3)
        assert meta["coherence"] == pytest.approx(leverage_scores(a).coherence)

    def test_deterministic_in_seed(self):
        spec = ProblemSpec("gaussian-incoherent", n_rows=50, n_cols=3, seed=12)
        a1, b1, _ = generate_problem(spec)
        a2, b2, _ = generate_problem(spec)
        np.testing.assert_array_equal(a1.array, a2.array)
        np.testing.assert_array_equal(b1.array, b2.array)

    def test_different_seeds_differ(self):
        a1, _, _ = generate_problem(ProblemSpec("gaussian-incoherent", 50, 3, seed=1))
        a2, _, _ = generate_problem(ProblemSpec("gaussian-incoherent", 50, 3, seed=2))
        assert not np.array_equal(a1.array, a2.array)

    def test_coherence_stays_low(self):
        # Gaussian designs are incoherent: coherence well under 10 * r/N
        for seed in range(20):
            spec = ProblemSpec("gaussian-incoherent", n_rows=1000, n_cols=5, seed=seed)
            _, _, meta = generate_problem(spec)
            assert meta["coherence"] <= 10 * 5 / 1000


class TestSpikedCoherent:
    def test_hits_coherence_target(self):
        for target in (0.5, 0.9, 0.99):
            spec = ProblemSpec(
                "spiked-coherent", n_rows=400, n_cols=4, coherence_target=target, seed=3
            )
            _, _, meta = generate_problem(spec)
            assert meta["coherence"] == pytest.approx(target, abs=1e-8)

    def test_spiked_high_target(self):
        spec = ProblemSpec(
            "spiked-coherent", n_rows=500, n_cols=5, coherence_target=0.99, seed=4
        )
        a, _, _ = generate_problem(spec)
        assert leverage_scores(a).coherence >= 0.98

    def test_target_range_validated(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("spiked-coherent", n_rows=100, n_cols=4, coherence_target=0.001)
        with pytest.raises(InvalidParameterError):
            ProblemSpec("spiked-coherent", n_rows=100, n_cols=4, coherence_target=1.5)


class TestConsistent:
    def test_rhs_exactly_in_column_space(self):
        spec = ProblemSpec("consistent", n_rows=80, n_cols=4, rhs_cols=2, seed=5)
        a, b, meta = generate_problem(spec)
        np.testing.assert_array_equal(b.array, a.array @ meta["x_true"].array)
        sol = exact_lstsq(a, b)
        assert sol.residual_sq <= 1e-18 * fro_norm_sq(b)

    def test_noise_scale_ignored(self):
        # the consistent kind never adds noise, whatever the scale says
        s1 = ProblemSpec("consistent", n_rows=40, n_cols=3, seed=6, noise_scale=5.0)
        s2 = ProblemSpec("consistent", n_rows=40, n_cols=3, seed=6, noise_scale=0.0)
        b1 = generate_problem(s1)[1]
        b2 = generate_problem(s2)[1]
        np.testing.assert_array_equal(b1.array, b2.array)


class TestRetry:
    spec = ProblemSpec("gaussian-incoherent", n_rows=40, n_cols=3, seed=5)

    def test_rank_deficient_draw_is_retried(self, monkeypatch):
        calls = []
        real = problems_mod.leverage_scores

        def deficient_once(a):
            calls.append(a.array.copy())
            if len(calls) == 1:
                raise RankDeficientError("pretend the first draw lost rank")
            return real(a)

        monkeypatch.setattr(problems_mod, "leverage_scores", deficient_once)
        a, _, meta = generate_problem(self.spec)
        assert meta["attempts"] == 2
        # the retry uses the next design drawn from the same stream
        np.testing.assert_array_equal(a.array, calls[1])
        assert not np.array_equal(calls[0], calls[1])
        assert meta["coherence"] == real(a).coherence

    def test_always_deficient_gives_up(self, monkeypatch):
        def deficient(a):
            raise RankDeficientError("never full rank")

        monkeypatch.setattr(problems_mod, "leverage_scores", deficient)
        with pytest.raises(GenerationFailedError, match="rank deficient"):
            generate_problem(self.spec)

    def test_one_factorization(self, count_numpy_calls):
        generate_problem(self.spec)
        assert count_numpy_calls(40) == 1


class TestCustomFile:
    def test_reads_matrix_files(self, tmp_path):
        rng = np.random.default_rng(9)
        a_src = rng.standard_normal((12, 3))
        b_src = rng.standard_normal((12, 2))
        a_path = tmp_path / "a.mtx"
        b_path = tmp_path / "b.mtx"
        write_matrix(a_path, DenseMatrix.from_array(a_src))
        write_matrix(b_path, DenseMatrix.from_array(b_src))
        spec = ProblemSpec("custom-file", a_path=str(a_path), b_path=str(b_path))
        a, b, meta = generate_problem(spec)
        np.testing.assert_array_equal(a.array, a_src)
        np.testing.assert_array_equal(b.array, b_src)
        assert meta["x_true"] is None

    def test_paths_required(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("custom-file", a_path="only-one.mtx")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("mystery")

    def test_must_be_tall(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=5, n_cols=5)

    def test_rhs_cols_positive(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, rhs_cols=0)

    def test_noise_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, noise_scale=-1.0)
