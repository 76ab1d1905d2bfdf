"""Synthetic problem generation for the bench harness."""

from fractions import Fraction

import numpy as np
import pytest

import levsketch.problems as problems_mod
from levsketch import (
    DimensionError,
    GenerationFailedError,
    InvalidParameterError,
    RankDeficientError,
    ProblemSpec,
    RngStream,
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
        assert meta.keys() == {"x_true", "attempts", "exact", "profile"}
        assert meta["x_true"].shape == (4, 3)
        assert meta["profile"].coherence == pytest.approx(leverage_scores(a).coherence)

    def test_deterministic_in_seed(self):
        spec = ProblemSpec("gaussian-incoherent", n_rows=50, n_cols=3, seed=12)
        a1, b1, _ = generate_problem(spec)
        a2, b2, _ = generate_problem(spec)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("noise", [Fraction(1, 2), np.float32(0.5), 1],
                             ids=["Fraction", "float32", "int"])
    def test_any_real_noise_scale_gives_the_bits_of_its_float(self, noise):
        # as_real accepts every finite numbers.Real; a Fraction times an
        # array would be an object array.
        want = generate_problem(ProblemSpec("gaussian-incoherent", 40, 3, noise_scale=float(noise),
                                            seed=4))[1]
        got = generate_problem(ProblemSpec("gaussian-incoherent", 40, 3, noise_scale=noise,
                                           seed=4))[1]
        np.testing.assert_array_equal(got, want)

    def test_different_seeds_differ(self):
        a1, _, _ = generate_problem(ProblemSpec("gaussian-incoherent", 50, 3, seed=1))
        a2, _, _ = generate_problem(ProblemSpec("gaussian-incoherent", 50, 3, seed=2))
        assert not np.array_equal(a1, a2)

    def test_coherence_stays_low(self):
        # Gaussian designs are incoherent: coherence well under 10 * r/N
        for seed in range(20):
            spec = ProblemSpec("gaussian-incoherent", n_rows=1000, n_cols=5, seed=seed)
            _, _, meta = generate_problem(spec)
            assert meta["profile"].coherence <= 10 * 5 / 1000


class TestSpikedCoherent:
    def test_hits_coherence_target(self):
        for target in (0.5, 0.9, 0.99):
            spec = ProblemSpec(
                "spiked-coherent", n_rows=400, n_cols=4, coherence_target=target, seed=3
            )
            _, _, meta = generate_problem(spec)
            assert meta["profile"].coherence == pytest.approx(target, abs=1e-8)

    def test_spiked_high_target(self):
        spec = ProblemSpec(
            "spiked-coherent", n_rows=500, n_cols=5, coherence_target=0.99, seed=4
        )
        a, _, _ = generate_problem(spec)
        assert leverage_scores(a).coherence >= 0.98

    def test_target_one_saturates(self):
        # Leverage 1 is unreachable with finite entries; row 0 is scaled by
        # 1e8 instead, leaving its leverage within ~1e-14 of 1.
        spec = ProblemSpec("spiked-coherent", n_rows=400, n_cols=4, coherence_target=1.0, seed=3)
        a, _, meta = generate_problem(spec)
        drawn = RngStream(3, 0).generator.standard_normal((400, 4))
        planted = drawn.copy()
        problems_mod._plant_spike(planted, 1.0)
        np.testing.assert_array_equal(planted[0], 1e8 * drawn[0])
        np.testing.assert_array_equal(a, planted)
        assert 1.0 - 1e-12 < meta["profile"].coherence <= 1.0
        assert meta["profile"].coherence == leverage_scores(a).coherence

    def test_target_range_validated(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("spiked-coherent", n_rows=100, n_cols=4, coherence_target=0.001)
        with pytest.raises(InvalidParameterError):
            ProblemSpec("spiked-coherent", n_rows=100, n_cols=4, coherence_target=1.5)


class TestConsistent:
    def test_rhs_exactly_in_column_space(self):
        spec = ProblemSpec("consistent", n_rows=80, n_cols=4, rhs_cols=2, seed=5)
        a, b, meta = generate_problem(spec)
        np.testing.assert_array_equal(b, a @ meta["x_true"])
        sol = exact_lstsq(a, b)
        assert sol.residual_sq <= 1e-18 * fro_norm_sq(b)

    def test_noise_scale_ignored(self):
        # the consistent kind never adds noise, whatever the scale says
        s1 = ProblemSpec("consistent", n_rows=40, n_cols=3, seed=6, noise_scale=5.0)
        s2 = ProblemSpec("consistent", n_rows=40, n_cols=3, seed=6, noise_scale=0.0)
        b1 = generate_problem(s1)[1]
        b2 = generate_problem(s2)[1]
        np.testing.assert_array_equal(b1, b2)


@pytest.mark.parametrize("kind", ["gaussian-incoherent", "spiked-coherent", "consistent"])
def test_meta_carries_the_exact_solve(kind):
    spec = ProblemSpec(kind, n_rows=60, n_cols=4, rhs_cols=2, coherence_target=0.9, seed=8)
    a, b, meta = generate_problem(spec)
    assert_same_solve(meta["exact"], exact_lstsq(a, b))
    profile = meta["profile"]
    np.testing.assert_array_equal(profile.scores, leverage_scores(a).scores)
    assert profile.coherence == leverage_scores(a).coherence and profile.rank == 4


def assert_same_solve(got, want):
    """Bit-for-bit equality of two LstsqSolution results."""
    for name in ("x_opt", "b_perp", "r_factor"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.basis.q, want.basis.q)
    assert got.basis.source_rank == want.basis.source_rank
    assert got.spectral == want.spectral
    assert got.residual_sq == want.residual_sq
    assert got.b_norm_sq == want.b_norm_sq


class TestRetry:
    spec = ProblemSpec("gaussian-incoherent", n_rows=40, n_cols=3, seed=5)

    def test_rank_deficient_draw_is_retried(self, monkeypatch):
        calls = []
        real = problems_mod.exact_lstsq

        def deficient_once(a, b):
            calls.append(a.copy())
            if len(calls) == 1:
                raise RankDeficientError("pretend the first draw lost rank")
            return real(a, b)

        monkeypatch.setattr(problems_mod, "exact_lstsq", deficient_once)
        a, _, meta = generate_problem(self.spec)
        assert meta["attempts"] == 2
        # the retry uses the next design drawn from the same stream
        np.testing.assert_array_equal(a, calls[1])
        assert not np.array_equal(calls[0], calls[1])
        assert meta["profile"].coherence == leverage_scores(a).coherence

    def test_always_deficient_gives_up(self, monkeypatch):
        def deficient(a, b):
            raise RankDeficientError("never full rank")

        monkeypatch.setattr(problems_mod, "exact_lstsq", deficient)
        with pytest.raises(GenerationFailedError, match="rank deficient"):
            generate_problem(self.spec)

    @pytest.mark.parametrize("kind", ["gaussian-incoherent", "spiked-coherent"])
    def test_overflowing_noise_raises_once_without_a_warning(self, monkeypatch, kind):
        # Every redraw at this scale overflows too, so nothing is retried or
        # factored; the warnings filter turns a leaked overflow into a failure.
        def never(a, b):
            raise AssertionError("b was factored")

        monkeypatch.setattr(problems_mod, "exact_lstsq", never)
        spec = ProblemSpec(kind, n_rows=50, n_cols=3, noise_scale=1e308, coherence_target=0.9)
        with pytest.raises(InvalidParameterError) as exc_info:
            generate_problem(spec)
        assert str(exc_info.value) == "noise_scale = 1e+308 makes b overflow float64"

    def test_one_factorization(self, count_numpy_calls):
        generate_problem(self.spec)
        assert count_numpy_calls(40, names=("qr",)) == count_numpy_calls(40) == 1

    def test_singular_spike_gram_is_retried_then_gives_up(self, monkeypatch):
        # All rows but row 0 zero: the Gram matrix the spike is solved against
        # is singular.
        arr = np.zeros((6, 3))
        arr[0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            problems_mod._plant_spike(arr, 0.5)
        spec = ProblemSpec("spiked-coherent", n_rows=40, n_cols=3, coherence_target=0.5, seed=5)
        real, calls = problems_mod._plant_spike, []

        def singular_once(a, target):
            calls.append(a.copy())
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            real(a, target)

        monkeypatch.setattr(problems_mod, "_plant_spike", singular_once)
        a, _, meta = generate_problem(spec)
        assert meta["attempts"] == 2
        np.testing.assert_array_equal(a[1:], calls[1][1:])
        assert abs(meta["profile"].coherence - 0.5) < 1e-12

        def singular(a, target):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(problems_mod, "_plant_spike", singular)
        with pytest.raises(GenerationFailedError,
                           match="gave up after 5 attempts: singular Gram matrix while "
                                 "planting the spike"):
            generate_problem(spec)


class TestCustomFile:
    def test_reads_matrix_files(self, tmp_path):
        rng = np.random.default_rng(9)
        a_src = rng.standard_normal((12, 3))
        b_src = rng.standard_normal((12, 2))
        a_path = tmp_path / "a.mtx"
        b_path = tmp_path / "b.mtx"
        write_matrix(a_path, a_src)
        write_matrix(b_path, b_src)
        spec = ProblemSpec("custom-file", a_path=str(a_path), b_path=str(b_path))
        a, b, meta = generate_problem(spec)
        np.testing.assert_array_equal(a, a_src)
        np.testing.assert_array_equal(b, b_src)
        assert meta["x_true"] is None
        assert meta["attempts"] == 1
        assert_same_solve(meta["exact"], exact_lstsq(a, b))
        assert meta["profile"].coherence == leverage_scores(a).coherence

    def test_one_factorization(self, tmp_path, count_numpy_calls):
        spec = self.write_spec(tmp_path, 12, 12)
        generate_problem(spec)
        assert count_numpy_calls(12, names=("qr",)) == count_numpy_calls(12) == 1

    def test_row_mismatch_rejected(self, tmp_path):
        with pytest.raises(DimensionError, match="row counts differ"):
            generate_problem(self.write_spec(tmp_path, 12, 11))

    @staticmethod
    def write_spec(tmp_path, a_rows, b_rows):
        rng = np.random.default_rng(10)
        write_matrix(tmp_path / "a.mtx", rng.standard_normal((a_rows, 3)))
        write_matrix(tmp_path / "b.mtx", rng.standard_normal((b_rows, 2)))
        return ProblemSpec("custom-file", a_path=str(tmp_path / "a.mtx"),
                           b_path=str(tmp_path / "b.mtx"))

    @pytest.mark.parametrize("field, value", [
        ("n_rows", 3), ("n_cols", 2), ("rhs_cols", 2), ("noise_scale", 5.0),
        ("coherence_target", 0.5), ("seed", 1)])
    def test_generated_problem_settings_rejected(self, field, value):
        # They were accepted and ignored: the files give the shape.
        with pytest.raises(InvalidParameterError) as exc_info:
            ProblemSpec("custom-file", a_path="a.mtx", b_path="b.mtx", **{field: value})
        assert str(exc_info.value) == (
            f"a custom-file problem reads only a_path and b_path, got {field} = {value!r}")

    @pytest.mark.parametrize("path", [3, True, 2.5], ids=["int", "bool", "float"])
    def test_paths_must_be_paths(self, path):
        # open() takes an int or a bool as a file descriptor, and closes it.
        with pytest.raises(InvalidParameterError) as exc_info:
            ProblemSpec("custom-file", a_path="a.mtx", b_path=path)
        assert str(exc_info.value) == f"b_path must be a str, bytes or os.PathLike, got {path!r}"

    def test_path_like_and_bytes_paths_accepted(self, tmp_path):
        spec = self.write_spec(tmp_path, 12, 12)
        a, _, _ = generate_problem(spec)
        for a_path in (tmp_path / "a.mtx", spec.a_path.encode()):
            got, _, _ = generate_problem(ProblemSpec("custom-file", a_path=a_path,
                                                     b_path=spec.b_path))
            np.testing.assert_array_equal(got, a)

    def test_paths_required(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("custom-file", a_path="only-one.mtx")

    def test_an_empty_path_fails_when_read(self, tmp_path):
        # An empty path is a file that cannot be read, like a missing one.
        spec = self.write_spec(tmp_path, 12, 12)
        with pytest.raises(FileNotFoundError):
            generate_problem(ProblemSpec("custom-file", a_path="", b_path=spec.b_path))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("mystery")

    def test_must_be_tall(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=5, n_cols=5)

    @pytest.mark.parametrize("kind", [k for k in PROBLEM_KINDS if k != "custom-file"])
    @pytest.mark.parametrize("field", ["a_path", "b_path"])
    def test_generated_kinds_reject_paths(self, kind, field):
        # They were accepted and the files never read.
        with pytest.raises(InvalidParameterError) as exc_info:
            ProblemSpec(kind, n_rows=10, n_cols=2, **{field: "a.mtx"})
        assert str(exc_info.value) == (
            f"a {kind} problem is generated and reads no a_path or b_path")

    def test_rhs_cols_positive(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, rhs_cols=0)

    @pytest.mark.parametrize("field", ["n_rows", "n_cols", "rhs_cols", "seed"])
    def test_integer_fields_reject_non_integral_values(self, field):
        spec = {"n_rows": 10, "n_cols": 2, "rhs_cols": 1, "seed": 7}
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            ProblemSpec("gaussian-incoherent", **{**spec, field: spec[field] + 0.5})
        ProblemSpec("gaussian-incoherent", **{**spec, field: np.int64(spec[field])})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Checked at construction, as TrialConfig checks master_seed, and
        # named as the problem's seed.
        with pytest.raises(InvalidParameterError, match=f"problem seed .*got {seed}$"):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            assert ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, seed=seed).seed == seed

    def test_noise_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, noise_scale=-1.0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_noise_finite(self, noise):
        with pytest.raises(InvalidParameterError, match="finite"):
            ProblemSpec("gaussian-incoherent", n_rows=10, n_cols=2, noise_scale=noise)

    def test_entry_budget(self):
        # Shapes are checked before anything is allocated, so neither spec
        # below allocates; the budget counts the entries of A and b together.
        budget = problems_mod.MAX_ENTRIES
        ProblemSpec("gaussian-incoherent", n_rows=budget // 5, n_cols=3, rhs_cols=2)
        with pytest.raises(InvalidParameterError, match="budget"):
            ProblemSpec("gaussian-incoherent", n_rows=budget // 5 + 1, n_cols=3, rhs_cols=2)
