"""Leverage scores, coherence, and the sampling distributions built on them.

The independent oracle here is the hat-matrix diagonal,
diag(a (a^T a)^{-1} a^T), computed with nothing from the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    DimensionError,
    InvalidParameterError,
    LeverageProfile,
    RngStream,
    SamplingDistribution,
    UnsupportedRowError,
    blended_distribution,
    leverage_distribution,
    leverage_scores,
    misestimation_beta,
    multinomial_draws,
    orthonormal_basis,
    profile_from_basis,
    uniform_distribution,
)


def hat_matrix_diagonal(a):
    a = np.asarray(a, dtype=float)
    h = a @ np.linalg.solve(a.T @ a, a.T)
    return np.diag(h).copy()


def test_scores_match_hat_matrix_oracle():
    rng = np.random.default_rng(314)
    for _ in range(8):
        n = int(rng.integers(8, 60))
        r = int(rng.integers(1, 6))
        a = rng.standard_normal((n, r))
        profile = leverage_scores(a)
        np.testing.assert_allclose(profile.scores, hat_matrix_diagonal(a), atol=1e-10)


def test_axioms_on_seeded_instances():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        n = int(rng.integers(5, 200))
        r = int(rng.integers(1, min(n, 8)))
        profile = leverage_scores(rng.standard_normal((n, r)))
        assert profile.scores.sum() == pytest.approx(r, abs=1e-8)
        assert profile.scores.min() >= 0.0
        assert profile.scores.max() <= 1.0 + 1e-12
        assert profile.coherence == profile.scores.max()
        assert profile.coherence >= r / n - 1e-12


def test_identity_columns_have_unit_leverage():
    a = np.eye(5)[:, :2]  # rows 0,1 carry everything; rows 2..4 are dead
    profile = leverage_scores(a)
    np.testing.assert_allclose(profile.scores, [1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert profile.coherence == pytest.approx(1.0)


def test_scores_invariant_to_basis_choice():
    # any orthonormal basis of the same column space gives the same scores
    rng = np.random.default_rng(99)
    a = rng.standard_normal((20, 3))
    basis = orthonormal_basis(a)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = basis.q @ rot
    from levsketch import OrthonormalBasis

    other = OrthonormalBasis(q=rotated)
    np.testing.assert_allclose(
        profile_from_basis(other).scores, profile_from_basis(basis).scores, atol=1e-12
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_axioms_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    r = int(rng.integers(1, min(n, 5) + 1))
    a = rng.standard_normal((n, r))
    if np.linalg.matrix_rank(a) < r:
        return
    profile = leverage_scores(a)
    assert abs(profile.scores.sum() - r) < 1e-8
    assert np.all(profile.scores >= 0.0)
    assert np.all(profile.scores <= 1.0 + 1e-12)


class TestLeverageProfileValidation:
    def test_sum_must_equal_rank(self):
        with pytest.raises(InvalidParameterError):
            LeverageProfile(scores=np.array([0.5, 0.4]), rank=2)

    def test_coherence_must_be_max(self):
        assert LeverageProfile(scores=np.array([0.3, 0.7]), rank=1).coherence == 0.7

    def test_scores_bounded_by_one(self):
        with pytest.raises(InvalidParameterError):
            LeverageProfile(scores=np.array([1.5, 0.5]), rank=2)

    def test_scores_must_be_finite(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            LeverageProfile(scores=np.array([np.nan, 0.5]), rank=1)

    @pytest.mark.parametrize("scores, rank, error, message", [
        pytest.param(np.full((2, 2), 0.5), 2, DimensionError,
                     "scores must be a nonempty 1-D array", id="2-D"),
        pytest.param(np.array([]), 1, DimensionError,
                     "scores must be a nonempty 1-D array", id="empty"),
        pytest.param(np.array([0.5, 0.5]), 0, InvalidParameterError,
                     "rank must be an integer in [1, 2], got 0", id="rank-0"),
        pytest.param(np.array([1.0, 1.0]), 3, InvalidParameterError,
                     "rank must be an integer in [1, 2], got 3", id="rank-above-n"),
    ])
    def test_malformed_profile_rejected(self, scores, rank, error, message):
        with pytest.raises(error) as exc_info:
            LeverageProfile(scores=scores, rank=rank)
        assert str(exc_info.value) == message

    def test_non_integral_rank_rejected_not_truncated(self):
        # The scores sum to 1.5, so only the integer check can reject it.
        with pytest.raises(InvalidParameterError) as exc_info:
            LeverageProfile(scores=np.array([0.75, 0.75]), rank=1.5)
        assert str(exc_info.value) == "rank must be an integer in [1, 2], got 1.5"
        assert LeverageProfile(scores=np.array([0.75, 0.25]), rank=np.int64(1)).rank == 1

    def test_a_writeable_array_is_copied_not_frozen(self):
        scores = np.array([0.25, 0.75])
        profile = LeverageProfile(scores=scores, rank=1)
        assert scores.flags.writeable and not profile.scores.flags.writeable
        scores[:] = 0.5  # the caller's later writes stay its own
        np.testing.assert_array_equal(profile.scores, [0.25, 0.75])

    def test_a_read_only_view_is_copied(self):
        # A read-only view's base may still be written after the checks ran.
        base = np.array([1.0, 1.0, 0.0])
        view = base[:]
        view.setflags(write=False)
        profile = LeverageProfile(scores=view, rank=2)
        base[:] = [5.0, -3.0, 0.0]
        np.testing.assert_array_equal(profile.scores, [1.0, 1.0, 0.0])

    def test_profile_from_basis_keeps_its_scores_without_a_copy(self, monkeypatch):
        made = []
        einsum = np.einsum

        def recording(*args, **kwargs):
            made.append(einsum(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np, "einsum", recording)
        basis = orthonormal_basis(np.random.default_rng(3).standard_normal((20, 3)))
        assert profile_from_basis(basis).scores is made[-1]


class TestDistributions:
    def test_leverage_distribution_normalizes(self):
        rng = np.random.default_rng(5)
        profile = leverage_scores(rng.standard_normal((30, 4)))
        dist = leverage_distribution(profile)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dist.probs, profile.scores / 4.0)
        assert dist.beta == 1.0

    def test_uniform_distribution(self):
        dist = uniform_distribution(8)
        np.testing.assert_allclose(dist.probs, np.full(8, 0.125))
        assert dist.beta is None

    @pytest.mark.parametrize("n_rows, error, message", [
        pytest.param(0, InvalidParameterError, "n_rows must be an integer >= 1, got 0", id="zero"),
        pytest.param(2.5, InvalidParameterError, "n_rows must be an integer >= 1, got 2.5",
                     id="non-integral"),
    ])
    def test_uniform_row_count_checked(self, n_rows, error, message):
        with pytest.raises(error) as exc_info:
            uniform_distribution(n_rows)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("probs, beta, error, message", [
        pytest.param(np.full((2, 2), 0.25), None, DimensionError,
                     "probs must be a nonempty 1-D array", id="2-D"),
        pytest.param(np.array([]), None, DimensionError,
                     "probs must be a nonempty 1-D array", id="empty"),
        pytest.param(np.array([0.5, 0.5]), 0.0, InvalidParameterError,
                     "beta must be a finite real number in (0, 1], got 0.0", id="beta-0"),
        pytest.param(np.array([0.5, 0.5]), 1.5, InvalidParameterError,
                     "beta must be a finite real number in (0, 1], got 1.5",
                     id="beta-above-1"),
    ])
    def test_malformed_distribution_rejected(self, probs, beta, error, message):
        with pytest.raises(error) as exc_info:
            SamplingDistribution(probs=probs, beta=beta)
        assert str(exc_info.value) == message

    def test_probs_must_sum_to_one(self):
        with pytest.raises(InvalidParameterError):
            SamplingDistribution(probs=np.array([0.5, 0.4]))

    def test_negative_probs_rejected(self):
        with pytest.raises(InvalidParameterError):
            SamplingDistribution(probs=np.array([1.5, -0.5]))

    def test_probs_must_be_finite(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            SamplingDistribution(probs=np.array([np.nan, 1.0]))

    def test_keeps_a_read_only_copy(self):
        # A later write to the caller's array must not reach the distribution,
        # whose cached CDF and guide table describe the old values.
        base = np.array([0.25, 0.25, 0.25, 0.25])
        d = SamplingDistribution(probs=base[:])
        assert base.flags.writeable and not d.probs.flags.writeable
        base[:] = [0.0, 0.0, 0.5, 0.5]
        np.testing.assert_array_equal(d.probs, [0.25] * 4)
        draws = multinomial_draws(d, 64, RngStream(1))
        np.testing.assert_array_equal(np.unique(draws), [0, 1, 2, 3])


    def test_keeps_a_read_only_array_without_a_copy(self):
        probs = np.full(4, 0.25)
        probs.setflags(write=False)
        assert SamplingDistribution(probs=probs).probs is probs

    def test_copies_a_read_only_view(self):
        base = np.full(4, 0.25)
        view = base[:]
        view.setflags(write=False)
        d = SamplingDistribution(probs=view)
        base[:] = [1.0, 0.0, 0.0, 0.0]
        np.testing.assert_array_equal(d.probs, [0.25] * 4)

    def test_builders_hand_over_their_arrays_without_a_copy(self, monkeypatch):
        import levsketch.leverage as leverage_mod

        handed = []
        dist_type = leverage_mod.SamplingDistribution
        monkeypatch.setattr(leverage_mod, "SamplingDistribution",
                            lambda probs, **kw: handed.append(probs) or dist_type(probs, **kw))
        profile = leverage_scores(np.random.default_rng(5).standard_normal((20, 3)))
        lev = leverage_mod.leverage_distribution(profile)
        dists = [lev, leverage_mod.uniform_distribution(20),
                 leverage_mod.blended_distribution(lev, 0.5)]
        assert all(d.probs is probs for d, probs in zip(dists, handed, strict=True))


class TestMisestimationBeta:
    def test_leverage_sampling_scores_one(self):
        rng = np.random.default_rng(123)
        profile = leverage_scores(rng.standard_normal((50, 3)))
        dist = leverage_distribution(profile)
        assert misestimation_beta(dist, profile) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_uniform_case(self):
        # scores [1, 1, 0, 0, 0], uniform p = 1/5: beta = (1/5) * 2 / 1 = 0.4
        profile = leverage_scores(np.eye(5)[:, :2])
        beta = misestimation_beta(uniform_distribution(5), profile)
        assert beta == pytest.approx(0.4, abs=1e-12)

    def test_zero_probability_on_live_row_rejected(self):
        profile = leverage_scores(np.eye(5)[:, :2])
        bad = SamplingDistribution(probs=np.array([0.0, 0.4, 0.2, 0.2, 0.2]))
        with pytest.raises(UnsupportedRowError):
            misestimation_beta(bad, profile)

    def test_row_count_mismatch_rejected(self):
        profile = leverage_scores(np.eye(5)[:, :2])
        with pytest.raises(DimensionError):
            misestimation_beta(uniform_distribution(4), profile)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(321)
        for _ in range(10):
            a = rng.standard_normal((int(rng.integers(6, 40)), 3))
            profile = leverage_scores(a)
            for dist in (
                leverage_distribution(profile),
                uniform_distribution(profile.n_rows),
                blended_distribution(leverage_distribution(profile), 0.3),
            ):
                assert misestimation_beta(dist, profile) <= 1.0


class TestBlended:
    def test_alpha_zero_is_identity(self):
        dist = uniform_distribution(6)
        np.testing.assert_allclose(blended_distribution(dist, 0.0).probs, dist.probs)

    def test_alpha_one_is_uniform(self):
        base = SamplingDistribution(probs=np.array([0.9, 0.05, 0.05]))
        np.testing.assert_allclose(
            blended_distribution(base, 1.0).probs, np.full(3, 1.0 / 3.0)
        )

    def test_beta_floor(self):
        # blending with uniform keeps beta >= (1 - alpha) relative to the
        # leverage distribution, by construction of the mixture
        rng = np.random.default_rng(777)
        profile = leverage_scores(rng.standard_normal((40, 4)))
        lev = leverage_distribution(profile)
        for alpha in (0.1, 0.5, 0.9):
            blend = blended_distribution(lev, alpha)
            assert misestimation_beta(blend, profile) >= (1.0 - alpha) - 1e-12

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            blended_distribution(uniform_distribution(3), 1.5)
