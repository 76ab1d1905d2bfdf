"""Sketched least squares and the sample-size rule."""

import math

import numpy as np
import pytest

from levsketch import (
    SAMPLE_SIZE_CONSTANT,
    AccuracyTarget,
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    RngStream,
    SamplingDistribution,
    SketchRankDeficientError,
    accuracy_ratio,
    build_sketch,
    exact_lstsq,
    fro_norm_sq,
    leverage_distribution,
    leverage_scores,
    required_samples,
    sketched_lstsq,
    solve_with_plan,
    uniform_distribution,
)


class TestAccuracyTarget:
    def test_open_interval_enforced(self):
        AccuracyTarget(0.5, 0.5)
        for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1.0, 0.5)):
            with pytest.raises(InvalidParameterError):
                AccuracyTarget(eps, delta)


class TestRequiredSamples:
    def test_constant_value(self):
        assert SAMPLE_SIZE_CONSTANT == 144.0 / (1.0 - 1.0 / math.sqrt(2.0)) ** 2
        assert SAMPLE_SIZE_CONSTANT == pytest.approx(1678.587, abs=1e-3)

    def test_tail_branch(self):
        # 1/(delta*eps) = 1e7 dwarfs C*ln(100) ~ 7.7e3, so s = 10 * 1e7
        s = required_samples(10, 1.0, AccuracyTarget(1e-6, 0.1))
        assert s == 100_000_000

    def test_log_branch(self):
        # C*ln(100) = 7730.17... dominates 1/(delta*eps) = 1e3
        s = required_samples(10, 1.0, AccuracyTarget(0.01, 0.1))
        assert s == 77_302
        assert s == math.ceil(10 * SAMPLE_SIZE_CONSTANT * math.log(100.0))

    def test_formula_recomputation(self):
        for r, beta, eps, delta in (
            (1, 1.0, 0.5, 0.5),
            (3, 0.25, 0.9, 0.01),
            (8, 1.0, 0.01, 0.3),
            (20, 0.5, 0.1, 0.2),
        ):
            expected = math.ceil(
                (r / beta)
                * max(SAMPLE_SIZE_CONSTANT * math.log(r / delta), 1.0 / (delta * eps))
            )
            assert required_samples(r, beta, AccuracyTarget(eps, delta)) == expected

    def test_beta_inflates_count(self):
        t = AccuracyTarget(0.1, 0.1)
        s_full = required_samples(6, 1.0, t)
        s_half = required_samples(6, 0.5, t)
        assert s_half >= 2 * s_full - 1  # same product before the ceiling

    def test_validation(self):
        t = AccuracyTarget(0.1, 0.1)
        with pytest.raises(InvalidParameterError):
            required_samples(0, 1.0, t)
        with pytest.raises(InvalidParameterError):
            required_samples(5, 0.0, t)
        with pytest.raises(InvalidParameterError):
            required_samples(5, 1.5, t)

    def test_non_integral_rank_rejected_not_truncated(self):
        # Rank 2.7 is not rank 2 (whose count is 10058).
        t = AccuracyTarget(0.1, 0.1)
        for r in (2.7, 2.0, np.float64(2.0)):
            with pytest.raises(InvalidParameterError, match="integer"):
                required_samples(r, 1.0, t)
        assert required_samples(np.int64(2), 1.0, t) == required_samples(2, 1.0, t) == 10058

    @pytest.mark.parametrize("eps, delta, beta", [
        (5e-324, 0.1, 1.0), (1e-310, 0.1, 1.0), (0.1, 1e-320, 1.0), (1e-300, 1e-8, 1e-300)])
    def test_count_past_the_float_range_raises(self, eps, delta, beta):
        # eps * delta underflows to 0, or the count overflows a float
        with pytest.raises(InvalidSampleCountError, match="float"):
            required_samples(5, beta, AccuracyTarget(eps, delta))
        assert required_samples(5, 1.0, AccuracyTarget(1e-300, 0.1)) > 10**300


class TestSketchedLstsq:
    def test_zero_leverage_row_can_be_skipped(self):
        # row 3 of a is zero, so it never affects the fit; sampling only the
        # two live rows recovers the exact minimizer
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        p = SamplingDistribution(probs=np.array([0.5, 0.5, 0.0]))
        sol = sketched_lstsq(a, b, p, 64, RngStream(1))
        np.testing.assert_allclose(sol.x_tilde, [[1.0], [2.0]], atol=1e-12)

    def test_one_row_system_is_exact(self):
        p = SamplingDistribution(probs=np.array([1.0]))
        sol = sketched_lstsq([[2.0]], [[6.0]], p, 5, RngStream(0))
        assert sol.x_tilde[0, 0] == pytest.approx(3.0, rel=1e-15)
        assert sol.sketched_residual_sq == pytest.approx(0.0, abs=1e-24)

    def test_matches_subsample_normal_equations(self):
        # the sketched solution must solve the weighted subsample exactly
        rng = np.random.default_rng(12)
        a = rng.standard_normal((50, 4))
        b = rng.standard_normal((50, 2))
        p = uniform_distribution(50)
        plan = build_sketch(p, 30, RngStream(3))
        sol = solve_with_plan(a, b, plan)
        sa = a[plan.draws, :] * plan.weights[:, None]
        sb = b[plan.draws, :] * plan.weights[:, None]
        x_ne = np.linalg.solve(sa.T @ sa, sa.T @ sb)
        np.testing.assert_allclose(sol.x_tilde, x_ne, rtol=1e-8, atol=1e-10)
        assert sol.sketched_residual_sq == pytest.approx(
            fro_norm_sq(sa @ x_ne - sb), rel=1e-10
        )

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((20, 1))
        with pytest.raises(SketchRankDeficientError) as exc_info:
            sketched_lstsq(a, b, uniform_distribution(20), 2, RngStream(0))
        assert str(exc_info.value) == "2 samples cannot cover rank 3"

    def test_rank_collapse_is_surfaced_not_retried(self):
        # a point mass keeps drawing the same row: SA has rank 1 < 2
        rng = np.random.default_rng(14)
        a = rng.standard_normal((10, 2))
        b = rng.standard_normal((10, 1))
        p = SamplingDistribution(probs=np.array([1.0] + [0.0] * 9))
        with pytest.raises(SketchRankDeficientError):
            sketched_lstsq(a, b, p, 8, RngStream(5))

    def test_overflowing_solution_is_rejected(self):
        # Finite inputs whose least-squares solution is past the float64 range.
        rng = np.random.default_rng(16)
        a = 1e-300 * rng.standard_normal((40, 3))
        b = 1e10 * rng.standard_normal((40, 2))
        with pytest.raises(InvalidParameterError, match="x_tilde overflows"):
            sketched_lstsq(a, b, uniform_distribution(40), 20, RngStream(0))

    def test_non_integral_sample_count_rejected_not_truncated(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((20, 1))
        # A count that is not a positive integer raises what every draw
        # raises, also where it is below the rank 3.
        for s in (7.9, 2.5, 0, True):
            with pytest.raises(InvalidSampleCountError) as exc_info:
                sketched_lstsq(a, b, uniform_distribution(20), s, RngStream(0))
            assert str(exc_info.value) == f"s must be an integer >= 1, got {s!r}"
        sol = sketched_lstsq(a, b, uniform_distribution(20), np.int64(7), RngStream(0))
        assert sol.plan.n_samples == 7

    def test_wide_matrix_rejected(self):
        plan = build_sketch(uniform_distribution(2), 3, RngStream(0))
        with pytest.raises(DimensionError) as exc_info:
            solve_with_plan(np.ones((2, 3)), np.ones((2, 1)), plan)
        assert str(exc_info.value) == "matrix cannot be wider than tall, got 2x3"

    def test_row_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            sketched_lstsq(
                np.ones((4, 1)), np.ones((5, 1)), uniform_distribution(4), 3, RngStream(0)
            )

    def test_deterministic_for_fixed_stream(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((60, 3))
        b = rng.standard_normal((60, 1))
        p = leverage_distribution(leverage_scores(a))
        s1 = sketched_lstsq(a, b, p, 24, RngStream(77, 4))
        s2 = sketched_lstsq(a, b, p, 24, RngStream(77, 4))
        np.testing.assert_array_equal(s1.x_tilde, s2.x_tilde)
        np.testing.assert_array_equal(s1.plan.draws, s2.plan.draws)


def test_leverage_sampling_hits_ratio_1_1_most_of_the_time():
    """N=2000, r=5, s=500 leverage sketch lands within 10% of optimal in at
    least 95 of 100 seeded trials."""
    rng = np.random.default_rng(1000)
    a = rng.standard_normal((2000, 5))
    x_true = rng.standard_normal((5, 2))
    b = a @ x_true + rng.standard_normal((2000, 2))
    exact = exact_lstsq(a, b)
    p = leverage_distribution(leverage_scores(a))
    hits = 0
    for t in range(100):
        sol = sketched_lstsq(a, b, p, 500, RngStream(2000, t + 1))
        if accuracy_ratio(a, b, sol.x_tilde, exact) <= 1.1:
            hits += 1
    assert hits >= 95


class TestAccuracyRatio:
    def test_exact_solution_scores_one(self):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((30, 1))
        exact = exact_lstsq(a, b)
        assert accuracy_ratio(a, b, exact.x_opt, exact) == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_solution_scores_above_one(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((30, 3))
        b = rng.standard_normal((30, 1))
        exact = exact_lstsq(a, b)
        worse = exact.x_opt + 0.5
        assert accuracy_ratio(a, b, worse, exact) > 1.0

    def test_consistent_system_good_candidate(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((25, 4))
        x = rng.standard_normal((4, 1))
        b = a @ x
        exact = exact_lstsq(a, b)
        assert exact.residual_sq <= 1e-18 * fro_norm_sq(b)
        assert accuracy_ratio(a, b, x, exact) == 1.0

    @pytest.mark.parametrize("mangle, message", [
        pytest.param(lambda b, x: (b, x[:, :1]), r"x has shape \(3, 1\), expected \(3, 2\)",
                     id="one-column-x"),
        pytest.param(lambda b, x: (b[:1], x), "row counts differ: a has 200, b has 1",
                     id="one-row-b"),
        pytest.param(lambda b, x: (b[:199], x), "row counts differ: a has 200, b has 199",
                     id="short-b"),
    ])
    def test_shape_mismatch_raises_instead_of_broadcasting(self, mangle, message):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((200, 3))
        b = rng.standard_normal((200, 2))
        exact = exact_lstsq(a, b)
        bb, x = mangle(b, exact.x_opt)
        with pytest.raises(DimensionError, match=f"^{message}$"):
            accuracy_ratio(a, bb, x, exact)

    def test_consistent_system_bad_candidate_is_infinite(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((25, 4))
        x = rng.standard_normal((4, 1))
        b = a @ x
        exact = exact_lstsq(a, b)
        assert accuracy_ratio(a, b, x + 1.0, exact) == np.inf
