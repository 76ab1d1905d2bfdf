"""Seeded streams, sketch plans, and sampled matrix products.

Everything a plan does is cross-checked against an explicit dense sketching
operator assembled by hand: an s x n matrix with weight w_t in column
draws[t] of row t and zeros elsewhere.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    RngStream,
    SamplingDistribution,
    SketchPlan,
    UnsupportedRowError,
    apply_sketch,
    approx_matmul,
    build_sketch,
    fro_norm_sq,
    materialize_sketch,
    multinomial_draws,
    sketched_norm_sq,
    uniform_distribution,
)


def dense_operator(plan):
    """Hand-built dense version of the sketch, independent of the library."""
    s_mat = np.zeros((plan.n_samples, plan.n_source_rows))
    for t in range(plan.n_samples):
        s_mat[t, plan.draws[t]] += plan.weights[t]
    return s_mat


class TestRngStream:
    def test_same_triple_same_draws(self):
        u1 = RngStream(42, 3).generator.random(16)
        u2 = RngStream(42, 3).generator.random(16)
        np.testing.assert_array_equal(u1, u2)

    def test_different_stream_index_decorrelates(self):
        u1 = RngStream(42, 0).generator.random(16)
        u2 = RngStream(42, 1).generator.random(16)
        assert not np.array_equal(u1, u2)

    def test_seed_range_validated(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1)
        with pytest.raises(InvalidParameterError):
            RngStream(2**64)
        with pytest.raises(InvalidParameterError):
            RngStream(0, stream_index=-2)

    def test_repr_mentions_identity(self):
        text = repr(RngStream(7, 2))
        assert "7" in text and "2" in text and "philox4x64" in text


class TestMultinomialDraws:
    def test_deterministic_for_fixed_stream(self):
        p = uniform_distribution(10)
        d1 = multinomial_draws(p, 100, RngStream(5, 1))
        d2 = multinomial_draws(p, 100, RngStream(5, 1))
        np.testing.assert_array_equal(d1, d2)

    def test_point_mass(self):
        p = SamplingDistribution(probs=np.array([0.0, 1.0, 0.0]))
        draws = multinomial_draws(p, 50, RngStream(0))
        assert np.all(draws == 1)

    def test_zero_probability_rows_never_drawn(self):
        p = SamplingDistribution(probs=np.array([0.5, 0.0, 0.25, 0.0, 0.25]))
        draws = multinomial_draws(p, 4000, RngStream(17))
        assert not np.any(np.isin(draws, [1, 3]))

    def test_frequencies_track_probabilities(self):
        probs = np.array([0.2, 0.3, 0.5])
        p = SamplingDistribution(probs=probs)
        s = 20000
        draws = multinomial_draws(p, s, RngStream(33))
        counts = np.bincount(draws, minlength=3) / s
        # 5 standard errors of a binomial proportion
        for k in range(3):
            se = np.sqrt(probs[k] * (1 - probs[k]) / s)
            assert abs(counts[k] - probs[k]) <= 5 * se

    def test_sample_count_validated(self):
        with pytest.raises(InvalidSampleCountError):
            multinomial_draws(uniform_distribution(3), 0, RngStream(0))

    def test_sorted_search_equals_direct_search(self):
        # The draws search the uniforms in sorted order; indices must be
        # exactly those of a direct search of the same uniforms.
        rng = np.random.default_rng(3003)
        for i in range(300):
            n = int(rng.integers(1, 300))
            raw = rng.random(n)
            raw[rng.random(n) < 0.4] = 0.0
            raw[n - int(rng.integers(0, n)):] = 0.0  # often a zero tail
            raw[int(rng.integers(0, n))] = 1.0 + rng.random()
            p = SamplingDistribution(probs=raw / raw.sum())
            s = int(rng.integers(1, 3 * n + 2))
            got = multinomial_draws(p, s, RngStream(i, 7))
            u = RngStream(i, 7).generator.random(s)
            last = np.flatnonzero(p.probs > 0.0)[-1]
            want = np.minimum(np.searchsorted(np.cumsum(p.probs), u, side="right"), last)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want.astype(np.int64))
            assert np.all(p.probs[got] > 0.0)

    def test_uniform_past_the_cdf_goes_to_last_positive_row(self):
        # Probabilities may sum to 1 - 1e-13; a uniform above cdf[-1] must
        # land on the last positive row, not on the zero tail or past it.
        p = SamplingDistribution(probs=np.array([0.5, 0.5 - 1e-13, 0.0]))
        top = SimpleNamespace(generator=SimpleNamespace(
            random=lambda s: np.full(s, np.nextafter(1.0, 0.0))))
        np.testing.assert_array_equal(multinomial_draws(p, 3, top), [1, 1, 1])

    def test_cdf_is_read_only_and_computed_once(self, monkeypatch):
        p = SamplingDistribution(probs=np.array([0.5, 0.0, 0.25, 0.0, 0.25]))
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
        for stream in range(3):
            multinomial_draws(p, 10, RngStream(1, stream))
        assert len(calls) == 1
        assert p.cdf is p.cdf
        np.testing.assert_array_equal(p.cdf, [0.5, 0.5, 0.75, 0.75, 1.0])
        assert p.last_positive == 4
        with pytest.raises(ValueError):
            p.cdf[0] = 0.0


class TestSketchPlan:
    def test_build_sets_weight_identity(self):
        rng = np.random.default_rng(4)
        probs = rng.random(12)
        probs /= probs.sum()
        p = SamplingDistribution(probs=probs)
        plan = build_sketch(p, 40, RngStream(9))
        np.testing.assert_allclose(
            plan.weights * np.sqrt(40 * probs[plan.draws]), 1.0, atol=1e-12
        )
        assert plan.source_probs_digest == p.digest
        assert plan.n_source_rows == 12

    def test_draw_range_validated(self):
        with pytest.raises(DimensionError):
            SketchPlan(
                n_source_rows=3,
                n_samples=2,
                draws=np.array([0, 5]),
                weights=np.ones(2),
                source_probs_digest="x",
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            SketchPlan(
                n_source_rows=3,
                n_samples=2,
                draws=np.array([0, 1]),
                weights=np.array([1.0, 0.0]),
                source_probs_digest="x",
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            SketchPlan(
                n_source_rows=3,
                n_samples=3,
                draws=np.array([0, 1]),
                weights=np.ones(2),
                source_probs_digest="x",
            )


class TestApplyAgainstDenseOracle:
    def test_apply_sketch_matches(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(2, 16))
            p_raw = rng.random(n) + 0.01
            p = SamplingDistribution(probs=p_raw / p_raw.sum())
            plan = build_sketch(p, int(rng.integers(1, 20)), RngStream(int(rng.integers(1000))))
            m = rng.standard_normal((n, 3))
            expected = dense_operator(plan) @ m
            np.testing.assert_allclose(apply_sketch(plan, m).array, expected, atol=1e-12)

    def test_materialize_matches_hand_built(self):
        p = uniform_distribution(6)
        plan = build_sketch(p, 9, RngStream(2))
        np.testing.assert_array_equal(materialize_sketch(plan).array, dense_operator(plan))

    def test_sketched_norm_matches(self):
        rng = np.random.default_rng(55)
        p_raw = rng.random(9) + 0.05
        p = SamplingDistribution(probs=p_raw / p_raw.sum())
        plan = build_sketch(p, 14, RngStream(8))
        x = rng.standard_normal(9)
        expected = float(np.sum((dense_operator(plan) @ x) ** 2))
        assert sketched_norm_sq(plan, x) == pytest.approx(expected, rel=1e-12)

    def test_row_count_mismatch_rejected(self):
        plan = build_sketch(uniform_distribution(5), 3, RngStream(1))
        with pytest.raises(DimensionError):
            apply_sketch(plan, np.ones((6, 2)))
        with pytest.raises(DimensionError):
            sketched_norm_sq(plan, np.ones(6))


class TestSketchedNormContract:
    def test_digest_mismatch_rejected(self):
        p = uniform_distribution(4)
        other = SamplingDistribution(probs=np.array([0.7, 0.1, 0.1, 0.1]))
        plan = build_sketch(p, 5, RngStream(0))
        with pytest.raises(InvalidParameterError):
            sketched_norm_sq(plan, np.ones(4), probs=other)

    def test_unsupported_coordinate_rejected(self):
        p = SamplingDistribution(probs=np.array([0.5, 0.5, 0.0]))
        plan = build_sketch(p, 5, RngStream(0))
        x = np.array([1.0, 1.0, 2.0])  # nonzero in the dead row
        with pytest.raises(UnsupportedRowError):
            sketched_norm_sq(plan, x, probs=p)

    def test_unbiased_in_expectation(self):
        # smaller version of the acceptance run: one (x, p) pair, 20000 plans
        rng = np.random.default_rng(606)
        n, s, trials = 12, 6, 20000
        x = rng.standard_normal(n)
        p_raw = rng.random(n) + 0.1
        p = SamplingDistribution(probs=p_raw / p_raw.sum())
        stream = RngStream(909)
        vals = np.empty(trials)
        for t in range(trials):
            vals[t] = sketched_norm_sq(build_sketch(p, s, stream), x)
        target = float(x @ x)
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean() - target) <= 5 * se


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=25),
)
def test_norm_preserved_exactly_for_constant_leverage(seed, s):
    """With uniform p over rows of a vector with equal |x_i|, every plan
    reproduces the norm exactly, not just in expectation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    signs = rng.choice([-1.0, 1.0], size=n)
    x = signs * 2.0
    plan = build_sketch(uniform_distribution(n), s, RngStream(seed))
    assert sketched_norm_sq(plan, x) == pytest.approx(float(x @ x), rel=1e-12)


class TestApproxMatmul:
    def test_single_row_is_exact(self):
        p = SamplingDistribution(probs=np.array([1.0]))
        out = approx_matmul([[2.0]], [[3.0]], p, 7, RngStream(0))
        assert out.array[0, 0] == pytest.approx(6.0, rel=1e-15)

    def test_two_row_outcomes(self):
        # a = [[1],[1]], b = [[1],[-1]], uniform p, s = 1: the estimate is
        # +2 or -2 depending on the drawn row, never anything else
        a = [[1.0], [1.0]]
        b = [[1.0], [-1.0]]
        p = uniform_distribution(2)
        seen = set()
        for seed in range(40):
            est = approx_matmul(a, b, p, 1, RngStream(seed))
            seen.add(round(float(est.array[0, 0]), 12))
        assert seen == {2.0, -2.0}

    def test_unbiased_on_identity(self):
        p = uniform_distribution(3)
        stream = RngStream(2024)
        acc = np.zeros((3, 3))
        trials = 400
        for _ in range(trials):
            acc += approx_matmul(np.eye(3), np.eye(3), p, 300, stream).array
        mean = acc / trials
        # each entry estimate has variance <= (harsh bound) 9/(s*trials)
        np.testing.assert_allclose(mean, np.eye(3), atol=0.05)

    def test_unsupported_row_rejected(self):
        p = SamplingDistribution(probs=np.array([1.0, 0.0]))
        a = np.array([[1.0], [1.0]])
        with pytest.raises(UnsupportedRowError):
            approx_matmul(a, a, p, 3, RngStream(0))

    def test_dead_row_with_zero_entries_allowed(self):
        p = SamplingDistribution(probs=np.array([1.0, 0.0]))
        a = np.array([[1.0], [0.0]])
        out = approx_matmul(a, a, p, 3, RngStream(0))
        assert out.array[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_row_mismatch_rejected(self):
        p = uniform_distribution(2)
        with pytest.raises(DimensionError):
            approx_matmul(np.ones((2, 1)), np.ones((3, 1)), p, 2, RngStream(0))
        with pytest.raises(DimensionError):
            approx_matmul(np.ones((3, 1)), np.ones((3, 1)), p, 2, RngStream(0))
