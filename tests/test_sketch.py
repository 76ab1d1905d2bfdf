"""Seeded streams, sketch plans, and sampled matrix products.

Everything a plan does is cross-checked against an explicit dense sketching
operator assembled by hand: an s x n matrix with weight w_t in column
draws[t] of row t and zeros elsewhere.
"""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import dense_operator
from test_seeded_draws import DISTRIBUTIONS
from levsketch import (
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    LeverageProfile,
    RngStream,
    SamplingDistribution,
    SketchPlan,
    UnsupportedRowError,
    apply_sketch,
    approx_matmul,
    build_sketch,
    multinomial_draws,
    sketched_norm_sq,
    uniform_distribution,
)
from levsketch import sketch as sketch_mod
from levsketch.sketch import TrialStreams, _search, draw_chunk


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

    def test_non_integral_seed_rejected_not_truncated(self):
        for kwargs in ({"seed": 1.9}, {"seed": 1, "stream_index": 2.5}):
            with pytest.raises(InvalidParameterError, match="integer"):
                RngStream(**kwargs)
        stream = RngStream(np.uint64(7), np.int32(2))
        assert (type(stream.seed), type(stream.stream_index)) == (int, int)
        np.testing.assert_array_equal(
            stream.generator.random(4), RngStream(7, 2).generator.random(4)
        )

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

    def test_pooled_chunk_counts_fit_the_distribution(self):
        # 1000 sketches of 2000 rows from the pinned wide case (3000 rows, zero
        # runs and a zero tail): every positive row expects s * T * p >= 7.6
        # draws (its least p is 2**-18), enough for a chi-square test.
        from scipy import stats

        p = DISTRIBUTIONS["dyadic-wide"]()
        s, streams = 2000, TrialStreams(2024)
        counts = np.zeros(p.n_rows)
        for first in range(1, 1001, 250):
            chunk = draw_chunk(p, s, streams, range(first, first + 250))
            rows = chunk.unique_rows
            np.add.at(counts, rows, np.rint(chunk.weight_sq_sums * s * p.probs[rows]))
        assert counts.sum() == s * 1000
        positive = p.probs > 0.0
        assert not counts[~positive].any()
        expected = s * 1000 * p.probs[positive]
        assert expected.min() >= 5.0
        assert stats.chisquare(counts[positive], expected).pvalue > 1e-4

    def test_sample_count_validated(self):
        with pytest.raises(InvalidSampleCountError):
            multinomial_draws(uniform_distribution(3), 0, RngStream(0))

    def test_non_integral_sample_count_rejected_not_truncated(self):
        # Every draw goes through one check: 2.5 rows is not 2 rows.
        p = uniform_distribution(10)
        for s in (2.5, 3.7, np.float64(3.0), "3"):
            with pytest.raises(InvalidSampleCountError, match="positive integer"):
                multinomial_draws(p, s, RngStream(1))
            with pytest.raises(InvalidSampleCountError, match="positive integer"):
                build_sketch(p, s, RngStream(1))
            with pytest.raises(InvalidSampleCountError, match="positive integer"):
                draw_chunk(p, s, TrialStreams(1), range(1))
        for s in (np.int64(3), np.int32(3)):
            np.testing.assert_array_equal(build_sketch(p, s, RngStream(1)).draws,
                                          build_sketch(p, 3, RngStream(1)).draws)
            assert draw_chunk(p, s, TrialStreams(1), range(1)).n_samples == 3

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
        # One running sum over the n = 5 probabilities builds the CDF and one
        # over the K + 1 = 9 histogram counts builds the guide table, for all
        # draws from the distribution together.
        p = SamplingDistribution(probs=np.array([0.5, 0.0, 0.25, 0.0, 0.25]))
        calls = []
        cumsum = np.cumsum
        monkeypatch.setattr(
            np, "cumsum", lambda a, *args, **k: calls.append(np.size(a)) or cumsum(a, *args, **k))
        for stream in range(3):
            multinomial_draws(p, 10, RngStream(1, stream))
        draw_chunk(p, 10, TrialStreams(2), range(3))
        assert sorted(calls) == [5, 9]
        assert p.cdf is p.cdf and p.guide is p.guide
        np.testing.assert_array_equal(p.cdf, [0.5, 0.5, 0.75, 0.75, 1.0])
        # guide[k] counts the rows with cdf <= k/8
        np.testing.assert_array_equal(p.guide, [0, 0, 0, 0, 2, 2, 4, 4, 5])
        assert p.guide.dtype == np.int32
        # cdf is a view of the sentinel table: no second n-sized copy
        assert p.cdf.base is p.sentinel_cdf
        np.testing.assert_array_equal(p.sentinel_cdf, [*p.cdf, np.inf])
        assert p.last_positive == 4
        for table in (p.cdf, p.sentinel_cdf, p.guide):
            with pytest.raises(ValueError):
                table[0] = 0


@pytest.mark.parametrize("make", [
    pytest.param(lambda: uniform_distribution(5), id="SamplingDistribution"),
    pytest.param(lambda: LeverageProfile(scores=np.full(4, 0.5), rank=2), id="LeverageProfile"),
    pytest.param(lambda: build_sketch(uniform_distribution(5), 3, RngStream(1)), id="SketchPlan"),
])
def test_array_holding_value_types_compare_by_identity(make):
    # Field-wise == would compare arrays and raise on their truth value.
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert {a, b, a} == {a, b} and len({a, b}) == 2


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
        assert plan.source is p
        assert (plan.n_source_rows, plan.n_samples) == (12, 40)

    def test_fields_are_the_distribution_draws_and_weights(self):
        assert [f.name for f in fields(SketchPlan)] == ["source", "draws", "weights"]

    def test_draw_range_validated(self):
        with pytest.raises(DimensionError):
            SketchPlan(
                source=uniform_distribution(3),
                draws=np.array([0, 5]),
                weights=np.ones(2),
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            SketchPlan(
                source=uniform_distribution(3),
                draws=np.array([0, 1]),
                weights=np.array([1.0, 0.0]),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            SketchPlan(
                source=uniform_distribution(3),
                draws=np.array([0, 1]),
                weights=np.ones(3),
            )

    def test_empty_draws_rejected(self):
        with pytest.raises(InvalidSampleCountError):
            SketchPlan(uniform_distribution(3), np.array([], dtype=np.int64), np.array([]))

    def test_keeps_read_only_copies(self):
        draws, weights = np.array([2, 0], dtype=np.int64), np.array([1.0, 2.0])
        plan = SketchPlan(uniform_distribution(3), draws, weights)
        assert draws.flags.writeable and weights.flags.writeable
        draws[0], weights[0] = 1, 5.0
        np.testing.assert_array_equal(plan.draws, [2, 0])
        np.testing.assert_array_equal(plan.weights, [1.0, 2.0])
        for arr in (plan.draws, plan.weights):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_keeps_read_only_arrays_of_its_dtypes_without_a_copy(self):
        draws, weights = np.array([2, 0], dtype=np.int64), np.array([1.0, 2.0])
        draws.setflags(write=False)
        weights.setflags(write=False)
        plan = SketchPlan(uniform_distribution(3), draws, weights)
        assert plan.draws is draws and plan.weights is weights
        # Another dtype is converted, read-only or not.
        narrow = np.array([2, 0], dtype=np.int32)
        narrow.setflags(write=False)
        assert SketchPlan(uniform_distribution(3), narrow, weights).draws.dtype == np.int64

    def test_copies_read_only_views(self):
        # A read-only view's base may still be written after the checks ran.
        base_draws, base_weights = np.array([0, 1, 2], dtype=np.int64), np.ones(3)
        draws, weights = base_draws[:], base_weights[:]
        draws.setflags(write=False)
        weights.setflags(write=False)
        plan = SketchPlan(uniform_distribution(3), draws, weights)
        base_draws[:] = [7, 8, 9]
        base_weights[:] = [-1.0, np.nan, 0.0]
        np.testing.assert_array_equal(plan.draws, [0, 1, 2])
        np.testing.assert_array_equal(plan.weights, [1.0, 1.0, 1.0])

    def test_build_keeps_the_drawn_arrays_without_a_copy(self, monkeypatch):
        handed = []
        plan_type = sketch_mod.SketchPlan
        monkeypatch.setattr(sketch_mod, "SketchPlan",
                            lambda *args: handed.append(args) or plan_type(*args))
        plan = build_sketch(uniform_distribution(5), 40, RngStream(3))
        _, draws, weights = handed[0]
        assert plan.draws is draws and plan.weights is weights

    def test_build_goes_through_the_checked_constructor(self, monkeypatch):
        search = sketch_mod._search
        monkeypatch.setattr(sketch_mod, "_search", lambda p, u: search(p, u) - 1)
        with pytest.raises(DimensionError, match="out of range"):
            build_sketch(uniform_distribution(3), 50, RngStream(0))


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

    def test_sketched_norm_matches(self):
        rng = np.random.default_rng(55)
        p_raw = rng.random(9) + 0.05
        p = SamplingDistribution(probs=p_raw / p_raw.sum())
        plan = build_sketch(p, 14, RngStream(8))
        x = rng.standard_normal(9)
        expected = float(np.sum((dense_operator(plan) @ x) ** 2))
        assert sketched_norm_sq(plan, x) == pytest.approx(expected, rel=1e-12)

    def test_overflowing_product_rejected_without_a_warning(self):
        plan = SketchPlan(uniform_distribution(4), np.array([0, 1]), np.array([1e300, 1.0]))
        with pytest.raises(InvalidParameterError, match="finite"):
            apply_sketch(plan, np.full((4, 2), 1e10))

    def test_row_count_mismatch_rejected(self):
        plan = build_sketch(uniform_distribution(5), 3, RngStream(1))
        with pytest.raises(DimensionError):
            apply_sketch(plan, np.ones((6, 2)))
        with pytest.raises(DimensionError):
            sketched_norm_sq(plan, np.ones(6))


class TestSketchedNormContract:
    def test_x_must_be_an_n_vector(self):
        plan = build_sketch(uniform_distribution(6), 4, RngStream(0))
        for x in (np.ones((2, 3)), np.ones((6, 1)), np.ones(5)):
            with pytest.raises(DimensionError):
                sketched_norm_sq(plan, x)

    def test_nonfinite_x_rejected(self):
        plan = build_sketch(uniform_distribution(6), 4, RngStream(0))
        for bad in (np.nan, np.inf):
            x = np.ones(6)
            x[plan.draws[0]] = bad
            with pytest.raises(InvalidParameterError, match="finite"):
                sketched_norm_sq(plan, x)

    def test_unsupported_coordinate_rejected(self):
        p = SamplingDistribution(probs=np.array([0.5, 0.5, 0.0]))
        plan = build_sketch(p, 5, RngStream(0))
        x = np.array([1.0, 1.0, 2.0])  # nonzero in the dead row
        with pytest.raises(UnsupportedRowError):
            sketched_norm_sq(plan, x)

    def test_overflow_raises_without_a_warning(self):
        # Each sketched entry is finite, but their squares overflow; the
        # suite turns a RuntimeWarning into an error.
        plan = build_sketch(uniform_distribution(4), 3, RngStream(1))
        with pytest.raises(InvalidParameterError, match="overflows float64"):
            sketched_norm_sq(plan, np.full(4, 1e200))

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.3, 1.0, 2.5]), min_size=1, max_size=30).filter(
        lambda raw: sum(raw) > 0.0),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["1", "r-1", "r", "6r"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plan_multiset_is_the_draws_aggregated(raw, r, s_rule, seed):
    """The multiset of a plan's draws (distinct rows, summed squared weights)
    is draw_chunk's for the same stream, and it gives the same S^T S as the
    dense operator."""
    s = {"1": 1, "r-1": r - 1, "r": r, "6r": 6 * r}[s_rule]
    assume(s >= 1)
    probs = np.array(raw) / sum(raw)
    p = SamplingDistribution(probs=probs)
    plan = build_sketch(p, s, RngStream(seed, 3))
    np.testing.assert_array_equal(plan.draws, multinomial_draws(p, s, RngStream(seed, 3)))
    assert plan.draws.dtype == np.int64
    rows, inverse, counts = np.unique(plan.draws, return_inverse=True, return_counts=True)
    chunk = draw_chunk(p, s, TrialStreams(seed), range(3, 4))
    np.testing.assert_array_equal(chunk.unique_rows, rows)
    np.testing.assert_array_equal(chunk.offsets, [0, rows.size])
    assert np.all(probs[rows] > 0.0)
    summed = np.bincount(inverse, weights=plan.weights**2, minlength=rows.size)
    np.testing.assert_allclose(chunk.weight_sq_sums, summed, rtol=1e-13)
    np.testing.assert_array_equal(chunk.weight_sq_sums, counts / (s * probs[rows]))
    dense = dense_operator(plan)
    sts = np.zeros((p.n_rows, p.n_rows))
    sts[rows, rows] = summed
    np.testing.assert_allclose(sts, dense.T @ dense, rtol=1e-13, atol=0.0)
    # A hand-built copy of the plan holds the same draws and weights.
    copy = SketchPlan(p, plan.draws, plan.weights)
    np.testing.assert_array_equal(copy.draws, plan.draws)
    np.testing.assert_array_equal(copy.weights, plan.weights)


class TestApproxMatmul:
    def test_single_row_is_exact(self):
        p = SamplingDistribution(probs=np.array([1.0]))
        out = approx_matmul([[2.0]], [[3.0]], p, 7, RngStream(0))
        assert out[0, 0] == pytest.approx(6.0, rel=1e-15)

    def test_two_row_outcomes(self):
        # a = [[1],[1]], b = [[1],[-1]], uniform p, s = 1: the estimate is
        # +2 or -2 depending on the drawn row, never anything else
        a = [[1.0], [1.0]]
        b = [[1.0], [-1.0]]
        p = uniform_distribution(2)
        seen = set()
        for seed in range(40):
            est = approx_matmul(a, b, p, 1, RngStream(seed))
            seen.add(round(float(est[0, 0]), 12))
        assert seen == {2.0, -2.0}

    def test_unbiased_on_identity(self):
        p = uniform_distribution(3)
        stream = RngStream(2024)
        acc = np.zeros((3, 3))
        trials = 400
        for _ in range(trials):
            acc += approx_matmul(np.eye(3), np.eye(3), p, 300, stream)
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
        assert out[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_overflowing_product_is_rejected(self):
        p = uniform_distribution(2)
        a = np.full((2, 1), 1e200)
        with pytest.raises(InvalidParameterError, match="product overflows"):
            approx_matmul(a, a, p, 3, RngStream(0))

    def test_row_mismatch_rejected(self):
        p = uniform_distribution(2)
        with pytest.raises(DimensionError):
            approx_matmul(np.ones((2, 1)), np.ones((3, 1)), p, 2, RngStream(0))
        with pytest.raises(DimensionError):
            approx_matmul(np.ones((3, 1)), np.ones((3, 1)), p, 2, RngStream(0))


def oracle_rows(p, u):
    """The binary-search draw the guide table must reproduce: a fresh CDF,
    ``np.searchsorted`` and the last-positive-row guard."""
    return np.minimum(np.searchsorted(np.cumsum(p.probs), u, side="right"), p.last_positive)


def oracle_chunk(p, s, streams):
    rows, sums, offsets = [], [], [0]
    for stream in streams:
        unique, counts = np.unique(oracle_rows(p, stream.generator.random(s)),
                                   return_counts=True)
        rows.append(unique)
        sums.append(counts / (s * p.probs[unique]))
        offsets.append(offsets[-1] + unique.size)
    return np.concatenate(rows), np.concatenate(sums), np.array(offsets)


@st.composite
def guide_cases(draw):
    """A distribution and uniforms that probe the guide table's edges: n = 1,
    powers of two and one past them; zero runs longer than the pass cap, a
    zero tail, nearly all mass on one row; cdf[-1] just below or above 1;
    uniforms on bucket edges, on CDF entries, at 0 and just below 1."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65, 256, 257]),
                       st.integers(min_value=1, max_value=400)))
    shape = draw(st.sampled_from(["random", "long-zero-run", "zero-tail", "one-heavy",
                                  "mostly-zero"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    raw = rng.random(n)
    raw[rng.random(n) < 0.3] = 0.0
    if shape == "long-zero-run":
        start = int(rng.integers(0, n))
        raw[start:start + int(rng.integers(sketch_mod._WALK_PASSES + 1, 60))] = 0.0
    elif shape == "zero-tail":
        raw[n - int(rng.integers(0, n)):] = 0.0
    elif shape == "one-heavy":
        raw *= 1e-6
    elif shape == "mostly-zero":
        raw[rng.random(n) < 0.99] = 0.0
    raw[int(rng.integers(0, n))] = 1.0 + rng.random()
    scale = draw(st.sampled_from([1.0, 1.0 - 5e-13, 1.0 + 5e-13]))
    p = SamplingDistribution(probs=raw / raw.sum() * scale)
    k = p.guide.size - 1
    edges = np.concatenate([
        np.arange(k) / k, p.cdf, np.nextafter(p.cdf, 0.0), np.nextafter(p.cdf, 2.0),
        [0.0, np.nextafter(1.0, 0.0)], rng.random(int(rng.integers(1, 3 * n + 2)))])
    u = rng.permutation(edges[(edges >= 0.0) & (edges < 1.0)])
    return p, u


class TestGuideTable:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(guide_cases(), st.integers(min_value=1, max_value=4), st.booleans())
    def test_search_equals_binary_search(self, case, n_keys_rows, sort):
        p, u = case
        u = np.stack([np.roll(u, i) for i in range(n_keys_rows)])
        if sort:
            u.sort(axis=1)
        want = oracle_rows(p, u)
        got = _search(p, u)
        assert got.dtype == np.intp and got.shape == u.shape
        np.testing.assert_array_equal(got, want)
        assert np.all(p.probs[got] > 0.0)
        # the table's defining property
        k = p.guide.size - 1
        np.testing.assert_array_equal(
            p.guide, [np.count_nonzero(np.cumsum(p.probs) <= j / k) for j in range(k + 1)])
        assert p.n_rows <= k < 2 * p.n_rows
        assert p.guide.nbytes <= p.cdf.nbytes + 4

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(guide_cases(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
    def test_draw_chunk_equals_binary_search(self, case, n_streams, seed, s_per_row):
        p, _ = case
        s = s_per_row * p.n_rows
        chunk = draw_chunk(p, s, TrialStreams(seed), range(n_streams))
        want = oracle_chunk(p, s, [RngStream(seed, t) for t in range(n_streams)])
        for got, expected in zip((chunk.unique_rows, chunk.weight_sq_sums, chunk.offsets), want):
            np.testing.assert_array_equal(got, expected)
        plan = build_sketch(p, s, RngStream(seed, 0))
        u = RngStream(seed, 0).generator.random(s)
        np.testing.assert_array_equal(plan.draws, oracle_rows(p, u))

    @pytest.mark.parametrize("passes", [0, 1, 2, 8])
    def test_long_zero_runs_finish_by_binary_search(self, monkeypatch, passes):
        # 99% of the rows have zero probability, so some buckets span runs of
        # ~100 rows; keys still moving after the pass cap fall back to
        # np.searchsorted, which must give the same rows whatever the cap.
        probs = np.zeros(1000)
        probs[::100] = np.arange(1, 11)
        p = SamplingDistribution(probs=probs / probs.sum())
        u = RngStream(5).generator.random(5000)
        u.sort()
        want = oracle_rows(p, u)
        monkeypatch.setattr(sketch_mod, "_WALK_PASSES", passes)
        calls = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, v, **k: calls.append(np.size(v)) or searchsorted(a, v, **k))
        np.testing.assert_array_equal(_search(p, u), want)
        assert len(calls) == 1 and 0 < calls[0] < u.size

    def test_incoherent_draws_need_no_binary_search(self, monkeypatch):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((5000, 5)))
        p = SamplingDistribution(probs=np.einsum("ij,ij->i", q, q) / 5)
        u = np.sort(RngStream(6).generator.random(20000))
        want = oracle_rows(p, u)
        monkeypatch.setattr(np, "searchsorted", None)
        np.testing.assert_array_equal(_search(p, u), want)
