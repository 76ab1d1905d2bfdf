"""Core dense linear algebra: the boundary check, DenseMatrix, bases, exact solves,
spectra.

The exact solver is checked against a normal-equations oracle built from
scratch here, and spectral extremes against a closed-form 2x2 eigenvalue
computation, so none of these tests trust the code paths they exercise.
"""

import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    AccuracyTarget,
    DenseMatrix,
    DimensionError,
    InvalidParameterError,
    InvalidSampleCountError,
    LevSketchError,
    LeverageProfile,
    OrthonormalBasis,
    ProblemSpec,
    RankDeficientError,
    RngStream,
    SamplingDistribution,
    SketchPlan,
    SpectralSummary,
    TrialConfig,
    TrialScorer,
    apply_sketch,
    blended_distribution,
    build_sketch,
    check_bounds,
    check_structural,
    exact_lstsq,
    fro_norm_sq,
    leverage_scores,
    multinomial_draws,
    orthonormal_basis,
    parse_distribution_spec,
    parse_sample_rule,
    read_matrix,
    required_samples,
    spectral_extremes,
    uniform_distribution,
    write_matrix,
)
from levsketch.linalg import (
    SLAB_ROWS,
    _qr_full_rank,
    as_array,
    as_int,
    as_problem,
    as_real,
    fro_norm_sq_each,
    kept,
)
from levsketch.experiment import MAX_TRIALS
from levsketch.sketch import MAX_SEED, MAX_STREAM_INDEX, TrialStreams, draw_chunk


#: Each boundary that takes an integer parameter, called with one value.
INTEGER_ENTRY_POINTS = {
    "as_int": lambda v: as_int(v, "n"),
    "ProblemSpec-seed": lambda v: ProblemSpec("gaussian-incoherent", 20, 2, seed=v),
    "ProblemSpec-sizes": lambda v: ProblemSpec("gaussian-incoherent", n_rows=v, n_cols=v),
    "TrialConfig-n_trials": lambda v: TrialConfig(
        ProblemSpec("gaussian-incoherent", 20, 2), "leverage", "xr:4",
        AccuracyTarget(0.3, 0.3), n_trials=v),
    "RngStream": lambda v: RngStream(v),
    "sample_count": lambda v: build_sketch(uniform_distribution(2), v, RngStream(0)),
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "numpy-True"])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS.values(), ids=INTEGER_ENTRY_POINTS.keys())
def test_bools_are_rejected_as_integers_like_non_integral_values(entry, value):
    # A bool is an int to Python, but True seeds, sizes and counts are
    # mistakes, not 1: each raises what 2.5 raises.
    with pytest.raises(LevSketchError) as non_integral:
        entry(2.5)
    with pytest.raises(type(non_integral.value)) as exc_info:
        entry(value)
    assert str(exc_info.value) == str(non_integral.value).replace("2.5", repr(value))


def _trial_config(**fields):
    return TrialConfig(ProblemSpec("gaussian-incoherent", 20, 2), "leverage", "xr:4",
                       AccuracyTarget(0.3, 0.3), **fields)


#: Every bounded integer setting of the library: (call with one value, lo,
#: hi or None, the error type its site raises, the name its message gives,
#: whether the value reaches the check only as an int).
BOUNDED_SETTINGS = {
    "RngStream-seed": (RngStream, 0, MAX_SEED, InvalidParameterError, "seed", False),
    "RngStream-stream_index": (lambda v: RngStream(0, v), 0, MAX_STREAM_INDEX,
                               InvalidParameterError, "stream_index", False),
    "TrialStreams-stream_index": (lambda v: TrialStreams(0).uniforms(1, range(v, v + 1)), 0,
                                  MAX_STREAM_INDEX, InvalidParameterError, "stream_index", True),
    "multinomial_draws-s": (lambda v: multinomial_draws(uniform_distribution(2), v, RngStream(0)),
                            1, None, InvalidSampleCountError, "s", False),
    "draw_chunk-s": (lambda v: draw_chunk(uniform_distribution(2), v, TrialStreams(0), range(1)),
                     1, None, InvalidSampleCountError, "s", False),
    "ProblemSpec-seed": (lambda v: ProblemSpec("gaussian-incoherent", 20, 2, seed=v), 0, MAX_SEED,
                         InvalidParameterError, "problem seed", False),
    "ProblemSpec-rhs_cols": (lambda v: ProblemSpec("gaussian-incoherent", 20, 2, rhs_cols=v), 1,
                             None, InvalidParameterError, "rhs_cols", False),
    "TrialConfig-master_seed": (lambda v: _trial_config(master_seed=v), 0, MAX_SEED,
                                InvalidParameterError, "seed", False),
    "TrialConfig-n_trials": (lambda v: _trial_config(n_trials=v), 1, MAX_TRIALS,
                             InvalidParameterError, "n_trials", False),
    "TrialConfig-cap_samples": (lambda v: _trial_config(cap_samples=v), 0, None,
                                InvalidParameterError, "cap_samples", False),
    "parse_sample_rule-xr": (lambda v: parse_sample_rule(f"xr:{v}"), 1, None,
                             InvalidParameterError, "rank multiple", True),
    "parse_sample_rule-count": (lambda v: parse_sample_rule(str(v)), 1, None,
                                InvalidParameterError, "sample count", True),
    "required_samples-rank": (lambda v: required_samples(v, 1.0, AccuracyTarget(0.1, 0.1)), 1,
                              None, InvalidParameterError, "rank", False),
    "LeverageProfile-rank": (lambda v: LeverageProfile(np.array([1.0]), v), 1, 1,
                             InvalidParameterError, "rank", False),
    "uniform_distribution-n_rows": (uniform_distribution, 1, None, InvalidParameterError,
                                    "n_rows", False),
}


def _bounded_cases():
    for setting, (call, lo, hi, error, name, ints_only) in BOUNDED_SETTINGS.items():
        cases = {"lo-1": lo - 1, "lo": lo}
        if hi is not None:
            cases.update({"hi": hi, "hi+1": hi + 1})
        cases["numpy"] = np.uint64(MAX_SEED) if hi == MAX_SEED else np.int64(lo)
        if not ints_only:
            cases.update({"True": True, "2.5": 2.5})
        bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        for label, value in cases.items():
            accepted = label in ("lo", "hi", "numpy")
            yield pytest.param(call, value, None if accepted else error,
                               f"{name} must be an integer {bounds}", id=f"{setting}-{label}")


@pytest.mark.parametrize("call, value, error, text", _bounded_cases())
def test_every_bounded_integer_setting_checks_its_range_with_one_message(call, value, error, text):
    # Each bound is inclusive; outside it, and for a bool or a non-integral
    # value, the site raises its own error type with as_int's message.
    if error is None:
        call(value)
        return
    with pytest.raises(error) as exc_info:
        call(value)
    assert type(exc_info.value) is error
    assert str(exc_info.value) == f"{text}, got {value!r}"


def _epsilon_sites():
    a = np.random.default_rng(3).standard_normal((8, 2))
    b = a[:, :1] + 1.0
    exact = exact_lstsq(a, b)
    plan = build_sketch(uniform_distribution(8), 4, RngStream(0))
    return {
        "AccuracyTarget-epsilon": lambda v: AccuracyTarget(v, 0.5),
        "check_structural-epsilon": lambda v: check_structural(plan, exact, v),
        "check_bounds-epsilon": lambda v: check_bounds(a, b, exact.x_opt, exact, v),
        "TrialScorer-epsilon": lambda v: TrialScorer(exact, v),
    }


#: Every real setting of the library: (call with one value, lo, hi, ends,
#: the name its message gives, whether the value reaches the check only as
#: text, parsed by float()).
BOUNDED_REALS = {
    **{site: (call, 0, 1, "()", "epsilon", False) for site, call in _epsilon_sites().items()},
    "AccuracyTarget-delta": (lambda v: AccuracyTarget(0.5, v), 0, 1, "()", "delta", False),
    "required_samples-beta": (lambda v: required_samples(2, v, AccuracyTarget(0.1, 0.1)), 0, 1,
                              "(]", "beta", False),
    "SamplingDistribution-beta": (lambda v: SamplingDistribution(np.full(2, 0.5), v), 0, 1,
                                  "(]", "beta", False),
    "blended_distribution-alpha": (lambda v: blended_distribution(uniform_distribution(2), v),
                                   0, 1, "[]", "alpha", False),
    "parse_distribution_spec-alpha": (lambda v: parse_distribution_spec(f"blended:{v!r}"), 0, 1,
                                      "[]", "alpha", True),
    "ProblemSpec-noise_scale": (lambda v: ProblemSpec("gaussian-incoherent", 20, 2,
                                                      noise_scale=v),
                                0, math.inf, "[)", "noise_scale", False),
    "ProblemSpec-coherence_target": (lambda v: ProblemSpec("spiked-coherent", 20, 2,
                                                           coherence_target=v),
                                     0.1, 1, "[]", "coherence_target", False),
    **{f"ProblemSpec-coherence_target-{kind}": (
        lambda v, kind=kind: ProblemSpec(kind, 20, 2, coherence_target=v),
        0, 1, "[]", "coherence_target", False) for kind in ("gaussian-incoherent", "consistent")},
    "SpectralSummary-sigma_max": (lambda v: SpectralSummary(0.0, v), 0, math.inf, "[)",
                                  "sigma_max", False),
    "SpectralSummary-sigma_min": (lambda v: SpectralSummary(v, 2.0), 0, 2.0, "[]",
                                  "sigma_min", False),
}


def _real_cases():
    for setting, (call, lo, hi, ends, name, text_only) in BOUNDED_REALS.items():
        cases = {}  # label: (value, accepted)
        for end, side, outward in ((lo, 0, -math.inf), (hi, 1, math.inf)):
            cases[f"end{side}"] = (end, math.isfinite(end) and ends[side] in "[]")
            if math.isfinite(end):
                cases[f"outside{side}"] = (np.nextafter(float(end), outward).item(), False)
        cases.update({"nan": (math.nan, False), "inf": (math.inf, False),
                      "-inf": (-math.inf, False)})
        if not text_only:
            inside = (lo + hi) / 2 if math.isfinite(hi) else lo + 1.5
            cases.update({
                "float32": (np.float32(inside), True), "float64": (np.float64(inside), True),
                "Fraction": (Fraction(inside), True),
                **{label: (value, False) for label, value in (
                    ("True", True), ("numpy-True", np.True_), ("text", "0.5"), ("None", None),
                    ("complex", 0.5 + 0j), ("Decimal", Decimal("0.5")))},
            })
        if setting == "SamplingDistribution-beta":
            cases["None"] = (None, True)  # a beta that is not known
        interval = f"{ends[0]}{lo}, {hi}{ends[1]}"
        for label, (value, accepted) in cases.items():
            yield pytest.param(call, value, accepted,
                               f"{name} must be a finite real number in {interval}",
                               id=f"{setting}-{label}")


@pytest.mark.parametrize("call, value, accepted, text", _real_cases())
def test_every_real_setting_checks_its_range_with_one_message(call, value, accepted, text):
    # A closed end is in, an open one out, and one step outside either end
    # is out; nan, infinities, bools and values that are not real numbers
    # are out at every site, with as_real's error and message.
    if accepted:
        call(value)
        return
    with pytest.raises(InvalidParameterError) as exc_info:
        call(value)
    assert type(exc_info.value) is InvalidParameterError
    assert str(exc_info.value) == f"{text}, got {value!r}"


def test_as_real_keeps_the_value_it_was_given():
    for value in (0.25, np.float32(0.25), Fraction(1, 4), 1):
        assert as_real(value, "x", 0, 1) is value
    with pytest.raises(InvalidParameterError, match=r"^x must be a finite real number in "
                       r"\[0, inf\), got 1000"):
        as_real(10**400, "x", 0, math.inf, "[)")  # past the float range


def normal_equations_solve(a, b):
    """Independent least-squares oracle: x = (a^T a)^{-1} a^T b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.solve(a.T @ a, a.T @ b)


class TestDenseMatrix:
    """The view ``read_matrix`` and ``apply_sketch`` return; its checks are
    :func:`as_array`'s."""

    def test_shape_properties(self):
        m = DenseMatrix(np.arange(6.0).reshape(3, 2))
        assert (m.rows, m.cols) == (3, 2)
        assert m.shape == (3, 2)

    def test_wrong_ndim_rejected(self):
        for check in (DenseMatrix, as_array):
            with pytest.raises(DimensionError):
                check([1.0, 2.0])
            with pytest.raises(DimensionError):
                check(np.ones((2, 2, 2)))

    def test_nonpositive_shape_rejected(self):
        for check in (DenseMatrix, as_array):
            with pytest.raises(DimensionError):
                check(np.empty((0, 2)))
            with pytest.raises(DimensionError):
                check(np.empty((2, 0)))

    def test_nonfinite_rejected(self):
        for check in (DenseMatrix, as_array):
            with pytest.raises(InvalidParameterError):
                check([[1.0, np.nan]])
            with pytest.raises(InvalidParameterError):
                check([[np.inf, 0.0]])

    @pytest.mark.parametrize("entries", [
        pytest.param(np.array([[1 + 2j]]), id="complex-array"),
        pytest.param(np.array([[1.0 + 0j, 2.0 + 0j]]), id="complex-with-zero-imaginary"),
        pytest.param([[1 + 2j]], id="complex-list"),
        pytest.param(np.array([[1 + 2j]], dtype=object), id="complex-objects"),
        pytest.param([["a"]], id="text"),
        pytest.param([["1.5"]], id="numeric-text"),
        pytest.param([[1.0, 2.0], [3.0]], id="ragged"),
        pytest.param(np.array([["1.5"]], dtype=object), id="numeric-text-objects"),
        pytest.param(np.array([[Fraction(1, 2)]], dtype=object), id="fraction-objects"),
        pytest.param(np.array([[1.0]], dtype=object), id="float-objects"),
        pytest.param([[10**400]], id="int-past-the-float-range")])
    def test_entries_that_are_not_real_numbers_rejected(self, entries):
        # numpy's float cast drops an imaginary part with only a ComplexWarning
        # and raises its own ValueError on text; both are boundary errors here.
        for check in (DenseMatrix, as_array):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParameterError, match="must be real numbers"):
                    check(entries)

    def test_real_integer_and_bool_entries_accepted(self):
        for entries in (np.array([[1, -2], [3, 4]], dtype=np.int32), [[1, -2], [3, 4]],
                        np.array([[True, False], [False, True]])):
            a = as_array(entries)
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, np.asarray(entries, dtype=np.float64))
        f64 = np.ones((2, 2))
        assert as_array(f64) is f64

    def test_array_protocol_without_copy_keyword(self, monkeypatch):
        # numpy 1.x calls __array__() or __array__(dtype) and rejects
        # np.array(..., copy=None); mimic that numpy here.
        real_array = np.array

        def numpy1_array(obj, *args, copy=True, **kwargs):
            if copy is None:
                raise ValueError("NoneType copy mode not allowed")
            return real_array(obj, *args, copy=copy, **kwargs)

        m = DenseMatrix([[1.0, 3.0], [2.0, 4.0]])
        monkeypatch.setattr(np, "array", numpy1_array)
        assert m.__array__() is m.array
        assert m.__array__(np.float64) is m.array
        as32 = m.__array__(np.float32)
        assert as32.dtype == np.float32
        monkeypatch.undo()
        np.testing.assert_array_equal(as32, m.array)
        copied = m.__array__(None, copy=True)
        assert copied is not m.array and copied.flags.writeable
        np.testing.assert_array_equal(copied, m.array)

    def test_array_is_read_only(self):
        m = DenseMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_numpy_interop(self):
        m = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        out = np.asarray(m)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
        assert (m.array + 1.0)[0, 0] == 2.0
        assert np.asarray(m, dtype=np.float32).dtype == np.float32

    def test_library_results_are_column_major_read_only_views(self, tmp_path):
        # The bits of check_structural's sq.T @ sbp, the kernel's oracle, follow this layout.
        rng = np.random.default_rng(12)
        a = rng.standard_normal((40, 3))
        path = tmp_path / "a.mtx"
        write_matrix(path, a)
        plan = build_sketch(uniform_distribution(40), 17, RngStream(3))
        for m in (read_matrix(path), apply_sketch(plan, a), apply_sketch(plan, np.asfortranarray(a))):
            assert m.array.flags.f_contiguous and not m.array.flags.writeable
            assert np.asarray(m) is m.array


def test_fro_norm_sq_matches_manual_sum():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 3))
    assert fro_norm_sq(a) == pytest.approx(float((a * a).sum()), rel=1e-14)


NORM_SHAPES = [(50000, 2), (1000, 7), (3, 3)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_fro_norm_sq_is_within_k_ulps_of_the_exact_sum(order, shape):
    # The exact sum of squares in rationals; entries spread over ~12 decades.
    rng = np.random.default_rng(12)
    a = np.asarray(rng.standard_normal(shape) * rng.lognormal(0.0, 3.0, shape), order=order)
    exact = sum(Fraction(v) ** 2 for v in a.ravel().tolist())
    assert abs(Fraction(fro_norm_sq(a)) - exact) <= a.size * Fraction(2) ** -52 * exact


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", NORM_SHAPES)
def test_fro_norm_sq_makes_at_most_one_temporary(order, shape):
    a = np.asarray(np.random.default_rng(12).standard_normal(shape), order=order)
    tracemalloc.start()
    try:
        fro_norm_sq(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.nbytes + 4096


@pytest.mark.parametrize("n_items", [1, 2, 7])
@pytest.mark.parametrize("r, m", [(1, 1), (3, 1), (3, 2), (5, 2)])
def test_fro_norm_sq_each_item_has_the_bits_of_a_one_item_stack(n_items, r, m):
    # Stacks of whole contiguous items and, as the scorer's blocks are, the
    # strided off-diagonal blocks gram[:, :r, r:] of stacked Gram matrices:
    # item t's norm does not depend on the items around it.
    rng = np.random.default_rng(13)
    scale = rng.lognormal(0.0, 4.0, (n_items, 1, 1))
    gram = rng.standard_normal((n_items, r + m, r + m)) * scale
    for stack in (gram[:, :r, :m].copy(), gram[:, :r, r:], gram):
        got = fro_norm_sq_each(stack)
        assert got.shape == (n_items,)
        assert got.tolist() == [fro_norm_sq_each(stack[t:t + 1])[0] for t in range(n_items)]
        assert got.tolist() == [fro_norm_sq(item) for item in stack]


def test_fro_norm_sq_each_overflow_is_inf_without_a_warning():
    stack = np.full((3, 2, 2), 1e200)
    stack[1] = 1.0
    got = fro_norm_sq_each(stack)  # the suite turns warnings into errors
    assert got.tolist() == [math.inf, 4.0, math.inf] == [fro_norm_sq(x) for x in stack]


class TestAsProblem:
    """One shape check for a least-squares problem ``(a, b[, x])``."""

    A, B = np.ones((6, 3)), np.ones((6, 2))

    def test_returns_the_checked_arrays_without_a_copy(self):
        x = np.ones((3, 2))
        arr, barr, xarr = as_problem(self.A, self.B, x)
        assert arr is self.A and barr is self.B and xarr is x
        assert len(as_problem(self.A, self.B)) == 2

    @pytest.mark.parametrize("rows", [1, 5, 7])
    def test_row_mismatch_rejected(self, rows):
        with pytest.raises(DimensionError,
                           match=f"^row counts differ: a has 6, b has {rows}$"):
            as_problem(self.A, np.ones((rows, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("shape", [(3, 1), (2, 2), (1, 2), (3, 3)])
    def test_solution_shape_checked(self, shape):
        with pytest.raises(DimensionError, match=rf"x has shape \({shape[0]}, {shape[1]}\), "
                                                 r"expected \(3, 2\)"):
            as_problem(self.A, self.B, np.ones(shape))

    def test_each_operand_goes_through_as_array(self):
        with pytest.raises(DimensionError):
            as_problem(self.A, np.ones(6))
        with pytest.raises(InvalidParameterError, match="finite"):
            as_problem(self.A, self.B, np.full((3, 2), np.nan))


def test_kept_copies_a_read_only_view():
    # The view's base may still be written; an array owning its data is kept.
    base = np.array([1.0, 2.0, 3.0])
    view = base[:]
    view.setflags(write=False)
    got = kept(view, np.float64)
    base[:] = 0.0
    assert got.tolist() == [1.0, 2.0, 3.0] and not got.flags.writeable
    assert kept(got, np.float64) is got


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SketchPlan(uniform_distribution(3), np.array([0.5, 1.7]), np.ones(2)),
                 id="float-draws"),
    pytest.param(lambda: SketchPlan(uniform_distribution(3), [True, False], np.ones(2)),
                 id="bool-draws"),
    pytest.param(lambda: SketchPlan(uniform_distribution(3), np.array(["1"]), np.ones(1)),
                 id="text-draws"),
    pytest.param(lambda: SketchPlan(uniform_distribution(3), [0, 1], np.array([1 + 1j, 1])),
                 id="complex-weights"),
    pytest.param(lambda: LeverageProfile(np.array(["0.5", "0.5"]), 1), id="text-scores"),
    pytest.param(lambda: SamplingDistribution(np.array([0.5 + 1j, 0.5])), id="complex-probs"),
    pytest.param(lambda: LeverageProfile(np.array(["0.5", "0.5"], dtype=object), 1),
                 id="text-object-scores"),
    pytest.param(lambda: SamplingDistribution(np.array(["0.5", "0.5"], dtype=object)),
                 id="text-object-probs")])
def test_kept_rejects_values_a_cast_would_change(make):
    # numpy's cast would truncate floats, count bools as 0 and 1, parse text
    # (in an object array too) and drop an imaginary part with only a ComplexWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="entries must be"):
            make()


class TestOrthonormalBasis:
    def test_basis_is_orthonormal_and_spans(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((30, 4))
        basis = orthonormal_basis(a)
        q = basis.q
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
            OrthonormalBasis(q=bad)

    def test_constructor_keeps_a_read_only_array_without_a_copy(self):
        q = np.eye(3)[:, :2].copy()
        q.setflags(write=False)
        assert OrthonormalBasis(q=q).q is q

    def test_constructor_copies_a_read_only_view(self):
        base = np.eye(3)
        view = base[:, :2]
        view.setflags(write=False)
        basis = OrthonormalBasis(q=view)
        base[:] = 7.0  # after the orthonormality check
        np.testing.assert_array_equal(basis.q, np.eye(3)[:, :2])

    def test_constructor_rejects_wrong_rank(self):
        # The rank is the basis width, and a basis wider than tall cannot have it.
        assert OrthonormalBasis(q=np.eye(3)[:, :2]).source_rank == 2
        with pytest.raises(DimensionError):
            OrthonormalBasis(q=np.eye(3)[:2])


class TestExactLstsq:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((40, 5))
            b = rng.standard_normal((40, 2))
            sol = exact_lstsq(a, b)
            x_ne = normal_equations_solve(a, b)
            np.testing.assert_allclose(sol.x_opt, x_ne, rtol=1e-8, atol=1e-10)

    def test_residual_decomposition(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((25, 3))
        b = rng.standard_normal((25, 2))
        sol = exact_lstsq(a, b)
        bp = sol.b_perp
        # b_perp is orthogonal to every column of a
        np.testing.assert_allclose(a.T @ bp, 0.0, atol=1e-10)
        assert sol.residual_sq == pytest.approx(fro_norm_sq(bp), rel=1e-14)
        np.testing.assert_allclose(a @ sol.x_opt + bp, b, atol=1e-12)

    def test_consistent_system_zero_residual(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 4))
        x = rng.standard_normal((4, 1))
        sol = exact_lstsq(a, a @ x)
        assert sol.residual_sq <= 1e-18 * fro_norm_sq(a @ x)
        np.testing.assert_allclose(sol.x_opt, x, atol=1e-10)

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

    def test_overflowing_b_is_rejected(self):
        # Finite entries near 1e307, but ||b||_F^2 is past the float64 range.
        rng = np.random.default_rng(33)
        a = rng.standard_normal((40, 3))
        with pytest.raises(InvalidParameterError, match=r"\|\|b\|\|_F\^2 overflows"):
            exact_lstsq(a, 1e307 * rng.standard_normal((40, 3)))

    def test_overflowing_solution_is_rejected(self):
        rng = np.random.default_rng(34)
        a = 1e-300 * rng.standard_normal((40, 3))
        with pytest.raises(InvalidParameterError, match="x_opt or the residual overflows"):
            exact_lstsq(a, 1e10 * rng.standard_normal((40, 2)))

    def test_huge_a_still_solves(self):
        # The QR does not depend on scale: A near 1e307 solves like A.
        rng = np.random.default_rng(35)
        a = rng.standard_normal((40, 3))
        b = rng.standard_normal((40, 2))
        ref = exact_lstsq(a, b)
        sol = exact_lstsq(1e307 * a, b)
        assert sol.residual_sq == pytest.approx(ref.residual_sq, rel=1e-12)
        np.testing.assert_allclose(1e307 * sol.x_opt, ref.x_opt, rtol=1e-10)
        np.testing.assert_allclose(sol.basis.q, ref.basis.q, atol=1e-12)

    def test_basis_and_spectrum_match_independent_paths(self):
        # The basis and spectrum come from the solve's own QR; the leverage
        # scores of a separate factorization and the full SVD of a must agree.
        rng = np.random.default_rng(10)
        for scale in (1.0, 1e-3, 1e4):
            a = rng.standard_normal((60, 4)) * np.array([1.0, 10.0, 0.1, scale])
            sol = exact_lstsq(a, rng.standard_normal((60, 2)))
            q = sol.basis.q
            np.testing.assert_allclose(
                np.einsum("ij,ij->i", q, q), leverage_scores(a).scores, rtol=1e-12
            )
            ref = spectral_extremes(a)
            for got, want in ((sol.spectral.sigma_min, ref.sigma_min),
                              (sol.spectral.sigma_max, ref.sigma_max),
                              (sol.spectral.kappa, ref.kappa)):
                assert got == pytest.approx(want, rel=1e-12)


def reference_lstsq(a, b):
    """The solve as built on ``np.linalg.qr``, with its q in the column-major
    layout LAPACK writes (numpy returns a row-major copy)."""
    q, r = np.linalg.qr(a)
    q = np.asfortranarray(q)
    qtb = q.T @ b
    bp = b - q @ qtb
    return q, r, np.linalg.solve(r, qtb), bp, fro_norm_sq(bp)


def reference_rank_error(a):
    """The rank-deficiency text for the singular values of numpy's r."""
    sv = np.linalg.svd(np.linalg.qr(a)[1], compute_uv=False)
    ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
    return f"matrix is rank deficient (sigma_min/sigma_max = {ratio:.3e})"


class TestInPlaceQrOracle:
    """The in-place LAPACK QR against ``np.linalg.qr``, bit for bit."""

    # Tall, blocked (r above LAPACK's 128-column crossover), square, and
    # single-column shapes.
    SHAPES = [(3000, 6), (300, 3), (600, 150), (7, 7), (40, 1), (1, 1)]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_solve_matches_numpy_qr_bits(self, shape, m, order):
        rng = np.random.default_rng([*shape, m])
        a = np.asarray(rng.standard_normal(shape), order=order)
        for b in (np.asarray(rng.standard_normal((shape[0], m)), order=order),
                  a @ rng.standard_normal((shape[1], m))):  # a consistent system too
            q, r, x, bp, resid = reference_lstsq(a, b)
            sol = exact_lstsq(a, b)
            for got, want in ((sol.basis.q, q), (sol.r_factor, r), (sol.x_opt, x),
                              (sol.b_perp, bp)):
                np.testing.assert_array_equal(got, want, strict=True)
            assert sol.residual_sq == resid
            np.testing.assert_array_equal(orthonormal_basis(a).q, q, strict=True)

    # Row counts on and around the slab boundaries of the column-major copy.
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, r", [
        (n, r) for n in (1, SLAB_ROWS - 1, SLAB_ROWS, SLAB_ROWS + 1, 3 * SLAB_ROWS + 7)
        for r in (1, 5, 40) if n >= r])
    def test_slab_filled_copy_matches_numpy_qr_bits(self, n, r, order):
        rng = np.random.default_rng([n, r])
        a = np.asarray(rng.standard_normal((n, r)), order=order)
        q, r_fac, sv = _qr_full_rank(a)
        q_want, r_want = np.linalg.qr(a)
        np.testing.assert_array_equal(q, np.asfortranarray(q_want), strict=True)
        np.testing.assert_array_equal(r_fac, r_want, strict=True)
        np.testing.assert_array_equal(sv, np.linalg.svd(r_want, compute_uv=False), strict=True)
        assert q.flags.f_contiguous

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(31)
        for order in ("C", "F"):
            a = np.asarray(rng.standard_normal((50, 4)), order=order)
            b = np.asarray(rng.standard_normal((50, 2)), order=order)
            a0, b0 = a.copy(), b.copy()
            exact_lstsq(a, b)
            orthonormal_basis(a)
            np.testing.assert_array_equal(a, a0, strict=True)
            np.testing.assert_array_equal(b, b0, strict=True)
        m = DenseMatrix(a0.copy())
        exact_lstsq(m, b0)
        np.testing.assert_array_equal(m.array, a0, strict=True)

    def test_factors_are_column_major_and_read_only(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((60, 3))
        sol = exact_lstsq(a, rng.standard_normal((60, 2)))
        for m in (sol.basis.q, orthonormal_basis(a).q, sol.r_factor, sol.x_opt, sol.b_perp):
            assert not m.flags.writeable
        # q keeps LAPACK's layout; r_factor and x_opt keep theirs because the
        # bits of r_factor @ x_opt follow them.  b_perp has no promised layout.
        for m in (sol.basis.q, orthonormal_basis(a).q, sol.r_factor, sol.x_opt):
            assert m.flags.f_contiguous

    @pytest.mark.parametrize("a", [
        np.ones((5, 2)),
        np.zeros((4, 3)),
        np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0) + 1e-14, np.ones(6)]),
    ], ids=["repeated", "zero", "near"])
    def test_rank_deficient_text_matches(self, a):
        for call in (orthonormal_basis, lambda x: exact_lstsq(x, np.ones((x.shape[0], 1)))):
            with pytest.raises(RankDeficientError) as info:
                call(a)
            assert str(info.value) == reference_rank_error(a)


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
        x_other = sol.x_opt + 0.1 * rng.standard_normal((r, 1))
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
        assert SpectralSummary(sigma_min=0.5, sigma_max=2.0).kappa == 4.0
        assert SpectralSummary(sigma_min=0.0, sigma_max=2.0).kappa == np.inf
        with pytest.raises(InvalidParameterError):
            SpectralSummary(sigma_min=3.0, sigma_max=2.0)
