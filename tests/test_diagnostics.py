"""Structural conditions and the accuracy bounds they certify.

Plans here are often built by hand (explicit draws and weights) so the
sketched quantities have closed forms to compare against.
"""

import importlib
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    SC1_THRESHOLD,
    AccuracyTarget,
    DimensionError,
    InvalidParameterError,
    ProblemSpec,
    RngStream,
    SketchPlan,
    SketchRankDeficientError,
    accuracy_ratio,
    build_sketch,
    check_bounds,
    check_structural,
    exact_lstsq,
    fro_norm_sq,
    generate_problem,
    leverage_distribution,
    leverage_scores,
    orthonormal_basis,
    sketched_lstsq,
    solve_with_plan,
    spectral_extremes,
    uniform_distribution,
    write_matrix,
)
from levsketch.diagnostics import GRAM_FLOOR, BoundReport, ChunkScores, TrialScorer
from levsketch.experiment import build_distribution
from levsketch.leverage import SamplingDistribution, profile_from_basis
from levsketch.linalg import SLAB_ROWS
from levsketch.sketch import SketchChunk, TrialStreams, draw_chunk


def identity_plan(n, weight=1.0):
    """Plan that keeps every row once, scaled by a constant weight."""
    return SketchPlan(
        source=uniform_distribution(n),
        draws=np.arange(n),
        weights=np.full(n, weight),
    )


def one_sketch_chunk(plan):
    """A plan as the one-sketch chunk the scorer takes: its distinct rows,
    ascending, with the sums of their squared weights."""
    rows, inverse = np.unique(plan.draws, return_inverse=True)
    # A weight past ~1e154 squares to inf; score_chunk rejects that.
    with np.errstate(over="ignore"):
        weight_sq_sums = np.bincount(inverse, weights=plan.weights * plan.weights,
                                     minlength=rows.size)
    return SketchChunk(plan.n_source_rows, plan.n_samples, rows, weight_sq_sums,
                       np.array([0, rows.size]))


def make_problem(seed, n=40, r=3, m=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((n, m))
    return a, b


class TestCheckStructural:
    def test_identity_sketch_satisfies_both(self):
        a, b = make_problem(1)
        rep = check_structural(identity_plan(40), exact_lstsq(a, b), 0.25)
        assert rep.sc1_value == pytest.approx(1.0, abs=1e-12)
        assert rep.sc1_holds
        assert rep.sc2_value == pytest.approx(0.0, abs=1e-18)
        assert rep.sc2_holds

    def test_sc1_threshold_edges(self):
        # scaling every weight by w turns sigma_min(SQ)^2 into w^2
        a, b = make_problem(2)
        exact = exact_lstsq(a, b)
        w_lo = math.sqrt(0.70)  # 0.70 < 1/sqrt(2) = 0.7071...
        w_hi = math.sqrt(0.72)
        rep_lo = check_structural(identity_plan(40, w_lo), exact, 0.25)
        rep_hi = check_structural(identity_plan(40, w_hi), exact, 0.25)
        assert rep_lo.sc1_value == pytest.approx(0.70, rel=1e-12)
        assert not rep_lo.sc1_holds
        assert rep_hi.sc1_holds
        assert SC1_THRESHOLD == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    @staticmethod
    def two_row_solve(fit, d):
        """The exact solve of ``a = [1, 1]^T``, ``b = [fit + d, fit - d]^T``:
        ``q = [1, 1]^T / sqrt(2)``, ``b_perp = [d, -d]^T``, ``residual_sq =
        2 d^2`` and ``||b||^2 = 2 fit^2 + 2 d^2``.  Drawing row 0 alone with
        weight ``w`` gives the cross term ``(w^2 d / sqrt(2))^2 = w^4 d^2 / 2``."""
        return exact_lstsq(np.ones((2, 1)), np.array([[fit + d], [fit - d]]))

    @staticmethod
    def row_zero_plan(w):
        return SketchPlan(uniform_distribution(2), np.array([0]), np.array([w]))

    def test_sc2_threshold_edges(self):
        # d = 1 and eps = 0.5 put the threshold eps * residual_sq / 2 at 0.5,
        # so the cross term w^4 / 2 crosses it at w^4 = 1.
        exact = self.two_row_solve(0.0, 1.0)
        for c, expected in ((0.99, True), (1.01, False)):
            rep = check_structural(self.row_zero_plan(c**0.25), exact, 0.5)
            assert rep.sc2_value == pytest.approx(c / 2, rel=1e-12)
            assert rep.sc2_holds is expected

    def test_sc2_noise_floor(self):
        # A residual of 1e-20 against ||b||^2 = 1 is rounding noise: the
        # cross term (w^4 = 4: also 1e-20, four times eps*r2/2) is under the
        # noise floor 1e-18 * ||b||^2, so SC2 holds; with no fitted part,
        # ||b||^2 = r2, it does not.
        d = math.sqrt(0.5e-20)
        plan = self.row_zero_plan(math.sqrt(2.0))
        assert check_structural(plan, self.two_row_solve(math.sqrt(0.5), d), 0.5).sc2_holds
        assert not check_structural(plan, self.two_row_solve(0.0, d), 0.5).sc2_holds

    def test_undersampled_plan_has_zero_sc1(self):
        a, b = make_problem(3, n=20, r=4)
        plan = SketchPlan(
            source=uniform_distribution(20),
            draws=np.array([0, 1]),
            weights=np.ones(2),
        )
        rep = check_structural(plan, exact_lstsq(a, b), 0.25)
        assert rep.sc1_value == 0.0
        assert not rep.sc1_holds

    def test_epsilon_validated(self):
        a, b = make_problem(4)
        with pytest.raises(InvalidParameterError):
            check_structural(identity_plan(40), exact_lstsq(a, b), 1.5)


class TestCheckBounds:
    def test_exact_candidate_passes_everything(self):
        a, b = make_problem(5)
        exact = exact_lstsq(a, b)
        rep = check_bounds(a, b, exact.x_opt, exact, 0.2)
        assert rep.residual_bound_holds
        assert rep.solution_err_sq == pytest.approx(0.0, abs=1e-18)
        assert rep.solution_bound_holds
        assert rep.gamma_bound_holds
        assert 0.0 < rep.gamma <= 1.0 + 1e-12

    def test_far_candidate_fails(self):
        a, b = make_problem(6)
        exact = exact_lstsq(a, b)
        rep = check_bounds(a, b, exact.x_opt + 100.0, exact, 0.2)
        assert not rep.residual_bound_holds
        assert not rep.solution_bound_holds

    def test_nonfinite_candidate_rejected(self):
        a, b = make_problem(6)
        exact = exact_lstsq(a, b)
        bad = np.array(exact.x_opt)
        bad[0, 0] = np.inf
        with pytest.raises(InvalidParameterError, match="finite"):
            check_bounds(a, b, bad, exact, 0.2)

    def test_solution_limit_formula(self):
        a, b = make_problem(7)
        exact = exact_lstsq(a, b)
        eps = 0.3
        rep = check_bounds(a, b, exact.x_opt, exact, eps)
        sigma_min = spectral_extremes(a).sigma_min
        assert rep.solution_bound_limit == pytest.approx(
            eps * exact.residual_sq / sigma_min**2, rel=1e-12
        )

    def test_gamma_matches_projection_oracle(self):
        a, b = make_problem(8)
        exact = exact_lstsq(a, b)
        q = orthonormal_basis(a).q
        gamma_oracle = np.linalg.norm(q @ (q.T @ b)) / np.linalg.norm(b)
        rep = check_bounds(a, b, exact.x_opt, exact, 0.2)
        assert rep.gamma == pytest.approx(float(gamma_oracle), rel=1e-10)

    def test_consistent_system_has_gamma_one(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 3))
        b = a @ rng.standard_normal((3, 1))
        exact = exact_lstsq(a, b)
        rep = check_bounds(a, b, exact.x_opt, exact, 0.2)
        assert rep.gamma == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_rhs_vacuous_gamma_bound(self):
        # b lives entirely outside col(a): x_opt = 0, gamma degenerates
        a = np.eye(5)[:, :2]
        b = np.zeros((5, 1))
        b[4, 0] = 3.0
        exact = exact_lstsq(a, b)
        rep = check_bounds(a, b, exact.x_opt, exact, 0.2)
        assert rep.gamma_bound_limit == math.inf
        assert rep.gamma_bound_holds
        assert rep.gamma > 0.0

    def test_epsilon_validated(self):
        a, b = make_problem(11)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            check_bounds(a, b, exact.x_opt, exact, 0.0)


    @pytest.mark.parametrize("mangle, message", [
        pytest.param(lambda b, x: (b, x[:, :1]), r"x has shape \(3, 1\), expected \(3, 2\)",
                     id="one-column-x"),
        pytest.param(lambda b, x: (b[:1], x), "row counts differ: a has 200, b has 1",
                     id="one-row-b"),
    ])
    def test_shape_mismatch_rejected(self, mangle, message):
        a, b = make_problem(24, n=200, r=3, m=2)
        exact = exact_lstsq(a, b)
        bb, x = mangle(b, exact.x_opt)
        with pytest.raises(DimensionError, match=f"^{message}$"):
            check_bounds(a, bb, x, exact, 0.2)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.25, math.nan, math.inf])
@pytest.mark.parametrize("site", ["AccuracyTarget.epsilon", "AccuracyTarget.delta",
                                  "TrialScorer", "check_structural", "check_bounds"])
def test_open_interval_messages(site, bad):
    """Every epsilon/delta check in (0, 1) raises with the same text."""
    a, b = make_problem(25)
    exact = exact_lstsq(a, b)
    name = "delta" if site.endswith("delta") else "epsilon"
    call = {
        "AccuracyTarget.epsilon": lambda: AccuracyTarget(bad, 0.5),
        "AccuracyTarget.delta": lambda: AccuracyTarget(0.5, bad),
        "TrialScorer": lambda: TrialScorer(exact, bad),
        "check_structural": lambda: check_structural(identity_plan(40), exact, bad),
        "check_bounds": lambda: check_bounds(a, b, exact.x_opt, exact, bad),
    }[site]
    with pytest.raises(InvalidParameterError) as exc_info:
        call()
    assert str(exc_info.value) == f"{name} must be a finite real number in (0, 1), got {bad}"


@pytest.mark.parametrize("module, check", [
    pytest.param("solver", lambda a, b, exact, x: accuracy_ratio(a, b, x, exact),
                 id="accuracy_ratio"),
    pytest.param("diagnostics", lambda a, b, exact, x: check_bounds(a, b, x, exact, 0.2),
                 id="check_bounds"),
])
def test_b_norm_comes_from_the_exact_solve(module, check, monkeypatch):
    # ||b||^2 is computed once per problem, by exact_lstsq: the checks read
    # exact.b_norm_sq and never pass b to fro_norm_sq again.
    a, b = make_problem(8)
    exact = exact_lstsq(a, b)
    x = sketched_lstsq(a, b, uniform_distribution(40), 20, RngStream(8)).x_tilde
    want = check(a, b, exact, x)
    seen = []
    mod = importlib.import_module(f"levsketch.{module}")
    original = mod.fro_norm_sq

    def recording(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(mod, "fro_norm_sq", recording)
    assert check(a, b, exact, x) == want
    assert seen and not any(np.shares_memory(m, b) for m in seen)


def test_structural_conditions_imply_bounds_small_sweep():
    """Whenever both structural conditions hold, both accuracy bounds must
    hold as well; 300 random trials, no exceptions tolerated."""
    rng = np.random.default_rng(424242)
    a = rng.standard_normal((300, 4))
    b = a @ rng.standard_normal((4, 2)) + 0.7 * rng.standard_normal((300, 2))
    exact = exact_lstsq(a, b)
    p = leverage_distribution(leverage_scores(a))
    eps = 0.3
    checked = 0
    for t in range(300):
        plan = build_sketch(p, 64, RngStream(606060, t + 1))
        srep = check_structural(plan, exact, eps)
        if not (srep.sc1_holds and srep.sc2_holds):
            continue
        brep = check_bounds(a, b, solve_with_plan(a, b, plan).x_tilde, exact, eps)
        assert brep.residual_bound_holds, f"trial {t}: residual bound broke"
        assert brep.solution_bound_holds, f"trial {t}: solution bound broke"
        checked += 1
    assert checked > 50  # the conditions hold often enough to mean something


class TestTrialScorerAgainstOracle:
    """The Q-coordinate kernel must reproduce the oracle path on (a, b):
    solve_with_plan + accuracy_ratio + check_structural + check_bounds."""

    EPS = 0.3
    # Columns at the scale of the exact residual; on a consistent system
    # they are rounding noise on both paths.
    RESIDUAL_SCALE = {"sc2_value", "solution_err_sq", "solution_bound_limit",
                      "gamma_bound_limit"}

    @staticmethod
    def problem(kind, tmp_path):
        if kind == "custom-file":
            a, b, _ = generate_problem(ProblemSpec("gaussian-incoherent", 80, 4, rhs_cols=2,
                                                   seed=6101))
            write_matrix(tmp_path / "a.mtx", a)
            write_matrix(tmp_path / "b.mtx", b)
            spec = ProblemSpec(kind, a_path=str(tmp_path / "a.mtx"),
                               b_path=str(tmp_path / "b.mtx"))
        else:
            spec = ProblemSpec(kind, 80, 4, rhs_cols=2, noise_scale=0.8,
                               coherence_target=0.9 if kind == "spiked-coherent" else 0.0,
                               seed=6100)
        a, b, _ = generate_problem(spec)
        return a, b

    @staticmethod
    def plans(dist, rank, seed):
        """A drawn plan and hand-built ones: duplicate draws, s = r, one row
        drawn r times and r - 1 rows with one drawn twice (rank loss), and
        s < r."""
        rng = np.random.default_rng(seed)
        n = dist.n_rows

        def plan(draws):
            draws = np.asarray(draws)
            weights = 1.0 / np.sqrt(draws.size * dist.probs[draws])
            return SketchPlan(dist, draws, weights)

        some = rng.choice(n, size=3 * rank, replace=False)
        return {
            "drawn": build_sketch(dist, 6 * rank, RngStream(seed, 1)),
            "duplicates": plan(np.concatenate([some, some[:rank], some[:2]])),
            "s=r": plan(some[:rank]),
            "one row r times": plan(np.full(rank, some[0])),
            "r-1 rows, one twice": plan(np.concatenate([some[: rank - 1], some[:1]])),
            "s<r": plan(some[: rank - 1]),
        }

    @classmethod
    def oracle(cls, a, b, exact, plan):
        sr = check_structural(plan, exact, cls.EPS)
        out = {**asdict(sr), "accuracy_ratio": float("inf"), "eps_accurate": False, "error": ""}
        try:
            sol = solve_with_plan(a, b, plan)
        except SketchRankDeficientError as exc:
            out["error"] = f"sketch rank deficient: {exc}"
            return out
        out["accuracy_ratio"] = accuracy_ratio(a, b, sol.x_tilde, exact)
        out["eps_accurate"] = out["accuracy_ratio"] <= 1.0 + cls.EPS
        out.update(asdict(check_bounds(a, b, sol.x_tilde, exact, cls.EPS)))
        return out

    @staticmethod
    def kernel(scorer, plan):
        return score_fields(scorer.score_chunk(one_sketch_chunk(plan)))

    @pytest.mark.parametrize("dist_spec", ["leverage", "uniform", "blended:0.5"])
    @pytest.mark.parametrize("kind", ["gaussian-incoherent", "spiked-coherent", "consistent",
                                      "custom-file"])
    def test_kernel_equals_oracle(self, kind, dist_spec, tmp_path):
        a, b = self.problem(kind, tmp_path)
        exact = exact_lstsq(a, b)
        dist, _ = build_distribution(dist_spec, profile_from_basis(exact.basis))
        scorer = TrialScorer(exact, self.EPS)
        zero_residual = exact.residual_sq <= 1e-18 * fro_norm_sq(b)
        assert zero_residual == (kind == "consistent")
        errors = {}
        for name, plan in self.plans(dist, a.shape[1], seed=6200).items():
            want = self.oracle(a, b, exact, plan)
            got = self.kernel(scorer, plan)
            assert got.keys() == want.keys(), name
            for key, w in want.items():
                g = got[key]
                if isinstance(w, (bool, str)):
                    assert g == w, f"{name}: {key} {g!r} != {w!r}"
                elif not (zero_residual and key in self.RESIDUAL_SCALE):
                    # sc1 of a rank-lost sketch is a singular value at rounding level
                    assert math.isclose(g, w, rel_tol=1e-10, abs_tol=1e-20), (
                        f"{name}: {key} {g!r} != {w!r}")
            errors[name] = got["error"]
        assert errors["drawn"] == errors["duplicates"] == errors["s=r"] == ""
        assert errors["one row r times"] == (
            "sketch rank deficient: sketch lost rank (1 < 4); caller decides whether to resample")
        assert errors["r-1 rows, one twice"] == (
            "sketch rank deficient: sketch lost rank (3 < 4); caller decides whether to resample")
        assert errors["s<r"] == "sketch rank deficient: 3 samples cannot cover rank 4"

    def test_non_finite_gather_rejected_like_the_oracle(self):
        a, b = make_problem(12)
        exact = exact_lstsq(a, b)
        k = int(np.argmax(np.abs(exact.b_perp[:, 0])))
        plan = SketchPlan(uniform_distribution(40), np.array([k, 0, 1]),
                          np.array([1e308, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidParameterError, match="finite"):
                check_structural(plan, exact, 0.3)
            with pytest.raises(InvalidParameterError, match="finite"):
                TrialScorer(exact, 0.3).score_chunk(one_sketch_chunk(plan))

    @pytest.mark.parametrize("b_order", ["C", "F"])
    @pytest.mark.parametrize("n", [5, SLAB_ROWS, 3 * SLAB_ROWS + 7])
    def test_block_is_the_concatenation_bit_for_bit(self, n, b_order):
        a, b = make_problem(n, n=n, r=5, m=2)
        exact = exact_lstsq(a, np.asarray(b, order=b_order))
        block = TrialScorer(exact, self.EPS)._block
        want = np.concatenate((exact.basis.q, exact.b_perp), axis=1)
        np.testing.assert_array_equal(block, want, strict=True)
        assert block.flags.c_contiguous

    def test_plan_and_epsilon_validated(self):
        a, b = make_problem(13)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            TrialScorer(exact, 1.0)
        with pytest.raises(DimensionError):
            TrialScorer(exact, 0.3).score_chunk(one_sketch_chunk(identity_plan(39)))


#: The ChunkScores columns of the bound check, named as its BoundReport fields;
#: a failed sketch holds failure entries in them, and the oracle has none.
BOUND_COLUMNS = [f.name for f in fields(BoundReport)]


def score_fields(scores, k=0):
    """Sketch ``k`` of a ChunkScores as the oracle's dict of fields: the
    bound columns only when it has no error, and otherwise after checking
    that they hold the failure entries (nan values, false verdicts)."""
    row = {name: column.tolist()[k] for name, column in zip(ChunkScores._fields, scores)}
    if row["error"]:
        for name in BOUND_COLUMNS:
            assert (math.isnan(row[name]) if isinstance(row[name], float)
                    else row[name] is False), f"{name} of a failed sketch: {row[name]!r}"
            del row[name]
    return row


def assert_kernel_matches_oracle(got, want, zero_residual=False):
    """The comparison of TestTrialScorerAgainstOracle: booleans and error
    texts equal, floats within 1e-10 relative, except that on a consistent
    system (``zero_residual``) the residual-scale columns are rounding noise
    on both paths and are not compared."""
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        if isinstance(w, (bool, str)):
            assert g == w, f"{key} {g!r} != {w!r}"
        elif not (zero_residual and key in TestTrialScorerAgainstOracle.RESIDUAL_SCALE):
            assert math.isclose(g, w, rel_tol=1e-10, abs_tol=1e-20), f"{key} {g!r} != {w!r}"


class TestGramFloor:
    """The scorer solves the normal equations only for well-conditioned
    sketches (lambda_min > GRAM_FLOOR * lambda_max of the sketched basis's
    Gram matrix); below the floor it runs one lstsq on the plan's distinct
    rows.  Both sides of the floor must reproduce the oracle."""

    N, RANK = 40, 3

    @classmethod
    def plan(cls, t):
        """Every row once plus rows 0 and 1 again; rows 0 .. r-2 keep weight
        1 and the rest get weight t, so as t -> 0 the sketched basis tends
        to rank r - 1 and its Gram condition number grows without bound."""
        draws = np.concatenate([np.arange(cls.N), [0, 1]])
        weights = np.where(draws < cls.RANK - 1, 1.0, t)
        return SketchPlan(uniform_distribution(cls.N), draws, weights)

    @staticmethod
    def eig_ratio(q, plan):
        """Eigenvalue ratio of the Gram matrix the scorer forms from the plan's multiset."""
        chunk = one_sketch_chunk(plan)
        sq = q[chunk.unique_rows] * np.sqrt(chunk.weight_sq_sums)[:, None]
        eigs = np.linalg.eigvalsh(sq.T @ sq)
        return eigs[0] / eigs[-1]

    @classmethod
    def floor_weight(cls, q):
        """The weight t at which the plan's eigenvalue ratio is GRAM_FLOOR."""
        lo, hi = 1e-8, 1.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if cls.eig_ratio(q, cls.plan(mid)) < GRAM_FLOOR:
                lo = mid
            else:
                hi = mid
        return hi

    @pytest.mark.parametrize("side, lstsq_calls", [(1 + 1e-3, 0), (1 - 1e-3, 1)])
    def test_both_sides_of_the_floor_match_the_oracle(self, side, lstsq_calls,
                                                      count_numpy_calls):
        a, b = make_problem(14, n=self.N, r=self.RANK)
        exact = exact_lstsq(a, b)
        q = exact.basis.q
        plan = self.plan(side * self.floor_weight(q))
        assert (self.eig_ratio(q, plan) > GRAM_FLOOR) == (lstsq_calls == 0)
        scorer = TrialScorer(exact, TestTrialScorerAgainstOracle.EPS)
        before = count_numpy_calls(None, names=("lstsq",))
        got = TestTrialScorerAgainstOracle.kernel(scorer, plan)
        # The fallback solves on the N distinct rows, not on the N + 2 draws.
        assert count_numpy_calls(None, names=("lstsq",)) - before == lstsq_calls
        assert count_numpy_calls(self.N, names=("lstsq",)) == lstsq_calls
        want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
        assert got["error"] == "" and not got["sc1_holds"]
        assert_kernel_matches_oracle(got, want)

    def test_sc1_holding_does_not_clear_the_floor(self, count_numpy_calls):
        # Every row once, row 0 weighted 1e3: lambda_min of the Gram matrix
        # stays 1, so SC1 holds, but lambda_max ~ 1.2e5 puts the eigenvalue
        # ratio below the floor, and the scorer falls back to one lstsq.
        a, b = make_problem(14, n=self.N, r=self.RANK)
        exact = exact_lstsq(a, b)
        weights = np.ones(self.N)
        weights[0] = 1e3
        plan = SketchPlan(uniform_distribution(self.N), np.arange(self.N), weights)
        assert self.eig_ratio(exact.basis.q, plan) < GRAM_FLOOR
        scorer = TrialScorer(exact, TestTrialScorerAgainstOracle.EPS)
        got = TestTrialScorerAgainstOracle.kernel(scorer, plan)
        assert count_numpy_calls(self.N, names=("lstsq",)) == 1
        want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
        assert got["error"] == "" and got["sc1_holds"]
        assert_kernel_matches_oracle(got, want)

    def test_squared_weights_that_overflow_are_rejected(self):
        # Each weight is finite, but the scorer works with squared weights,
        # and 1e160 squared overflows: the gathered rows are not finite.
        a, b = make_problem(12)
        exact = exact_lstsq(a, b)
        plan = SketchPlan(uniform_distribution(40), np.array([5, 0, 1]),
                          np.array([1e160, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            assert np.isinf(plan.weights[0] ** 2)
        with pytest.raises(InvalidParameterError, match="finite"):
            TrialScorer(exact, 0.3).score_chunk(one_sketch_chunk(plan))

    def test_gram_overflow_falls_back_to_lstsq(self, count_numpy_calls):
        # Rows scaled by 1e150 are finite, but b_perp at 1e6 makes their Gram
        # entries overflow: the scorer solves on the rows instead.
        a, b = make_problem(12)
        b = b * 1e6
        exact = exact_lstsq(a, b)
        plan = SketchPlan(uniform_distribution(40), np.arange(6), np.full(6, 1e150))
        scorer = TrialScorer(exact, TestTrialScorerAgainstOracle.EPS)
        got = TestTrialScorerAgainstOracle.kernel(scorer, plan)
        assert count_numpy_calls(6, names=("lstsq",)) == 1
        assert got["sc2_value"] == float("inf")
        with np.errstate(over="ignore", invalid="ignore"):
            want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
        assert_kernel_matches_oracle(got, want)


@pytest.mark.parametrize("n_rows", [1, 2, 3, 7, 64, 1000, 19341])
@pytest.mark.parametrize("n_cols", [3, 7, 42])
def test_gram_products_have_the_bits_of_matmul(n_rows, n_cols):
    # The scorer forms each sketch's Gram matrix with np.dot, which releases
    # the GIL around its BLAS call where the matmul operator does not; the
    # reports keep their bytes only while the two agree bit for bit.
    rng = np.random.default_rng(1000 * n_rows + n_cols)
    g = rng.standard_normal((n_rows + 5, n_cols)) * np.exp(rng.normal(0, 10, (n_rows + 5, 1)))
    x = g[2:2 + n_rows]  # a row slice of a C-ordered block, as the scorer takes
    np.testing.assert_array_equal(np.dot(x.T, x).view(np.uint64), (x.T @ x).view(np.uint64))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(["gaussian-incoherent", "spiked-coherent", "consistent"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=2),
    st.sampled_from(["leverage", "uniform", "blended:0.5"]),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.sampled_from([1, 3, None]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_chunks_match_plans_and_the_oracle(kind, r, extra_rows, m, dist_spec, zero_frac,
                                           per_chunk, seed, data):
    """Chunked draws and scores on random small problems: trial t of a chunk
    has the multiset of build_sketch's draws on stream (seed, t + 1) bit for
    bit, and its score matches the (a, b) oracle on that plan."""
    n, n_trials = r + extra_rows, 5
    s = data.draw(st.integers(min_value=1, max_value=3 * n + 1), label="s")
    spec = ProblemSpec(kind, n, r, rhs_cols=m, noise_scale=0.8, seed=seed,
                       coherence_target=max(0.9, r / n) if kind == "spiked-coherent" else 0.0)
    a, b, meta = generate_problem(spec)
    exact = meta["exact"]
    dist, _ = build_distribution(dist_spec, meta["profile"])
    # Zero-probability rows: drop some rows from the distribution, keep one.
    rng = np.random.default_rng(seed)
    probs = np.where(rng.random(n) < zero_frac, 0.0, dist.probs)
    probs[rng.integers(n)] = dist.probs.max()
    p = SamplingDistribution(probs / probs.sum())
    scorer = TrialScorer(exact, TestTrialScorerAgainstOracle.EPS)
    streams = TrialStreams(seed)
    per_chunk = per_chunk or n_trials
    for first in range(0, n_trials, per_chunk):
        chunk = draw_chunk(p, s, streams, range(first + 1, min(first + per_chunk, n_trials) + 1))
        scores = scorer.score_chunk(chunk)
        for k in range(len(chunk.offsets) - 1):
            plan = build_sketch(p, s, RngStream(seed, first + k + 1))
            lo, hi = chunk.offsets[k], chunk.offsets[k + 1]
            rows, counts = np.unique(plan.draws, return_counts=True)
            np.testing.assert_array_equal(chunk.unique_rows[lo:hi], rows)
            np.testing.assert_array_equal(chunk.weight_sq_sums[lo:hi],
                                          counts / (s * p.probs[rows]))
            want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
            assert_kernel_matches_oracle(score_fields(scores, k), want, kind == "consistent")
