"""Structural conditions and the accuracy bounds they certify.

Plans here are often built by hand (explicit draws and weights) so the
sketched quantities have closed forms to compare against.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import (
    SC1_THRESHOLD,
    DenseMatrix,
    DimensionError,
    InvalidParameterError,
    OrthonormalBasis,
    ProblemSpec,
    RngStream,
    SketchPlan,
    SketchRankDeficientError,
    SketchSolution,
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
    write_matrix,
)
from levsketch.diagnostics import GRAM_FLOOR, TrialScorer
from levsketch.experiment import build_distribution
from levsketch.leverage import SamplingDistribution, profile_from_basis
from levsketch.sketch import draw_chunk


def identity_plan(n, weight=1.0):
    """Plan that keeps every row once, scaled by a constant weight."""
    return SketchPlan(
        n_source_rows=n,
        n_samples=n,
        draws=np.arange(n),
        weights=np.full(n, weight),
        source_probs_digest="hand-built",
    )


def make_problem(seed, n=40, r=3, m=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, r))
    b = rng.standard_normal((n, m))
    return a, b


class TestCheckStructural:
    def test_identity_sketch_satisfies_both(self):
        a, b = make_problem(1)
        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        rep = check_structural(
            identity_plan(40), basis, exact.b_perp, 0.25, exact.residual_sq, exact.b_norm_sq
        )
        assert rep.sc1_value == pytest.approx(1.0, abs=1e-12)
        assert rep.sc1_holds
        assert rep.sc2_value == pytest.approx(0.0, abs=1e-18)
        assert rep.sc2_holds

    def test_sc1_threshold_edges(self):
        # scaling every weight by w turns sigma_min(SQ)^2 into w^2
        a, b = make_problem(2)
        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        w_lo = math.sqrt(0.70)  # 0.70 < 1/sqrt(2) = 0.7071...
        w_hi = math.sqrt(0.72)
        rep_lo = check_structural(
            identity_plan(40, w_lo), basis, exact.b_perp, 0.25, exact.residual_sq,
            exact.b_norm_sq,
        )
        rep_hi = check_structural(
            identity_plan(40, w_hi), basis, exact.b_perp, 0.25, exact.residual_sq,
            exact.b_norm_sq,
        )
        assert rep_lo.sc1_value == pytest.approx(0.70, rel=1e-12)
        assert not rep_lo.sc1_holds
        assert rep_hi.sc1_holds
        assert SC1_THRESHOLD == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_sc2_threshold_edges(self):
        # synthetic basis and residual with a closed-form cross term
        q = DenseMatrix.from_array(np.eye(5)[:, :2])
        basis = OrthonormalBasis(q=q, source_rank=2)
        plan = identity_plan(5)
        eps, r2 = 0.5, 4.0  # threshold eps*r2/2 = 1.0; b is all residual, ||b||^2 = r2
        for c_sq, expected in ((0.99, True), (1.01, False)):
            bp = np.zeros((5, 1))
            bp[0, 0] = math.sqrt(c_sq)
            rep = check_structural(plan, basis, bp, eps, r2, r2)
            assert rep.sc2_value == pytest.approx(c_sq, rel=1e-12)
            assert rep.sc2_holds is expected

    def test_sc2_noise_floor(self):
        # A residual of 1e-20 against ||b||^2 = 1 is rounding noise: the
        # cross term (also 1e-20, four times eps*r2/2) is under the noise
        # floor 1e-18 * ||b||^2, so SC2 holds; at ||b||^2 = r2 it does not.
        q = DenseMatrix.from_array(np.eye(5)[:, :2])
        basis = OrthonormalBasis(q=q, source_rank=2)
        bp = np.zeros((5, 1))
        bp[0, 0] = 1e-10
        r2 = 1e-20
        assert check_structural(identity_plan(5), basis, bp, 0.5, r2, 1.0).sc2_holds
        assert not check_structural(identity_plan(5), basis, bp, 0.5, r2, r2).sc2_holds

    def test_undersampled_plan_has_zero_sc1(self):
        a, b = make_problem(3, n=20, r=4)
        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        plan = SketchPlan(
            n_source_rows=20,
            n_samples=2,
            draws=np.array([0, 1]),
            weights=np.ones(2),
            source_probs_digest="hand-built",
        )
        rep = check_structural(
            plan, basis, exact.b_perp, 0.25, exact.residual_sq, exact.b_norm_sq
        )
        assert rep.sc1_value == 0.0
        assert not rep.sc1_holds

    def test_epsilon_validated(self):
        a, b = make_problem(4)
        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            check_structural(
                identity_plan(40), basis, exact.b_perp, 1.5, exact.residual_sq, exact.b_norm_sq
            )


class TestCheckBounds:
    def test_exact_candidate_passes_everything(self):
        a, b = make_problem(5)
        exact = exact_lstsq(a, b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(40), sketched_residual_sq=exact.residual_sq
        )
        rep = check_bounds(a, b, exact, sol, 0.2)
        assert rep.residual_bound_holds
        assert rep.solution_bound_value == pytest.approx(0.0, abs=1e-18)
        assert rep.solution_bound_holds
        assert rep.gamma_bound_holds
        assert 0.0 < rep.gamma <= 1.0 + 1e-12

    def test_far_candidate_fails(self):
        a, b = make_problem(6)
        exact = exact_lstsq(a, b)
        bad = DenseMatrix.from_array(exact.x_opt.array + 100.0)
        sol = SketchSolution(x_tilde=bad, plan=identity_plan(40), sketched_residual_sq=0.0)
        rep = check_bounds(a, b, exact, sol, 0.2)
        assert not rep.residual_bound_holds
        assert not rep.solution_bound_holds

    def test_solution_limit_formula(self):
        a, b = make_problem(7)
        exact = exact_lstsq(a, b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(40), sketched_residual_sq=exact.residual_sq
        )
        eps = 0.3
        rep = check_bounds(a, b, exact, sol, eps)
        sigma_min = spectral_extremes(a).sigma_min
        assert rep.solution_bound_limit == pytest.approx(
            eps * exact.residual_sq / sigma_min**2, rel=1e-12
        )

    def test_gamma_matches_projection_oracle(self):
        a, b = make_problem(8)
        exact = exact_lstsq(a, b)
        q = orthonormal_basis(a).q.array
        gamma_oracle = np.linalg.norm(q @ (q.T @ b)) / np.linalg.norm(b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(40), sketched_residual_sq=exact.residual_sq
        )
        rep = check_bounds(a, b, exact, sol, 0.2)
        assert rep.gamma == pytest.approx(float(gamma_oracle), rel=1e-10)

    def test_consistent_system_has_gamma_one(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((30, 3))
        b = a @ rng.standard_normal((3, 1))
        exact = exact_lstsq(a, b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(30), sketched_residual_sq=0.0
        )
        rep = check_bounds(a, b, exact, sol, 0.2)
        assert rep.gamma == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_rhs_vacuous_gamma_bound(self):
        # b lives entirely outside col(a): x_opt = 0, gamma degenerates
        a = np.eye(5)[:, :2]
        b = np.zeros((5, 1))
        b[4, 0] = 3.0
        exact = exact_lstsq(a, b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(5), sketched_residual_sq=0.0
        )
        rep = check_bounds(a, b, exact, sol, 0.2)
        assert rep.gamma_bound_limit == math.inf
        assert rep.gamma_bound_holds
        assert rep.gamma > 0.0

    def test_epsilon_validated(self):
        a, b = make_problem(11)
        exact = exact_lstsq(a, b)
        sol = SketchSolution(
            x_tilde=exact.x_opt, plan=identity_plan(40), sketched_residual_sq=0.0
        )
        with pytest.raises(InvalidParameterError):
            check_bounds(a, b, exact, sol, 0.0)


def test_structural_conditions_imply_bounds_small_sweep():
    """Whenever both structural conditions hold, both accuracy bounds must
    hold as well; 300 random trials, no exceptions tolerated."""
    rng = np.random.default_rng(424242)
    a = rng.standard_normal((300, 4))
    b = a @ rng.standard_normal((4, 2)) + 0.7 * rng.standard_normal((300, 2))
    exact = exact_lstsq(a, b)
    basis = orthonormal_basis(a)
    p = leverage_distribution(leverage_scores(a))
    spectral = spectral_extremes(a)
    eps = 0.3
    checked = 0
    for t in range(300):
        plan = build_sketch(p, 64, RngStream(606060, t + 1))
        srep = check_structural(
            plan, basis, exact.b_perp, eps, exact.residual_sq, exact.b_norm_sq
        )
        if not (srep.sc1_holds and srep.sc2_holds):
            continue
        sol = solve_with_plan(a, b, plan)
        brep = check_bounds(a, b, exact, sol, eps, spectral=spectral)
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
    RESIDUAL_SCALE = {"sc2_value", "solution_bound_value", "solution_bound_limit",
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
            return SketchPlan(n, draws.size, draws, weights, dist.digest)

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
        sr = check_structural(
            plan, exact.basis, exact.b_perp, cls.EPS, exact.residual_sq, exact.b_norm_sq
        )
        out = {**asdict(sr), "accuracy_ratio": float("inf"), "error": ""}
        try:
            sol = solve_with_plan(a, b, plan)
        except SketchRankDeficientError as exc:
            out["error"] = f"sketch rank deficient: {exc}"
            return out
        out["accuracy_ratio"] = accuracy_ratio(a, b, sol.x_tilde, exact)
        out.update(asdict(check_bounds(a, b, exact, sol, cls.EPS, spectral=exact.spectral)))
        return out

    @staticmethod
    def kernel(scorer, plan):
        return score_fields(scorer.score(plan))

    @pytest.mark.parametrize("dist_spec", ["leverage", "uniform", "blended:0.5"])
    @pytest.mark.parametrize("kind", ["gaussian-incoherent", "spiked-coherent", "consistent",
                                      "custom-file"])
    def test_kernel_equals_oracle(self, kind, dist_spec, tmp_path):
        a, b = self.problem(kind, tmp_path)
        exact = exact_lstsq(a, b)
        dist, _ = build_distribution(dist_spec, profile_from_basis(exact.basis))
        scorer = TrialScorer(exact, self.EPS)
        zero_residual = exact.residual_sq <= 1e-18 * fro_norm_sq(b.array)
        assert zero_residual == (kind == "consistent")
        errors = {}
        for name, plan in self.plans(dist, a.cols, seed=6200).items():
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
        k = int(np.argmax(np.abs(exact.b_perp.array[:, 0])))
        plan = SketchPlan(40, 3, np.array([k, 0, 1]), np.array([1e308, 1.0, 1.0]), "hand-built")
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidParameterError, match="finite"):
                check_structural(
                    plan, exact.basis, exact.b_perp, 0.3, exact.residual_sq, exact.b_norm_sq
                )
            with pytest.raises(InvalidParameterError, match="finite"):
                TrialScorer(exact, 0.3).score(plan)

    def test_plan_and_epsilon_validated(self):
        a, b = make_problem(13)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            TrialScorer(exact, 1.0)
        with pytest.raises(DimensionError):
            TrialScorer(exact, 0.3).score(identity_plan(39))


def score_fields(score):
    """A TrialScore as the oracle's dict of fields."""
    out = {**asdict(score.structural), "accuracy_ratio": score.accuracy_ratio,
           "error": score.error}
    if score.bounds is not None:
        out.update(asdict(score.bounds))
    return out


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
        return SketchPlan(cls.N, draws.size, draws, weights, "hand-built")

    @staticmethod
    def eig_ratio(q, plan):
        sq = q[plan.unique_rows] * np.sqrt(plan.weight_sq_sums)[:, None]
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
        q = exact.basis.q.array
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

    def test_squared_weights_that_overflow_are_rejected(self):
        # Each weight is finite, but the scorer works with squared weights,
        # and 1e160 squared overflows: the gathered rows are not finite.
        a, b = make_problem(12)
        exact = exact_lstsq(a, b)
        plan = SketchPlan(40, 3, np.array([5, 0, 1]), np.array([1e160, 1.0, 1.0]), "hand-built")
        assert np.isinf(plan.weight_sq_sums[-1])
        with pytest.raises(InvalidParameterError, match="finite"):
            TrialScorer(exact, 0.3).score(plan)

    def test_gram_overflow_falls_back_to_lstsq(self, count_numpy_calls):
        # Rows scaled by 1e150 are finite, but b_perp at 1e6 makes their Gram
        # entries overflow: the scorer solves on the rows instead.
        a, b = make_problem(12)
        b = b * 1e6
        exact = exact_lstsq(a, b)
        plan = SketchPlan(40, 6, np.arange(6), np.full(6, 1e150), "hand-built")
        scorer = TrialScorer(exact, TestTrialScorerAgainstOracle.EPS)
        got = TestTrialScorerAgainstOracle.kernel(scorer, plan)
        assert count_numpy_calls(6, names=("lstsq",)) == 1
        assert got["sc2_value"] == float("inf")
        with np.errstate(over="ignore", invalid="ignore"):
            want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
        assert_kernel_matches_oracle(got, want)


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
    has the multiset of build_sketch on stream (seed, t + 1) bit for bit,
    and its score matches the (a, b) oracle on that plan."""
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
    streams = [RngStream(seed, t + 1) for t in range(n_trials)]
    per_chunk = per_chunk or n_trials
    for first in range(0, n_trials, per_chunk):
        chunk = draw_chunk(p, s, streams[first:first + per_chunk])
        for k, score in enumerate(scorer.score_chunk(chunk)):
            plan = build_sketch(p, s, RngStream(seed, first + k + 1))
            lo, hi = chunk.offsets[k], chunk.offsets[k + 1]
            np.testing.assert_array_equal(chunk.unique_rows[lo:hi], plan.unique_rows)
            np.testing.assert_array_equal(chunk.weight_sq_sums[lo:hi], plan.weight_sq_sums)
            want = TestTrialScorerAgainstOracle.oracle(a, b, exact, plan)
            assert_kernel_matches_oracle(score_fields(score), want, kind == "consistent")
