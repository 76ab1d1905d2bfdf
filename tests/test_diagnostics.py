"""Structural conditions and the accuracy bounds they certify.

Plans here are often built by hand (explicit draws and weights) so the
sketched quantities have closed forms to compare against.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

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
from levsketch.diagnostics import TrialScorer
from levsketch.experiment import build_distribution
from levsketch.leverage import profile_from_basis


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
        rep = check_structural(identity_plan(40), basis, exact.b_perp, 0.25, exact.residual_sq)
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
            identity_plan(40, w_lo), basis, exact.b_perp, 0.25, exact.residual_sq
        )
        rep_hi = check_structural(
            identity_plan(40, w_hi), basis, exact.b_perp, 0.25, exact.residual_sq
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
        eps, r2 = 0.5, 4.0  # threshold eps*r2/2 = 1.0
        for c_sq, expected in ((0.99, True), (1.01, False)):
            bp = np.zeros((5, 1))
            bp[0, 0] = math.sqrt(c_sq)
            rep = check_structural(plan, basis, bp, eps, r2)
            assert rep.sc2_value == pytest.approx(c_sq, rel=1e-12)
            assert rep.sc2_holds is expected

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
        rep = check_structural(plan, basis, exact.b_perp, 0.25, exact.residual_sq)
        assert rep.sc1_value == 0.0
        assert not rep.sc1_holds

    def test_epsilon_validated(self):
        a, b = make_problem(4)
        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            check_structural(identity_plan(40), basis, exact.b_perp, 1.5, exact.residual_sq)


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
        srep = check_structural(plan, basis, exact.b_perp, eps, exact.residual_sq)
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
        sr = check_structural(plan, exact.basis, exact.b_perp, cls.EPS, exact.residual_sq)
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
        score = scorer.score(plan)
        out = {**asdict(score.structural), "accuracy_ratio": score.accuracy_ratio,
               "error": score.error}
        if score.bounds is not None:
            out.update(asdict(score.bounds))
        return out

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
                check_structural(plan, exact.basis, exact.b_perp, 0.3, exact.residual_sq)
            with pytest.raises(InvalidParameterError, match="finite"):
                TrialScorer(exact, 0.3).score(plan)

    def test_plan_and_epsilon_validated(self):
        a, b = make_problem(13)
        exact = exact_lstsq(a, b)
        with pytest.raises(InvalidParameterError):
            TrialScorer(exact, 1.0)
        with pytest.raises(DimensionError):
            TrialScorer(exact, 0.3).score(identity_plan(39))
