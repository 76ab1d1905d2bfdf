"""Acceptance suite: nine numbered criteria, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines on
the terminal.  Every reference value is recomputed here from scratch:
60-digit mpmath arithmetic for the sample-size formula, exact rational
enumeration for the two-row matrix product, hand-built dense sketching
operators, and normal-equations solves.  Nothing below trusts the code
path it is checking.
"""

import math
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np

from levsketch import (
    PRESETS,
    AccuracyTarget,
    ProblemSpec,
    RngStream,
    SAMPLE_SIZE_CONSTANT,
    SamplingDistribution,
    SketchPlan,
    TrialConfig,
    apply_sketch,
    blended_distribution,
    build_sketch,
    check_structural,
    exact_lstsq,
    fro_norm_sq,
    generate_problem,
    leverage_scores,
    multinomial_draws,
    orthonormal_basis,
    required_samples,
    run_experiment,
    sketched_norm_sq,
    write_matrix,
)


def announce(num, name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def dense_operator(plan):
    s_mat = np.zeros((plan.n_samples, plan.n_source_rows))
    for t in range(plan.n_samples):
        s_mat[t, plan.draws[t]] += plan.weights[t]
    return s_mat


def plan_from_draws(draws, s, p):
    """Plan with the canonical weights for given draws; bypasses the RNG."""
    return SketchPlan(
        n_source_rows=p.n_rows,
        n_samples=s,
        draws=np.asarray(draws, dtype=np.int64),
        weights=1.0 / np.sqrt(s * p.probs[np.asarray(draws)]),
        source_probs_digest=p.digest,
    )


def test_c1_leverage_axioms():
    """50 seeded full-rank instances, N <= 2000, r <= 20: scores sum to r
    within 1e-8, lie in [0, 1+1e-12], coherence in [r/N-1e-12, 1+1e-12]."""
    rng = np.random.default_rng(11001)
    worst_sum = worst_lo = worst_hi = 0.0
    for _ in range(50):
        n = int(rng.integers(25, 2001))
        r = int(rng.integers(1, 21))
        profile = leverage_scores(rng.standard_normal((n, r)))
        assert abs(profile.scores.sum() - r) <= 1e-8
        assert profile.scores.min() >= 0.0
        assert profile.scores.max() <= 1.0 + 1e-12
        assert r / n - 1e-12 <= profile.coherence <= 1.0 + 1e-12
        worst_sum = max(worst_sum, abs(profile.scores.sum() - r))
        worst_lo = min(worst_lo, float(profile.scores.min()))
        worst_hi = max(worst_hi, float(profile.scores.max()))
    announce(
        1,
        "leverage axioms",
        True,
        f"50 instances; worst |sum-r|={worst_sum:.2e}, "
        f"score range [{worst_lo:.3g}, {worst_hi:.6g}]",
    )


def test_c2_sketched_norm_unbiased():
    """10 seeded (x, p) pairs with every p_i > 0: the mean of ||Sx||^2 over
    1e5 plans lies within 5 standard errors of ||x||^2."""
    trials = 100_000
    worst_dev = 0.0
    for pair in range(10):
        g = np.random.default_rng(22000 + pair)
        n = int(g.integers(5, 60))
        s = int(g.integers(2, 12))
        x = g.standard_normal(n)
        raw = g.random(n) + 0.05
        p = SamplingDistribution(probs=raw / raw.sum())
        draws = multinomial_draws(p, s * trials, RngStream(23000 + pair)).reshape(
            trials, s
        )
        # ||Sx||^2 for a plan is the mean over its draws of x_i^2 / p_i
        y = x * x / p.probs
        vals = y[draws].mean(axis=1)
        for t in range(50):  # tie the vectorized form to the real API
            assert math.isclose(
                sketched_norm_sq(plan_from_draws(draws[t], s, p), x),
                vals[t],
                rel_tol=1e-12,
            )
        target = float(x @ x)
        se = vals.std(ddof=1) / math.sqrt(trials)
        dev = abs(vals.mean() - target) / se
        assert dev <= 5.0, f"pair {pair}: {dev:.2f} standard errors"
        worst_dev = max(worst_dev, dev)
    announce(
        2,
        "sketched norm unbiased",
        True,
        f"10 pairs x {trials} plans; worst deviation {worst_dev:.2f} of 5 allowed SE",
    )


def test_c3_matmul_variance_bound():
    """5 seeded (a, b) pairs, row-norm sampling blended to analytic beta in
    {1, 0.5, 0.1}, s in {10, 100}: mean squared error over 1e4 trials stays
    under 1.1/(beta*s) * ||a||_F^2 ||b||_F^2.  Plus the two-row case whose
    exact enumeration gives error^2 = 4."""
    trials = 10_000
    worst_ratio = 0.0
    cell = 0
    for pair in range(5):
        g = np.random.default_rng(33000 + pair)
        n = int(g.integers(30, 80))
        a = g.standard_normal((n, 2))
        b = g.standard_normal((n, 3))
        row_norm_sq = (a * a).sum(axis=1)
        q = SamplingDistribution(probs=row_norm_sq / row_norm_sq.sum())
        true = a.T @ b
        bound_scale = fro_norm_sq(a) * fro_norm_sq(b)
        for alpha, beta in ((0.0, 1.0), (0.5, 0.5), (0.9, 0.1)):
            p = blended_distribution(q, alpha)
            a_over_p = a / p.probs[:, None]
            for s in (10, 100):
                cell += 1
                draws = multinomial_draws(p, s * trials, RngStream(34000 + cell))
                draws = draws.reshape(trials, s)
                # (Sa)^T (Sb) = (1/s) sum_t a_d b_d^T / p_d, vectorized
                est = np.einsum("tsi,tsj->tij", a_over_p[draws], b[draws]) / s
                for t in range(5):  # vectorization vs the real operator
                    plan = plan_from_draws(draws[t], s, p)
                    api = apply_sketch(plan, a).array.T @ apply_sketch(plan, b).array
                    np.testing.assert_allclose(api, est[t], rtol=1e-10, atol=1e-12)
                mse = float(((est - true) ** 2).sum(axis=(1, 2)).mean())
                bound = bound_scale / (beta * s)
                ratio = mse / bound
                assert mse <= 1.1 * bound, (
                    f"pair {pair} alpha={alpha} s={s}: mse/bound = {ratio:.3f}"
                )
                worst_ratio = max(worst_ratio, ratio)

    # two-row enumeration: a = [[1],[1]], b = [[1],[-1]], uniform p, s = 1
    half = Fraction(1, 2)
    outcomes = [Fraction(1, 1) / half * 1, Fraction(1, 1) / half * -1]  # +2, -2
    exact_mse = sum(half * (o - 0) ** 2 for o in outcomes)
    exact_bound = (1 / half) * 1 + (1 / half) * 1  # (1/s) sum ||a_k||^2||b_k||^2/p_k
    assert exact_mse == 4 and exact_bound == 4
    p2 = SamplingDistribution(probs=np.array([0.5, 0.5]))
    a2 = np.array([[1.0], [1.0]])
    b2 = np.array([[1.0], [-1.0]])
    for row, expected in ((0, 2.0), (1, -2.0)):
        plan = plan_from_draws([row], 1, p2)
        est = float((apply_sketch(plan, a2).array.T @ apply_sketch(plan, b2).array)[0, 0])
        assert math.isclose(est, expected, rel_tol=1e-12)
    announce(
        3,
        "matmul variance bound",
        True,
        f"30 cells x {trials} trials; worst mse/bound {worst_ratio:.3f} "
        f"(limit 1.1); exact two-row enumeration: error^2 = {exact_mse}",
    )


def test_c4_structural_implication(tmp_path):
    """>= 1000 trials over every problem kind and distribution family: no
    trial where both structural conditions hold but an accuracy bound fails."""
    reports = PRESETS["implication-sweep"].run()
    trials = sum(len(r.records) for r in reports)
    violations = sum(r.implication_violations for r in reports)

    # the sweep covers the three synthetic kinds; add the file-backed one
    a, b, _ = generate_problem(
        ProblemSpec(
            "spiked-coherent", 500, 4, rhs_cols=2, noise_scale=0.6,
            coherence_target=0.85, seed=44001,
        )
    )
    a_path, b_path = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(a_path, a)
    write_matrix(b_path, b)
    file_spec = ProblemSpec("custom-file", a_path=str(a_path), b_path=str(b_path))
    for i, dist in enumerate(("leverage", "uniform", "blended:0.5")):
        rep = run_experiment(
            TrialConfig(
                problem=file_spec,
                distribution=dist,
                sample_rule="xr:6",
                target=AccuracyTarget(0.3, 0.3),
                n_trials=80,
                master_seed=44100 + i,
            )
        )
        trials += len(rep.records)
        violations += rep.implication_violations

    ok = trials >= 1000 and violations == 0
    announce(4, "structural implication", ok, f"trials={trials} violations={violations}")


def test_c5_sc2_markov_rate():
    """Leverage sampling (beta = 1) at the Markov count s = ceil(2r/(delta
    *eps)) = 128: the cross-term condition holds at rate >= 1 - delta minus
    3 standard errors over 400 trials at N = 20000, r = 8."""
    r, delta, eps, n_trials = 8, 0.25, 0.5, 400
    s_markov = math.ceil(2 * r / (1.0 * delta * eps))
    assert s_markov == 128
    report = PRESETS["sc2-markov-desk"].run()[0]
    assert report.s == s_markov
    assert report.config.n_trials == n_trials
    threshold = (1 - delta) - 3 * math.sqrt(delta * (1 - delta) / n_trials)
    ok = report.sc2_rate >= threshold
    announce(
        5,
        "sc2 rate at Markov count",
        ok,
        f"s={report.s}, sc2_rate={report.sc2_rate:.4f}, threshold={threshold:.4f}",
    )


def test_c6_main_theorem_desk():
    """Formula-sized leverage sketch on N = 50000, r = 5, eps = 0.1, delta
    = 0.2: epsilon-accuracy rate >= 0.8 over 200 trials, zero implication
    violations."""
    report = PRESETS["main-theorem-desk"].run()[0]
    assert report.s == 27016  # cross-checked against mpmath in criterion 7
    assert report.beta == 1.0
    ok = report.success_rate >= 0.8 and report.implication_violations == 0
    announce(
        6,
        "main theorem end to end",
        ok,
        f"s={report.s}, success_rate={report.success_rate:.3f} (floor 0.8), "
        f"violations={report.implication_violations}",
    )


def test_c7_sample_size_arithmetic():
    """The sample-size rule reproduces its worked values exactly, including
    branch selection and the constant C = 144/(1 - 1/sqrt(2))^2, against a
    60-digit mpmath oracle."""
    mp.mp.dps = 60
    c_hp = 144 / (1 - 1 / mp.sqrt(2)) ** 2

    def oracle(r, beta, eps, delta):
        log_branch = c_hp * mp.log(mp.mpf(r) / mp.mpf(delta))
        tail_branch = 1 / (mp.mpf(delta) * mp.mpf(eps))
        return int(mp.ceil((mp.mpf(r) / mp.mpf(beta)) * max(log_branch, tail_branch)))

    assert abs(SAMPLE_SIZE_CONSTANT - float(c_hp)) <= 1e-11

    cases = [
        # (r, beta, eps, delta, expected, binding branch)
        (10, "1", "1e-6", "0.1", 100_000_000, "tail"),
        (10, "1", "0.01", "0.1", 77_302, "log"),
        (5, "1", "0.1", "0.2", 27_016, "log"),
    ]
    for r, beta, eps, delta, expected, branch in cases:
        got = required_samples(r, float(beta), AccuracyTarget(float(eps), float(delta)))
        ref = oracle(r, beta, eps, delta)
        assert got == ref == expected, f"case {(r, beta, eps, delta)}: {got} vs {ref}"
        log_b = c_hp * mp.log(mp.mpf(r) / mp.mpf(delta))
        tail_b = 1 / (mp.mpf(delta) * mp.mpf(eps))
        assert (tail_b > log_b) == (branch == "tail")
    announce(
        7,
        "sample-size arithmetic",
        True,
        f"C={SAMPLE_SIZE_CONSTANT!r}; worked values "
        f"{[c[4] for c in cases]} all match the mpmath oracle",
    )


def test_c8_oracle_equivalence():
    """Dense materializations of 50 random plans (N <= 16) reproduce
    apply_sketch, sketched_norm_sq, and both structural-condition values to
    1e-12; exact_lstsq matches normal equations to 1e-8 relative on 50
    seeded instances."""
    rng = np.random.default_rng(88001)
    worst_plan = 0.0
    for i in range(50):
        n = int(rng.integers(3, 17))
        r = int(rng.integers(1, min(n, 5) + 1))
        a = rng.standard_normal((n, r))
        b = rng.standard_normal((n, 2))
        raw = rng.random(n) + 0.02
        p = SamplingDistribution(probs=raw / raw.sum())
        s = int(rng.integers(r, 3 * n + 1))
        plan = build_sketch(p, s, RngStream(88100 + i))
        s_dense = dense_operator(plan)

        gap = np.max(np.abs(s_dense @ a - apply_sketch(plan, a).array))
        x = rng.standard_normal(n)
        norm_dense = float(np.sum((s_dense @ x) ** 2))
        norm_gap = abs(norm_dense - sketched_norm_sq(plan, x)) / max(1.0, norm_dense)

        basis = orthonormal_basis(a)
        exact = exact_lstsq(a, b)
        rep = check_structural(
            plan, basis, exact.b_perp, 0.3, exact.residual_sq, exact.b_norm_sq
        )
        sq = s_dense @ basis.q.array
        sc1_dense = float(np.linalg.svd(sq, compute_uv=False)[-1]) ** 2
        sc2_dense = float(np.sum((sq.T @ (s_dense @ exact.b_perp.array)) ** 2))
        sc1_gap = abs(sc1_dense - rep.sc1_value) / max(1.0, sc1_dense)
        sc2_gap = abs(sc2_dense - rep.sc2_value) / max(1.0, sc2_dense)

        for name, gap_val in (
            ("apply", gap), ("norm", norm_gap), ("sc1", sc1_gap), ("sc2", sc2_gap),
        ):
            assert gap_val <= 1e-12, f"instance {i}: {name} gap {gap_val:.2e}"
            worst_plan = max(worst_plan, gap_val)

    worst_solve = 0.0
    for i in range(50):
        n = int(rng.integers(10, 200))
        r = int(rng.integers(1, 9))
        a = rng.standard_normal((n, r))
        b = rng.standard_normal((n, 3))
        x_lib = exact_lstsq(a, b).x_opt.array
        x_ne = np.linalg.solve(a.T @ a, a.T @ b)
        rel = np.max(np.abs(x_lib - x_ne)) / max(1.0, np.max(np.abs(x_ne)))
        assert rel <= 1e-8, f"instance {i}: solve gap {rel:.2e}"
        worst_solve = max(worst_solve, rel)

    announce(
        8,
        "oracle equivalence",
        True,
        f"dense-operator worst gap {worst_plan:.2e} (limit 1e-12); "
        f"normal-equations worst gap {worst_solve:.2e} (limit 1e-8)",
    )


def test_c9_cli_reproducibility(tmp_path):
    """A fixed-seed bench run writes byte-identical CSV (wall time aside)
    across thread counts and across repeated runs."""
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "kind = gaussian-incoherent\n"
        "n_rows = 800\n"
        "n_cols = 4\n"
        "rhs_cols = 2\n"
        "problem_seed = 99001\n"
        "samples = xr:10\n"
        "epsilon = 0.3\n"
        "delta = 0.3\n"
        "trials = 30\n"
        "seed = 99002\n"
    )
    bodies = []
    for run_id, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"report{run_id}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "levsketch", "bench", "--config", str(cfg),
             "--out", str(out), "--threads", threads],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_bytes().split(b"\n")
        bodies.append([l for l in lines if not l.startswith(b"# wall_time_s")])
    # header + 30 rows + 8 remaining trailer keys + empty chunk after the
    # final newline
    ok = bodies[0] == bodies[1] == bodies[2] and len(bodies[0]) == 40
    announce(
        9,
        "reproducible CLI reports",
        ok,
        f"3 runs (threads 1/4/1), {len(bodies[0])} comparable lines each, all identical",
    )
