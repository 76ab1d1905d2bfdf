"""
The two structural conditions
=============================

A sampled sketch S earns its accuracy guarantee through two checkable
events on the orthonormal basis Q of range(A):

  SC1: the smallest singular value of SQ stays at or above 2^(-1/4),
       so the sketch keeps the column space well conditioned;
  SC2: the cross term ||(SQ)^T S b_perp||_F^2 stays below eps/2 times
       the optimal residual.

Whenever both hold, the sketched solution is (1+eps)-accurate.  This
script measures how often each holds as s grows, and confirms the
implication never breaks.
"""

from levsketch import (
    RngStream,
    build_sketch,
    check_bounds,
    check_structural,
    generate_problem,
    leverage_distribution,
    profile_from_basis,
    ProblemSpec,
    solve_with_plan,
)

a, b, meta = generate_problem(
    ProblemSpec("gaussian-incoherent", 4000, 5, rhs_cols=2, noise_scale=1.0, seed=42)
)
# generation's one QR gives the exact solve, the basis Q and the singular
# values of A
exact = meta["exact"]
basis = exact.basis
dist = leverage_distribution(profile_from_basis(basis))
spectral = exact.spectral
eps = 0.25
trials = 200

print(f"{'s':>6} {'sc1 rate':>9} {'sc2 rate':>9} {'both':>6} {'violations':>11}")
for s in (20, 40, 80, 160, 320):
    sc1_hits = sc2_hits = both = violations = 0
    for t in range(trials):
        plan = build_sketch(dist, s, RngStream(9000 + s, t + 1))
        rep = check_structural(
            plan, basis, exact.b_perp, eps, exact.residual_sq, exact.b_norm_sq
        )
        sc1_hits += rep.sc1_holds
        sc2_hits += rep.sc2_holds
        if rep.sc1_holds and rep.sc2_holds:
            both += 1
            # conditions hold, so the accuracy bounds must too
            sol = solve_with_plan(a, b, plan)
            bounds = check_bounds(a, b, exact, sol, eps, spectral=spectral)
            if not (bounds.residual_bound_holds and bounds.solution_bound_holds):
                violations += 1
    print(f"{s:>6} {sc1_hits / trials:>9.2f} {sc2_hits / trials:>9.2f} "
          f"{both:>6} {violations:>11}")

print("\nviolations stay at zero: the conditions are sufficient, not just "
      "correlated")
