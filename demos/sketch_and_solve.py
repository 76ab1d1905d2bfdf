"""
Sketch-and-solve walkthrough
============================

Build a tall least-squares problem, sample a few hundred of its rows by
leverage, solve the small problem, and compare against the exact answer.
"""

import numpy as np

from levsketch import (
    AccuracyTarget,
    ProblemSpec,
    RngStream,
    accuracy_ratio,
    generate_problem,
    leverage_distribution,
    required_samples,
    sketched_lstsq,
)

# a 20000 x 6 Gaussian design with 2 right-hand sides
a, b, meta = generate_problem(
    ProblemSpec("gaussian-incoherent", n_rows=20000, n_cols=6, rhs_cols=2, seed=7)
)
profile = meta["profile"]  # leverage scores from generation's QR
print(f"problem: {a.shape[0]} x {a.shape[1]}, rhs {b.shape[1]}, "
      f"coherence {profile.coherence:.4f}")

exact = meta["exact"]  # generation already solved the problem exactly
print(f"exact residual^2 = {exact.residual_sq:.6f}")

# the guarantee-backed sample count is conservative
target = AccuracyTarget(epsilon=0.1, delta=0.1)
s_formula = required_samples(profile.rank, 1.0, target)
print(f"formula sample count for eps=0.1, delta=0.1: {s_formula}")

# in practice a small multiple of the rank already lands close
dist = leverage_distribution(profile)
for s in (60, 300, 1500):
    sol = sketched_lstsq(a, b, dist, s, RngStream(2024, stream_index=1))
    ratio = accuracy_ratio(a, b, sol.x_tilde, exact)
    print(f"s = {s:5d}: sketched residual^2 on the full problem is "
          f"{ratio:.6f} x the optimum")

# the sketch touches s rows out of 20000; the solve is s x 6 instead of
# 20000 x 6
sol = sketched_lstsq(a, b, dist, 300, RngStream(2024, stream_index=1))
rows_touched = np.unique(sol.plan.draws).size
print(f"rows touched at s = 300: {rows_touched} of {a.shape[0]}")
