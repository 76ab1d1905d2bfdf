"""Exact success and structural-condition rates by enumeration.

At tiny ``n`` every multiset of ``s`` draws can be listed with its
multinomial probability ``s! / prod(c_i!) * prod(p_i ** c_i)``.  Each
multiset is scored by the slow oracles (:func:`check_structural`,
:func:`solve_with_plan`, :func:`accuracy_ratio`, :func:`check_bounds`) on a
plan that repeats each row by its count, which gives the exact probability
of success, of SC1 and of SC2.  The seeded harness, which scores through
the chunked scorer, must land within 4 standard errors of each, and no
multiset of positive probability may violate the structural implication.
Every multiset and every harness trial with a solve must also keep the
proof's inner inequality ``ratio - 1 <= sc2 / (sc1**2 * residual_sq)``.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from levsketch import (
    AccuracyTarget,
    ProblemSpec,
    SketchPlan,
    SketchRankDeficientError,
    TrialConfig,
    accuracy_ratio,
    check_bounds,
    check_structural,
    run_experiment,
    solve_with_plan,
)
from levsketch.experiment import set_up_run

EPSILON = 0.5
HARNESS_TRIALS = 20000


def exact_rates(cfg):
    """``(total probability, P(success), P(SC1), P(SC2), P(violation),
    solved)`` over every multiset of ``s`` draws of the config's set-up;
    ``solved`` holds the accuracy ratio, SC1 and SC2 values of each multiset
    with a solve."""
    a, b, exact, dist, _, s = set_up_run(cfg)
    p = dist.probs
    support = np.flatnonzero(p > 0.0)
    total = success = sc1 = sc2 = violation = 0.0
    solved = []
    for multiset in combinations_with_replacement(support.tolist(), s):
        rows, counts = np.unique(multiset, return_counts=True)
        prob = (math.factorial(s) / math.prod(math.factorial(c) for c in counts.tolist())
                * math.prod(p[i] ** c for i, c in zip(rows.tolist(), counts.tolist())))
        draws = np.repeat(rows, counts)
        plan = SketchPlan(source=dist, draws=draws, weights=1.0 / np.sqrt(s * p[draws]))
        structural = check_structural(plan, exact, EPSILON)
        try:
            x_tilde = solve_with_plan(a, b, plan).x_tilde
        except SketchRankDeficientError:
            accurate = bounds_hold = False
        else:
            ratio = accuracy_ratio(a, b, x_tilde, exact)
            solved.append((ratio, structural.sc1_value, structural.sc2_value))
            accurate = ratio <= 1.0 + EPSILON
            bounds = check_bounds(a, b, x_tilde, exact, EPSILON)
            bounds_hold = bounds.residual_bound_holds and bounds.solution_bound_holds
        total += prob
        success += prob * accurate
        sc1 += prob * structural.sc1_holds
        sc2 += prob * structural.sc2_holds
        violation += prob * (structural.sc1_holds and structural.sc2_holds and not bounds_hold)
    return total, success, sc1, sc2, violation, np.array(solved)


def assert_inner_inequality(ratio, sc1_value, sc2_value, residual_sq):
    """``ratio - 1 <= sc2 / (sc1**2 * residual_sq)`` wherever ``sc1 > 0``.  The
    bound is nearly tight (measured (ratio - 1) / bound up to 0.99993), so it
    allows only rounding: 1e-9 relative and a few ulps of the ratio."""
    keep = sc1_value > 0.0
    assert keep.any()
    excess = ratio[keep] - 1.0
    bound = sc2_value[keep] / (sc1_value[keep] ** 2 * residual_sq)
    worst = np.argmax(excess - bound)
    assert np.all(excess <= bound * (1.0 + 1e-9) + 4.0 * np.finfo(float).eps), (
        excess[worst], bound[worst])


def spiked(n_rows, seed):
    return ProblemSpec("spiked-coherent", n_rows, 2, rhs_cols=2, coherence_target=0.8,
                       seed=seed)


@pytest.mark.parametrize("problem, dist, s", [
    pytest.param(spiked(8, 3), "leverage", 5, id="spiked-leverage"),
    pytest.param(spiked(8, 3), "uniform", 5, id="spiked-uniform"),
    pytest.param(spiked(10, 4), "blended:0.5", 6, id="spiked-blended"),
    pytest.param(ProblemSpec("consistent", 8, 2, rhs_cols=2, seed=5), "leverage", 4,
                 id="consistent-leverage"),
])
def test_harness_rates_match_the_enumerated_rates(problem, dist, s):
    cfg = TrialConfig(problem=problem, distribution=dist, sample_rule=str(s),
                      target=AccuracyTarget(EPSILON, 0.5), n_trials=HARNESS_TRIALS,
                      master_seed=2718)
    total, success, sc1, sc2, violation, solved = exact_rates(cfg)
    assert abs(total - 1.0) <= 1e-12
    assert violation == 0.0
    report = run_experiment(cfg)
    assert report.s == s and report.implication_violations == 0
    for name, want, got in (("success", success, report.success_rate),
                            ("sc1", sc1, report.sc1_rate), ("sc2", sc2, report.sc2_rate)):
        # An exact rate of 1 sums to within rounding of it, the 1e-12 above.
        se = math.sqrt(max(want * (1.0 - want), 0.0) / HARNESS_TRIALS)
        assert abs(got - want) <= 4.0 * se + 1e-12, (name, want, got, se)
    if problem.kind != "consistent":  # a zero residual leaves the bound undefined
        residual_sq = set_up_run(cfg)[2].residual_sq
        assert_inner_inequality(*solved.T, residual_sq)
        scores = report.scores
        ok = scores.error == ""
        assert_inner_inequality(scores.accuracy_ratio[ok], scores.sc1_value[ok],
                                scores.sc2_value[ok], residual_sq)
