"""End-to-end behavior gates: one test per guaranteed property.

Each test states a complete user-visible guarantee of the package: baseline
payoff values, solver output at reference configurations, exactness of the
quadrature rules, stationarity and fixed-point consistency of solutions,
derivative-kernel correctness, and the exact finite-model measure-change
identities.  Reference constants are asserted at their stated tolerances.

The three baseline totals are exact and are derived in the tests from
closed forms and scipy.integrate.quad, never from the package's own payoff
or affine routines, so the gates do not compare the program with itself
(the comment above each test gives its derivation).  Constants once asserted
in their place (0.418500414352474, 0.958693278839234, 0.403509876415911)
cannot be these totals: the first two lie below the minimum of the affine
cost over all slopes, and the third lies below the two-level pair's stage-1
term alone, 2 k^2 sigma_x^2 (1 - sqrt(2/pi)) = 0.40423088.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from pbpsolve import (
    GridStrategy,
    ProblemParams,
    StrategyPair,
    affine_cost,
    affine_optimal,
    apply_F,
    brute_force_pbp,
    collocation_pair,
    frechet_kernel,
    lipschitz_estimate,
    payoff_equivalence,
    payoff_mc,
    payoff_quadrature,
    picard_iterate,
    profile_count,
    random_model,
    residual_system,
    solve_signaling_levels,
    solved_pair,
    stationarity_residual,
    strategy_from_pair,
    summarize_staircase,
    uniform_profile,
    verify_martingale,
    wit_nonlinear,
)
from pbpsolve.quadrature import build_hermite_rule, integrate
from test_counterexample import wit_cost_by_hand

BENCH = dict(k=0.2, sigma=1.0, sigma_x=5.0)
UNIT = dict(k=1.0, sigma=1.0, sigma_x=1.0)


@pytest.fixture(scope="module")
def rule40():
    return build_hermite_rule(40)


@pytest.fixture(scope="module")
def unit_report(unit_params, rule7):
    return solve_signaling_levels(unit_params, rule7, init="auto", tol=1e-10)


@pytest.fixture(scope="module")
def strong_report(rule7):
    params = ProblemParams(k=5.0, sigma=1.0, sigma_x=1.0)
    return params, solve_signaling_levels(params, rule7, init="affine", tol=1e-10)


# The slope quintic (t - sigma_x)(1 + t^2)^2 + t/k^2 = 0 factors here as
# (t^3 + t - 1)(t^2 - t + 1), so t = lam * sigma_x is the real root of
# t^3 + t - 1 (Cardano), 1 + t^2 = 1/t, and the affine total
# (1 - t)^2 + t^2/(1 + t^2) is (1 - t)(2 - t) = 0.41858782039271, the affine
# minimum: no affine pair costs less.
def test_affine_baseline_total_at_unit_parameters(unit_params, rule20):
    start = time.perf_counter()
    pair = affine_optimal(unit_params)
    payoff = payoff_quadrature(unit_params, pair, rule20, rule20)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    root = math.sqrt(0.25 + 1.0 / 27.0)
    t = float(np.cbrt(0.5 + root) + np.cbrt(0.5 - root))
    assert payoff.total == pytest.approx((1.0 - t) * (2.0 - t), abs=1e-6)


# Both stationary slopes t = lam * sigma_x with t^2 - 5t + 1 = 0 give 1 + t^2 = 5t,
# so the total 0.04 (t - 5)^2 + t^2/(1 + t^2) = 0.04 (24 - 5t) + t/5 is exactly
# 0.96, the affine minimum here; the third real root (of t^3 + t - 5) costs more.
def test_affine_baseline_total_at_the_signaling_benchmark(bench_params, rule20):
    pair = affine_optimal(bench_params)
    payoff = payoff_quadrature(bench_params, pair, rule20, rule20)
    assert payoff.total == pytest.approx(0.96, abs=1e-6)


# The pair is fixed, not optimised: stage 1 is 2 k^2 sigma_x^2 (1 - sqrt(2/pi))
# = 0.40423088 and stage 2 the tanh estimator's error by adaptive quadrature,
# 2.23205e-5.  The total is therefore at least the stage-1 term.
def test_two_level_baseline_totals_at_the_signaling_benchmark(
    bench_params, rule20, rule40
):
    expected = sum(wit_cost_by_hand(bench_params))
    pair = wit_nonlinear(bench_params)
    mc = payoff_mc(bench_params, pair, 600_000, 0)
    assert mc.total == pytest.approx(expected, abs=0.01)
    quad = payoff_quadrature(bench_params, pair, rule40, rule20)
    assert quad.total == pytest.approx(expected, abs=1e-4)


def test_weak_signaling_solve_reduces_to_the_affine_optimum(
    unit_params, unit_report, rule20
):
    assert unit_report.converged
    pair = solved_pair(unit_report)
    solved_total = payoff_quadrature(unit_params, pair, rule20, rule20).total
    lam_aff = affine_optimal(unit_params).lam
    _, affine_total = affine_cost(lam_aff, unit_params)
    assert abs(solved_total - affine_total) < 1e-3
    xs = np.linspace(-3.0, 3.0, 601)
    deviation = np.max(np.abs(np.asarray(pair.gamma1bar(xs)) - lam_aff * xs))
    assert deviation < 1e-2


def test_benchmark_solve_finds_the_seven_signaling_levels(
    bench_params, rule7, rule20, rule40
):
    start = time.perf_counter()
    report = solve_signaling_levels(bench_params, rule7, init="quantizer", tol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert report.converged
    assert report.residual_norm <= 1e-10
    targets = [-19.8, -12.8, -6.15, 0.0, 6.15, 12.8, 19.8]
    got = np.sort(report.levels.levels)
    assert np.max(np.abs(got - np.array(targets))) <= 0.05
    total = payoff_quadrature(
        bench_params, solved_pair(report), rule40, rule20
    ).total
    assert total == pytest.approx(0.171942515824041, abs=1e-9)


def test_residual_norm_and_payoff_at_a_fixed_level_hypothesis(
    bench_params, rule7, rule20, rule40
):
    report = solve_signaling_levels(
        bench_params,
        rule7,
        init=[0.0, 6.5, -6.5, 13.2, -13.2, 19.9, -19.9],
        iterate=False,
    )
    assert report.residual_norm == pytest.approx(0.7, abs=0.05)
    total = payoff_quadrature(
        bench_params, collocation_pair(report.levels), rule40, rule20
    ).total
    assert total == pytest.approx(0.167056043817062, abs=1e-9)


def test_regime_classification_across_a_parameter_sweep(rule7, rule20, rule40):
    regimes = [
        (0.05, 5.0, 2.0, "linear", 0.0100, 0.0100),
        (0.005, 0.01, 2.0, "staircase", 1.007e-4, 1.1298e-5),
        (0.05, 0.04, 2.0, "staircase", 0.0100, 0.0011),
    ]
    for k, sigma, sigma_x, shape, affine_target, solved_target in regimes:
        params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
        _, affine_total = affine_cost(affine_optimal(params).lam, params)
        assert abs(affine_total - affine_target) / affine_target <= 0.05
        report = solve_signaling_levels(params, rule7, init="auto", tol=1e-10)
        assert report.converged
        pair = solved_pair(report)
        summary = summarize_staircase(pair, params)
        assert summary.shape == shape, (k, sigma, sigma_x, summary.shape)
        if shape == "staircase":
            assert summary.steps == 7
        solved_total = payoff_quadrature(params, pair, rule40, rule20).total
        assert abs(solved_total - solved_target) / solved_target <= 0.25


def test_solved_totals_respect_the_closed_form_upper_bound(
    unit_params, unit_report, bench_params, bench_pair, strong_report
):
    cases = [
        (unit_params, solved_pair(unit_report)),
        (bench_params, bench_pair),
        (strong_report[0], solved_pair(strong_report[1])),
    ]
    for params, pair in cases:
        mc = payoff_mc(params, pair, 300_000, 0)
        bound = min(1.0, params.k**2 * params.sigma_x**2) + 3.0 * mc.std_error
        assert mc.total <= bound, (params.k, params.sigma_x, mc.total, bound)


def test_quadrature_integrates_all_low_degree_monomials_exactly():
    for n in range(1, 21):
        rule = build_hermite_rule(n)
        for degree in range(2 * n):
            value = integrate(rule, lambda z: z**degree)
            if degree % 2 == 1:
                assert value == 0.0, (n, degree)
            else:
                half = degree // 2
                exact = math.sqrt(math.pi) * math.prod(
                    range(1, degree, 2)
                ) / 2.0**half
                assert abs(value - exact) / exact <= 1e-10, (n, degree)


def test_stationarity_holds_at_solutions_and_fails_when_perturbed(
    bench_params, bench_atoms, rule7
):
    x0_grid, atoms = bench_atoms
    y1_grid = np.linspace(-25.0, 25.0, 101)
    r1, r2 = stationarity_residual(bench_params, atoms, rule7, x0_grid, y1_grid)
    assert np.max(np.abs(r1)) <= 1e-4
    assert np.max(np.abs(r2)) <= 1e-4
    gamma2 = atoms.gamma2
    shifted = StrategyPair(
        gamma1bar=atoms.gamma1bar,
        gamma2=lambda y: np.asarray(gamma2(y)) + 0.5,
    )
    r1p, r2p = stationarity_residual(bench_params, shifted, rule7, x0_grid, y1_grid)
    assert np.max(np.abs(r1p)) >= 0.1
    assert np.max(np.abs(r2p)) >= 0.1


def test_operator_fixed_point_and_contraction_at_solutions(
    bench_params, bench_atoms, rule7, rule40
):
    # The n-level solution is fixed by F1 at the collocation points and by
    # F2 everywhere.  test_ghq_solver checks the collocation pair itself on
    # this grid against the stationarity condition with an exact c'.
    x0_grid, atoms = bench_atoms
    grid = np.union1d(np.linspace(-30.0, 30.0, 2**18 + 1), x0_grid)
    sampled = strategy_from_pair(atoms, bench_params, grid)
    image = apply_F(sampled, bench_params, rule7)
    at = np.isin(grid, x0_grid)
    assert np.max(np.abs(image.values1 - sampled.values1)[at]) <= 1e-6
    assert np.max(np.abs(image.values2 - sampled.values2)) <= 1e-6

    params = ProblemParams(k=5.0, sigma=1.0, sigma_x=1.0)
    init = strategy_from_pair(affine_optimal(params), params)
    init = GridStrategy(
        init.grid,
        init.values1 + 0.3 * np.sin(init.grid),
        init.values2 - 0.2 * np.cos(init.grid),
    )
    result = picard_iterate(init, params, rule40, damping=0.5, max_iter=200, tol=1e-12)
    assert result.converged and not result.diverged
    steps = np.array(result.steps)
    assert np.all(np.diff(steps) <= 1e-12)
    assert lipschitz_estimate(result.strategy, params, rule40, probes=20) < 1.0


def test_derivative_kernels_match_finite_differences(unit_params, rule40):
    base = strategy_from_pair(affine_optimal(unit_params), unit_params)
    curved = GridStrategy(
        base.grid,
        base.values1 + 0.1 * np.tanh(base.grid),
        base.values2 + 0.05 * base.grid**2 / (1.0 + np.abs(base.grid)),
    )
    sv = unit_params.sigma
    sv2 = sv * sv
    k2 = unit_params.k**2
    xi, p_xi = unit_params.prior.quad_points(rule40)
    g1_xi = curved.interp1(xi)
    h = 1e-5
    rng = np.random.default_rng(7)

    def integrand(zeta, gv, g2v):
        big_a = zeta - gv
        d = gv - g2v
        phi = math.exp(-big_a * big_a / (2.0 * sv2)) / (sv * math.sqrt(2.0 * math.pi))
        return -(1.0 / k2) * (big_a * d * d / (2.0 * sv2) + d) * phi

    for _ in range(100):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        kernel = frechet_kernel(curved, unit_params, (a, b))
        assert kernel[1, 1] == 0.0
        g = float(curved.interp1(np.array([a]))[0])
        g2b = float(curved.interp2(np.array([b]))[0])
        fd00 = (integrand(b, g + h, g2b) - integrand(b, g - h, g2b)) / (2.0 * h)
        fd01 = (integrand(b, g, g2b + h) - integrand(b, g, g2b - h)) / (2.0 * h)
        assert abs(kernel[0, 0] - fd00) / max(abs(fd00), 1e-10) <= 1e-5
        assert abs(kernel[0, 1] - fd01) / max(abs(fd01), 1e-10) <= 1e-5

        def posterior_mean_shifted(shift):
            loc = g1_xi + shift
            w = np.exp(-((b - loc) ** 2) / (2.0 * sv2))
            return float(np.dot(p_xi, loc * w) / np.dot(p_xi, w))

        fd10 = (posterior_mean_shifted(h) - posterior_mean_shifted(-h)) / (2.0 * h)
        kernel_integral = math.fsum(
            pj * frechet_kernel(curved, unit_params, (float(xj), b))[1, 0]
            for xj, pj in zip(xi, p_xi)
        )
        assert abs(kernel_integral - fd10) / max(abs(fd10), 1e-10) <= 1e-5


def test_likelihood_ratio_identities_on_seeded_random_models():
    for seed in range(50):
        model = random_model(seed)
        profile = uniform_profile(model)
        martingale = verify_martingale(model, profile, tol=1e-12)
        assert martingale.passed, (seed, martingale)
        payoff = payoff_equivalence(model, profile, tol=1e-12)
        assert payoff.passed, (seed, payoff)
        assert profile_count(model) <= 1_000_000
        sweep = brute_force_pbp(model)
        assert sweep.pbp_holds, (seed, sweep.worst_deviation_gain)
