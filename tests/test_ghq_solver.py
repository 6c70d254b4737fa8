"""Collocation system, solver drivers, and strategy evaluation."""

from __future__ import annotations

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from pbpsolve import (
    ProblemParams,
    SignalingLevels,
    SolveReport,
    StrategyPair,
    TwoPointSymmetricPrior,
    affine_optimal,
    collocation_pair,
    expand_distinct_levels,
    jump_breakpoints,
    payoff_quadrature,
    residual_jacobian,
    residual_system,
    solve_signaling_levels,
    solved_pair,
    summarize_staircase,
    wit_nonlinear,
)
from pbpsolve.counterexample import _BLOCK
from pbpsolve.errors import ConfigurationError, NumericError
from pbpsolve import counterexample, ghq_solver
from pbpsolve.ghq_solver import (
    _STARTS,
    _affine_init,
    _best_response,
    _first_stage_cost,
    _first_stage_grid,
    _lower_hull,
    _quantizer_init,
    _scan_points,
)
from pbpsolve.quadrature import SQRT_PI, build_hermite_rule

from test_counterexample import _reversal_invariant_sum_by_loop


# ---------------------------------------------------------------------------
# residual vector
# ---------------------------------------------------------------------------

def test_residual_accepts_bundle_or_vector(bench_params, rule7, bench_report):
    t = bench_report.levels.levels
    from_bundle = residual_system(bench_report.levels)
    from_vector = residual_system(t, bench_params, rule7)
    assert np.array_equal(from_bundle, from_vector)


def test_residual_vanishes_at_solution(bench_report):
    f = residual_system(bench_report.levels)
    assert np.linalg.norm(f) <= bench_report.tol
    assert np.linalg.norm(f) == bench_report.residual_norm


def test_residual_negation_reversal_equivariance_is_bitwise(bench_params, rule7):
    rng = np.random.default_rng(2024)
    for _ in range(25):
        t = rng.normal(0.0, 8.0, rule7.order)
        f = residual_system(t, bench_params, rule7)
        f_mirror = residual_system(-t[::-1], bench_params, rule7)
        assert np.array_equal(f_mirror, -f[::-1])


def _written_out_residual(t, params, rule):
    """residual_system as it was written out before it went through the
    shared posterior-mean and first-stage kernels."""
    z = rule.nodes
    lam = rule.weights
    sv = params.sigma
    c = math.sqrt(2.0) * sv
    y = c * z[:, None] + t[None, :]
    log_a = -((y[..., None] - t) ** 2) / (2.0 * sv * sv) + np.log(lam)
    log_a -= log_a.max(axis=-1, keepdims=True)
    w = np.exp(log_a)
    b = _reversal_invariant_sum_by_loop(w * t) / _reversal_invariant_sum_by_loop(w)
    d = t[None, :] - b
    inner = (z[:, None] / c) * d * d + d
    s = _reversal_invariant_sum_by_loop(lam[:, None] * inner, axis=0)
    return t - (math.sqrt(2.0) * params.sigma_x) * z + s / (SQRT_PI * params.k**2)


@pytest.mark.parametrize("order", [1, 7, 15, 40, 64])
def test_residual_matches_the_written_out_formula_bitwise(bench_params, order):
    rule = build_hermite_rule(order)
    rng = np.random.default_rng(300 + order)
    starts = dict(_jacobian_starts(bench_params, rule))
    starts["odd"] = (lambda u: u - u[::-1])(rng.normal(0.0, 15.0, order))
    for j in range(5):
        starts[f"random {j}"] = rng.normal(0.0, 10.0 ** rng.uniform(-1, 2), order)
    for name, t in starts.items():
        assert np.array_equal(
            residual_system(t, bench_params, rule), _written_out_residual(t, bench_params, rule)
        ), name


def test_residual_equivariance_other_orders():
    p = ProblemParams(k=0.7, sigma=0.8, sigma_x=2.0)
    rng = np.random.default_rng(5)
    for order in (2, 3, 10):
        rule = build_hermite_rule(order)
        t = rng.normal(0.0, 3.0, order)
        f = residual_system(t, p, rule)
        assert np.array_equal(residual_system(-t[::-1], p, rule), -f[::-1])


def test_symmetric_vector_gives_antisymmetric_residual(bench_params, rule7):
    # an odd-symmetric level vector has an odd-symmetric residual, bitwise
    t = np.array([-21.0, -14.0, -7.0, 0.0, 7.0, 14.0, 21.0])
    f = residual_system(t, bench_params, rule7)
    assert np.array_equal(f, -f[::-1])
    assert f[3] == 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    order=st.integers(1, 12),
    k=st.floats(0.05, 5.0),
    sigma=st.floats(0.1, 5.0),
    sigma_x=st.floats(0.1, 20.0),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 60.0),
)
def test_residual_reversal_equivariance_is_bitwise_property(
    order, k, sigma, sigma_x, seed, scale
):
    params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
    rule = build_hermite_rule(order)
    u = np.random.default_rng(seed).normal(0.0, scale, order)
    # a - b and b - a are exact negatives, so t is exactly odd-symmetric
    t = u - u[::-1]
    f = residual_system(t, params, rule)
    assert np.array_equal(f, -f[::-1])
    assert np.array_equal(
        residual_system(-u[::-1], params, rule), -residual_system(u, params, rule)[::-1]
    )


# ---------------------------------------------------------------------------
# residual Jacobian
# ---------------------------------------------------------------------------

def _central_jacobian(t, params, rule, h=1e-6):
    """Central differences of residual_system, one column per level."""
    jac = np.empty((t.size, t.size))
    for m in range(t.size):
        step = np.zeros(t.size)
        step[m] = h * max(1.0, abs(t[m]))
        jac[:, m] = (
            residual_system(t + step, params, rule) - residual_system(t - step, params, rule)
        ) / (2.0 * step[m])
    return jac


def _jacobian_starts(params, rule):
    n = rule.order
    rng = np.random.default_rng(1000 + n)
    return {
        "affine": _affine_init(params, rule),
        "quantizer": _quantizer_init(params, rule),
        "perturbed quantizer": _quantizer_init(params, rule) + rng.normal(0.0, 0.5, n),
        "random": np.sort(rng.normal(0.0, 12.0, n)),
        # 60 sigma apart: every posterior is saturated on one level
        "saturated": 60.0 * (np.arange(n) - (n - 1) / 2.0),
    }


@pytest.mark.parametrize("order", [1, 2, 7, 15, 40, 64])
def test_jacobian_matches_central_differences(bench_params, order):
    rule = build_hermite_rule(order)
    for name, t in _jacobian_starts(bench_params, rule).items():
        jac = residual_jacobian(t, bench_params, rule)
        central = _central_jacobian(t, bench_params, rule)
        scale = max(1.0, float(np.max(np.abs(central))))
        assert np.max(np.abs(jac - central)) <= 1e-6 * scale, name


@pytest.mark.parametrize("order", [2, 7, 15, 40, 64])
def test_jacobian_reversal_equivariance(bench_params, order):
    """J(-R t) = R J(t) R for the reversal R; the sums are arranged as in
    residual_system, so it holds bit for bit."""
    rule = build_hermite_rule(order)
    for name, t in _jacobian_starts(bench_params, rule).items():
        jac = residual_jacobian(t, bench_params, rule)
        mirrored = residual_jacobian(-t[::-1], bench_params, rule)
        assert np.array_equal(mirrored, jac[::-1, ::-1]), name


def test_jacobian_accepts_bundle_or_vector(bench_params, rule7, bench_report):
    t = bench_report.levels.levels
    assert np.array_equal(
        residual_jacobian(bench_report.levels), residual_jacobian(t, bench_params, rule7)
    )
    with pytest.raises(ConfigurationError):
        residual_jacobian(t)
    with pytest.raises(ConfigurationError):
        residual_jacobian(t[:-1], bench_params, rule7)


def test_analytic_and_finite_difference_solves_agree(bench_params, rule7):
    """The old finite-difference least-squares solve is kept here as an
    oracle: both reach the same benchmark levels."""
    for init, make_start in _STARTS.items():
        oracle = least_squares(
            residual_system, make_start(bench_params, rule7), args=(bench_params, rule7),
            method="trf", diff_step=1e-6, xtol=3e-16, ftol=3e-16, gtol=3e-16,
            max_nfev=500 * (rule7.order + 1),
        )
        report = solve_signaling_levels(bench_params, rule7, init=init, tol=1e-10)
        assert report.converged
        assert np.max(np.abs(report.levels.levels - oracle.x)) < 1e-9


# ---------------------------------------------------------------------------
# solver drivers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "order, init",
    [(7, "affine"), (7, "quantizer"), (15, "affine"), (15, "quantizer"),
     (21, "affine"), (21, "quantizer"), (31, "quantizer")],
)
def test_benchmark_solves_converge_far_below_the_tolerance(bench_params, order, init):
    """With the exact Jacobian these solves reach rounding level; with
    finite differences n=21 and the n=31 quantizer start stalled at
    1.5e-10 to 2.9e-10, above tol."""
    report = solve_signaling_levels(
        bench_params, build_hermite_rule(order), init=init, tol=1e-10
    )
    assert report.converged
    assert report.residual_norm <= 1e-12


def test_solve_counts_every_residual_and_jacobian_evaluation(
    bench_params, rule7, monkeypatch
):
    """Each least-squares point computes its posterior weights once: one
    weight pass per residual evaluation (nfev) and none in the Jacobian
    tails, one tail per Jacobian evaluation (njev)."""
    calls = {"weights": 0, "tails": 0}
    weights, tail = counterexample._posterior_weights, ghq_solver._collocation_jacobian

    def counting_weights(*args):
        calls["weights"] += 1
        return weights(*args)

    def counting_tail(*args):
        calls["tails"] += 1
        return tail(*args)

    monkeypatch.setattr(counterexample, "_posterior_weights", counting_weights)
    monkeypatch.setattr(ghq_solver, "_collocation_jacobian", counting_tail)
    report = solve_signaling_levels(bench_params, rule7, init="quantizer", tol=1e-10)
    assert report.converged
    assert report.jacobian_evaluations >= 1
    assert calls == {"weights": report.iterations, "tails": report.jacobian_evaluations}
    start_only = solve_signaling_levels(bench_params, rule7, init="quantizer", iterate=False)
    assert (start_only.iterations, start_only.jacobian_evaluations) == (0, 0)


def test_one_point_system_evaluates_afresh_at_another_point(bench_params, rule7):
    """jac(x) reuses the state of fun(x) only while x is the point last
    evaluated; the cache keeps its own copy of that point.  Every column
    is free here; the odd half is covered by
    test_one_point_system_on_the_odd_half_evaluates_afresh_at_another_point."""
    a = _quantizer_init(bench_params, rule7)
    b = a + 0.25
    system = ghq_solver._OnePointSystem(bench_params, rule7, np.arange(rule7.order))
    system.fun(a)
    system.fun(b)
    assert np.array_equal(system.jac(a), residual_jacobian(a, bench_params, rule7))
    assert np.array_equal(system.fun(b), residual_system(b, bench_params, rule7))
    x = b.copy()
    system.fun(x)
    x[0] += 1.0
    assert np.array_equal(system.jac(x), residual_jacobian(x, bench_params, rule7))


def _upper_half(n):
    return np.arange(n - n // 2, n)


def _odd_starts(params, rule):
    """The odd starts of _jacobian_starts, and an odd perturbed quantizer."""
    starts = _jacobian_starts(params, rule)
    perturbed = starts.pop("perturbed quantizer")
    starts["odd perturbed quantizer"] = 0.5 * (perturbed - perturbed[::-1])
    starts.pop("random")
    return starts


def test_one_point_system_on_the_odd_half_evaluates_afresh_at_another_point(
    bench_params, rule7
):
    """On the upper half of an odd level vector, fun gives the upper
    entries of residual_system and jac the rows of residual_jacobian with
    the mirrored columns folded in, bit for bit, each evaluated afresh at
    another point."""
    cols = _upper_half(rule7.order)
    a = _quantizer_init(bench_params, rule7)
    b = a + 0.25 * np.sign(a)
    system = ghq_solver._OnePointSystem(bench_params, rule7, cols)
    system.fun(a[cols])
    system.fun(b[cols])
    jac = residual_jacobian(a, bench_params, rule7)[cols]
    assert np.array_equal(system.jac(a[cols]), jac[:, cols] - jac[:, rule7.order - 1 - cols])
    assert np.array_equal(system.fun(b[cols]), residual_system(b, bench_params, rule7)[cols])
    x = b[cols]
    system.fun(x)
    x[0] += 1.0
    moved = ghq_solver._full_vector(x, rule7.order)
    jac = residual_jacobian(moved, bench_params, rule7)[cols]
    assert np.array_equal(system.jac(x), jac[:, cols] - jac[:, rule7.order - 1 - cols])


@pytest.mark.parametrize("order", [7, 15])
def test_folded_jacobian_matches_central_differences_of_the_odd_half(bench_params, order):
    rule = build_hermite_rule(order)
    cols = _upper_half(order)
    system = ghq_solver._OnePointSystem(bench_params, rule, cols)
    for name, t in _odd_starts(bench_params, rule).items():
        u = t[cols]
        jac = system.jac(u)
        central = np.empty_like(jac)
        for m in range(u.size):
            step = np.zeros(u.size)
            step[m] = 1e-6 * max(1.0, abs(u[m]))
            central[:, m] = (system.fun(u + step) - system.fun(u - step)) / (2.0 * step[m])
        scale = max(1.0, float(np.max(np.abs(central))))
        assert np.max(np.abs(jac - central)) <= 1e-6 * scale, name


def _full_space_solve(params, rule, start):
    """The least-squares solve on every level, with the solver's
    tolerances and budget: the oracle of the odd-half solve."""
    return least_squares(
        residual_system, start, jac=residual_jacobian, args=(params, rule), method="trf",
        xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=500 * (rule.order + 1),
    )


@pytest.mark.parametrize("order", [2, 7, 15, 21, 40])
def test_named_starts_give_exactly_odd_levels(bench_params, order):
    rule = build_hermite_rule(order)
    for init, make_start in _STARTS.items():
        start = make_start(bench_params, rule)
        assert np.array_equal(start, -start[::-1]), init
        t = solve_signaling_levels(bench_params, rule, init=init, tol=1e-10).levels.levels
        assert np.array_equal(t, -t[::-1]), init
        assert order % 2 == 0 or t[order // 2] == 0.0


@pytest.mark.parametrize(
    "order, init",
    [(7, "affine"), (7, "quantizer"), (15, "affine"), (15, "quantizer"),
     (21, "affine"), (21, "quantizer"), (31, "quantizer")],
)
def test_odd_half_solve_agrees_with_the_full_space_solve(bench_params, order, init):
    rule = build_hermite_rule(order)
    oracle = _full_space_solve(bench_params, rule, _STARTS[init](bench_params, rule))
    report = solve_signaling_levels(bench_params, rule, init=init, tol=1e-10)
    assert report.converged and np.linalg.norm(oracle.fun) <= 1e-10
    assert np.max(np.abs(report.levels.levels - oracle.x)) <= 1e-9


def test_odd_half_solve_stalls_where_the_full_space_solve_stalls(bench_params, rule40):
    """n = 40 from the affine start stalls either way, at the same residual."""
    oracle = _full_space_solve(bench_params, rule40, _affine_init(bench_params, rule40))
    report = solve_signaling_levels(bench_params, rule40, init="affine")
    expected = np.linalg.norm(oracle.fun)
    assert not report.converged and expected > 1e-3
    assert abs(report.residual_norm - expected) <= 1e-9 * expected


@pytest.mark.parametrize(
    "order, init",
    [(7, [-13.0, -6.0, 0.0, 6.5, 13.0]), (15, [-20.0, -12.0, -5.0, 1.0, 6.0, 13.0, 19.0]),
     (1, "affine"), (1, "quantizer")],
)
def test_a_start_that_is_not_odd_solves_every_level_as_the_full_space_solve(
    bench_params, order, init
):
    """A start that is not odd, and n = 1, iterate on every level: the
    report is the full-space solve's, bit for bit."""
    rule = build_hermite_rule(order)
    if isinstance(init, str):
        start = _STARTS[init](bench_params, rule)
    else:
        start = expand_distinct_levels(init, bench_params, rule)
        assert not np.array_equal(start, -start[::-1])
    oracle = _full_space_solve(bench_params, rule, start)
    report = solve_signaling_levels(bench_params, rule, init=init)
    assert np.array_equal(report.levels.levels, oracle.x)
    assert report.residual_norm == np.linalg.norm(oracle.fun)
    assert (report.iterations, report.jacobian_evaluations) == (oracle.nfev, oracle.njev)


def test_residual_norm_is_the_norm_of_the_residual_at_the_levels(bench_report, bench_params):
    """residual_norm comes from the least-squares iteration's own last
    residual; it is the norm of residual_system at the returned levels,
    bit for bit, whether or not the solve converged."""
    stalled = solve_signaling_levels(bench_params, build_hermite_rule(40), init="affine")
    assert bench_report.converged and not stalled.converged
    for report in (bench_report, stalled):
        assert report.residual_norm == np.linalg.norm(residual_system(report.levels))


# ---------------------------------------------------------------------------
# solver drivers
# ---------------------------------------------------------------------------

def test_both_starts_reach_the_same_benchmark_solution(bench_params, rule7, bench_report):
    from_affine = solve_signaling_levels(bench_params, rule7, init="affine", tol=1e-10)
    assert from_affine.converged and bench_report.converged
    assert from_affine.init == "affine" and bench_report.init == "quantizer"
    assert np.max(np.abs(np.sort(from_affine.levels.levels)
                         - np.sort(bench_report.levels.levels))) < 1e-8


def test_auto_start_records_which_side_won(rule7, rule20):
    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=1.0)
    report = solve_signaling_levels(params, rule7, init="auto", tol=1e-10)
    assert report.converged
    assert report.init in ("auto:affine", "auto:quantizer")
    # Both starts converge here to different solutions, so both were scored
    # with the order-20 rules.
    assert [c.init for c in report.candidates] == ["auto:affine", "auto:quantizer"]
    assert all(c.converged and c.payoff.order == 20 for c in report.candidates)
    winner = next(c for c in report.candidates if c.init == report.init)
    assert winner.residual_norm == report.residual_norm
    assert report.payoff == winner.payoff
    assert report.payoff.total == min(c.payoff.total for c in report.candidates)
    assert payoff_quadrature(params, solved_pair(report), rule20, rule20) == report.payoff


def test_auto_start_scores_no_duplicate_candidate(bench_params, rule7):
    """At the benchmark both starts reach one solution: both are listed,
    neither is scored, and the affine one is kept."""
    tol = 1e-10
    report = solve_signaling_levels(bench_params, rule7, init="auto", tol=tol)
    affine, quantizer = report.candidates
    assert (affine.init, quantizer.init) == ("auto:affine", "auto:quantizer")
    assert affine.converged and quantizer.converged
    assert np.linalg.norm(affine.levels.levels - quantizer.levels.levels) <= tol
    assert report.payoff is None and affine.payoff is None and quantizer.payoff is None
    assert report.init == "auto:affine"
    assert report.levels is affine.levels


def test_auto_start_without_two_converged_candidates_scores_none(bench_params, rule7):
    report = solve_signaling_levels(bench_params, rule7, init="auto", iterate=False)
    assert not report.converged
    assert [c.init for c in report.candidates] == ["auto:affine", "auto:quantizer"]
    assert report.residual_norm == min(c.residual_norm for c in report.candidates)
    assert report.payoff is None and all(c.payoff is None for c in report.candidates)
    single = solve_signaling_levels(bench_params, rule7, init="quantizer", iterate=False)
    assert single.candidates == () and single.payoff is None


def test_no_iterate_reports_start_levels_exactly(bench_params, rule7):
    start = [0.0, 6.5, -6.5, 13.2, -13.2, 19.9, -19.9]
    report = solve_signaling_levels(bench_params, rule7, init=start, iterate=False)
    expected = expand_distinct_levels(start, bench_params, rule7)
    assert np.array_equal(report.levels.levels, expected)
    assert not report.converged
    assert report.iterations == 0
    assert report.residual_norm == np.linalg.norm(residual_system(report.levels))


def test_user_init_order_is_immaterial(bench_params, rule7):
    unordered = solve_signaling_levels(
        bench_params, rule7, init=[13.2, -6.5, 0.0, 19.9, -19.9, 6.5, -13.2],
        iterate=False,
    )
    ordered = solve_signaling_levels(
        bench_params, rule7, init=[-19.9, -13.2, -6.5, 0.0, 6.5, 13.2, 19.9],
        iterate=False,
    )
    assert np.array_equal(unordered.levels.levels, ordered.levels.levels)


def test_short_tread_list_expands_by_nearest(bench_params, rule7):
    report = solve_signaling_levels(
        bench_params, rule7, init=[-9.0, 11.0], iterate=False
    )
    assert np.array_equal(
        report.levels.levels,
        np.array([-9.0, -9.0, -9.0, -9.0, 11.0, 11.0, 11.0]),
    )


def test_quantizer_start_is_the_uniform_lattice(bench_params, rule7):
    outer = math.sqrt(2.0) * 5.0 * rule7.nodes[-1]
    base = solve_signaling_levels(bench_params, rule7, init="quantizer", iterate=False)
    assert base.levels.levels[-1] == pytest.approx(outer, abs=1e-12)
    assert np.unique(base.levels.levels) == pytest.approx(
        np.arange(-3, 4) * outer / 3.0, abs=1e-12
    )


@pytest.mark.parametrize("bad", ["nope", [], [np.nan, 1.0]])
def test_bad_initializations_are_rejected(bench_params, rule7, bad):
    with pytest.raises(ConfigurationError):
        solve_signaling_levels(bench_params, rule7, init=bad)


@pytest.mark.parametrize("start", [[1e300], [-1e300, 1e300], [1e200]])
def test_a_start_with_a_non_finite_residual_or_jacobian_is_rejected(bench_params, rule7, start):
    """At 1e300 the residual is still finite but the Jacobian overflows, and
    the least-squares solve would fail inside SciPy's SVD; at 1e200 the
    residual overflows, which SciPy would refuse with a ValueError."""
    with pytest.raises(ConfigurationError, match="non-finite residual or Jacobian"):
        solve_signaling_levels(bench_params, rule7, init=start)
    # Without iteration the start is only measured.
    with np.errstate(over="ignore", invalid="ignore"):
        report = solve_signaling_levels(bench_params, rule7, init=start, iterate=False)
    assert not report.converged


def test_nonpositive_tol_rejected(bench_params, rule7):
    with pytest.raises(ConfigurationError):
        solve_signaling_levels(bench_params, rule7, tol=0.0)


@pytest.mark.parametrize("init", ["auto", "affine", "quantizer", [0.0, 6.0, -6.0]])
def test_the_solver_iterates_only_under_the_gaussian_prior(rule7, init):
    """The collocation system discretizes the Gaussian prior, so iterating
    under the two-point prior is refused; evaluating a start's residual
    without iteration is not."""
    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0, prior=TwoPointSymmetricPrior(5.0))
    with pytest.raises(ConfigurationError, match="iterates only under the Gaussian prior"):
        solve_signaling_levels(params, rule7, init=init)
    report = solve_signaling_levels(params, rule7, init="quantizer", iterate=False)
    assert (report.iterations, report.status, report.message) == (0, None, None)


def test_a_stalled_solve_reports_why_it_stopped(bench_params, bench_report):
    """n = 31 from the affine start, a case of the perfbench order workload,
    stops on least_squares' xtol test with a residual far above tol; the
    converged benchmark solve stops on a tolerance test too."""
    report = solve_signaling_levels(bench_params, build_hermite_rule(31), init="affine", tol=1e-10)
    assert not report.converged and report.residual_norm > 1.0
    assert report.status == 3 and "`xtol` termination condition" in report.message
    assert bench_report.converged and bench_report.status in (1, 2, 3, 4)
    assert isinstance(bench_report.message, str)


def test_solved_pair_requires_convergence(bench_params, rule7):
    stalled = solve_signaling_levels(
        bench_params, rule7, init=[0.0, 6.5, -6.5, 13.2, -13.2, 19.9, -19.9],
        iterate=False,
    )
    with pytest.raises(ConfigurationError):
        solved_pair(stalled)


def test_solve_report_consistency_is_enforced(bench_report):
    with pytest.raises(ConfigurationError):
        SolveReport(
            levels=bench_report.levels,
            residual_norm=1.0,
            iterations=1,
            converged=True,
            init="affine",
            tol=1e-12,
        )


# ---------------------------------------------------------------------------
# level bundles
# ---------------------------------------------------------------------------

def test_signaling_levels_validate_shape_and_finiteness(bench_params):
    with pytest.raises(ConfigurationError):
        SignalingLevels(np.zeros(6), 7, bench_params)
    with pytest.raises(ConfigurationError):
        SignalingLevels(np.array([0.0, np.inf, 0, 0, 0, 0, 0]), 7, bench_params)


def test_signaling_levels_are_read_only(bench_report):
    with pytest.raises(ValueError):
        bench_report.levels.levels[0] = 1.0


# ---------------------------------------------------------------------------
# strategy evaluation
# ---------------------------------------------------------------------------

def test_second_stage_constant_levels_give_constant_strategy(bench_params):
    gamma2 = collocation_pair(SignalingLevels(np.full(7, 3.25), 7, bench_params)).gamma2
    ys = np.array([-11.0, 0.0, 0.5, 9.0])
    assert np.allclose(gamma2(ys), 3.25, atol=1e-12)


def test_second_stage_is_odd_and_scalar_aware(bench_pair):
    # the solved levels carry a ~4e-12 asymmetry, so the origin value does too
    assert float(bench_pair.gamma2(0.0)) == pytest.approx(0.0, abs=1e-10)
    value = bench_pair.gamma2(4.2)
    assert np.shape(value) == ()
    assert float(bench_pair.gamma2(-4.2)) == pytest.approx(-float(value), abs=1e-10)


def test_second_stage_exactly_symmetric_levels_fix_the_origin(bench_params):
    bundle = SignalingLevels(
        np.array([-19.8, -12.8, -6.1, 0.0, 6.1, 12.8, 19.8]), 7, bench_params
    )
    assert float(collocation_pair(bundle).gamma2(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_second_stage_saturates_at_outer_level(bench_report, bench_pair):
    top = float(np.max(bench_report.levels.levels))
    far = top + 20.0 * bench_report.levels.params.sigma
    assert float(bench_pair.gamma2(far)) == pytest.approx(top, abs=1e-6)


def test_first_stage_fixes_origin(bench_pair):
    assert float(bench_pair.gamma1bar(0.0)) == pytest.approx(0.0, abs=1e-8)


def _posterior_moments(y, levels, weights, sigma):
    """The posterior mean and variance of the levels (prior masses weights)
    observed through N(0, sigma^2) noise at y, written out with a
    log-sum-exp over the levels, along a new last axis."""
    log_w = np.log(weights) - (y[..., None] - levels) ** 2 / (2.0 * sigma * sigma)
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    mean = w @ levels
    return mean, w @ (levels * levels) - mean * mean


def _direct_cost(g, levels, weights, sigma):
    """c(g) = E_v (g - gamma2(g + v))^2 and c'(g) = E_v 2 (g - gamma2)(1 -
    gamma2'), gamma2' = Var / sigma^2, by a dense trapezoid rule in v over
    +-12 sigma (12,001 points, 18 to the narrowest turn of gamma2 in these
    tests): the reference for _first_stage_cost, with no package code."""
    v = np.linspace(-12.0 * sigma, 12.0 * sigma, 12_001)
    density = np.exp(-0.5 * (v / sigma) ** 2) * (v[1] - v[0]) / (sigma * math.sqrt(2.0 * math.pi))
    density[[0, -1]] *= 0.5
    c, dc = [], []
    for x in np.atleast_1d(g):
        mean, var = _posterior_moments(x + v, levels, weights, sigma)
        miss = x - mean
        c.append(density @ (miss * miss))
        dc.append(density @ (2.0 * miss * (1.0 - var / (sigma * sigma))))
    return np.array(c), np.array(dc)


def _solved_levels(k, sigma, sigma_x, init="auto"):
    params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
    report = solve_signaling_levels(params, build_hermite_rule(7), init=init, tol=1e-10)
    assert report.converged
    return report.levels


COSTS = pytest.mark.parametrize(
    ("k", "sigma_x", "start"),
    [(0.2, 5.0, "auto"), (0.2, 5.0, [-13.0, 0.0, 12.0]), (2.0, 20.0, "auto")],
    ids=["benchmark", "benchmark-not-odd", "k=2-sigma_x=20"],
)


@COSTS
def test_first_stage_cost_equals_a_dense_direct_quadrature(k, sigma_x, start):
    """c from the two FFT convolutions equals a dense trapezoid rule in v to
    1e-8 relative, and c' to 1e-8 of its largest size, at nodes drawn over
    the grid and at the nodes next to every level; the levels that
    user:-13,0,12 expands to are not odd.  Next to those levels c falls to
    1e-8, where the rounding of g^2 and gamma2^2, which c = g^2 - 2 g (N *
    gamma2) + N * gamma2^2 cancels, is the floor: 64 ulps of g^2 + t^2."""
    params = ProblemParams(k=k, sigma=1.0, sigma_x=sigma_x)
    rule = build_hermite_rule(7)
    if isinstance(start, list):
        levels = SignalingLevels(expand_distinct_levels(start, params, rule), 7, params)
    else:
        levels = _solved_levels(k, 1.0, sigma_x, start)
    lo, step, n = _first_stage_grid(levels)
    c, dc = _first_stage_cost(collocation_pair(levels).gamma2, params, lo, step, n)
    rng = np.random.default_rng(19)
    nodes = np.concatenate([
        rng.integers(0, n, 60), np.round((levels.levels - lo) / step).astype(int)
    ])
    g = lo + step * nodes
    want_c, want_dc = _direct_cost(g, levels.levels, rule.weights, 1.0)
    floor = 64.0 * np.finfo(float).eps * (g * g + np.max(levels.levels**2))
    assert np.all(np.abs(c[nodes] - want_c) <= 1e-8 * want_c + floor)
    assert np.count_nonzero(1e-8 * want_c < floor) <= levels.levels.size
    assert np.max(np.abs(dc[nodes] - want_dc)) <= 1e-8 * np.max(np.abs(want_dc))


@pytest.mark.parametrize("order", [7, 15, 21])
@pytest.mark.parametrize(
    ("k", "sigma", "sigma_x"), [(0.2, 1.0, 5.0), (0.005, 0.01, 2.0), (2.0, 1.0, 20.0)]
)
def test_the_cost_of_odd_levels_is_even_and_its_slope_odd(k, sigma, sigma_x, order):
    """For exactly odd levels c(-g) = c(g) and c'(-g) = -c'(g), on a grid
    of multiples of 2^-8 symmetric about 0, to the rounding of the
    transforms: 1e-12 of the largest value for c, and 1e-11 for c', whose
    transform weighs the high frequencies of a steep gamma2 (2.3e-12 at
    sigma = 0.01, order 21).  The symmetry makes gamma1bar odd.  On the
    named starts and on a random odd vector."""
    params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
    rule = build_hermite_rule(order)
    u = np.random.default_rng(order).normal(0.0, 4.0 * sigma_x, order)
    step = 2.0**-8
    half = math.ceil((8.5 * sigma_x + 6.0 * sigma + 1.0) / step)
    for t in [start(params, rule) for start in _STARTS.values()] + [u - u[::-1]]:
        assert np.array_equal(t, -t[::-1])

        def gamma2(y, t=t):
            return counterexample.gaussian_posterior_mean(y, t, rule.weights, sigma)

        c, dc = _first_stage_cost(gamma2, params, -half * step, step, 2 * half + 1)
        assert np.max(np.abs(c - c[::-1])) <= 1e-12 * np.max(np.abs(c))
        assert np.max(np.abs(dc + dc[::-1])) <= 1e-11 * np.max(np.abs(dc))


def test_first_stage_cost_slope_matches_central_differences(bench_pair, bench_report):
    """c' equals central differences of c, taken on the grid shifted by
    +-1e-5, to 1e-6 of its largest size."""
    params = bench_report.levels.params
    lo, step, n = _first_stage_grid(bench_report.levels)
    _, dc = _first_stage_cost(bench_pair.gamma2, params, lo, step, n)
    h = 1e-5
    right, _ = _first_stage_cost(bench_pair.gamma2, params, lo + h, step, n)
    left, _ = _first_stage_cost(bench_pair.gamma2, params, lo - h, step, n)
    central = (right - left) / (2.0 * h)
    assert np.max(np.abs(dc - central)) <= 1e-6 * np.max(np.abs(dc))


@pytest.mark.parametrize("order", [7, 40])
def test_gamma2_is_tabulated_a_block_at_a_time(bench_params, order):
    """The build hands gamma2 at most _BLOCK observations a call, so its
    posterior weights stay within a block whatever the grid and the level
    count, and the calls cover the extended grid once, in order."""
    rule = build_hermite_rule(order)
    levels = SignalingLevels(_quantizer_init(bench_params, rule), order, bench_params)
    lo, step, n = _first_stage_grid(levels)
    seen = []

    def gamma2(y):
        seen.append(y)
        return counterexample.gaussian_posterior_mean(y, levels.levels, rule.weights, 1.0)

    _first_stage_cost(gamma2, bench_params, lo, step, n)
    assert max(y.size for y in seen) == _BLOCK
    ys = np.concatenate(seen)
    assert np.all(np.diff(ys) > 0.0)
    assert ys[0] < lo - 8.9 and ys[-1] > lo + step * (n - 1) + 8.9
    assert np.min(np.abs(ys - lo)) == 0.0


def _monotone_chain(phi):
    """Andrew's monotone chain for the lower hull of (j, phi[j]), one point
    at a time, popping collinear points: the reference for _lower_hull."""
    hull = []
    for j, y in enumerate(phi.tolist()):
        while len(hull) >= 2:
            (a, ya), (b, yb) = hull[-2], hull[-1]
            if (b - a) * (y - ya) - (yb - ya) * (j - a) > 0:
                break
            hull.pop()
        hull.append((j, y))
    return np.array([j for j, _ in hull])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lower_hull_matches_a_monotone_chain(seed):
    """On integer values, where both tests are exact: random values, a sum
    of random bumps on a parabola, a staircase of concave pieces, long
    collinear stretches and a concave arc; the hull has the chain's
    vertices, without collinear ones."""
    rng = np.random.default_rng(seed)
    j = np.arange(3001)
    cases = [
        rng.integers(-2**20, 2**20, 3001),
        (j - 1500) ** 2 // 8 + sum(
            rng.integers(1, 2**14) * np.exp(-((j - rng.integers(0, 3001)) / 40.0) ** 2)
            for _ in range(12)
        ).astype(np.int64),
        np.repeat(rng.integers(0, 2**10, 31), 100)[:3001] * 7 - (j % 100) ** 2,
        np.abs(j - 1000) * 3 + np.where(j > 2000, (j - 2000) * 5, 0),
        -((j - 1500) ** 2),
    ]
    for values in cases:
        phi = np.asarray(values, dtype=float)
        assert np.array_equal(_lower_hull(phi), _monotone_chain(phi))


def test_lower_hull_of_the_benchmark_cost_matches_a_monotone_chain(bench_pair, bench_report):
    """On the benchmark's phi = g^2 + c / k^2 over its 200,001 nodes."""
    params = bench_report.levels.params
    lo, step, n = _first_stage_grid(bench_report.levels)
    c, _ = _first_stage_cost(bench_pair.gamma2, params, lo, step, n)
    g = lo + step * np.arange(n)
    phi = c / params.k**2 + g * g
    assert np.array_equal(_lower_hull(phi), _monotone_chain(phi))


def _grid_argmin(levels):
    """x0 -> argmin_g k^2 (g - x0)^2 + c(g) over the nodes of the first
    stage's grid, one x0 at a time: the brute-force best response."""
    params = levels.params
    lo, step, n = _first_stage_grid(levels)
    c, _ = _first_stage_cost(collocation_pair(levels).gamma2, params, lo, step, n)
    g = lo + step * np.arange(n)

    def argmin(x0):
        return np.array([g[np.argmin(params.k**2 * (g - x) ** 2 + c)] for x in np.ravel(x0)])

    return argmin


BRUTE = pytest.mark.parametrize(
    ("k", "sigma", "sigma_x", "draws"),
    [(0.2, 1.0, 5.0, 200), (0.05, 0.04, 2.0, 200), (0.005, 0.01, 2.0, 40), (2.0, 1.0, 20.0, 200)],
    ids=["benchmark", "sigma=0.04", "sigma=0.01", "k=2-sigma_x=20"],
)


@BRUTE
def test_first_stage_is_the_brute_force_argmin(k, sigma, sigma_x, draws):
    """gamma1bar lies within one grid step of the brute-force argmin over
    the grid, on draws from the prior and on both sides of every jump (at
    the cut itself the two ends tie)."""
    levels = _solved_levels(k, sigma, sigma_x)
    first_stage = collocation_pair(levels).gamma1bar
    b = np.array(first_stage.jumps)
    x = np.concatenate([
        np.random.default_rng(23).normal(0.0, sigma_x, draws), b - 1e-6, b + 1e-6,
    ])
    assert np.max(np.abs(first_stage(x) - _grid_argmin(levels)(x))) <= first_stage.step


@BRUTE
def test_jumps_are_where_the_brute_force_argmin_jumps(k, sigma, sigma_x, draws):
    """The brute-force argmin 1e-6 below and above each jump lies more than
    a step apart, by gamma1bar's jump to within two steps, and the
    breakpoints are the jumps inside +-8.5 sigma_x; between two jumps the
    argmin moves by less than its scan step allows a map of slope below 1
    (the largest slope of these first stages is 0.8)."""
    levels = _solved_levels(k, sigma, sigma_x)
    pair = collocation_pair(levels)
    first_stage = pair.gamma1bar
    b = np.array(first_stage.jumps)
    assert b.size and np.all(np.diff(b) > 0.0)
    argmin = _grid_argmin(levels)
    below = argmin(b - 1e-6)
    above = argmin(b + 1e-6)
    step = first_stage.step
    assert np.all(above - below > step)
    jump = first_stage(b + 1e-6) - first_stage(b - 1e-6)
    assert np.max(np.abs(jump - (above - below))) <= 2.0 * step
    assert pair.breakpoints == tuple(x for x in first_stage.jumps if abs(x) < 8.5 * sigma_x)
    edges = np.concatenate([[-8.5 * sigma_x], b[np.abs(b) < 8.5 * sigma_x], [8.5 * sigma_x]])
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = np.linspace(lo, hi, 12)[1:-1]
        moves = np.abs(np.diff(argmin(xs)))
        assert np.all(moves < xs[1] - xs[0] + 2.0 * step)


def test_an_affine_second_stage_gives_no_jump(bench_params, bench_report):
    """gamma2(y) = mu y makes c a convex parabola: the hull has no edge
    wider than a step, also at the grid's ends, and gamma1bar is the best
    response in closed form, x0 k^2 / (k^2 + (1 - mu)^2)."""
    mu = affine_optimal(bench_params).mu
    lo, step, n = _first_stage_grid(bench_report.levels)
    first_stage = _best_response(lambda y: mu * y, bench_params, lo, step, n)
    assert first_stage.jumps == ()
    assert np.all(np.diff(first_stage.vertices) == 1)
    x = np.linspace(-40.0, 40.0, 801)
    k2 = bench_params.k**2
    assert np.max(np.abs(first_stage(x) - x * k2 / (k2 + (1.0 - mu) ** 2))) < 1e-9


@pytest.mark.parametrize(("k", "sigma_x"), [(0.2, 5.0), (1.0, 5.0), (2.0, 20.0)])
def test_first_stage_solves_the_stationarity_condition(k, sigma_x):
    """Inside its convex run the best response solves G(g) = g + c'(g) /
    (2 k^2) = x0: with c' from the dense direct quadrature, |G(gamma1bar(x0))
    - x0| stays below 1e-8 on draws from the prior and next to every jump
    (1e-9 to 1e-3 from it on both sides)."""
    levels = _solved_levels(k, 1.0, sigma_x)
    first_stage = collocation_pair(levels).gamma1bar
    b = np.array(first_stage.jumps)
    near = (b[:, None] + np.array([-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3])).ravel()
    x = np.concatenate([np.random.default_rng(5).normal(0.0, sigma_x, 60), near])
    g = first_stage(x)
    _, dc = _direct_cost(g, levels.levels, build_hermite_rule(7).weights, 1.0)
    assert np.max(np.abs(g + dc / (2.0 * k * k) - x)) < 1e-8


def _lattice_slope(g, levels, weights, sigma, h=0.05):
    """c'(g) = E_v 2 (g - gamma2)(1 - gamma2') for ascending g, by the
    trapezoid rule in v on the lattice g + v in h Z, over +-9 sigma: the
    posterior moments are tabulated once on the lattice, and each g weighs
    them by the noise's density.  gamma2 turns over about sigma^2 / 7 at
    the benchmark, with poles about pi sigma^2 / 7 off the real line, so
    the rule's error falls like exp(-2 pi 0.45 / h): at the benchmark h =
    0.1 and 0.05 differ by 1.3e-10, and h = 0.05 matches _direct_cost to
    2.3e-13."""
    reach = 9.0 * sigma
    y = h * np.arange(math.floor((g[0] - reach) / h), math.ceil((g[-1] + reach) / h) + 1)
    mean, var = _posterior_moments(y, levels, weights, sigma)
    flat = h * (1.0 - var / (sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
    tilted = flat * mean
    out = np.empty_like(g)
    for a in range(0, g.size, 1024):
        part = g[a : a + 1024]
        i, j = np.searchsorted(y, [part[0] - reach, part[-1] + reach])
        density = np.exp(-0.5 * ((y[i:j] - part[:, None]) / sigma) ** 2)
        out[a : a + 1024] = 2.0 * (part * (density @ flat[i:j]) - density @ tilted[i:j])
    return out


def test_the_solved_pair_is_stationary_across_the_fixed_point_grids(bench_pair, bench_report):
    """The benchmark pair that solved_pair returns solves G(g) = g + c'(g) /
    (2 k^2) = x0 at every point of the two grids on which the order-7
    fixed-point tests once checked F1 (2^16 + 1 points over +-24, 2^18 + 1
    over +-30), with c' from the test's own lattice rule, to 1e-9 (2.6e-11
    here; a polish linear in each cell reads 3.3e-7).  The order-7 F1 of
    fixed_point cannot check this pair: its Gauss-Hermite rule in v misses
    the turns of gamma2, so those tests check F1 at the collocation points
    of the n-level solution alone."""
    levels = bench_report.levels
    params = levels.params
    x = np.union1d(np.linspace(-24.0, 24.0, 2**16 + 1), np.linspace(-30.0, 30.0, 2**18 + 1))
    g = bench_pair.gamma1bar(x)
    assert np.all(np.diff(g) >= 0.0)
    dc = _lattice_slope(g, levels.levels, build_hermite_rule(7).weights, params.sigma)
    assert np.max(np.abs(g + dc / (2.0 * params.k**2) - x)) < 1e-9


@pytest.mark.parametrize(
    ("k", "sigma", "sigma_x", "nearest_level_total"),
    [
        (0.05, 5.0, 2.0, 0.00997506231938801),
        (0.005, 0.01, 2.0, 1.1374020275179903e-05),
        (0.05, 0.04, 2.0, 0.001134593977624617),
        (1.0, 1.0, 1.0, 0.4185878217628564),
    ],
)
def test_the_best_response_costs_no_more_than_the_nearest_level_root(
    k, sigma, sigma_x, nearest_level_total, rule20, rule40
):
    """The order-40/20 quadrature total of the auto solve's pair stays
    within 5e-6 relative of the total the earlier first stage gave there,
    the root of g + R(g) = x0 nearest a level, or below it: the hull is the
    exact best response to the same gamma2, so any excess is grid error
    (2.5e-12 at sigma = 0.01)."""
    levels = _solved_levels(k, sigma, sigma_x)
    params = levels.params
    total = payoff_quadrature(params, collocation_pair(levels), rule40, rule20).total
    assert total <= nearest_level_total * (1.0 + 5e-6)


def test_first_stage_grid_keeps_the_floor_and_resolves_the_turns_of_gamma2(bench_report):
    """At the benchmark the grid has the floor's 200,001 nodes over +-(8.5
    sigma_x + 6 sigma + 1), and the pair records its step.  At sigma =
    0.01, where gamma2 turns between levels about 2.8 apart over about
    sigma^2 / 2.8, the step is at most that width, finer than the floor."""
    lo, step, n = _first_stage_grid(bench_report.levels)
    assert (lo, n) == (-49.5, 200_001)
    assert step == 99.0 / 200_000
    assert collocation_pair(bench_report.levels).gamma1bar.step == step
    levels = _solved_levels(0.005, 0.01, 2.0, "quantizer")
    lo, step, n = _first_stage_grid(levels)
    widest = np.max(np.diff(np.unique(levels.levels)))
    assert n > 200_001 and step <= 0.01**2 / widest
    assert lo + step * (n - 1) == pytest.approx(-lo)


def test_first_stage_is_odd(bench_pair):
    xs = np.linspace(0.5, 14.5, 29)
    left = np.asarray(bench_pair.gamma1bar(-xs), dtype=float)
    right = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    assert np.max(np.abs(left + right)) < 1e-9


def test_one_pair_per_levels_object(bench_pair, bench_report):
    levels = bench_report.levels
    assert collocation_pair(levels) is bench_pair
    assert solved_pair(bench_report) is bench_pair
    copy = SignalingLevels(levels.levels, levels.rule_order, levels.params)
    assert collocation_pair(copy) is not bench_pair
    assert collocation_pair(copy) is collocation_pair(copy)


def test_a_dropped_levels_object_frees_its_table_without_the_cycle_collector(bench_report):
    levels = SignalingLevels(
        bench_report.levels.levels, bench_report.levels.rule_order, bench_report.levels.params
    )
    inverter = collocation_pair(levels).gamma1bar
    inverter(np.array([0.0]))
    alive = weakref.ref(inverter)
    del inverter
    gc.disable()
    try:
        del levels
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# first-stage queries
# ---------------------------------------------------------------------------

def test_batch_inverter_is_chunk_invariant(bench_report):
    """A call is served in blocks of _BLOCK queries; calls cut at other
    points, each straddling a block boundary of the whole call, and single
    queries give the same bits as the whole call."""
    first_stage = collocation_pair(bench_report.levels).gamma1bar
    x = np.random.default_rng(21).normal(0.0, 5.0, 3 * _BLOCK + 17)
    whole = first_stage(x)
    cuts = [0, 17, _BLOCK + 5, 2 * _BLOCK + 300, x.size]
    pieces = [first_stage(x[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(whole, np.concatenate(pieces))
    for j in (0, 16, _BLOCK - 1, _BLOCK, x.size - 1):
        assert first_stage(x[j]) == whole[j]


def test_first_stage_is_continuous_and_smooth_between_its_jumps(bench_pair):
    """Between two jumps gamma1bar is continuous and its slope varies
    smoothly: across the grid nodes of the treads, differences at 1e-6 on
    either side agree to 1e-5 of the largest (3.7e-7 here), where a map
    linear in each cell differs by its change of slope (1.4e-4)."""
    first_stage = bench_pair.gamma1bar
    g = first_stage.origin + first_stage.step * np.arange(first_stage.pull.size)
    on_tread = (np.abs(g) < 25.0) & np.isin(np.arange(g.size), first_stage.vertices)
    x = first_stage.pull[np.flatnonzero(on_tread)[::50]]
    h = 1e-6
    left = (first_stage(x) - first_stage(x - h)) / h
    right = (first_stage(x + h) - first_stage(x)) / h
    assert np.max(np.abs(right - left)) <= 1e-5 * np.max(np.abs(right))


def test_first_stage_counts_the_queries_outside_the_table(bench_pair):
    first_stage = bench_pair.gamma1bar
    h_min, h_max = first_stage.span
    assert h_min < -8.5 * 5.0 and h_max > 8.5 * 5.0
    assert first_stage(np.array([h_min, h_max])).shape == (2,)
    far = np.array([0.0, np.nextafter(h_max, np.inf), 3.0, 2.0 * h_min, 1.0])
    with pytest.raises(NumericError, match="2 of 5 first-stage queries lie outside"):
        first_stage(far)


@pytest.mark.parametrize("sigma", [0.001, 4.4e-4])
def test_a_grid_held_at_the_cap_serves_every_noise_the_table_served(sigma):
    """Where the turns of gamma2 would need more nodes than the cap, the
    grid keeps the cap's 2,000,001 nodes, as long as its step is no wider
    than sigma: the rule of the earlier 200,001-node table, which served
    sigma down to 4.35e-4 at sigma_x = 5."""
    params = ProblemParams(k=0.2, sigma=sigma, sigma_x=5.0)
    rule = build_hermite_rule(7)
    levels = SignalingLevels(_quantizer_init(params, rule), 7, params)
    lo, step, n = _first_stage_grid(levels)
    assert n == 2_000_001 and step <= sigma
    assert lo + step * (n - 1) == pytest.approx(-lo)


@pytest.mark.parametrize(("sigma", "spread"), [(4e-5, 5.0), (1.0, 1e6)])
def test_a_grid_whose_capped_step_is_wider_than_sigma_is_refused(sigma, spread):
    """A step wider than sigma even at the cap ends in a NumericError
    before anything is tabulated.  When sigma is too small for the window
    of the parameters alone (4e-5 at sigma_x = 5) it is a ResolutionError,
    also a ConfigurationError, which the command line reports with exit 2;
    when levels a million apart widen the window, as a diverging solve's
    do, it is a numeric failure alone."""
    params = ProblemParams(k=0.2, sigma=sigma, sigma_x=5.0)
    far = SignalingLevels(np.linspace(-spread, spread, 7), 7, params)
    with pytest.raises(NumericError, match="more than 2,000,001 nodes for a step no wider") as info:
        collocation_pair(far)
    assert isinstance(info.value, ConfigurationError) == (spread == 5.0)


def test_batch_inverter_shapes_and_bad_input(bench_pair):
    inverter = bench_pair.gamma1bar
    assert inverter(np.array([])).shape == (0,)
    assert inverter(np.empty((2, 0))).shape == (2, 0)
    scalar = inverter(3.0)
    assert np.shape(scalar) == ()
    grid = np.linspace(-12.0, 12.0, 12).reshape(3, 4)
    out = inverter(grid)
    assert out.shape == (3, 4)
    assert np.array_equal(out.ravel(), inverter(grid.ravel()))
    assert float(scalar) == pytest.approx(float(inverter(np.array([3.0]))[0]), abs=1e-12)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            inverter(np.array([0.0, bad]))


def test_concurrent_queries_match_single_threaded(bench_report):
    """Threads that share one first stage get the answers of a private
    one, bit for bit: the record is complete before the first query and
    never changes.  Each comes from its own copy of the levels, since
    collocation_pair keeps one pair per levels object."""
    levels = bench_report.levels

    def fresh_pair():
        return collocation_pair(SignalingLevels(levels.levels, levels.rule_order, levels.params))

    windows = [
        sign * np.linspace(30.0 + 25.0 * j, 40.0 + 25.0 * j, 400)
        for j, sign in enumerate((1.0, -1.0, 1.0))
    ]
    expected = [fresh_pair().gamma1bar(w) for w in windows]
    shared = fresh_pair().gamma1bar
    results: list = [None] * len(windows)

    def work(j: int) -> None:
        results[j] = shared(windows[j])

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(windows))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert got is not None
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# staircase reporting
# ---------------------------------------------------------------------------

def test_staircase_summary_of_benchmark_solution(bench_pair, bench_params):
    summary = summarize_staircase(bench_pair, bench_params)
    assert summary.shape == "staircase"
    assert summary.steps == 7
    inner = sorted(summary.tread_values, key=abs)[:5]
    assert sorted(round(v, 1) for v in inner) == [-12.9, -6.2, 0.0, 6.2, 12.9]
    # outer tread means pick up the rising tail past the last collocation point
    assert sorted(summary.tread_values)[0] == pytest.approx(-20.2, abs=0.05)
    assert sorted(summary.tread_values)[-1] == pytest.approx(20.2, abs=0.05)
    assert len(summary.breakpoints) == 6
    assert np.all(np.diff(summary.breakpoints) > 0)
    # treads are nearly flat but carry the small characteristic within-step slope
    assert max(abs(s) for s in summary.tread_slopes) < 0.05


def test_collocation_breakpoints_are_the_jumps_the_sampled_scan_finds(bench_pair, bench_params):
    """The six breakpoints at the benchmark lie within one scan step of the
    jumps the sampled jump scan finds, at +-3.0849, +-9.5004 and
    +-16.4222, and the staircase summary reads them."""
    breaks = bench_pair.breakpoints
    assert np.allclose(np.abs(breaks), [16.4222, 9.5004, 3.0849, 3.0849, 9.5004, 16.4222], atol=1e-4)
    xs = _scan_points(bench_params)
    assert xs.size == 20001 and xs[-1] == 8.5 * bench_params.sigma_x == -xs[0]
    scanned = jump_breakpoints(xs, bench_pair.gamma1bar(xs))
    assert np.max(np.abs(np.subtract(scanned, breaks))) < xs[1] - xs[0]
    assert summarize_staircase(bench_pair, bench_params).breakpoints == breaks


def test_breakpoints_are_the_jumps_inside_the_window(rule7):
    """At k = 2, sigma_x = 20 the six jumps lie inside +-8.5 sigma_x and
    are the pair's breakpoints.  Each is more than 4.7 high, yet below the
    threshold of the sampled jump scan, which finds none; between two of
    them gamma1bar moves continuously."""
    params = ProblemParams(k=2.0, sigma=1.0, sigma_x=20.0)
    report = solve_signaling_levels(params, rule7, init="auto")
    assert report.converged
    pair = collocation_pair(report.levels)
    first_stage = pair.gamma1bar
    b = np.array(pair.breakpoints)
    assert b.size == 6 and pair.breakpoints == first_stage.jumps
    assert np.all(first_stage(b) - first_stage(np.nextafter(b, -np.inf)) > 4.7)
    xs = _scan_points(params)
    assert jump_breakpoints(xs, first_stage(xs)) == []
    g = first_stage(xs)
    inside = np.min(np.abs(xs[:-1, None] - b), axis=1) > xs[1] - xs[0]
    assert np.max(np.abs(np.diff(g))[inside]) < 0.05


def test_benchmark_quadrature_total_agrees_across_outer_orders(bench_pair, bench_params):
    """With panels split at the exact jumps the quadrature total converges:
    outer orders 20, 40 and 64 agree to 1e-12."""
    totals = []
    for order in (20, 40, 64):
        rule = build_hermite_rule(order)
        totals.append(payoff_quadrature(bench_params, bench_pair, rule, rule).total)
    assert max(totals) - min(totals) <= 1e-12
    assert totals[0] == pytest.approx(0.1719425158240, abs=1e-12)


def test_staircase_summary_of_wit_splits_at_its_jump(unit_params):
    """The wit pair lists its jump at exactly 0; the treads are [a, 0) and
    [0, b], which hold the same samples as the closed treads at the scan's
    midpoint -0.000425 did."""
    pair = wit_nonlinear(unit_params)
    summary = summarize_staircase(pair, unit_params)
    assert summary.breakpoints == (0.0,)
    assert (summary.steps, summary.shape) == (2, "staircase")
    assert summary.tread_values == (-1.0, 1.0)
    assert summary.tread_slopes[0] == pytest.approx(0.0, abs=1e-12)
    assert summary.tread_slopes[1] == pytest.approx(0.0, abs=1e-12)
    xs = _scan_points(unit_params)
    (mid,) = jump_breakpoints(xs, pair.gamma1bar(xs))
    left, right = xs <= mid, xs >= mid
    closed = tuple(float(np.polyfit(xs[m], pair.gamma1bar(xs[m]), 1)[0]) for m in (left, right))
    assert summary.tread_slopes == closed


def test_staircase_summary_gives_an_empty_tread_its_midpoint_value(unit_params):
    """Two breakpoints inside one gap of the scan points leave a tread with
    no sample: it takes gamma1bar at its midpoint and slope 0."""
    pair = StrategyPair(
        gamma1bar=lambda x: np.searchsorted([0.0, 1e-4], x, side="right").astype(float),
        gamma2=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        breakpoints=(1e-5, 2e-4),
    )
    summary = summarize_staircase(pair, unit_params)
    assert summary.steps == 3
    assert summary.tread_values[1] == 2.0
    assert summary.tread_slopes[1] == 0.0


def test_staircase_summary_of_affine_pair_is_one_linear_tread(unit_params):
    pair = affine_optimal(unit_params)
    summary = summarize_staircase(pair, unit_params)
    assert summary.shape == "linear"
    assert summary.steps == 1
    assert summary.breakpoints == ()
    assert summary.line_slope == pytest.approx(pair.lam, abs=1e-10)
    assert summary.tread_slopes[0] == pytest.approx(pair.lam, abs=1e-10)
    assert summary.line_rms < 1e-10
