"""Collocation system, solver drivers, and strategy evaluation."""

from __future__ import annotations

import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

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
    _HALF,
    _STARTS,
    _TABLE_POINTS,
    _affine_init,
    _bisect,
    _branch_cells,
    _nearest_branch,
    _quantizer_init,
    _scan_points,
    _signal_pull,
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


def test_first_stage_is_consistent_at_collocation_points(
    bench_report, bench_pair, bench_params, rule7
):
    x0 = math.sqrt(2.0) * bench_params.sigma_x * rule7.nodes
    for x, level in zip(x0, bench_report.levels.levels):
        assert float(bench_pair.gamma1bar(float(x))) == pytest.approx(float(level), abs=1e-8)


def _scan_brentq_inverter(levels, rule, x0):
    """Scalar inversion of H(g) = g + R(g) = x0 by bracketed root finding,
    an algorithm independent of the batch inverter's table and Newton pass.

    A dense scan of H over a window containing every preimage brackets the
    sign changes of H - x0; each bracket is polished by Brent's method and
    kept only if the residual actually vanishes (sign changes across the
    downward jumps of H are not roots).  Among the true roots the one
    nearest to a signaling level is returned.
    """
    t = levels.levels
    params = levels.params
    pad = 6.0 * params.sigma + 1.0
    lo = min(float(t.min()), x0) - pad
    hi = max(float(t.max()), x0) + pad
    grid = np.linspace(lo, hi, 4001)
    resid = grid + _signal_pull(grid, t, params, rule)[0] - x0

    def h_defect(g):
        return float(g + _signal_pull(np.array([g]), t, params, rule)[0][0] - x0)

    scale = 1.0 + abs(x0) + float(np.max(np.abs(t)))
    roots = []
    for a, b, ra, rb in zip(grid[:-1], grid[1:], resid[:-1], resid[1:]):
        if ra == 0.0:
            roots.append(float(a))
        elif ra * rb < 0.0:
            r = brentq(h_defect, float(a), float(b), xtol=1e-13, rtol=1e-15)
            if abs(h_defect(r)) <= 1e-7 * scale:
                roots.append(float(r))
    if resid[-1] == 0.0:
        roots.append(float(grid[-1]))
    assert roots, f"no bracket at x0={x0!r}"
    roots = np.asarray(roots)
    return float(roots[np.argmin(np.min(np.abs(roots[:, None] - t[None, :]), axis=1))])


def test_first_stage_batch_matches_scalar(bench_report, bench_pair, rule7):
    rng = np.random.default_rng(11)
    xs = rng.uniform(-15.0, 15.0, 50)
    batch = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    for x, b in zip(xs, batch):
        assert b == pytest.approx(
            _scan_brentq_inverter(bench_report.levels, rule7, float(x)), abs=1e-10
        )


def _nearest_branch_by_reduction(xs, branches, t, inverse):
    """The branch selection with the level distance taken by a reduction
    over a queries x levels array, the reference for the two-level lookup."""
    choice = np.full(xs.shape, -1)
    best = np.full(xs.shape, np.inf)
    for k, (hs, *_) in enumerate(branches):
        inside = np.flatnonzero((xs >= hs[0]) & (xs <= hs[-1]))
        if not inside.size:
            continue
        cand = inverse(k, xs[inside])
        dist = np.min(np.abs(cand[:, None] - t[None, :]), axis=1)
        take = dist < best[inside]
        best[inside[take]] = dist[take]
        choice[inside[take]] = k
    return choice


def _table_branches(first_stage):
    """The monotone branches of a first-stage table as its build forms them
    (H at the nodes in ascending order, the first of those nodes and the
    node step), and the table's inverse on each."""
    h = first_stage.h
    rising = np.diff(h) > 0.0
    edges = [0, *(np.flatnonzero(rising[1:] != rising[:-1]) + 1), h.size - 1]
    branches = [
        (h[a : b + 1], a, 1) if rising[a] else (h[a : b + 1][::-1], b, -1)
        for a, b in zip(edges[:-1], edges[1:])
    ]

    def inverse(k, x):
        return first_stage.inverse(_branch_cells(branches[k], x), x)

    return branches, inverse


def _per_span(inverse):
    """The preimages argument of _nearest_branch from a per-branch inverse,
    with a count of its calls."""

    def preimages(spans, xs):
        preimages.calls += 1
        return [inverse(k, xs[i:j]) for k, i, j in spans]

    preimages.calls = 0
    return preimages


def test_nearest_preimage_keeps_the_first_of_tied_branches():
    """Candidates lie exactly midway between two levels or on a level, and
    at every covered query two branches tie; the earlier branch wins."""
    t = np.array([-3.0, -1.0, 1.0, 3.0])
    branches = (
        (np.array([0.0, 4.0]), np.array([-2.0, 2.0])),
        (np.array([0.0, 4.0]), np.array([0.0, 4.0])),
        (np.array([1.0, 3.0]), np.array([4.0, -4.0])),
    )

    def inverse(k, x):
        return np.interp(x, *branches[k])

    xs = np.array([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    preimages = _per_span(inverse)
    got = _nearest_branch(xs, branches, t, preimages)
    assert preimages.calls == 1
    assert np.array_equal(got, _nearest_branch_by_reduction(xs, branches, t, inverse))
    assert np.array_equal(got, [-1, 0, 0, 0, 0, 0, -1])
    assert _nearest_branch(np.array([-2.0, 6.0]), branches, t, preimages).tolist() == [-1, -1]


def test_nearest_preimage_lets_no_nan_or_inf_distance_win():
    """A preimage of nan or inf is never nearer than +inf: a query whose
    only covering branch gives one is covered by none."""
    t = np.array([-1.0, 1.0])
    branches = ((np.array([0.0, 2.0]),), (np.array([1.0, 3.0]),))
    values = {0: np.nan, 1: np.inf}
    xs = np.array([0.5, 1.5, 2.5])
    got = _nearest_branch(xs, branches, t, _per_span(lambda k, x: np.full(x.shape, values[k])))
    assert got.tolist() == [-1, -1, -1]
    values[1] = 0.5
    got = _nearest_branch(xs, branches, t, _per_span(lambda k, x: np.full(x.shape, values[k])))
    assert got.tolist() == [-1, 1, 1]


def test_nearest_preimage_matches_the_reduction_on_the_benchmark_table(bench_pair, bench_report):
    levels = bench_report.levels.levels
    h = bench_pair.gamma1bar.h
    branches, inverse = _table_branches(bench_pair.gamma1bar)
    t = np.sort(levels)
    rng = np.random.default_rng(13)
    xs = np.concatenate([rng.uniform(h.min(), h.max(), 20_000), 0.5 * (t[:-1] + t[1:]), t])
    xs = np.sort(np.concatenate([xs, np.nextafter(h[::1000], np.inf), h[::1000]]))
    got = _nearest_branch(xs, branches, t, _per_span(inverse))
    assert np.array_equal(got, _nearest_branch_by_reduction(xs, branches, levels, inverse))


def test_each_tread_is_served_by_the_branch_the_rule_picks(bench_pair, bench_report):
    """Away from the switch points, the table's answer is the preimage that
    the rule picks when it is applied to every branch at the query."""
    h = bench_pair.gamma1bar.h
    branches, inverse = _table_branches(bench_pair.gamma1bar)
    rng = np.random.default_rng(17)
    xs = np.concatenate([rng.uniform(h.min(), h.max(), 5_000), rng.normal(0, 5, 20_000)])
    switches = np.asarray(bench_pair.gamma1bar.switches)
    xs = xs[np.min(np.abs(xs[:, None] - switches[None, :]), axis=1) > 1e-9]
    choice = _nearest_branch_by_reduction(xs, branches, bench_report.levels.levels, inverse)
    assert np.all(choice >= 0)
    want = np.empty_like(xs)
    for k in np.unique(choice):
        want[choice == k] = inverse(k, xs[choice == k])
    assert np.array_equal(bench_pair.gamma1bar(xs), want)


def _plain_bisection(low, high, moves):
    """Bisection one step at a time, as the switch search ran it before it
    evaluated trees of steps: moves sees one row of midpoints a step."""
    while True:
        mid = low + 0.5 * (high - low)
        open_ = (mid > low) & (mid < high)
        if not open_.any():
            return high
        move = open_ & moves(mid[None])[0]
        high, low = np.where(move, mid, high), np.where(open_ & ~move, mid, low)


def _reference_search(first_stage, levels):
    """The switches and treads of a first-stage table as its build found
    them with one inverse per branch: the rule picks branch by branch
    (_nearest_branch_by_reduction), the coarse pass interpolates on each
    branch's own node grid, and each switch is bisected one step at a
    time."""
    branches, inverse = _table_branches(first_stage)
    origin, step = first_stage.origin, first_stage.step

    def interpolated(k, x):
        hs, first, way = branches[k]
        return np.interp(x, hs, origin + step * (first - _HALF + way * np.arange(hs.size)))

    def pick(x, inverse=inverse):
        return _nearest_branch_by_reduction(x, branches, levels, inverse)

    samples = np.sort(first_stage.h)
    choice = np.concatenate([
        pick(samples[a : a + _BLOCK], interpolated) for a in range(0, samples.size, _BLOCK)
    ])
    change = np.flatnonzero(choice[1:] != choice[:-1])
    near = np.union1d(np.clip(change[:, None] + np.arange(-2, 4), 0, samples.size - 1), [0])
    choice[near] = pick(samples[near])
    change = np.flatnonzero(choice[1:] != choice[:-1])
    left, right = samples[change], samples[change + 1]
    switches = [np.empty(0)]
    while left.size:
        first = pick(left)
        keep = first != pick(right)
        left, right, first = left[keep], right[keep], first[keep]
        left = _plain_bisection(left, right, lambda mid: pick(mid[0])[None] != first)
        switches.append(left)
    switches = np.sort(np.concatenate(switches))
    serving = pick(np.concatenate([samples[:1], switches]))
    return switches, [branches[k] for k in serving]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def searched_pairs(bench_report, rule7):
    """Fresh pairs of the benchmark's levels and of the regime sweep's two
    staircase solutions (the quantizer start, which init="auto" keeps at
    both), each with the count of _FirstStage.inverse calls its first-stage
    table's build made."""
    levels = [bench_report.levels]
    for k, sigma, sigma_x in [(0.005, 0.01, 2.0), (0.05, 0.04, 2.0)]:
        params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
        report = solve_signaling_levels(params, rule7, init="quantizer", tol=1e-10)
        assert report.converged
        levels.append(report.levels)
    inverse, build = ghq_solver._FirstStage.inverse, ghq_solver._first_stage_table
    calls, counts = [0], []

    def counting_inverse(self, cell, x):
        calls[0] += 1
        return inverse(self, cell, x)

    def counting_build(levels, rule):
        calls[0] = 0
        table = build(levels, rule)
        counts.append(calls[0])
        return table

    levels = [SignalingLevels(v.levels, v.rule_order, v.params) for v in levels]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghq_solver._FirstStage, "inverse", counting_inverse)
        mp.setattr(ghq_solver, "_first_stage_table", counting_build)
        pairs = [collocation_pair(v) for v in levels]
    return list(zip(levels, pairs, counts))


SEARCHED = pytest.mark.parametrize(
    "which", [0, 1, 2], ids=["benchmark", "sigma=0.01", "sigma=0.04"]
)


@SEARCHED
def test_the_switch_search_keeps_every_bit_of_the_per_branch_search(searched_pairs, which):
    """Switches, treads and breakpoints equal, bit for bit, those of the
    search that inverted one branch at a time and bisected one step at a
    time; the breakpoints follow collocation_pair's rule on the reference
    switches."""
    levels, pair, _ = searched_pairs[which]
    table = pair.gamma1bar
    switches, treads = _reference_search(table, levels.levels)
    assert np.array_equal(_bits(table.switches), _bits(switches))
    assert [(first, way) for _, first, way in table.treads] == [(f, w) for _, f, w in treads]
    for (got, *_), (want, *_) in zip(table.treads, treads):
        assert np.array_equal(_bits(got), _bits(want))
    reference = dataclasses.replace(table, switches=tuple(switches.tolist()), treads=tuple(treads))
    jumps = np.abs(reference(switches) - reference(np.nextafter(switches, -np.inf))) > table.step
    inside = np.abs(switches) < 8.5 * levels.params.sigma_x
    assert np.array_equal(_bits(pair.breakpoints), _bits(switches[jumps & inside]))


@SEARCHED
def test_a_first_stage_build_inverts_once_per_pick(searched_pairs, which):
    """Each pick of the build inverts every covering branch in one call; one
    call per branch and bisection step made 735, 4,403 and 3,339 here."""
    assert searched_pairs[which][2] <= 120


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_tree_bisection_matches_single_steps_for_any_moves(depth):
    """Brackets of adjacent floats, of equal ends, across 0 and of many
    scales, under predicates that depend on the midpoint's bits and the
    column and are monotone in neither: each tree round walks to the ends
    of single steps."""
    rng = np.random.default_rng(depth)
    low = rng.normal(0.0, 1.0, 60) * 10.0 ** rng.integers(-8, 8, 60)
    high = low + np.abs(rng.normal(0.0, 1.0, 60)) * 10.0 ** rng.integers(-12, 4, 60)
    high[:10] = np.nextafter(low[:10], np.inf)
    high[10:15] = low[10:15]
    low[15:20], high[15:20] = -1.0, 1.0
    for seed in range(4):
        salt = rng.integers(0, 2**63, 60, dtype=np.uint64)
        steps = []

        def moves(mid):
            steps.append(mid.shape[0])
            mixed = (mid.view(np.uint64) ^ salt) * np.uint64(0x9E3779B97F4A7C15)
            return (mixed >> np.uint64(62)) < np.uint64(1 + seed % 3)

        got = _bisect(low, high, moves, depth)
        assert set(steps) == {2**depth - 1}
        assert np.array_equal(_bits(got), _bits(_plain_bisection(low, high, moves)))


def test_first_stage_is_odd(bench_pair):
    xs = np.linspace(0.5, 14.5, 29)
    left = np.asarray(bench_pair.gamma1bar(-xs), dtype=float)
    right = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    assert np.max(np.abs(left + right)) < 1e-9


@pytest.mark.parametrize("order", [7, 15, 21])
@pytest.mark.parametrize(
    ("k", "sigma", "sigma_x"), [(0.2, 1.0, 5.0), (0.005, 0.01, 2.0), (2.0, 1.0, 20.0)]
)
def test_signal_pull_of_odd_levels_is_odd_and_its_slope_even(k, sigma, sigma_x, order):
    """For exactly odd levels, R(-g) = -R(g) and R'(-g) = R'(g) bit for
    bit (array_equal takes 0.0 for -0.0, which R(0) may be): the symmetry
    the first-stage table's build mirrors.  On the named starts and on a
    random odd vector, at values of g across the table's window and at
    the levels themselves."""
    params = ProblemParams(k=k, sigma=sigma, sigma_x=sigma_x)
    rule = build_hermite_rule(order)
    u = np.random.default_rng(order).normal(0.0, 4.0 * sigma_x, order)
    reach = 8.5 * sigma_x + 6.0 * sigma + 1.0
    for t in [start(params, rule) for start in _STARTS.values()] + [u - u[::-1]]:
        assert np.array_equal(t, -t[::-1])
        g = np.concatenate([np.random.default_rng(1).uniform(0.0, reach, 3000), np.abs(t)])
        pull, slope = _signal_pull(g, t, params, rule)
        mirror_pull, mirror_slope = _signal_pull(-g, t, params, rule)
        assert np.array_equal(mirror_pull, -pull)
        assert np.array_equal(_bits(mirror_slope), _bits(slope))


def _table_nodes(table):
    return table.origin + table.step * (np.arange(table.h.size) - _HALF)


@pytest.fixture(scope="module")
def odd_and_other_tables(bench_report, rule7):
    """First-stage tables of the benchmark's odd levels and of the levels
    the start user:-13,0,12 expands to, which are not odd, each with the
    sizes of the batches _signal_pull received while it was built."""
    params = bench_report.levels.params
    other = expand_distinct_levels([-13.0, 0.0, 12.0], params, rule7)
    built = []
    pull = ghq_solver._signal_pull

    def counting(g, *args, **kwargs):
        sizes.append(np.size(g))
        return pull(g, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ghq_solver, "_signal_pull", counting)
        for t in (bench_report.levels.levels, other):
            sizes = []
            table = ghq_solver._first_stage_table(SignalingLevels(t, 7, params), rule7)
            built.append((t, table, sizes))
    return built


def test_an_odd_table_pulls_its_nonnegative_half_and_any_other_every_node(odd_and_other_tables):
    (odd, _, odd_sizes), (other, _, other_sizes) = odd_and_other_tables
    assert np.array_equal(odd, -odd[::-1]) and not np.array_equal(other, -other[::-1])
    assert odd_sizes == [_HALF + 1]
    assert other_sizes == [_TABLE_POINTS]


@pytest.mark.parametrize("which", [0, 1], ids=["odd", "not odd"])
def test_a_first_stage_table_is_the_pull_on_every_node(
    odd_and_other_tables, bench_params, rule7, which
):
    """H and H' equal g + R and 1 + R' of _signal_pull on all the nodes at
    once, bit for bit, whichever half the build pulled; the nodes of odd
    levels are exactly odd, and the inverse at a node's own value of H
    returns that node."""
    t, table, _ = odd_and_other_tables[which]
    nodes = _table_nodes(table)
    assert nodes.size == _TABLE_POINTS
    assert np.all(np.diff(nodes) > 0.0)
    if which == 0:
        assert table.origin == 0.0
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(table.h, -table.h[::-1])
    pull, slope = _signal_pull(nodes, t, bench_params, rule7)
    assert np.array_equal(_bits(table.h), _bits(nodes + pull))
    assert np.array_equal(_bits(table.slope), _bits(slope + 1.0))
    cells = np.arange(nodes.size - 1)
    assert np.array_equal(_bits(table.inverse(cells, table.h[:-1])), _bits(nodes[:-1]))


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
# batch first-stage inverter
# ---------------------------------------------------------------------------

def _three_step_reference(levels, rule, x0):
    """The first stage as an earlier batch inverter computed it: a table
    sized by the queries is split on every call, every branch interpolates
    every query, and three Newton steps use a central-difference slope."""
    t = levels.levels
    params = levels.params
    pad = 6.0 * params.sigma + 1.0
    lo = min(float(t.min()), float(x0.min())) - pad
    hi = max(float(t.max()), float(x0.max())) + pad
    grid = np.linspace(lo, hi, _TABLE_POINTS)
    h = grid + _signal_pull(grid, t, params, rule)[0]
    rising = np.diff(h) > 0.0
    boundaries = [0, *(np.flatnonzero(rising[1:] != rising[:-1]) + 1), h.size - 1]
    best = np.full(x0.shape, np.nan)
    best_dist = np.full(x0.shape, np.inf)
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        seg_h = h[a : b + 1]
        seg_g = grid[a : b + 1]
        if seg_h[0] > seg_h[-1]:
            seg_h, seg_g = seg_h[::-1], seg_g[::-1]
        cand = np.interp(x0, seg_h, seg_g, left=np.nan, right=np.nan)
        dist = np.min(np.abs(cand[:, None] - t[None, :]), axis=1)
        dist = np.where(np.isnan(cand), np.inf, dist)
        take = dist < best_dist
        best = np.where(take, cand, best)
        best_dist = np.where(take, dist, best_dist)
    best = np.where(np.isnan(best) & (x0 <= h.min()), grid[0], best)
    best = np.where(np.isnan(best), np.where(x0 >= h.max(), grid[-1], best), best)
    for _ in range(3):
        f0 = best + _signal_pull(best, t, params, rule)[0] - x0
        rp = _signal_pull(best + 1e-6, t, params, rule)[0]
        rm = _signal_pull(best - 1e-6, t, params, rule)[0]
        slope = 1.0 + (rp - rm) / 2e-6
        step = np.where(np.abs(slope) > 1e-12, f0 / slope, 0.0)
        best = best - np.clip(step, -1.0, 1.0)
    return best


def test_signal_pull_slope_matches_central_differences(bench_report, bench_pair, rule7):
    levels = bench_report.levels
    t, params = levels.levels, levels.params
    # first-stage values on both sides of every jump of gamma1bar
    xs = np.linspace(-30.0, 30.0, 60001)
    gx = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    jumps = np.flatnonzero(np.abs(np.diff(gx)) > 1.0)
    assert jumps.size == 6
    edges = np.concatenate([gx[jumps], gx[jumps + 1]])
    g = np.concatenate([np.linspace(-27.0, 27.0, 940), edges, edges - 1e-3, edges + 1e-3])
    _, slope = _signal_pull(g, t, params, rule7)
    h = 1e-6
    central = (
        _signal_pull(g + h, t, params, rule7)[0] - _signal_pull(g - h, t, params, rule7)[0]
    ) / (2.0 * h)
    assert np.all(np.abs(slope - central) <= 1e-6 * np.abs(central))


@pytest.mark.parametrize("order", [7, 40])
def test_signal_pull_values_do_not_depend_on_the_batch(bench_params, order):
    """Each R(g) and R'(g) is the same bits whether g comes alone, with a
    few others, or in a batch that _signal_pull splits into pieces."""
    rule = build_hermite_rule(order)
    t = _quantizer_init(bench_params, rule)
    piece = _BLOCK // (order * t.size)
    g = np.random.default_rng(31).uniform(-40.0, 40.0, 2 * piece + 3)
    pull, slope = _signal_pull(g, t, bench_params, rule)
    for j in (0, 1, piece - 1, piece, 2 * piece + 2):
        alone = _signal_pull(g[j : j + 1], t, bench_params, rule)
        assert (alone[0][0], alone[1][0]) == (pull[j], slope[j])
    pair = _signal_pull(g[piece - 1 : piece + 1], t, bench_params, rule)
    assert np.array_equal(pair[0], pull[piece - 1 : piece + 1])


def test_batch_inverter_is_chunk_invariant(bench_report):
    """A call is inverted in blocks of _BLOCK queries; calls cut at other
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


@pytest.mark.parametrize("sigma_x", [5.0, 4.0])
def test_batch_inverter_matches_three_step_reference(sigma_x, rule7):
    """The table's cubic inverse gives the roots that three Newton steps
    polish from an interpolated start, on draws from the prior, on far
    queries and on both ends of the tabulated range of H.  Draws within
    1e-3 of a switch point are left out: there the reference picks its
    branch on linearly interpolated preimages of a table sized by the far
    queries, and the scan-plus-Brent oracle sides with the table
    (test_collocation_breakpoints_are_where_the_brent_reference_changes_branch)."""
    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=sigma_x)
    report = solve_signaling_levels(params, rule7, init="quantizer", tol=1e-10)
    assert report.converged
    first_stage = collocation_pair(report.levels).gamma1bar
    draws = np.random.default_rng(7).normal(0.0, sigma_x, 20_000)
    switches = np.asarray(first_stage.switches)
    draws = draws[np.min(np.abs(draws[:, None] - switches[None, :]), axis=1) > 1e-3]
    assert draws.size > 19_900
    ends = list(first_stage.span)
    x = np.concatenate([draws, [-200.0, -60.0, 60.0, 200.0], ends])
    ref = _three_step_reference(report.levels, rule7, x)
    got = first_stage(x)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_first_stage_counts_the_queries_outside_the_table(bench_pair):
    first_stage = bench_pair.gamma1bar
    h_min, h_max = first_stage.span
    assert h_min < -8.5 * 5.0 and h_max > 8.5 * 5.0
    assert first_stage(np.array([h_min, h_max])).shape == (2,)
    far = np.array([0.0, np.nextafter(h_max, np.inf), 3.0, 2.0 * h_min, 1.0])
    with pytest.raises(NumericError, match="2 of 5 first-stage queries lie outside"):
        first_stage(far)


def test_a_table_too_coarse_for_the_noise_is_refused(bench_params):
    """Levels so far out that the table's nodes lie wider apart than sigma
    end in a NumericError before any table is computed."""
    far = SignalingLevels(np.linspace(-1e6, 1e6, 7), 7, bench_params)
    with pytest.raises(NumericError, match="wider than sigma"):
        collocation_pair(far)


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
    """Threads that share one first-stage table get the answers of a
    private table, bit for bit: the table is complete before the first
    query and never changes.  Each table comes from its own copy of the
    levels, since collocation_pair keeps one pair per levels object."""
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
    assert sorted(round(v, 1) for v in inner) == [-12.8, -6.1, 0.0, 6.1, 12.8]
    # outer tread means pick up the rising tail past the last collocation point
    assert sorted(summary.tread_values)[0] == pytest.approx(-19.8, abs=0.5)
    assert sorted(summary.tread_values)[-1] == pytest.approx(19.8, abs=0.5)
    assert len(summary.breakpoints) == 6
    assert np.all(np.diff(summary.breakpoints) > 0)
    # treads are nearly flat but carry the small characteristic within-step slope
    assert max(abs(s) for s in summary.tread_slopes) < 0.05


def test_collocation_breakpoints_are_where_the_brent_reference_changes_branch(
    bench_pair, bench_report, bench_params, rule7
):
    """Each breakpoint is an exact switch: the scan-plus-Brent reference
    jumps across it within 1e-9, and nowhere else on a grid between them.
    The breakpoints lie within one scan step of the jumps the sampled jump
    scan finds, and the staircase summary reads them."""
    breaks = bench_pair.breakpoints
    assert len(breaks) == 6
    for b in breaks[3:]:
        eps = 1e-9 * max(1.0, abs(b))
        below = _scan_brentq_inverter(bench_report.levels, rule7, b - eps)
        above = _scan_brentq_inverter(bench_report.levels, rule7, b + eps)
        assert abs(above - below) > 1.0
    edges = [0.0, *breaks[3:], 20.0]
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, 9)[1:-1]
        refs = [_scan_brentq_inverter(bench_report.levels, rule7, float(x)) for x in xs]
        assert np.max(np.abs(np.diff(refs))) < 1.0
    xs = _scan_points(bench_params)
    assert xs.size == 20001 and xs[-1] == 8.5 * bench_params.sigma_x == -xs[0]
    scanned = jump_breakpoints(xs, bench_pair.gamma1bar(xs))
    assert np.max(np.abs(np.subtract(scanned, breaks))) < xs[1] - xs[0]
    assert summarize_staircase(bench_pair, bench_params).breakpoints == breaks


def test_breakpoints_are_the_switch_points_where_the_first_stage_jumps(rule7):
    """At k = 2, sigma_x = 5 some switches pass between two branches at
    their shared turn of H, where gamma1bar is continuous: the pair lists
    every switch inside +-8.5 sigma_x at which gamma1bar jumps by more than
    a table step, and no other.  Its jumps of 0.23 to 0.96 lie below the
    threshold of the sampled jump scan, which finds none."""
    params = ProblemParams(k=2.0, sigma=1.0, sigma_x=5.0)
    report = solve_signaling_levels(params, rule7, init="affine", tol=1e-10)
    assert report.converged
    pair = collocation_pair(report.levels)
    first_stage = pair.gamma1bar
    s = np.array([x for x in first_stage.switches if abs(x) < 8.5 * params.sigma_x])
    jumps = np.abs(first_stage(s) - first_stage(np.nextafter(s, -np.inf)))
    assert np.array_equal(pair.breakpoints, s[jumps > first_stage.step])
    assert len(pair.breakpoints) == 8 and len(s) > 8
    assert np.all(jumps[jumps > first_stage.step] > 0.2)
    assert np.all(jumps[jumps <= first_stage.step] < 1e-9)
    xs = _scan_points(params)
    assert jump_breakpoints(xs, first_stage(xs)) == []


@pytest.mark.parametrize(("k", "sigma_x"), [(0.2, 5.0), (1.0, 5.0), (2.0, 5.0)])
def test_first_stage_roots_solve_h_to_rounding(k, sigma_x, rule7):
    """The cell cubic's root is a root of H itself: |H(g) - x0| stays at
    rounding on draws from the prior, also where treads end next to a turn
    of H (k = 1 and k = 2)."""
    params = ProblemParams(k=k, sigma=1.0, sigma_x=sigma_x)
    report = solve_signaling_levels(params, rule7, init="affine", tol=1e-10)
    first_stage = collocation_pair(report.levels).gamma1bar
    x = np.random.default_rng(5).normal(0.0, sigma_x, 20_000)
    g = first_stage(x)
    defect = g + _signal_pull(g, report.levels.levels, params, rule7)[0] - x
    assert np.max(np.abs(defect)) < 1e-11


def test_first_stage_roots_solve_h_next_to_every_turn(rule7):
    """In a table cell that holds a turn of H the cell cubic is not
    monotone, and Newton steps alone can stop at a cell end (|H(g) - x0|
    reached 5.1e-6 here).  Queries drawn uniformly over the values of H on
    the three cells each side of every turn get roots of H to 1e-9."""
    params = ProblemParams(k=2.0, sigma=1.0, sigma_x=20.0)
    report = solve_signaling_levels(params, rule7, init="auto")
    assert report.converged
    first_stage = collocation_pair(report.levels).gamma1bar
    h = first_stage.h
    rising = np.diff(h) > 0.0
    turns = np.flatnonzero(rising[1:] != rising[:-1]) + 1
    assert turns.size == 60
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.uniform(h[e - 3 : e + 4].min(), h[e - 3 : e + 4].max(), 2_000) for e in turns
    ])
    g = first_stage(x)
    defect = g + _signal_pull(g, report.levels.levels, params, rule7)[0] - x
    assert np.max(np.abs(defect)) <= 1e-9


def test_benchmark_quadrature_total_agrees_across_outer_orders(bench_pair, bench_params):
    """With panels split at the exact jumps the quadrature total converges:
    outer orders 20, 40 and 64 agree to 1e-12."""
    totals = []
    for order in (20, 40, 64):
        rule = build_hermite_rule(order)
        totals.append(payoff_quadrature(bench_params, bench_pair, rule, rule).total)
    assert max(totals) - min(totals) <= 1e-12
    assert totals[0] == pytest.approx(0.1779722135579, abs=1e-12)


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
