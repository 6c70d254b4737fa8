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
from scipy.optimize import brentq, least_squares

from pbpsolve import (
    ProblemParams,
    SignalingLevels,
    SolveReport,
    affine_optimal,
    collocation_pair,
    distinct_levels,
    eval_gamma1bar,
    eval_gamma2,
    expand_distinct_levels,
    payoff_quadrature,
    residual_jacobian,
    residual_system,
    solve_signaling_levels,
    solved_pair,
    summarize_staircase,
)
from pbpsolve.counterexample import _scan_jumps
from pbpsolve.errors import ConfigurationError, NumericError
from pbpsolve import ghq_solver
from pbpsolve.ghq_solver import (
    _TABLE_CHUNK,
    _TABLE_POINTS,
    _affine_init,
    _nearest_preimages,
    _quantizer_init,
    _signal_pull,
)
from pbpsolve.quadrature import SQRT_PI, build_hermite_rule


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


def _numpy_reversal_invariant_sum(a, axis=-1):
    """The reversal-invariant sum with the pair sums reduced by NumPy along
    any axis, as the residual used it before the shared kernels."""
    a = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    n = a.shape[-1]
    h = n // 2
    total = (a[..., :h] + a[..., : n - h - 1 : -1]).sum(axis=-1) if h else np.zeros(a.shape[:-1])
    if n % 2:
        total = total + a[..., h]
    return total


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
    b = _numpy_reversal_invariant_sum(w * t) / _numpy_reversal_invariant_sum(w)
    d = t[None, :] - b
    inner = (z[:, None] / c) * d * d + d
    s = _numpy_reversal_invariant_sum(lam[:, None] * inner, axis=0)
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
    starts = {"affine": _affine_init, "quantizer": _quantizer_init}
    for init, make_start in starts.items():
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
    calls = {"residual": 0, "jacobian": 0}
    residual, jacobian = ghq_solver.residual_system, ghq_solver.residual_jacobian

    def counting_residual(*args):
        calls["residual"] += 1
        return residual(*args)

    def counting_jacobian(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    monkeypatch.setattr(ghq_solver, "residual_system", counting_residual)
    monkeypatch.setattr(ghq_solver, "residual_jacobian", counting_jacobian)
    report = solve_signaling_levels(bench_params, rule7, init="quantizer", tol=1e-10)
    assert report.converged
    assert report.jacobian_evaluations >= 1
    # one more residual evaluation measures residual_norm
    assert calls == {"residual": report.iterations + 1,
                     "jacobian": report.jacobian_evaluations}
    start_only = solve_signaling_levels(bench_params, rule7, init="quantizer", iterate=False)
    assert (start_only.iterations, start_only.jacobian_evaluations) == (0, 0)


# ---------------------------------------------------------------------------
# solver drivers
# ---------------------------------------------------------------------------

def test_both_starts_reach_the_same_benchmark_solution(bench_params, rule7, bench_report):
    from_affine = solve_signaling_levels(bench_params, rule7, init="affine", tol=1e-10)
    assert from_affine.converged and bench_report.converged
    assert from_affine.init == "affine" and bench_report.init == "quantizer"
    assert np.max(np.abs(np.sort(from_affine.levels.levels)
                         - np.sort(bench_report.levels.levels))) < 1e-8


def test_auto_start_records_which_side_won(bench_params, rule7, rule20):
    report = solve_signaling_levels(bench_params, rule7, init="auto", tol=1e-10)
    assert report.converged
    assert report.init in ("auto:affine", "auto:quantizer")
    # Both starts converge here, so both were scored with the order-20 rules.
    assert [c.init for c in report.candidates] == ["auto:affine", "auto:quantizer"]
    assert all(c.converged and c.payoff.order == 20 for c in report.candidates)
    winner = next(c for c in report.candidates if c.init == report.init)
    assert winner.residual_norm == report.residual_norm
    assert report.payoff == winner.payoff
    assert report.payoff.total == min(c.payoff.total for c in report.candidates)
    assert payoff_quadrature(bench_params, solved_pair(report), rule20, rule20) == report.payoff


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


def test_quantizer_scale_controls_the_lattice(bench_params, rule7):
    outer = math.sqrt(2.0) * 5.0 * rule7.nodes[-1]
    base = solve_signaling_levels(bench_params, rule7, init="quantizer", iterate=False)
    assert base.levels.levels[-1] == pytest.approx(outer, abs=1e-12)
    assert np.unique(base.levels.levels) == pytest.approx(
        np.arange(-3, 4) * outer / 3.0, abs=1e-12
    )
    # a coarser lattice merges the two inner abscissas onto one rung
    coarse = solve_signaling_levels(
        bench_params, rule7, init="quantizer", iterate=False, quantizer_scale=1.3
    )
    delta = 1.3 * outer / 3.0
    rungs = np.unique(coarse.levels.levels)
    assert rungs.size == 5
    assert np.allclose(rungs / delta, np.round(rungs / delta), atol=1e-12)


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
    levels = SignalingLevels(np.full(7, 3.25), 7, bench_params)
    ys = np.array([-11.0, 0.0, 0.5, 9.0])
    assert np.allclose(eval_gamma2(ys, levels), 3.25, atol=1e-12)


def test_second_stage_is_odd_and_scalar_aware(bench_report):
    # the solved levels carry a ~4e-12 asymmetry, so the origin value does too
    assert eval_gamma2(0.0, bench_report.levels) == pytest.approx(0.0, abs=1e-10)
    value = eval_gamma2(4.2, bench_report.levels)
    assert isinstance(value, float)
    assert eval_gamma2(-4.2, bench_report.levels) == pytest.approx(-value, abs=1e-10)


def test_second_stage_exactly_symmetric_levels_fix_the_origin(bench_params):
    bundle = SignalingLevels(
        np.array([-19.8, -12.8, -6.1, 0.0, 6.1, 12.8, 19.8]), 7, bench_params
    )
    assert eval_gamma2(0.0, bundle) == pytest.approx(0.0, abs=1e-12)


def test_second_stage_saturates_at_outer_level(bench_report):
    top = float(np.max(bench_report.levels.levels))
    far = top + 20.0 * bench_report.levels.params.sigma
    assert eval_gamma2(far, bench_report.levels) == pytest.approx(top, abs=1e-6)


def test_second_stage_rejects_mismatched_rule(bench_report):
    with pytest.raises(ConfigurationError):
        eval_gamma2(0.0, bench_report.levels, rule=build_hermite_rule(9))


def test_first_stage_fixes_origin(bench_report):
    assert eval_gamma1bar(0.0, bench_report.levels) == pytest.approx(0.0, abs=1e-8)


def test_first_stage_is_consistent_at_collocation_points(bench_report, bench_params, rule7):
    x0 = math.sqrt(2.0) * bench_params.sigma_x * rule7.nodes
    for x, level in zip(x0, bench_report.levels.levels):
        assert eval_gamma1bar(float(x), bench_report.levels) == pytest.approx(
            float(level), abs=1e-8
        )


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


def test_eval_gamma1bar_is_the_batch_inverter(bench_report, bench_pair):
    xs = np.concatenate([np.random.default_rng(12).uniform(-30.0, 30.0, 40), [0.0, 250.0]])
    batch = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    for x, b in zip(xs, batch):
        value = eval_gamma1bar(float(x), bench_report.levels)
        assert isinstance(value, float)
        assert value == b
    with pytest.raises(NumericError):
        eval_gamma1bar(np.nan, bench_report.levels)


def _nearest_preimages_by_reduction(xs, branches, t):
    """The branch selection with the level distance taken by a reduction
    over a queries x levels array, the reference for the level passes."""
    best = np.full(xs.shape, np.nan)
    best_dist = np.full(xs.shape, np.inf)
    for seg_h, seg_g in branches:
        a = np.searchsorted(xs, seg_h[0], side="left")
        b = np.searchsorted(xs, seg_h[-1], side="right")
        cand = np.interp(xs[a:b], seg_h, seg_g)
        dist = np.min(np.abs(cand[:, None] - t[None, :]), axis=1)
        take = dist < best_dist[a:b]
        best[a:b][take] = cand[take]
        best_dist[a:b][take] = dist[take]
    return best


def test_nearest_preimage_keeps_the_first_of_tied_branches():
    """Candidates lie exactly midway between two levels or on a level, and
    at every covered query two branches tie; the earlier branch wins."""
    t = np.array([-3.0, -1.0, 1.0, 3.0])
    branches = (
        (np.array([0.0, 4.0]), np.array([-2.0, 2.0])),
        (np.array([0.0, 4.0]), np.array([0.0, 4.0])),
        (np.array([1.0, 3.0]), np.array([4.0, -4.0])),
    )
    xs = np.array([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    got = _nearest_preimages(xs, branches, t)
    assert got.tobytes() == _nearest_preimages_by_reduction(xs, branches, t).tobytes()
    assert np.array_equal(got, [np.nan, -2.0, -1.0, 0.0, 1.0, 2.0, np.nan], equal_nan=True)


def test_nearest_preimage_matches_the_reduction_on_the_benchmark_table(bench_pair):
    inverter = bench_pair.gamma1bar
    inverter(np.array([0.0]))
    table = inverter._table
    t = np.sort(bench_pair.levels)
    rng = np.random.default_rng(13)
    xs = np.sort(np.concatenate([
        rng.uniform(table.h_min, table.h_max, 20_000),
        0.5 * (t[:-1] + t[1:]),
        t,
    ]))
    got = _nearest_preimages(xs, table.branches, bench_pair.levels)
    want = _nearest_preimages_by_reduction(xs, table.branches, bench_pair.levels)
    assert got.tobytes() == want.tobytes()


def test_first_stage_is_odd(bench_pair):
    xs = np.linspace(0.5, 14.5, 29)
    left = np.asarray(bench_pair.gamma1bar(-xs), dtype=float)
    right = np.asarray(bench_pair.gamma1bar(xs), dtype=float)
    assert np.max(np.abs(left + right)) < 1e-9


def test_collocation_pair_exposes_levels(bench_pair, bench_report):
    assert bench_pair.kind == "collocation"
    assert np.array_equal(bench_pair.levels, bench_report.levels.levels)


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
    """The batch inverter as it was before the branch split moved into the
    table build: the table is split on every call, every branch interpolates
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
    few others, or in a batch that _signal_pull splits into pieces; R is the
    same bits with and without the slope."""
    rule = build_hermite_rule(order)
    t = _quantizer_init(bench_params, rule)
    piece = _TABLE_CHUNK // order
    g = np.random.default_rng(31).uniform(-40.0, 40.0, 2 * piece + 3)
    pull, slope = _signal_pull(g, t, bench_params, rule)
    for j in (0, 1, piece - 1, piece, 2 * piece + 2):
        alone = _signal_pull(g[j : j + 1], t, bench_params, rule)
        assert (alone[0][0], alone[1][0]) == (pull[j], slope[j])
    pair = _signal_pull(g[piece - 1 : piece + 1], t, bench_params, rule)
    assert np.array_equal(pair[0], pull[piece - 1 : piece + 1])
    only_pull, none = _signal_pull(g, t, bench_params, rule, with_slope=False)
    assert none is None
    assert np.array_equal(only_pull, pull)


def test_batch_inverter_is_chunk_invariant(bench_report):
    inverter = collocation_pair(bench_report.levels).gamma1bar
    x = np.random.default_rng(21).normal(0.0, 5.0, 3 * _TABLE_CHUNK + 17)
    whole = inverter(x)
    cuts = [0, 17, _TABLE_CHUNK + 5, 2 * _TABLE_CHUNK + 300, x.size]
    pieces = [inverter(x[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("sigma_x", [5.0, 4.0])
def test_batch_inverter_matches_three_step_reference(sigma_x, rule7):
    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=sigma_x)
    report = solve_signaling_levels(params, rule7, init="quantizer", tol=1e-10)
    assert report.converged
    draws = np.random.default_rng(7).normal(0.0, sigma_x, 20_000)
    # far queries widen the table window and so coarsen the interpolated start
    x = np.concatenate([draws, [-1000.0, -200.0, -60.0, 60.0, 200.0, 1000.0]])
    ref = _three_step_reference(report.levels, rule7, x)
    got = collocation_pair(report.levels).gamma1bar(x)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


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
    """Threads whose queries each force a table rebuild get the answers of a
    private inverter.  The tables differ in their windows, so the answers
    agree to rounding rather than bit for bit.  Each inverter comes from its
    own copy of the levels, since collocation_pair keeps one pair per levels
    object."""
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
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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


def test_staircase_summary_reads_the_quadrature_jump_scan(bench_pair, bench_params):
    xs, g, jumps = _scan_jumps(bench_pair, bench_params)
    assert xs.size == 20001 and xs[-1] == 8.5 * bench_params.sigma_x == -xs[0]
    assert np.array_equal(g, bench_pair.gamma1bar(xs))
    assert summarize_staircase(bench_pair, bench_params).breakpoints == tuple(jumps)


def test_staircase_summary_of_affine_pair_is_one_linear_tread(unit_params):
    pair = affine_optimal(unit_params)
    summary = summarize_staircase(pair, unit_params)
    assert summary.shape == "linear"
    assert summary.steps == 1
    assert summary.breakpoints == ()
    assert summary.line_slope == pytest.approx(pair.lam, abs=1e-10)
    assert summary.tread_slopes[0] == pytest.approx(pair.lam, abs=1e-10)
    assert summary.line_rms < 1e-10


def test_distinct_levels_of_benchmark(bench_report):
    reps = distinct_levels(bench_report.levels)
    assert reps.shape == (7,)
    assert np.max(np.abs(np.sort(reps) - np.sort(bench_report.levels.levels))) == 0.0


def test_distinct_levels_clusters_treads(bench_params):
    vec = np.array([-10.0, -10.0 + 1e-9, -10.0 + 2e-9, 0.0, 10.0, 10.0, 10.0 - 1e-9])
    bundle = SignalingLevels(np.sort(vec), 7, bench_params)
    reps = distinct_levels(bundle)
    assert reps == pytest.approx([-10.0, 0.0, 10.0], abs=1e-8)


def test_distinct_levels_constant_vector(bench_params):
    bundle = SignalingLevels(np.full(7, 2.0), 7, bench_params)
    assert distinct_levels(bundle).tolist() == [2.0]
