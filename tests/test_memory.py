"""Peak memory of the payoff estimators, the first-stage table and its
inverter, the collocation solve and the brute-force profile sweep.

The estimators and the inverter work in blocks of _BLOCK observations, and
the posterior mean in pieces of _BLOCK weights, so their temporaries do not
grow with samples x levels or with outer x inner nodes x levels; the sweep
scores profiles in blocks of _BLOCK_CELLS (profile, trajectory) cells.
tracemalloc sees NumPy's array buffers; the bounds sit above the blocked
peaks on the benchmark pair and well below the peaks of a single pass over
the whole grid or query set.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pbpsolve import (
    SignalingLevels,
    affine_optimal,
    brute_force_pbp,
    collocation_pair,
    default_grid,
    payoff_mc,
    payoff_quadrature,
    profile_count,
    random_model,
    residual_jacobian,
    solve_signaling_levels,
    strategy_from_pair,
)
from pbpsolve.counterexample import _BLOCK
from pbpsolve.ghq_solver import _collocation_point, _first_stage_table, _quantizer_init
from pbpsolve.quadrature import build_hermite_rule

MB = 1e6


def _peak_above_entry(fn) -> float:
    """Peak traced bytes above those held when fn starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_payoff_quadrature_peak_stays_bounded(bench_params, bench_pair, rule20):
    # One pass over the ~600 x 1,280 grid holds 43 MB per posterior
    # temporary and peaks near 77 MB.  Row blocks of _BLOCK observations
    # held _BLOCK x levels weights and peaked near 14.5 MB; the posterior
    # mean's pieces of _BLOCK weights peak near 7.4 MB.
    bench_pair.gamma1bar(np.linspace(-60.0, 60.0, 11))
    peak = _peak_above_entry(lambda: payoff_quadrature(bench_params, bench_pair, rule20, rule20))
    assert peak < 9 * MB


@pytest.mark.parametrize("name", ["affine", "grid"])
def test_payoff_mc_peak_stays_below_five_sample_arrays(bench_params, name):
    # 600k samples are 4.8 MB an array.  Computing out of place held five
    # (24.1 MB): x_0's or gamma1bar's values, both misses, the cost and the
    # standard error's deviations.  In place, the first miss and then the
    # deviations take x_0's buffer, and the peak is near 16.2 MB (affine)
    # and 17.6 MB (grid, whose gamma1bar returns a new array).
    pair = affine_optimal(bench_params)
    if name == "grid":
        grid = default_grid(bench_params, 2049, 8.0)
        pair = strategy_from_pair(pair, bench_params, grid).to_pair()
    peak = _peak_above_entry(lambda: payoff_mc(bench_params, pair, 600_000, 3))
    assert peak < 19 * MB


def test_gamma1bar_peak_does_not_grow_with_the_queries(bench_report):
    # A fresh inverter whose table already covers the queries, so the call
    # measures the inversion alone.  Over 4 blocks a single pass peaks near
    # 27 MB; the blocked inverter near 9 MB, 2 MB of it the output.
    levels = bench_report.levels
    inverter = collocation_pair(
        SignalingLevels(levels.levels, levels.rule_order, levels.params)
    ).gamma1bar
    x = np.random.default_rng(3).normal(0.0, 5.0, 4 * _BLOCK)
    inverter(np.array([x.min(), x.max()]))
    peak = _peak_above_entry(lambda: inverter(x))
    assert peak < 16 * MB


def test_first_stage_table_build_peak_stays_bounded(bench_report, rule7):
    # The build holds the nodes, H, H', the sorted values of H and the
    # coarse pass's picks, 1.6 MB each, and peaks near 11.4 MB: the coarse
    # pass's per-branch temporaries stay within a block of _BLOCK values,
    # and a switch-search round holds a few thousand points.
    peak = _peak_above_entry(lambda: _first_stage_table(bench_report.levels, rule7))
    assert peak < 14 * MB


def test_collocation_solve_holds_one_point_at_a_time(bench_params):
    # The residual and the Jacobian of a least-squares point share one
    # point's state (2.2 MB of posterior weights and moments at n = 64), and
    # the solve holds one point at a time.  Its peak is near that of one
    # residual_jacobian call, 7.6 MB; a cache that kept the points of its
    # 112 residual evaluations would grow by 2.2 MB a point.
    rule = build_hermite_rule(64)
    start = _quantizer_init(bench_params, rule)
    point = _collocation_point(start, bench_params, rule)
    state = sum(a.nbytes for a in (point.t, point.y, point.w, point.mass, point.mean, point.f))
    del point
    jacobian_peak = _peak_above_entry(lambda: residual_jacobian(start, bench_params, rule))
    peak = _peak_above_entry(
        lambda: solve_signaling_levels(bench_params, rule, init="quantizer", tol=1e-10)
    )
    assert peak <= jacobian_peak + state


def test_brute_force_sweep_holds_one_block_at_a_time():
    # A 1,024-profile model with 324 trajectories is scored in blocks of
    # 50 profiles; the sweep peaks below 1 MB.  Scoring all 1,024 profiles
    # in one block holds 2.7 MB an array and peaks near 16 MB.
    model = random_model(1, horizon=2, num_states=3, obs_sizes=(3, 2), action_sizes=(2, 2))
    assert profile_count(model) == 1024
    peak = _peak_above_entry(lambda: brute_force_pbp(model))
    assert peak < 2 * MB
