"""Best-response operator, Picard iteration, derivative kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pbpsolve import (
    GridStrategy,
    ProblemParams,
    affine_optimal,
    apply_F,
    default_grid,
    frechet_kernel,
    jump_breakpoints,
    lipschitz_estimate,
    payoff_mc,
    payoff_quadrature,
    picard_iterate,
    residual_system,
    solve_signaling_levels,
    solved_pair,
    strategy_from_pair,
)
from pbpsolve import fixed_point
from pbpsolve.errors import ConfigurationError
from pbpsolve.quadrature import build_hermite_rule


@pytest.fixture(scope="module")
def rule40():
    return build_hermite_rule(40)


@pytest.fixture(scope="module")
def strong_params():
    return ProblemParams(k=5.0, sigma=1.0, sigma_x=1.0)


# ---------------------------------------------------------------------------
# gridded strategies
# ---------------------------------------------------------------------------

def test_grid_strategy_validation():
    good = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        GridStrategy(grid=np.array([0.0, 0.0, 1.0]), values1=np.zeros(3), values2=np.zeros(3))
    with pytest.raises(ConfigurationError):
        GridStrategy(grid=good, values1=np.zeros(4), values2=np.zeros(5))
    with pytest.raises(ConfigurationError):
        GridStrategy(grid=good, values1=np.full(5, np.nan), values2=np.zeros(5))
    with pytest.raises(ConfigurationError):
        GridStrategy(grid=np.array([1.0]), values1=np.array([0.0]), values2=np.array([0.0]))


def test_grid_strategy_interpolates_and_clamps():
    s = GridStrategy(
        grid=np.array([0.0, 1.0, 2.0]),
        values1=np.array([0.0, 2.0, 2.0]),
        values2=np.array([1.0, 1.0, 5.0]),
    )
    assert s.interp1(np.array([0.5])) == pytest.approx([1.0])
    assert s.interp2(np.array([1.5])) == pytest.approx([3.0])
    # constant extrapolation beyond the grid
    assert s.interp1(np.array([-10.0, 10.0])) == pytest.approx([0.0, 2.0])
    assert s.interp2(np.array([-10.0, 10.0])) == pytest.approx([1.0, 5.0])


def test_default_grid_shape_and_bounds(bench_params):
    g = default_grid(bench_params)
    assert g.size == 201
    assert g[0] == -6.0 * bench_params.sigma_x and g[-1] == 6.0 * bench_params.sigma_x
    with pytest.raises(ConfigurationError):
        default_grid(bench_params, points=1)


def test_strategy_from_pair_samples_both_components(unit_params):
    pair = affine_optimal(unit_params)
    s = strategy_from_pair(pair, unit_params)
    assert np.array_equal(s.grid, default_grid(unit_params))
    assert np.allclose(s.values1, pair.lam * s.grid, atol=1e-14)
    assert np.allclose(s.values2, pair.gamma2(s.grid), atol=1e-14)


def test_round_trip_through_pair_preserves_samples(unit_params):
    s = strategy_from_pair(affine_optimal(unit_params), unit_params)
    back = strategy_from_pair(s.to_pair(), unit_params, s.grid)
    assert np.array_equal(back.values1, s.values1)
    assert np.array_equal(back.values2, s.values2)


GRIDS = {
    "default": lambda params: default_grid(params, 2049, 8.0),
    "non-uniform": lambda params: np.sort(np.random.default_rng(4).uniform(-30.0, 50.0, 300)),
    "two-node": lambda params: np.array([-1.5, 2.0]),
}


@pytest.mark.parametrize("name", GRIDS)
def test_grid_pair_is_np_interp_bit_for_bit(monkeypatch, bench_params, name):
    grid = GRIDS[name](bench_params)
    rng = np.random.default_rng(7)
    values1 = np.round(3.0 * np.tanh(grid / 4.0))  # flat treads and jumps
    values2 = rng.normal(size=grid.size)
    values1[grid.size // 2] = values2[0] = -0.0
    s = GridStrategy(grid=grid, values1=values1, values2=values2)
    sizes = []
    cells = fixed_point._CellTable.cells

    def spy(table, x):
        sizes.append(x.size)
        return cells(table, x)

    monkeypatch.setattr(fixed_point._CellTable, "cells", spy)
    pair = s.to_pair()
    span = grid[-1] - grid[0]
    queries = np.concatenate([
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, -np.inf),
        [grid[0] - span, grid[-1] + span, -1e300, 1e300, 0.0, -0.0, np.inf, -np.inf],
        rng.uniform(grid[0] - 1.0, grid[-1] + 1.0, 2 * fixed_point._BLOCK + 5),
    ])
    queries = queries[: queries.size // 4 * 4]
    for f, values in ((pair.gamma1bar, s.values1), (pair.gamma2, s.values2)):
        for q in (queries, queries.reshape(4, -1)):
            got, want = f(q), np.interp(q, grid, values)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert sizes and max(sizes) <= fixed_point._BLOCK
    assert sum(sizes) == 4 * queries.size


def test_grid_pair_lists_both_ends_of_each_jumping_cell():
    grid = np.linspace(-4.0, 4.0, 9)
    values = np.array([-3.0, -3.0, -3.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.1])
    s = GridStrategy(grid=grid, values1=values, values2=np.zeros(9))
    pair = s.to_pair()
    # the jump rule flags the cells [-2, -1] and [1, 2] on the grid's own samples
    assert jump_breakpoints(grid, values) == [-1.5, 1.5]
    assert pair.breakpoints == (-2.0, -1.0, 1.0, 2.0)
    smooth = GridStrategy(grid=grid, values1=np.tanh(grid), values2=np.zeros(9))
    assert smooth.to_pair().breakpoints == ()


def test_grid_pair_of_the_benchmark_agrees_with_monte_carlo(
    bench_params, bench_pair, rule20
):
    """On 401 grid points the benchmark pair's jumps become one-cell ramps
    (0.15 wide) that the jump scan of gamma1bar misses; panels split at the
    listed cell ends integrate them.  Without them the quadrature read
    0.194114 against a Monte Carlo 0.257942 +- 0.001699, 37.6 SE apart."""
    pair = strategy_from_pair(bench_pair, bench_params, default_grid(bench_params, 401)).to_pair()
    assert len(pair.breakpoints) == 12
    quad = payoff_quadrature(bench_params, pair, rule20, rule20)
    mc = payoff_mc(bench_params, pair, 600_000, 0)
    assert abs(quad.total - mc.total) <= 2.0 * mc.std_error


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

def test_operator_on_zero_strategy(unit_params, rule20):
    grid = np.linspace(-4.0, 4.0, 41)
    zero = GridStrategy(grid=grid, values1=np.zeros(41), values2=np.zeros(41))
    image = apply_F(zero, unit_params, rule20)
    # the first-stage integrand vanishes identically, so F1 is the identity
    assert np.array_equal(image.values1, grid)
    # pushing the prior through the zero map leaves a zero posterior mean
    assert np.array_equal(image.values2, np.zeros(41))


def test_operator_constant_first_stage_gives_constant_posterior(bench_params, rule20):
    grid = np.linspace(-20.0, 20.0, 81)
    c = 3.7
    s = GridStrategy(grid=grid, values1=np.full(81, c), values2=np.zeros(81))
    image = apply_F(s, bench_params, rule20)
    assert np.max(np.abs(image.values2 - c)) < 1e-12


def test_operator_preserves_odd_symmetry(unit_params, rule20):
    grid = np.linspace(-5.0, 5.0, 101)
    s = GridStrategy(
        grid=grid,
        values1=2.0 * np.tanh(grid),
        values2=3.0 * grid / (1.0 + grid * grid),
    )
    image = apply_F(s, unit_params, rule20)
    assert np.max(np.abs(image.values1 + image.values1[::-1])) < 1e-12
    assert np.max(np.abs(image.values2 + image.values2[::-1])) < 1e-12


def test_solved_benchmark_is_nearly_fixed(bench_params, bench_pair, rule7):
    grid = np.linspace(-24.0, 24.0, 2**16 + 1)
    s = strategy_from_pair(bench_pair, bench_params, grid)
    image = apply_F(s, bench_params, rule7)
    assert np.max(np.abs(image.values1 - s.values1)) <= 1e-6
    assert np.max(np.abs(image.values2 - s.values2)) <= 1e-6


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def test_operator_values_do_not_depend_on_the_block(monkeypatch, bench_params, bench_pair, rule7):
    """apply_F takes the grid _BLOCK // order points at a time; blocks of 4
    points, the last holding a single point, give the same bits as one
    block over the whole grid."""
    s = strategy_from_pair(bench_pair, bench_params)
    whole = apply_F(s, bench_params, rule7)
    monkeypatch.setattr(fixed_point, "_BLOCK", 4 * rule7.order)
    blocked = apply_F(s, bench_params, rule7)
    assert s.grid.size % 4 == 1
    assert np.array_equal(blocked.values1, whole.values1)
    assert np.array_equal(blocked.values2, whole.values2)


def test_damping_must_lie_in_unit_interval(unit_params, rule20):
    s = strategy_from_pair(affine_optimal(unit_params), unit_params)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigurationError):
            picard_iterate(s, unit_params, rule20, damping=bad)
    with pytest.raises(ConfigurationError):
        picard_iterate(s, unit_params, rule20, max_iter=0)


def test_half_damped_iteration_reaches_the_affine_point(unit_params, rule40):
    init = strategy_from_pair(affine_optimal(unit_params), unit_params)
    init = GridStrategy(
        init.grid,
        init.values1 + 0.25 * np.sin(init.grid),
        init.values2 - 0.25 * np.cos(2.0 * init.grid) * np.sign(init.grid),
    )
    result = picard_iterate(init, unit_params, rule40, damping=0.5, max_iter=300, tol=1e-11)
    assert result.converged and not result.diverged
    pair = affine_optimal(unit_params)
    inner = np.abs(init.grid) <= 3.0
    limit = result.strategy
    assert np.max(np.abs(limit.values1[inner] - pair.lam * init.grid[inner])) < 1e-3
    assert np.max(np.abs(limit.values2[inner] - pair.gamma2(init.grid[inner]))) < 1e-3


def test_undamped_iteration_fails_at_unit_cost_weight(unit_params, rule40):
    init = strategy_from_pair(affine_optimal(unit_params), unit_params)
    init = GridStrategy(init.grid, init.values1 + 0.1, init.values2)
    result = picard_iterate(init, unit_params, rule40, damping=1.0, max_iter=60, tol=1e-11)
    assert not result.converged


def test_strong_penalty_iteration_matches_collocation(strong_params, rule40):
    init = strategy_from_pair(affine_optimal(strong_params), strong_params)
    init = GridStrategy(
        init.grid, init.values1 + 0.3 * np.sin(init.grid), init.values2 - 0.2 * np.cos(init.grid)
    )
    result = picard_iterate(init, strong_params, rule40, damping=1.0, max_iter=100, tol=1e-11)
    assert result.converged
    # a smooth solution needs a finer prior discretization in the second
    # component than seven points, so compare against an order-15 solve
    rule15 = build_hermite_rule(15)
    report = solve_signaling_levels(strong_params, rule15, init="affine", tol=1e-10)
    pair = solved_pair(report)
    inner = np.abs(init.grid) <= 3.0
    xg = init.grid[inner]
    assert np.max(np.abs(result.strategy.values1[inner] - np.asarray(pair.gamma1bar(xg)))) < 1e-4
    assert np.max(np.abs(result.strategy.values2[inner] - np.asarray(pair.gamma2(xg)))) < 1e-4


def test_picard_limit_satisfies_the_collocation_system(strong_params, rule7):
    # iterating with the same rule that defines the collocation system makes
    # the limit an exact discrete fixed point, so the residual drops to the
    # iteration tolerance
    grid = default_grid(strong_params, points=2049, span=8.0)
    init = strategy_from_pair(affine_optimal(strong_params), strong_params, grid)
    init = GridStrategy(
        init.grid, init.values1 + 0.3 * np.sin(grid), init.values2 - 0.2 * np.cos(grid)
    )
    result = picard_iterate(init, strong_params, rule7, damping=0.5, max_iter=200, tol=1e-11)
    assert result.converged
    levels = result.strategy.interp1(math.sqrt(2.0) * strong_params.sigma_x * rule7.nodes)
    assert np.linalg.norm(residual_system(levels, strong_params, rule7)) <= 1e-6


def test_cross_rule_limit_leaves_the_discretization_gap(strong_params, rule40, rule7):
    # iterating with a fine rule converges to the continuum solution, which
    # satisfies the seven-point system only up to that system's own error
    grid = default_grid(strong_params, points=2049, span=8.0)
    init = strategy_from_pair(affine_optimal(strong_params), strong_params, grid)
    init = GridStrategy(
        init.grid, init.values1 + 0.3 * np.sin(grid), init.values2 - 0.2 * np.cos(grid)
    )
    result = picard_iterate(init, strong_params, rule40, damping=1.0, max_iter=100, tol=1e-12)
    assert result.converged
    levels = result.strategy.interp1(math.sqrt(2.0) * strong_params.sigma_x * rule7.nodes)
    assert np.linalg.norm(residual_system(levels, strong_params, rule7)) <= 1e-4


def test_weak_penalty_regime_is_expansive(bench_params, bench_pair, rule7):
    # with k = 0.2 the first-stage response amplifies by 1/k^2 = 25, so the
    # iteration runs away even when started at the solution; this regime
    # belongs to the collocation solver instead
    grid = default_grid(bench_params, points=513, span=8.0)
    init = strategy_from_pair(bench_pair, bench_params, grid)
    result = picard_iterate(init, bench_params, rule7, damping=0.5, max_iter=60, tol=1e-10)
    assert result.diverged and not result.converged


def test_a_vanishing_damping_does_not_pass_for_convergence(strong_params, rule7):
    # With damping 1e-300 every step rounds to 0 while the start, the
    # affine pair at k = 5, is about 1e-4 from F of itself; the stopping
    # test reads the undamped defect, not the step.  The strategy never
    # moves, so the first zero step ends the iteration, not converged.
    grid = default_grid(strong_params, points=513, span=8.0)
    init = strategy_from_pair(affine_optimal(strong_params), strong_params, grid)
    image = apply_F(init, strong_params, rule7)
    defect = max(np.max(np.abs(image.values1 - init.values1)),
                 np.max(np.abs(image.values2 - init.values2)))
    assert defect > 1e-6
    result = picard_iterate(init, strong_params, rule7, damping=1e-300, max_iter=3)
    assert result.steps == (0.0,)
    assert not result.converged and result.iterations == 1
    assert np.array_equal(result.strategy.values1, init.values1)
    assert np.array_equal(result.strategy.values2, init.values2)


def test_step_history_is_recorded(unit_params, rule40):
    init = strategy_from_pair(affine_optimal(unit_params), unit_params)
    init = GridStrategy(init.grid, init.values1 + 0.1 * np.sin(init.grid), init.values2)
    result = picard_iterate(init, unit_params, rule40, damping=0.5, max_iter=5, tol=1e-16)
    assert result.iterations == 5
    assert len(result.steps) == 5
    assert all(step > 0.0 for step in result.steps)


# ---------------------------------------------------------------------------
# derivative kernels
# ---------------------------------------------------------------------------

def test_second_component_never_reads_gamma2(unit_params):
    s = strategy_from_pair(affine_optimal(unit_params), unit_params)
    rng = np.random.default_rng(3)
    for _ in range(10):
        K = frechet_kernel(s, unit_params, (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))))
        assert K[1, 1] == 0.0


def test_kernels_at_zero_strategy_are_finite_and_nonzero(unit_params):
    grid = np.linspace(-4.0, 4.0, 41)
    zero = GridStrategy(grid=grid, values1=np.zeros(41), values2=np.zeros(41))
    K = frechet_kernel(zero, unit_params, (0.5, 1.0))
    assert np.all(np.isfinite(K))
    assert K[0, 0] != 0.0 and K[0, 1] != 0.0 and K[1, 0] != 0.0


def test_first_stage_kernels_match_finite_differences(unit_params):
    base = strategy_from_pair(affine_optimal(unit_params), unit_params)
    curved = GridStrategy(
        base.grid,
        base.values1 + 0.1 * np.tanh(base.grid),
        base.values2 + 0.05 * base.grid**2 / (1.0 + np.abs(base.grid)),
    )
    sv = unit_params.sigma
    sv2 = sv * sv
    k2 = unit_params.k**2
    h = 1e-5
    rng = np.random.default_rng(7)

    def integrand(zeta, gv, g2v):
        A = zeta - gv
        d = gv - g2v
        phi = math.exp(-A * A / (2.0 * sv2)) / (sv * math.sqrt(2.0 * math.pi))
        return -(1.0 / k2) * (A * d * d / (2.0 * sv2) + d) * phi

    for _ in range(40):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        K = frechet_kernel(curved, unit_params, (a, b))
        g = float(curved.interp1(np.array([a]))[0])
        g2b = float(curved.interp2(np.array([b]))[0])
        fd00 = (integrand(b, g + h, g2b) - integrand(b, g - h, g2b)) / (2.0 * h)
        fd01 = (integrand(b, g, g2b + h) - integrand(b, g, g2b - h)) / (2.0 * h)
        assert K[0, 0] == pytest.approx(fd00, rel=1e-5, abs=1e-10)
        assert K[0, 1] == pytest.approx(fd01, rel=1e-5, abs=1e-10)


def test_posterior_kernel_integrates_to_the_shift_derivative(unit_params):
    base = strategy_from_pair(affine_optimal(unit_params), unit_params)
    curved = GridStrategy(
        base.grid,
        base.values1 + 0.1 * np.tanh(base.grid),
        base.values2,
    )
    sv2 = unit_params.sigma**2
    prior_rule = build_hermite_rule(40)
    xi, p_xi = unit_params.prior.quad_points(prior_rule)
    g1_xi = curved.interp1(xi)
    h = 1e-5
    rng = np.random.default_rng(17)
    for _ in range(8):
        b = float(rng.uniform(-2.0, 2.0))

        def posterior_mean_of_shifted(shift):
            loc = g1_xi + shift
            w = np.exp(-((b - loc) ** 2) / (2.0 * sv2))
            return float(np.dot(p_xi, loc * w) / np.dot(p_xi, w))

        fd = (posterior_mean_of_shifted(h) - posterior_mean_of_shifted(-h)) / (2.0 * h)
        kernel_integral = math.fsum(
            pj * frechet_kernel(curved, unit_params, (float(xj), b))[1, 0]
            for xj, pj in zip(xi, p_xi)
        )
        assert kernel_integral == pytest.approx(fd, rel=1e-5)


def _posterior_kernel_by_raw_weights(strategy, params, a, b):
    """K[1,0] from raw exp weights, as frechet_kernel computed it before its
    weights were shifted in log space."""
    sv2 = params.sigma**2
    g = float(strategy.interp1(np.array([a]))[0])
    xi, p_xi = params.prior.quad_points(build_hermite_rule(40))
    g1_xi = strategy.interp1(xi)
    w = np.exp(-((b - g1_xi) ** 2) / (2.0 * sv2))
    den = float(np.dot(p_xi, w))
    num = float(np.dot(p_xi, g1_xi * w))
    wa = math.exp(-((b - g) ** 2) / (2.0 * sv2))
    dwa = wa * (b - g) / sv2
    return (wa + g * dwa) / den - num * dwa / (den * den)


def test_posterior_kernel_agrees_with_the_raw_weight_formula(unit_params):
    """At the sample points of the kernel tests above, where no weight
    underflows, both forms of K[1,0] agree to rounding."""
    affine = strategy_from_pair(affine_optimal(unit_params), unit_params)
    curved = GridStrategy(affine.grid, affine.values1 + 0.1 * np.tanh(affine.grid),
                          affine.values2)
    xi, _ = unit_params.prior.quad_points(build_hermite_rule(40))
    rng = np.random.default_rng(3)
    points = [(affine, *rng.uniform(-3.0, 3.0, 2)) for _ in range(10)]
    points += [(curved, *rng.uniform(-2.0, 2.0, 2)) for _ in range(40)]
    points += [(curved, x, b) for b in rng.uniform(-2.0, 2.0, 8) for x in xi]
    for strategy, a, b in points:
        want = _posterior_kernel_by_raw_weights(strategy, unit_params, float(a), float(b))
        got = frechet_kernel(strategy, unit_params, (float(a), float(b)))[1, 0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_posterior_kernel_is_finite_far_from_the_prior():
    """At b = 80 every raw weight of the benchmark affine pair underflows."""
    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0)
    s = strategy_from_pair(affine_optimal(params), params)
    for a in (0.0, 30.0):
        K = frechet_kernel(s, params, (a, 80.0))
        assert np.all(np.isfinite(K))
    # a at the grid's edge plays the largest signal, nearest to b
    assert K[1, 0] > 0.0


# ---------------------------------------------------------------------------
# contraction estimate
# ---------------------------------------------------------------------------

def test_probe_count_must_be_positive(unit_params, rule20):
    s = strategy_from_pair(affine_optimal(unit_params), unit_params)
    with pytest.raises(ConfigurationError):
        lipschitz_estimate(s, unit_params, rule20, probes=0)


def test_contraction_in_the_strong_penalty_regimes(rule40):
    for k in (5.0, 100.0):
        p = ProblemParams(k=k, sigma=1.0, sigma_x=1.0)
        s = strategy_from_pair(affine_optimal(p), p)
        assert lipschitz_estimate(s, p, rule40, probes=10) < 1.0


def test_estimate_is_seed_deterministic(strong_params, rule40):
    s = strategy_from_pair(affine_optimal(strong_params), strong_params)
    first = lipschitz_estimate(s, strong_params, rule40, probes=5, seed=9)
    second = lipschitz_estimate(s, strong_params, rule40, probes=5, seed=9)
    assert first == second
