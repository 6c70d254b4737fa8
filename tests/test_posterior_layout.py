"""The locations-first posterior kernels against the locations-last ones.

The posterior weights hold the locations along axis 0, so each location's
weights are one contiguous row.  The copies below are the kernels as they
were written with the locations along the last axis; every output of the
package must equal theirs bit for bit: the weights (up to the moved axis),
the posterior moments, the posterior mean and the collocation Jacobian.
The orders run from 1 to 64 locations.  The copies use plain np.exp, so they also
check that the exp fast path of the weights keeps every bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from pbpsolve import (
    ProblemParams,
    gaussian_posterior_mean,
    residual_jacobian,
    solve_signaling_levels,
)
from pbpsolve.counterexample import (
    _exp_in_place,
    _posterior_mean_parts,
    _posterior_variance,
    _posterior_weights,
    _reversal_invariant_sum,
)
from pbpsolve.quadrature import SQRT_PI, build_hermite_rule

from test_ghq_solver import _jacobian_starts

ORDERS = [1, 2, 3, 7, 15, 16, 17, 40, 64]


# ---------------------------------------------------------------------------
# the locations-last kernels
# ---------------------------------------------------------------------------

def _weights_last(y, locations, log_masses, sigma):
    far = 1e150 * min(1.0, sigma)
    y = np.clip(np.asarray(y, dtype=float), locations.min() - far, locations.max() + far)
    log_a = np.subtract(y[..., None], locations)
    np.square(log_a, out=log_a)
    np.negative(log_a, out=log_a)
    with np.errstate(over="ignore"):
        log_a /= 2.0 * sigma * sigma
    log_a += log_masses
    top = log_a[..., 0].copy()
    for j in range(1, log_a.shape[-1]):
        np.maximum(top, log_a[..., j], out=top)
    lost = top == -np.inf
    if lost.any():
        gap = np.where(log_masses > -np.inf, np.abs(y[lost][:, None] - locations), np.inf)
        nearest = gap == gap.min(axis=-1, keepdims=True)
        log_a[lost] = np.where(nearest, log_masses, -np.inf)
        top[lost] = log_a[lost].max(axis=-1)
    log_a -= top[..., None]
    return np.exp(log_a, out=log_a)


def _moments_last(y, locations, log_masses, sigma):
    w = _weights_last(y, locations, log_masses, sigma)
    mass = _reversal_invariant_sum(w)
    mean = _reversal_invariant_sum(w * locations) / mass
    var = _reversal_invariant_sum(w * (locations * locations)) / mass - mean * mean
    return w, mass, mean, var


def _posterior_mean_last(y, locations, prior_weights, sigma):
    locations = np.asarray(locations, dtype=float)
    log_masses = np.log(np.ascontiguousarray(prior_weights, dtype=float))
    w = _weights_last(y, locations, log_masses, sigma)
    return _reversal_invariant_sum(w * locations) / _reversal_invariant_sum(w)


def _jacobian_last(t, params, rule):
    z = rule.nodes
    lam = rule.weights
    sv = params.sigma
    var_scale = sv * sv
    c = math.sqrt(2.0) * sv
    y = c * z[:, None] + t[None, :]
    w, mass, b, var = _moments_last(y, t, np.log(lam), sv)
    g = lam[:, None] * ((2.0 * z[:, None] / c) * (t[None, :] - b) + 1.0)
    diag = _reversal_invariant_sum(g * (1.0 - var / var_scale), axis=0)
    dev = (t - b[..., None]) * (y[..., None] - t) / var_scale
    cross = _reversal_invariant_sum((g / mass)[..., None] * w * (1.0 + dev), axis=0)
    return np.eye(t.size) + (np.diag(diag) - cross) / (SQRT_PI * params.k**2)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _mixtures(n, rng):
    """(name, locations, prior weights): random, mirror-symmetric, one
    location without mass, all locations tied, and a location at -0.0 far
    above the others, where every weighted location is -0.0 or 0.0 and the
    sign of the zero total shows the start of the sums."""
    spread = 10.0 ** rng.uniform(-1.0, 1.5)
    random = np.sort(rng.normal(0.0, spread, n))
    yield "random", random, rng.uniform(0.01, 1.0, n)
    rule = build_hermite_rule(n)
    yield "hermite", 5.0 * rule.nodes, rule.weights
    massless = rng.uniform(0.01, 1.0, n)
    massless[n // 2] = 0.0
    if n > 1:
        yield "massless", random, massless
    yield "tied", np.full(n, 2.5), np.full(n, 1.0 / n)
    yield "negative zero", np.append(-60.0 * np.arange(n - 1, 0, -1), -0.0), np.full(n, 1.0 / n)


def _observations(locations, rng):
    """(name, y) of shapes 0-d, (1,), (m,) and (nodes, m), with signed
    zeros, +-1e300 and values exactly at the locations among them."""
    special = np.concatenate([[0.0, -0.0, 1e300, -1e300], locations])
    row = np.concatenate([special, rng.normal(0.0, 3.0 * (np.ptp(locations) + 1.0), 13)])
    for value in (0.0, -0.0, 1e300, -1e300, locations[0], locations[-1], row[-1]):
        yield f"0-d {value!r}", np.array(value)
        yield f"(1,) {value!r}", np.array([value])
    yield "(m,)", row
    yield "(nodes, m)", np.stack([row, -row, rng.permutation(row), row[::-1], row + 0.5])


def _cases(n):
    rng = np.random.default_rng(700 + n)
    for name, locations, weights in _mixtures(n, rng):
        for sigma in (1e-160, 0.05, 1.0, 30.0):
            for y_name, y in _observations(locations, rng):
                yield f"{name} sigma={sigma!r} y={y_name}", y, locations, weights, sigma


def _same(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", ORDERS)
def test_posterior_kernels_match_the_locations_last_kernels_bitwise(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, y, locations, weights, sigma in _cases(n):
            with np.errstate(divide="ignore"):  # the massless location's log
                log_masses = np.log(weights)

            w = _posterior_weights(y, locations, log_masses, sigma)
            want = _weights_last(y, locations, log_masses, sigma)
            assert _same(w, np.moveaxis(want, -1, 0)), name

            got = _posterior_mean_parts(y, locations, log_masses, sigma)
            got += (_posterior_variance(*got, locations),)
            want = _moments_last(y, locations, log_masses, sigma)
            assert _same(got[0], np.moveaxis(want[0], -1, 0)), name
            for part, a, b in zip(("mass", "mean", "variance"), got[1:], want[1:]):
                assert _same(a, b), (name, part)

            with np.errstate(divide="ignore"):
                mean = gaussian_posterior_mean(y, locations, weights, sigma)
                want = _posterior_mean_last(y, locations, weights, sigma)
            assert _same(mean, want), name


@pytest.mark.parametrize("n", ORDERS)
def test_posterior_weights_keep_the_shape_of_y_after_the_locations(n):
    locations = np.linspace(-3.0, 3.0, n)
    log_masses = np.zeros(n)
    for shape in ((), (1,), (4,), (3, 4)):
        w = _posterior_weights(np.zeros(shape), locations, log_masses, 1.0)
        assert w.shape == (n, *shape)
        assert w.flags.c_contiguous


@pytest.mark.parametrize("order", [7, 15, 16, 40, 64])
def test_jacobian_matches_the_locations_last_jacobian_bitwise(bench_params, order):
    rule = build_hermite_rule(order)
    rng = np.random.default_rng(800 + order)
    starts = dict(_jacobian_starts(bench_params, rule))
    starts["odd"] = (lambda u: u - u[::-1])(rng.normal(0.0, 15.0, order))
    for j in range(3):
        starts[f"random {j}"] = rng.normal(0.0, 10.0 ** rng.uniform(-1, 2), order)
    other = ProblemParams(k=0.7, sigma=0.3, sigma_x=2.0)
    for name, t in starts.items():
        for params in (bench_params, other):
            got = residual_jacobian(t, params, rule)
            assert _same(got, _jacobian_last(t, params, rule)), (name, params)


def _exp_cases(params):
    """(name, y, locations, log masses, sigma, low): a grid across the
    solved benchmark levels and Monte Carlo draws, each seen at the noise
    nodes (few lanes below -700), the n = 40 Jacobian observations at the quantizer
    start, an array where a third of the lanes fall in [-745.2, -700) and
    some observations are NaN, and sigma = 1e-160, where every lane but the
    nearest is -inf.  low says whether 1 in 16 or more lanes are below
    -700, which sends the weights down the gathered path."""
    rule = build_hermite_rule(7)
    t = solve_signaling_levels(params, rule, init="affine", tol=1e-10).levels.levels
    c = math.sqrt(2.0) * params.sigma
    z = rule.nodes[:, None]
    log_lam = np.log(rule.weights)
    grid = np.linspace(t.min() - 7.0, t.max() + 7.0, 1337)
    yield "level grid", c * z + grid, t, log_lam, 1.0, False
    draws = np.random.default_rng(1601).normal(0.0, params.sigma_x, 1337)
    yield "monte carlo", c * z + draws, t, log_lam, 1.0, False
    rule40 = build_hermite_rule(40)
    t40 = solve_signaling_levels(params, rule40, init="quantizer", iterate=False).levels.levels
    y40 = c * rule40.nodes[:, None] + t40[None, :]
    yield "jacobian n=40", y40, t40, np.log(rule40.weights), 1.0, True
    band = np.linspace(-1.0, 1.0, 3001)
    band[::97] = np.nan
    yield "band", band, np.array([-38.0, 0.0, 38.0]), np.log([0.25, 0.5, 0.25]), 1.0, True
    yield "sigma=1e-160", c * z + grid, t, log_lam, 1e-160, True


def test_posterior_weights_exp_fast_path_keeps_every_bit(bench_params):
    for name, y, locations, log_masses, sigma, low in _exp_cases(bench_params):
        want = np.moveaxis(_weights_last(y, locations, log_masses, sigma), -1, 0)
        with np.errstate(invalid="ignore"):  # NaN observations
            share = np.count_nonzero(want < math.exp(-700.0)) / want.size
        assert (share * 16 >= 1) == low, (name, share)
        assert _same(_posterior_weights(y, locations, log_masses, sigma), want), name


def test_exp_in_place_matches_np_exp_at_its_thresholds():
    edges = [-745.2, -745.133, -700.0, -708.4, -745.1332191019412]
    special = [np.nan, -np.inf, -0.0, 0.0, -1e300, *edges]
    special += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    ramp = np.linspace(-800.0, 0.0, 40_001)
    a = np.concatenate([special, ramp, np.random.default_rng(1602).permutation(ramp)])
    want = np.exp(a)
    assert _same(_exp_in_place(a.copy()), want)
    high = np.concatenate([special, np.linspace(-600.0, 0.0, 40_001)])
    assert _same(_exp_in_place(high.copy()), np.exp(high))
