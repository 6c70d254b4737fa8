"""The locations-first posterior kernels against the locations-last ones.

The posterior weights hold the locations along axis 0, so each location's
weights are one contiguous row.  The copies below are the kernels as they
were written with the locations along the last axis; every output of the
package must equal theirs bit for bit: the weights (up to the moved axis),
the posterior moments, the posterior mean and the collocation Jacobian.
The orders cover both sides of the switch from row passes to NumPy's
pairwise sum at 8 mirror pairs.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from pbpsolve import ProblemParams, gaussian_posterior_mean, residual_jacobian
from pbpsolve.counterexample import (
    _posterior_moments,
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

            got = _posterior_moments(y, locations, log_masses, sigma)
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
