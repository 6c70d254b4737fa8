"""Baselines, payoff estimators, likelihood ratio, and stationarity checks.

Closed forms and adaptive scipy.integrate quadrature serve as independent
oracles for the package's nested Gauss rules.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pbpsolve import (
    GaussianPrior,
    PayoffBreakdown,
    ProblemParams,
    StrategyPair,
    TwoPointSymmetricPrior,
    affine_cost,
    affine_optimal,
    affine_pair,
    default_grid,
    gaussian_posterior_mean,
    jump_breakpoints,
    payoff_mc,
    payoff_quadrature,
    rnd_density,
    stationarity_residual,
    strategy_from_pair,
    wit_nonlinear,
)
from numpy.polynomial.legendre import leggauss

from pbpsolve.counterexample import (
    _BLOCK,
    _CellTable,
    _gauss_panels,
    _posterior_mean_parts,
    _posterior_weights,
    _reversal_invariant_sum,
)
from pbpsolve.errors import ConfigurationError, NumericError
from pbpsolve.quadrature import build_hermite_rule


def affine_cost_by_hand(lam: float, mu: float, params: ProblemParams) -> tuple[float, float]:
    """Independent closed form: stage costs of the affine pair.

    x1 = lam x0 ~ G(0, lam^2 sx^2); stage1 = k^2 (lam-1)^2 sx^2;
    stage2 = E (x1 - mu (x1 + v))^2 = (1-mu)^2 lam^2 sx^2 + mu^2 s^2.
    """
    sx2 = params.sigma_x**2
    s2 = params.sigma**2
    stage1 = params.k**2 * (lam - 1.0) ** 2 * sx2
    stage2 = (1.0 - mu) ** 2 * lam**2 * sx2 + mu**2 * s2
    return stage1, stage2


def wit_cost_by_hand(params: ProblemParams) -> tuple[float, float]:
    """Independent oracle for the sign/tanh pair via adaptive quadrature.

    By symmetry it is enough to condition on x1 = +sigma_x.
    """
    sx, s = params.sigma_x, params.sigma
    stage1 = 2.0 * params.k**2 * sx**2 * (1.0 - math.sqrt(2.0 / math.pi))

    def integrand(v: float) -> float:
        err = sx - sx * math.tanh(sx * (sx + v) / s**2)
        return err * err * math.exp(-(v * v) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))

    stage2, _ = quad(integrand, -10 * s, 10 * s, epsabs=1e-14, epsrel=1e-13)
    return stage1, stage2


# ---------------------------------------------------------------------------
# parameters and priors
# ---------------------------------------------------------------------------

def test_params_default_prior_is_gaussian():
    p = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0)
    assert isinstance(p.prior, GaussianPrior)
    assert p.prior.variance == 25.0


@pytest.mark.parametrize("kwargs", [
    {"k": 0.0, "sigma": 1.0, "sigma_x": 1.0},
    {"k": 1.0, "sigma": -1.0, "sigma_x": 1.0},
    {"k": 1.0, "sigma": 1.0, "sigma_x": 0.0},
])
def test_params_reject_nonpositive(kwargs):
    with pytest.raises(ConfigurationError):
        ProblemParams(**kwargs)


def test_gaussian_prior_quad_points_reproduce_moments(rule20):
    prior = GaussianPrior(9.0)
    pts, masses = prior.quad_points(rule20)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-13)
    assert float(masses @ pts**2) == pytest.approx(9.0, abs=1e-12)
    assert float(masses @ pts**4) == pytest.approx(3 * 81.0, abs=1e-10)


def test_two_point_prior_quad_points(rule7):
    prior = TwoPointSymmetricPrior(5.0)
    pts, masses = prior.quad_points(rule7)
    assert sorted(pts.tolist()) == [-5.0, 5.0]
    assert masses.tolist() == [0.5, 0.5]


def test_prior_sampling_moments():
    rng = np.random.default_rng(123)
    x = GaussianPrior(4.0).sample(rng, 200_000)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)
    assert np.var(x) == pytest.approx(4.0, abs=0.05)
    t = TwoPointSymmetricPrior(3.0).sample(rng, 10_000)
    assert set(np.unique(t)) == {-3.0, 3.0}


# ---------------------------------------------------------------------------
# affine baseline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3, 1.0, 1.7])
def test_affine_cost_matches_hand_closed_form(lam):
    p = ProblemParams(k=0.7, sigma=1.3, sigma_x=2.1)
    mu, total = affine_cost(lam, p)
    stage1, stage2 = affine_cost_by_hand(lam, mu, p)
    assert total == pytest.approx(stage1 + stage2, abs=1e-12)
    # the reported mu must be the best response to the slope
    for other in (mu - 1e-3, mu + 1e-3):
        assert stage1 + affine_cost_by_hand(lam, other, p)[1] >= total


def test_affine_quadrature_payoff_is_exact(rule20, unit_params):
    pair = affine_optimal(unit_params)
    got = payoff_quadrature(unit_params, pair, rule20, rule20)
    stage1, stage2 = affine_cost_by_hand(pair.lam, pair.mu, unit_params)
    assert got.stage1 == pytest.approx(stage1, abs=1e-13)
    assert got.stage2 == pytest.approx(stage2, abs=1e-13)
    assert got.estimator == "quadrature"


@pytest.mark.parametrize("orders", [(1, 20), (20, 1)])
def test_affine_quadrature_payoff_refuses_an_order_one_rule(unit_params, orders):
    # An order-1 rule has its one node at 0: every cost it integrates
    # reads 0.0.
    outer, inner = (build_hermite_rule(n) for n in orders)
    with pytest.raises(ConfigurationError, match="order >= 2"):
        payoff_quadrature(unit_params, affine_optimal(unit_params), outer, inner)


def test_affine_optimal_is_stationary_and_minimal(unit_params):
    pair = affine_optimal(unit_params)
    _, total = affine_cost(pair.lam, unit_params)

    def cost(lam: float) -> float:
        return affine_cost(lam, unit_params)[1]

    # independent optimum by scalar minimization
    best = minimize_scalar(cost, bounds=(0.0, 2.0), method="bounded",
                           options={"xatol": 1e-12})
    assert total <= best.fun + 1e-12
    h = 1e-6
    assert (cost(pair.lam + h) - cost(pair.lam - h)) / (2 * h) == pytest.approx(0.0, abs=1e-6)


def test_affine_optimal_large_k_limit():
    # with expensive control the best affine strategy forwards x0 and the
    # second stage filters: total -> sx^2 s^2 / (sx^2 + s^2)
    p = ProblemParams(k=100.0, sigma=1.0, sigma_x=1.0)
    _, total = affine_cost(affine_optimal(p).lam, p)
    assert total == pytest.approx(0.5, abs=1e-3)


def test_affine_optimal_requires_gaussian_prior():
    p = ProblemParams(k=1.0, sigma=1.0, sigma_x=2.0, prior=TwoPointSymmetricPrior(2.0))
    with pytest.raises(ConfigurationError):
        affine_optimal(p)


# ---------------------------------------------------------------------------
# sign/tanh baseline
# ---------------------------------------------------------------------------

def test_wit_first_stage_takes_exactly_two_values(bench_params):
    pair = wit_nonlinear(bench_params)
    xs = np.linspace(-20, 20, 401)  # includes 0
    values = set(np.unique(pair.gamma1bar(xs)))
    assert values == {-5.0, 5.0}


def test_wit_first_stage_maps_both_zeros_to_plus_sigma_x(bench_params):
    # sgn(0) = +1 on either sign of zero.
    got = wit_nonlinear(bench_params).gamma1bar(np.array([0.0, -0.0, -1e-300, 1e-300]))
    assert got.tolist() == [5.0, 5.0, -5.0, 5.0]
    assert not np.any(np.signbit(got[:2]))


def test_wit_second_stage_is_exact_conditional_mean(bench_params):
    pair = wit_nonlinear(bench_params)
    sx, s = bench_params.sigma_x, bench_params.sigma
    for y in (-7.3, -0.2, 0.0, 1.9, 12.0):
        # direct two-point Bayes ratio
        wp = math.exp(-((y - sx) ** 2) / (2 * s * s))
        wm = math.exp(-((y + sx) ** 2) / (2 * s * s))
        expected = sx * (wp - wm) / (wp + wm)
        assert float(pair.gamma2(np.array([y]))[0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(sx * math.tanh(sx * y / s**2), abs=1e-12)


@pytest.mark.parametrize("params", [
    ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0),
    ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0),
])
def test_wit_quadrature_payoff_matches_adaptive_oracle(params, rule40, rule20):
    got = payoff_quadrature(params, wit_nonlinear(params), rule40, rule20)
    stage1, stage2 = wit_cost_by_hand(params)
    assert got.stage1 == pytest.approx(stage1, abs=1e-10)
    assert got.stage2 == pytest.approx(stage2, abs=1e-8 * max(1.0, stage2))


def test_wit_two_point_prior_has_zero_first_stage(rule40, rule20):
    p = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0, prior=TwoPointSymmetricPrior(5.0))
    got = payoff_quadrature(p, wit_nonlinear(p), rule40, rule20)
    assert got.stage1 == 0.0
    _, stage2 = wit_cost_by_hand(p)
    assert got.total == pytest.approx(stage2, abs=1e-10)


# ---------------------------------------------------------------------------
# likelihood ratio
# ---------------------------------------------------------------------------

def test_rnd_density_is_one_for_zero_strategy():
    p = ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)
    zero = affine_pair(0.0, 0.0)
    for y in (-3.0, 0.0, 2.5):
        assert rnd_density(p, zero.gamma1bar, 0.7, y) == 1.0


def test_rnd_density_normalizes_under_reference(rule40):
    p = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0)
    pair = wit_nonlinear(p)
    s = p.sigma
    for x0 in (-4.2, 0.3, 6.0):
        total = math.fsum(
            w / math.sqrt(math.pi)
            * rnd_density(p, pair.gamma1bar, x0, math.sqrt(2.0) * s * z)
            for z, w in zip(rule40.nodes, rule40.weights)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_rnd_density_matches_explicit_gaussian_ratio():
    p = ProblemParams(k=1.0, sigma=2.0, sigma_x=1.0)
    pair = affine_pair(0.5, 0.0)
    x0, y = 1.2, -0.7
    g = 0.6
    expected = math.exp(-((y - g) ** 2) / 8.0) / math.exp(-(y**2) / 8.0)
    assert rnd_density(p, pair.gamma1bar, x0, y) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_payoff_mc_is_seed_deterministic(bench_params):
    pair = wit_nonlinear(bench_params)
    a = payoff_mc(bench_params, pair, 10_000, 42)
    b = payoff_mc(bench_params, pair, 10_000, 42)
    c = payoff_mc(bench_params, pair, 10_000, 43)
    assert (a.stage1, a.stage2, a.total) == (b.stage1, b.stage2, b.total)
    assert a.total != c.total
    assert a.estimator == "monte-carlo" and a.samples == 10_000 and a.seed == 42
    assert a.std_error > 0


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5])
def test_payoff_mc_rejects_a_seed_that_is_not_a_non_negative_integer(bench_params, seed):
    with pytest.raises(ConfigurationError):
        payoff_mc(bench_params, wit_nonlinear(bench_params), 100, seed)


MC_PAIRS = {
    "collocation": lambda params, solved: solved,
    "affine": lambda params, solved: affine_optimal(params),
    "wit": lambda params, solved: wit_nonlinear(params),
    "grid": lambda params, solved: strategy_from_pair(
        solved, params, default_grid(params, 2049, 8.0)
    ).to_pair(),
    # Both stages return their own input, so a write into an array a
    # strategy received or returned changes the estimate.
    "identity": lambda params, solved: StrategyPair(gamma1bar=lambda x: x, gamma2=lambda y: y),
}


@pytest.mark.parametrize("name", MC_PAIRS)
def test_payoff_mc_evaluates_the_second_stage_in_pieces(bench_params, bench_pair, name):
    """gamma2 sees at most _BLOCK samples per call, and the estimate is
    the same bits as one gamma2 call over every sample."""
    pair = MC_PAIRS[name](bench_params, bench_pair)
    sizes = []

    def gamma2(y):
        sizes.append(np.size(y))
        return pair.gamma2(y)

    samples = 2 * _BLOCK + 123
    got = payoff_mc(bench_params, dataclasses.replace(pair, gamma2=gamma2), samples, 5)
    assert max(sizes) <= _BLOCK and sum(sizes) == samples
    seq_x, seq_v = np.random.SeedSequence(5).spawn(2)
    x0 = bench_params.prior.sample(np.random.default_rng(seq_x), samples)
    v = np.random.default_rng(seq_v).normal(0.0, bench_params.sigma, samples)
    g1 = pair.gamma1bar(x0)
    g2 = pair.gamma2(g1 + v)
    assert got.stage1 == float(bench_params.k**2 * np.mean((g1 - x0) ** 2))
    assert got.stage2 == float(np.mean((g1 - g2) ** 2))
    cost = bench_params.k**2 * (g1 - x0) ** 2 + (g1 - g2) ** 2
    assert got.std_error == float(np.std(cost) / math.sqrt(samples))


@pytest.mark.parametrize("samples", [1, 2, 3, 1_000, _BLOCK + 1])
def test_payoff_mc_standard_error_is_np_std_bit_for_bit(bench_params, samples):
    """The standard error, computed in place in a buffer of the estimator,
    is np.std of the costs over sqrt(samples), with the costs rebuilt here."""
    pair = wit_nonlinear(bench_params)
    got = payoff_mc(bench_params, pair, samples, 9)
    seq_x, seq_v = np.random.SeedSequence(9).spawn(2)
    x0 = bench_params.prior.sample(np.random.default_rng(seq_x), samples)
    v = np.random.default_rng(seq_v).normal(0.0, bench_params.sigma, samples)
    g1 = pair.gamma1bar(x0)
    cost = bench_params.k**2 * (g1 - x0) ** 2 + (g1 - pair.gamma2(g1 + v)) ** 2
    assert got.std_error == float(np.std(cost) / math.sqrt(samples))


def test_payoff_quadrature_evaluates_the_second_stage_in_blocks(bench_params, bench_pair, rule20):
    """gamma2 sees whole rows of the outer x inner grid, at most _BLOCK
    observations per call, and both stages are the same bits as one gamma2
    call over the whole grid."""
    shapes = []

    def gamma2(y):
        shapes.append(np.shape(y))
        return bench_pair.gamma2(y)

    spy = dataclasses.replace(bench_pair, gamma2=gamma2)
    got = payoff_quadrature(bench_params, spy, rule20, rule20)
    x0, px = _gauss_panels(bench_params.sigma_x, bench_pair.breakpoints, 20, 8.5, 1.0)
    v, pv = _gauss_panels(bench_params.sigma, [], 20, 8.0, 0.25)
    assert len(shapes) > 1
    assert all(rows * inner <= _BLOCK and inner == v.size for rows, inner in shapes)
    assert sum(rows for rows, _ in shapes) == x0.size
    g1 = bench_pair.gamma1bar(x0)
    g2 = bench_pair.gamma2(g1[:, None] + v[None, :])
    assert got.stage1 == float(bench_params.k**2 * np.dot(px, (g1 - x0) ** 2))
    assert got.stage2 == float(np.dot(px, ((g1[:, None] - g2) ** 2) @ pv))


def test_pairs_list_their_jumps(bench_params):
    assert affine_optimal(bench_params).breakpoints == ()
    assert wit_nonlinear(bench_params).breakpoints == (0.0,)
    pair = StrategyPair(gamma1bar=np.sign, gamma2=np.tanh, breakpoints=[np.float64(-1), 2])
    assert pair.breakpoints == (-1.0, 2.0)
    assert all(type(b) is float for b in pair.breakpoints)
    for bad in ((1.0, 0.0), (0.0, 0.0), (np.nan,), (-np.inf, 0.0)):
        with pytest.raises(ConfigurationError, match="breakpoints"):
            StrategyPair(gamma1bar=np.sign, gamma2=np.tanh, breakpoints=bad)


def test_quadrature_splits_a_hand_built_pair_at_its_breakpoints(bench_params, rule20):
    """A jumping gamma1bar integrates exactly only at its listed jumps: the
    wit pair's gamma1bar with its jump at 0.3 sigma_x instead of 0."""
    sx = bench_params.sigma_x
    shift = 0.3 * sx
    base = wit_nonlinear(bench_params)
    moved = dataclasses.replace(base, gamma1bar=lambda x: base.gamma1bar(np.asarray(x) - shift))
    unlisted = payoff_quadrature(bench_params, moved, rule20, rule20)
    listed = payoff_quadrature(
        bench_params, dataclasses.replace(moved, breakpoints=(shift,)), rule20, rule20
    )
    # stage1 = k^2 E (sx sgn(x - shift) - x)^2, by quad on each side of the jump
    density = lambda x: math.exp(-x * x / (2 * sx * sx)) / (sx * math.sqrt(2 * math.pi))
    exact = bench_params.k**2 * (
        quad(lambda x: (-sx - x) ** 2 * density(x), -math.inf, shift)[0]
        + quad(lambda x: (sx - x) ** 2 * density(x), shift, math.inf)[0]
    )
    assert listed.stage1 == pytest.approx(exact, rel=1e-12)
    assert abs(unlisted.stage1 - exact) > 1e-6 * exact


def test_payoff_mc_refuses_costs_whose_square_overflows(bench_params):
    """A cost above sqrt(float max) is a NumericError on every host, not a
    standard error that is 0.0 or inf depending on how its mean rounds."""
    far = StrategyPair(
        gamma1bar=lambda x: np.full_like(np.asarray(x, dtype=float), 1e135),
        gamma2=lambda y: np.full_like(np.asarray(y, dtype=float), -1e135),
    )
    with pytest.raises(NumericError, match="standard error"):
        payoff_mc(bench_params, far, 1000, 0)


def test_payoff_mc_rejects_empty_sample(bench_params):
    with pytest.raises(ConfigurationError):
        payoff_mc(bench_params, wit_nonlinear(bench_params), 0, 0)


@pytest.mark.parametrize("make_pair", [affine_optimal, wit_nonlinear])
def test_estimators_agree_within_three_standard_errors(make_pair, bench_params, rule40, rule20):
    pair = make_pair(bench_params)
    quad_est = payoff_quadrature(bench_params, pair, rule40, rule20)
    mc_est = payoff_mc(bench_params, pair, 200_000, 7)
    assert abs(mc_est.total - quad_est.total) <= 3.0 * mc_est.std_error


def test_payoff_breakdown_enforces_total():
    with pytest.raises(ConfigurationError):
        PayoffBreakdown(stage1=1.0, stage2=1.0, total=2.5, estimator="quadrature")
    with pytest.raises(ConfigurationError):
        PayoffBreakdown(stage1=-0.1, stage2=0.1, total=0.0, estimator="quadrature")


def test_payoff_quadrature_flags_nonfinite_strategy(bench_params, rule20):
    bad = StrategyPair(
        gamma1bar=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
        gamma2=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
    )
    with pytest.raises(NumericError):
        payoff_quadrature(bench_params, bad, rule20, rule20)


# ---------------------------------------------------------------------------
# posterior mean helper
# ---------------------------------------------------------------------------

def test_posterior_mean_constant_locations():
    got = gaussian_posterior_mean(np.array([-5.0, 0.0, 5.0]), np.array([2.0, 2.0]),
                                  np.array([0.3, 0.7]), 1.0)
    assert np.allclose(got, 2.0, atol=1e-14)


def test_posterior_mean_two_point_closed_form():
    y = np.linspace(-9, 9, 25)
    got = gaussian_posterior_mean(y, np.array([-3.0, 3.0]), np.array([0.5, 0.5]), 1.5)
    expected = 3.0 * np.tanh(3.0 * y / 1.5**2)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_posterior_mean_saturates_at_extreme_observation():
    levels = np.array([-2.0, 0.0, 2.0])
    got = gaussian_posterior_mean(np.array([60.0]), levels, np.ones(3) / 3, 1.0)
    assert got[0] == pytest.approx(2.0, abs=1e-6)


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _mixture(size, seed, spread):
    rng = np.random.default_rng(seed)
    locations = np.sort(rng.normal(0.0, spread, size))
    return locations, rng.uniform(0.01, 1.0, size)


@pytest.mark.parametrize(
    "size, columns", [(1, 30_001), (7, 30_001), (40, 10_001), (_BLOCK + 5, 1)]
)
def test_posterior_mean_holds_at_most_a_block_of_weights(monkeypatch, size, columns):
    """gaussian_posterior_mean weighs pieces of at most _BLOCK weights (one
    observation at least) and gives the bits of one pass over the whole y."""
    import pbpsolve.counterexample as ce

    locations, weights = _mixture(size, 3, 4.0)
    y = np.random.default_rng(4).normal(0.0, 8.0, (4, columns))
    y[:, 0] = [0.0, -1e300, 1e300, locations[0]]
    whole = _posterior_mean_parts(y, locations, np.log(weights), 0.5)[2]
    pieces = []

    def parts(piece, *args):
        pieces.append(piece.shape)
        return _posterior_mean_parts(piece, *args)

    monkeypatch.setattr(ce, "_posterior_mean_parts", parts)
    got = gaussian_posterior_mean(y, locations, weights, 0.5)
    assert got.shape == y.shape and np.array_equal(got, whole)
    assert all(len(shape) == 1 and shape[0] * size <= max(_BLOCK, size) for shape in pieces)
    assert sum(shape[0] for shape in pieces) == y.size


def test_posterior_mean_rejects_a_mixture_without_locations():
    with pytest.raises(ConfigurationError):
        gaussian_posterior_mean([0.3], [], [], 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-3, 1e3),
    sigma=st.floats(1e-160, 1e2),
    extreme=st.lists(_finite, max_size=4),
)
def test_posterior_mean_is_reversal_equivariant_bitwise(size, seed, spread, sigma, extreme):
    locations, weights = _mixture(size, seed, spread)
    y = np.concatenate([np.random.default_rng(seed + 1).normal(0.0, 2.0 * spread, 16), extreme])
    # sigma below about 1e-154 times the location gaps overflows squared distances.
    with np.errstate(over="ignore"):
        mean = gaussian_posterior_mean(y, locations, weights, sigma)
        mirrored = gaussian_posterior_mean(-y, -locations[::-1], weights[::-1], sigma)
    assert np.array_equal(mirrored, -mean)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-3, 1e3),
    sigma=st.floats(1e-160, 1e2),
    y=st.lists(_finite, min_size=1, max_size=8),
)
def test_posterior_mean_stays_in_the_hull_of_the_locations(size, seed, spread, sigma, y):
    locations, weights = _mixture(size, seed, spread)
    with np.errstate(over="ignore"):
        mean = gaussian_posterior_mean(np.array(y), locations, weights, sigma)
    slack = 4.0 * np.spacing(np.max(np.abs(locations)))
    assert np.all(np.isfinite(mean))
    assert np.all(mean >= locations[0] - slack)
    assert np.all(mean <= locations[-1] + slack)


def test_posterior_mean_survives_squared_distances_that_overflow():
    """At sigma = 1e-160 every squared distance overflows, so every log
    weight is -inf; the posterior has collapsed onto the nearest location."""
    with np.errstate(over="ignore", divide="ignore"):
        got = gaussian_posterior_mean([0.3, 0.7], [0.0, 1.0], [0.5, 0.5], 1e-160)
        grid = gaussian_posterior_mean(
            np.array([[-2.0, 0.2, 0.9], [1.4, 1.6, 7.0]]), [0.0, 1.0, 2.0], [0.2, 0.3, 0.5], 1e-160
        )
        # A location without prior mass takes no weight.
        massless = gaussian_posterior_mean([0.3, 0.7], [0.0, 0.4, 1.0], [0.5, 0.0, 0.5], 1e-160)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, [0.0, 1.0])
    assert np.array_equal(grid, [[0.0, 0.0, 1.0], [1.0, 2.0, 2.0]])
    assert np.array_equal(massless, [0.0, 1.0])


def test_posterior_mean_of_overflowing_distances_warns_of_nothing():
    """The rows whose log weights overflow are handled exactly, so the
    overflow in scaling the squared distances raises no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian_posterior_mean([0.3, 0.7], [0.0, 1.0], [0.5, 0.5], 1e-160)
        grid = gaussian_posterior_mean(
            np.array([[-2.0, 0.2, 0.9], [1.4, 1.6, 7.0]]), [0.0, 1.0, 2.0], [0.2, 0.3, 0.5], 1e-160
        )
    assert np.array_equal(got, [0.0, 1.0])
    assert np.array_equal(grid, [[0.0, 0.0, 1.0], [1.0, 2.0, 2.0]])


def _reversal_invariant_sum_by_loop(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """The reversal-invariant sum in plain Python floats, column by column:
    from +0.0, each mirror pair a[j] + a[n - 1 - j] for j = 0, 1, ..., then
    the middle entry.  The reference the elementwise passes must reproduce
    bit for bit."""
    a = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    n = a.shape[-1]
    out = np.empty(a.shape[:-1])
    for index in np.ndindex(out.shape):
        column = a[index].tolist()
        total = 0.0
        for j in range(n // 2):
            total += column[j] + column[n - 1 - j]
        if n % 2:
            total += column[n // 2]
        out[index] = total
    return out


def _sum_shape(n: int, batch: int | None, axis: int) -> tuple[int, ...]:
    if batch is None:
        return (n,)
    return (n, batch) if axis == 0 else (batch, n)


_AWKWARD = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-308, -1e-310, 1e308])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    batch=st.sampled_from([None, 1, 3]),
    axis=st.sampled_from([0, -1]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-300, 1e300),
    awkward_share=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_reversal_invariant_sum_matches_the_reduction_bitwise(
    n, batch, axis, seed, scale, awkward_share
):
    """Entries are Gaussian at the drawn scale, a share of them replaced by
    signed zeros, infinities, subnormals and near-overflow values."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, scale, _sum_shape(n, batch, axis))
    awkward = rng.random(a.shape) < awkward_share
    a[awkward] = rng.choice(_AWKWARD, np.count_nonzero(awkward))
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.asarray(_reversal_invariant_sum(a, axis))
        want = np.asarray(_reversal_invariant_sum_by_loop(a, axis))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fill", [-0.0, 0.0])
def test_reversal_invariant_sum_keeps_the_sign_of_a_zero_total(fill):
    """The sum starts from +0.0, so a zero total is +0.0 for every shape."""
    for n in range(1, 41):
        for batch in (None, 1, 3):
            for axis in (0, -1):
                a = np.full(_sum_shape(n, batch, axis), fill)
                got = np.asarray(_reversal_invariant_sum(a, axis))
                want = np.asarray(_reversal_invariant_sum_by_loop(a, axis))
                assert got.tobytes() == want.tobytes(), (n, batch, axis)
                assert not np.signbit(got).any(), (n, batch, axis)


def _posterior_weights_by_reduction(y, locations, log_masses, sigma):
    """The posterior weights with the row maxima taken by a reduction, the
    locations along the last axis."""
    far = 1e150 * min(1.0, sigma)
    y = np.clip(np.asarray(y, dtype=float), locations.min() - far, locations.max() + far)
    log_a = -((y[..., None] - locations) ** 2) / (2.0 * sigma * sigma) + log_masses
    log_a -= log_a.max(axis=-1, keepdims=True)
    return np.exp(log_a)


@pytest.mark.parametrize("size", [1, 7, 40, 64])
def test_posterior_weights_match_the_reduction_bitwise(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        spread = 10.0 ** rng.uniform(-3.0, 3.0)
        sigma = 10.0 ** rng.uniform(-2.0, 2.0)
        locations, weights = _mixture(size, int(rng.integers(2**32)), spread)
        log_masses = np.log(weights)
        for y in (
            rng.normal(0.0, 2.0 * spread, (5, 33)),
            rng.normal(0.0, 2.0 * spread, 17),
            rng.normal(0.0, spread),
            np.array([1e300, -1e300, 0.0, -0.0, locations[0], locations[-1]]),
        ):
            got = _posterior_weights(y, locations, log_masses, sigma)
            want = _posterior_weights_by_reduction(y, locations, log_masses, sigma)
            want = np.moveaxis(want, -1, 0)  # the kernel holds the locations along axis 0
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_posterior_bump_never_beats_conditional_mean(bench_params, rule40, rule20):
    base = wit_nonlinear(bench_params)
    base_total = payoff_quadrature(bench_params, base, rule40, rule20).total
    for eps in (0.05, -0.05):
        bumped = dataclasses.replace(
            base,
            gamma2=lambda y, e=eps: base.gamma2(y) + e * np.exp(-np.asarray(y, dtype=float) ** 2),
        )
        assert bumped.breakpoints == (0.0,)
        total = payoff_quadrature(bench_params, bumped, rule40, rule20).total
        assert total > base_total


# ---------------------------------------------------------------------------
# panel rule and jump detection
# ---------------------------------------------------------------------------

def _composite_gauss_nodes_reference(sigma, half_range=8.0, width=0.25, order=16):
    """The inner payoff rule as it was built before the panel rule was
    shared: panel edges from np.arange, not from the equal split."""
    xg, wg = leggauss(order)
    edges = np.arange(-half_range * sigma, half_range * sigma + 1e-12, width * sigma)
    norm = sigma * math.sqrt(2.0 * math.pi)
    points, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * xg
        points.append(x)
        weights.append(half * wg * np.exp(-x * x / (2.0 * sigma * sigma)) / norm)
    return np.concatenate(points), np.concatenate(weights)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 0.3, 1.7])
def test_inner_panel_rule_matches_the_earlier_composite_rule(sigma):
    got_x, got_w = _gauss_panels(sigma, [], 16, 8.0, 0.25)
    want_x, want_w = _composite_gauss_nodes_reference(sigma)
    assert got_x.shape == want_x.shape == (64 * 16,)
    if math.frexp(sigma)[0] == 0.5:  # a power of two: every edge is exact
        assert np.array_equal(got_x, want_x)
        assert np.array_equal(got_w, want_w)
    else:  # nodes relative to the scale, weights to the largest weight
        assert np.max(np.abs(got_x - want_x)) <= 1e-13 * sigma
        assert np.max(np.abs(got_w - want_w)) <= 1e-13 * want_w.max()


def test_outer_panels_split_at_breakpoints_inside_the_range():
    x, w = _gauss_panels(2.0, [-30.0, 1.3, 17.0], 8, 8.5, 1.0)
    # [-17, 1.3] needs 10 panels of width <= 2, [1.3, 17] needs 8
    assert x.size == 18 * 8
    assert np.all(np.diff(x) > 0.0)
    assert not np.any(np.isclose(x, 1.3, rtol=0.0, atol=1e-3))
    assert w.sum() == pytest.approx(math.erf(8.5 / math.sqrt(2.0)), rel=1e-13)


def test_jump_breakpoints_locates_staircase_jumps():
    xs = np.linspace(-10, 10, 4001)
    values = 6.0 * np.round(xs / 6.0)
    breaks = jump_breakpoints(xs, values)
    assert len(breaks) == 4
    assert breaks == pytest.approx([-9.0, -3.0, 3.0, 9.0], abs=0.02)


def test_jump_breakpoints_empty_for_smooth_curve():
    xs = np.linspace(-10, 10, 4001)
    assert jump_breakpoints(xs, 0.7 * xs) == []
    assert jump_breakpoints(xs, np.tanh(xs)) == []


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

def test_stationarity_second_residual_vanishes_for_bayes_second_stage(bench_params):
    # with an even-order rule the discretized prior pushes sgn to an exact
    # symmetric two-point law, whose posterior mean is the tanh second stage
    rule = build_hermite_rule(20)
    pair = wit_nonlinear(bench_params)
    x0 = np.linspace(-15, 15, 31)
    y1 = np.linspace(-25, 25, 41)
    _, r2 = stationarity_residual(bench_params, pair, rule, x0, y1)
    assert np.max(np.abs(r2)) < 1e-10


def test_stationarity_small_for_affine_optimum(unit_params, rule40):
    pair = affine_optimal(unit_params)
    x0 = np.linspace(-3, 3, 61)
    y1 = np.linspace(-3, 3, 61)
    r1, r2 = stationarity_residual(unit_params, pair, rule40, x0, y1)
    # the affine pair is optimal within the affine family only; the
    # pointwise conditions hold approximately in the high-mass region
    assert np.max(np.abs(r1)) < 1e-3
    assert np.max(np.abs(r2)) < 1e-3


CELL_GRIDS = {
    "uniform": lambda rng: np.linspace(-49.5, 49.5, 20_001),
    # the halved slopes of a hull: dense where the first stage is steep
    "clustered": lambda rng: np.cumsum(np.exp(rng.normal(0.0, 3.0, 5_000))),
    "random": lambda rng: np.unique(rng.standard_normal(3_000) ** 3 * 1e3),
}


@pytest.mark.parametrize("name", CELL_GRIDS)
def test_cell_table_finds_the_cell_of_a_search(name):
    """_CellTable's bins match a search over the nodes: first[b] is the
    highest node in a bin below b (0 if none), steps the most nodes any bin
    holds past it, and cells(x) the largest j with grid[j] <= x, on the
    nodes, next to them and across the grid."""
    rng = np.random.default_rng(len(name))
    grid = CELL_GRIDS[name](rng)
    table = _CellTable.of(grid)
    top = 2 * (grid.size - 1)
    bins = np.fmin((grid - grid[0]) * (top / (grid[-1] - grid[0])), top).astype(np.intp)
    below = np.searchsorted(bins, np.arange(top + 1), "left") - 1
    upto = np.searchsorted(bins, np.arange(top + 1), "right") - 1
    assert np.array_equal(table.first, np.maximum(below, 0))
    assert table.steps == int(np.max(upto - np.maximum(below, 0)))
    assert np.array_equal(table.grid, grid) and np.isnan(table.upper[-1])
    x = np.concatenate([
        grid, np.nextafter(grid, np.inf)[:-1], np.nextafter(grid, -np.inf)[1:],
        rng.uniform(grid[0], grid[-1], 10_000),
    ])
    assert np.array_equal(table.cells(x), np.searchsorted(grid, x, "right") - 1)
