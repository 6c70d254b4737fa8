"""Two-stage Gaussian signaling team: problem data, baselines, and payoffs.

The problem: a scalar state x_0 with a symmetric prior (Gaussian with
variance sigma_x^2, or two-point at +-sigma_x) is moved by a first controller
to x_1 = gamma1bar(x_0); a second controller observes y_1 = x_1 + v with
v ~ G(0, sigma^2) and applies u_2 = gamma2(y_1).  The expected cost is

    J = k^2 E (gamma1bar(x_0) - x_0)^2  +  E (gamma1bar(x_0) - gamma2(y_1))^2
      = stage1 + stage2.

This module defines the problem parameters, strategy pairs in several
representations, two classical baselines (the optimal affine pair and the
sign/tanh pair), the likelihood ratio that removes the state from the
observation channel, payoff evaluation by Monte Carlo and by deterministic
quadrature, and the pointwise stationarity residuals whose simultaneous
vanishing characterizes person-by-person optimal pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, NumericError
from .quadrature import SQRT_PI, QuadratureRule, build_hermite_rule

Strategy = Callable[[np.ndarray], np.ndarray]

# Monte Carlo samples per second-stage evaluation in payoff_mc.
_MC_CHUNK = 65_536
# The largest cost whose square is finite: the standard error squares the
# deviations of the costs, and whether that overflows beyond this bound
# would depend on the rounding of their mean.
_MC_COST_LIMIT = math.sqrt(np.finfo(float).max)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPrior:
    """x_0 ~ G(0, variance)."""

    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ConfigurationError("prior variance must be positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(self.variance), size)

    def quad_points(self, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
        """Points and probabilities so that E f(x_0) ~= sum_j p_j f(xi_j).

        Uses the substitution x_0 = sqrt(2 variance) z, which maps the
        Gaussian expectation onto the e^{-z^2} weight of the rule.
        """
        return math.sqrt(2.0 * self.variance) * rule.nodes, rule.weights / SQRT_PI


@dataclass(frozen=True)
class TwoPointSymmetricPrior:
    """x_0 = +-scale with probability 1/2 each."""

    scale: float

    def __post_init__(self) -> None:
        if not self.scale > 0.0:
            raise ConfigurationError("prior scale must be positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.scale * np.where(rng.random(size) < 0.5, -1.0, 1.0)

    def quad_points(self, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
        """The exact two-point expectation; the rule argument is unused."""
        return (np.array([-self.scale, self.scale]), np.array([0.5, 0.5]))


Prior = GaussianPrior | TwoPointSymmetricPrior


@dataclass(frozen=True)
class ProblemParams:
    """Constants (k, sigma, sigma_x) plus the prior family of x_0.

    k weights the first-stage control energy, sigma is the observation noise
    standard deviation, sigma_x the prior scale.  When no prior is given the
    Gaussian prior G(0, sigma_x^2) is used.
    """

    k: float
    sigma: float
    sigma_x: float
    prior: Prior | None = None

    def __post_init__(self) -> None:
        if not (self.k > 0.0 and self.sigma > 0.0 and self.sigma_x > 0.0):
            raise ConfigurationError("k, sigma and sigma_x must all be positive")
        for name in ("k", "sigma", "sigma_x"):
            # The payoffs and the solver divide by these squares.
            value = float(getattr(self, name))
            if not 0.0 < value * value < math.inf:
                raise ConfigurationError(
                    f"{name}^2 must be a positive finite float, got {name}={value!r}"
                )
        if self.prior is None:
            object.__setattr__(self, "prior", GaussianPrior(self.sigma_x**2))


# ---------------------------------------------------------------------------
# strategy pairs and payoff records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrategyPair:
    """An evaluable pair (gamma1bar: R->R, gamma2: R->R).

    Both callables are vectorized: they accept ndarray input of any shape and
    return an array of the same shape with finite values for finite input.
    kind tags the representation: "affine" (gamma1bar(x) = lam x,
    gamma2(y) = mu y), "wit" (the sign/tanh baseline), "collocation"
    (signaling-level strategies), "grid" (piecewise-linear samples), or
    "custom".  The tag drives the quadrature payoff dispatch: non-affine
    tags get jump-aware integration.  The first-stage shift gamma1 is
    recovered as gamma1bar(x) - x.
    """

    gamma1bar: Strategy
    gamma2: Strategy
    kind: str = "custom"
    lam: float | None = None
    mu: float | None = None
    levels: np.ndarray | None = None


@dataclass(frozen=True)
class PayoffBreakdown:
    """stage1 = k^2 E u_1^2, stage2 = E x_2^2, total = stage1 + stage2.

    estimator is "monte-carlo" (with samples/seed and the standard error of
    the total) or "quadrature" (with the outer rule order; deterministic).
    """

    stage1: float
    stage2: float
    total: float
    estimator: str
    samples: int | None = None
    seed: int | None = None
    order: int | None = None
    std_error: float | None = None

    def __post_init__(self) -> None:
        if self.stage1 < 0.0 or self.stage2 < 0.0:
            raise ConfigurationError("stage costs must be nonnegative")
        if abs(self.total - (self.stage1 + self.stage2)) > 1e-12 * max(1.0, self.total):
            raise ConfigurationError("total must equal stage1 + stage2")


def affine_pair(lam: float, mu: float) -> StrategyPair:
    """The affine pair gamma1bar(x) = lam x, gamma2(y) = mu y."""
    lam = float(lam)
    mu = float(mu)
    return StrategyPair(
        gamma1bar=lambda x: lam * np.asarray(x, dtype=float),
        gamma2=lambda y: mu * np.asarray(y, dtype=float),
        kind="affine",
        lam=lam,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# shared kernels: the posterior mean and the first-stage sum
# ---------------------------------------------------------------------------

def _reversal_invariant_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along an axis, bitwise invariant under reversal of that axis.

    Mirror-image entries are added pairwise first (float addition is
    commutative, so each pair sum is identical for the reversed array), then
    the pair sums and the odd middle entry are accumulated in a fixed order.
    Along a leading axis NumPy sums in index order only while the other axes
    hold more than one element, so a single column goes through cumsum,
    which keeps that order: a column's sum never depends on the batch.

    Fewer than 8 pairs (the posterior sums over a handful of levels) are
    accumulated column by column, left to right.  That is NumPy's own
    order there: its pairwise sum runs a plain loop below 8 terms, and a
    reduction along a leading axis adds row after row.  A NumPy reduction
    starts from +0.0 and cumsum from its first entry, and the first pair
    is added to the matching start, so the sign of a zero total is NumPy's
    too.  The column passes are elementwise, several times faster than a
    reduction along a last axis this short.  From 8 pairs on NumPy
    switches to 8 interleaved accumulators, so those sums stay with it.
    """
    a = np.moveaxis(np.asarray(a, dtype=float), axis, -1)
    n = a.shape[-1]
    h = n // 2
    single_column = a.size == n and axis not in (-1, a.ndim - 1)
    if h >= 8:
        pairs = a[..., :h] + a[..., : n - h - 1 : -1]
        if single_column:
            total = np.cumsum(pairs, axis=-1)[..., -1]
        else:
            total = pairs.sum(axis=-1)
    elif h:
        total = a[..., 0] + a[..., n - 1]
        if not single_column:
            total += 0.0  # the reduction's +0.0 start: a -0.0 pair becomes +0.0
        for j in range(1, h):
            total += a[..., j] + a[..., n - 1 - j]
    else:
        total = np.zeros(a.shape[:-1])
    if n % 2:
        total = total + a[..., h]
    return total


def _location_sum(w: np.ndarray) -> np.ndarray:
    """Sum over axis 0, the locations of posterior weights, bitwise
    invariant under reversal of the locations.

    The order is that of _reversal_invariant_sum along a last axis of
    locations, for every shape of the rest, one observation included: there
    is no single-column rule.  Fewer than 8 mirror pairs are accumulated by
    elementwise passes over the contiguous rows from +0.0, the middle row
    last.  From 8 pairs on the pairs are laid out along a contiguous last
    axis for NumPy's pairwise sum; a reduction over a leading or strided
    axis would add row after row instead.
    """
    n = w.shape[0]
    if n < 16:
        return _reversal_invariant_sum(np.moveaxis(w, 0, -1))
    h = n // 2
    pairs = w[:h] + w[: n - h - 1 : -1]
    total = np.moveaxis(pairs, 0, -1).copy().sum(axis=-1)
    return total + w[h] if n % 2 else total


def _as_rows(v: np.ndarray, ndim: int) -> np.ndarray:
    """A vector over the locations, shaped to broadcast along axis 0 of an
    array with ndim further axes."""
    return np.reshape(v, (-1,) + (1,) * ndim)


def _posterior_weights(
    y: np.ndarray, locations: np.ndarray, log_masses: np.ndarray, sigma: float
) -> np.ndarray:
    """Unnormalized posterior weights of a finite mixture observed through
    G(0, sigma^2) noise, log-sum-exp stabilized, of shape
    (locations.size, *y.shape): the locations run along axis 0, so each
    location's weights over y are one contiguous row.  y is clipped to
    within 1e150 min(1, sigma) of the locations, where the posterior has
    long saturated, so that no squared distance overflows to leave no
    weight.

    Every step is an elementwise pass over the whole array or over its
    rows, and the row maxima are taken by np.maximum passes over the rows.
    When sigma is so far below the location gaps that every log weight of
    an observation is -inf, the posterior has collapsed onto the nearest
    location(s) of positive mass, which then keep their prior masses; other
    observations are untouched."""
    far = 1e150 * min(1.0, sigma)
    y = np.clip(np.asarray(y, dtype=float), locations.min() - far, locations.max() + far)
    log_a = np.subtract(y, _as_rows(locations, y.ndim))
    np.square(log_a, out=log_a)
    np.negative(log_a, out=log_a)
    with np.errstate(over="ignore"):  # observations left at -inf are handled below
        log_a /= 2.0 * sigma * sigma
    log_a += _as_rows(log_masses, y.ndim)
    top = log_a[0, ...].copy()
    for j in range(1, log_a.shape[0]):
        np.maximum(top, log_a[j, ...], out=top)
    lost = top == -np.inf
    if lost.any():
        gap = np.where(
            log_masses[:, None] > -np.inf, np.abs(y[lost] - locations[:, None]), np.inf
        )
        nearest = gap == gap.min(axis=0)
        log_a[:, lost] = np.where(nearest, log_masses[:, None], -np.inf)
        top[lost] = log_a[:, lost].max(axis=0)
    log_a -= top
    return np.exp(log_a, out=log_a)


def _posterior_moments(
    y: np.ndarray, locations: np.ndarray, log_masses: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized weights (as _posterior_weights, locations along axis
    0), their total, and the posterior mean and variance of a finite
    mixture observed through G(0, sigma^2) noise.  Broadcasts over y."""
    w = _posterior_weights(y, locations, log_masses, sigma)
    m = _as_rows(locations, w.ndim - 1)
    mass = _location_sum(w)
    mean = _location_sum(w * m) / mass
    var = _location_sum(w * (m * m)) / mass - mean * mean
    return w, mass, mean, var


def gaussian_posterior_mean(
    y: np.ndarray,
    locations: np.ndarray,
    prior_weights: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """E{m | y} for a finite mixture: y = m + G(0, sigma^2), m in locations.

    Returns sum_j q_j(y) m_j with posterior weights
    q_j(y) proportional to prior_weights_j exp(-(y - m_j)^2 / (2 sigma^2)),
    evaluated in log space (log-sum-exp) so the ratio stays defined for every
    finite y.  The sums run through _location_sum, so negating y and
    negating and reversing the locations (with the weights reversed)
    negates the result bit for bit.  Broadcasts over any y shape.
    """
    locations = np.asarray(locations, dtype=float)
    # NumPy's vectorized log can round a strided (say, reversed) view
    # differently from a contiguous array, which would break the equivariance.
    log_masses = np.log(np.ascontiguousarray(prior_weights, dtype=float))
    w = _posterior_weights(y, locations, log_masses, sigma)
    return _location_sum(w * _as_rows(locations, w.ndim - 1)) / _location_sum(w)


def _first_stage_sum(d: np.ndarray, rule: QuadratureRule, params: ProblemParams) -> np.ndarray:
    """R = (1 / (sqrt(pi) k^2)) sum_i lambda_i ((z_i / c) d_i^2 + d_i), c = sqrt(2) sigma.

    d_i = g - gamma2(g + c z_i), along axis 0 of d, is the second stage's
    miss at noise node z_i when the first stage plays g; g is first-stage
    stationary at x0 exactly when g - x0 + R = 0.  The node sum is reversal
    invariant."""
    z = rule.nodes[:, None]
    c = math.sqrt(2.0) * params.sigma
    inner = (z / c) * d * d + d
    s = _reversal_invariant_sum(rule.weights[:, None] * inner, axis=0)
    return s / (SQRT_PI * params.k**2)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def affine_cost(lam: float, params: ProblemParams) -> tuple[float, float]:
    """Closed-form affine cost components for slope lam with the matched mu.

    mu(lam) = lam^2 sigma_x^2 / (lam^2 sigma_x^2 + sigma^2) is the least
    mean-square estimator gain for y_1 = lam x_0 + v; then
    stage1 = k^2 (lam - 1)^2 sigma_x^2 and
    stage2 = lam^2 (1 - mu)^2 sigma_x^2 + mu^2 sigma^2.
    Returns (mu, total).
    """
    sx2 = params.sigma_x**2
    sv2 = params.sigma**2
    mu = lam * lam * sx2 / (lam * lam * sx2 + sv2)
    stage1 = params.k**2 * (lam - 1.0) ** 2 * sx2
    stage2 = lam * lam * (1.0 - mu) ** 2 * sx2 + mu * mu * sv2
    return mu, stage1 + stage2


def affine_optimal(params: ProblemParams) -> StrategyPair:
    """The affine pair obtained from the signaling quintic.

    The slope is lam = t / sigma_x where t is a real root of

        (t - sigma_x)(1 + t^2)^2 + t / k^2 = 0,

    and mu = lam^2 sigma_x^2 / (lam^2 sigma_x^2 + sigma^2).  The quintic has
    at least one real root (odd degree); among the real roots the one whose
    closed-form affine cost is smallest is selected.  Gaussian prior only.
    """
    if not isinstance(params.prior, GaussianPrior):
        raise ConfigurationError("affine_optimal requires a Gaussian prior")
    sx = params.sigma_x
    coeffs = [1.0, -sx, 2.0, -2.0 * sx, 1.0 + 1.0 / params.k**2, -sx]
    best: tuple[float, float, float] | None = None
    for root in np.roots(coeffs):
        if abs(root.imag) > 1e-9 * max(1.0, abs(root.real)):
            continue
        lam = float(root.real) / sx
        mu, total = affine_cost(lam, params)
        if best is None or total < best[0]:
            best = (total, lam, mu)
    if best is None:
        raise NumericError("no real root of the affine quintic was found")
    _, lam, mu = best
    return affine_pair(lam, mu)


def wit_nonlinear(params: ProblemParams) -> StrategyPair:
    """The sign/tanh baseline pair.

    gamma1bar(x_0) = sigma_x sgn(x_0) concentrates x_1 on the two points
    +-sigma_x; the matching second stage is the exact conditional mean
    E{gamma1bar(x_0) | y_1} = sigma_x tanh(sigma_x y_1 / sigma^2), which is
    the same closed form for the Gaussian and the two-point prior because
    both make x_1 a symmetric two-point mixture.  The sign map uses the
    right-continuous convention sgn(0) = +1 so the range is exactly
    {-sigma_x, +sigma_x} (the choice at the single point 0 carries no
    probability mass).
    """
    sx = params.sigma_x
    scale = sx / params.sigma**2

    def gamma1bar(x: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(x, dtype=float) >= 0.0, sx, -sx)

    def gamma2(y: np.ndarray) -> np.ndarray:
        return sx * np.tanh(scale * np.asarray(y, dtype=float))

    return StrategyPair(gamma1bar=gamma1bar, gamma2=gamma2, kind="wit")


# ---------------------------------------------------------------------------
# likelihood ratio
# ---------------------------------------------------------------------------

def rnd_density(
    params: ProblemParams,
    gamma1bar: Strategy,
    x0: float,
    y1: float,
) -> float:
    """Likelihood ratio of y_1 under the strategy against the y_1 ~ G(0, sigma^2) reference.

    Lambda(x_0, y_1) = exp(-(y_1 - gamma1bar(x_0))^2 / 2 sigma^2)
                     / exp(-y_1^2 / 2 sigma^2),
    computed as the exponential of the log difference so no intermediate
    underflows; the exponent is capped at 700 so the result stays finite
    (the cap only binds where the true ratio exceeds ~1e304).
    """
    g = float(np.asarray(gamma1bar(np.asarray([x0], dtype=float)), dtype=float)[0])
    sv2 = params.sigma**2
    log_ratio = (y1 * y1 - (y1 - g) ** 2) / (2.0 * sv2)
    return float(np.exp(min(log_ratio, 700.0)))


# ---------------------------------------------------------------------------
# Monte Carlo payoff
# ---------------------------------------------------------------------------

def payoff_mc(
    params: ProblemParams,
    pair: StrategyPair,
    samples: int,
    seed: int,
) -> PayoffBreakdown:
    """Sample-mean payoff estimate with a deterministic seeded stream.

    Two independent substreams (spawned from one SeedSequence so the draw
    sets are reproducible and independent of any internal chunking) supply
    x_0 from the prior and v from G(0, sigma^2).  Returns the sample means
    of k^2 (gamma1bar(x_0) - x_0)^2 and (gamma1bar(x_0) - gamma2(y_1))^2
    plus the standard error of the total.  Raises NumericError when a
    sampled cost is not finite or too large for its standard error.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    seq_x, seq_v = np.random.SeedSequence(seed).spawn(2)
    rng_x = np.random.default_rng(seq_x)
    rng_v = np.random.default_rng(seq_v)
    x0 = params.prior.sample(rng_x, samples)
    v = rng_v.normal(0.0, params.sigma, samples)

    g1 = np.asarray(pair.gamma1bar(x0), dtype=float)
    g2 = np.empty_like(g1)
    for a in range(0, samples, _MC_CHUNK):
        part = slice(a, a + _MC_CHUNK)
        g2[part] = pair.gamma2(g1[part] + v[part])
    cost = params.k**2 * (g1 - x0) ** 2 + (g1 - g2) ** 2
    top = float(np.max(cost))
    if not top < _MC_COST_LIMIT:
        raise NumericError(
            f"Monte Carlo cost reaches {top:.6g}, beyond {_MC_COST_LIMIT:.6g}, "
            "where its standard error overflows"
        )
    stage1 = float(params.k**2 * np.mean((g1 - x0) ** 2))
    stage2 = float(np.mean((g1 - g2) ** 2))
    std_error = float(np.std(cost) / math.sqrt(samples))
    return PayoffBreakdown(
        stage1=stage1,
        stage2=stage2,
        total=stage1 + stage2,
        estimator="monte-carlo",
        samples=int(samples),
        seed=int(seed),
        std_error=std_error,
    )


# ---------------------------------------------------------------------------
# deterministic quadrature payoff
# ---------------------------------------------------------------------------

def _gauss_panels(
    scale: float,
    breakpoints: Sequence[float],
    order: int,
    half_range: float,
    max_width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panels against the G(0, scale^2) density.

    [-half_range scale, half_range scale] is split at the listed breakpoints
    (where the integrand may jump) and then into equal panels no wider than
    max_width * scale, each carrying an order-`order` Legendre rule with the
    density folded into the weights.  Each panel sees an analytic integrand,
    so the composite rule converges at spectral rate; narrow panels resolve
    features much narrower than scale (steep posterior-mean transitions).
    """
    xg, wg = leggauss(order)
    interior = sorted(b for b in breakpoints if abs(b) < half_range * scale)
    edges = [-half_range * scale] + interior + [half_range * scale]
    norm = scale * math.sqrt(2.0 * math.pi)
    points, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        panels = max(1, int(math.ceil((b - a) / (max_width * scale))))
        for j in range(panels):
            lo = a + (b - a) * j / panels
            hi = a + (b - a) * (j + 1) / panels
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            x = mid + half * xg
            points.append(x)
            weights.append(half * wg * np.exp(-x * x / (2.0 * scale * scale)) / norm)
    return np.concatenate(points), np.concatenate(weights)


def jump_breakpoints(xs: np.ndarray, values: np.ndarray) -> list[float]:
    """Detect jump locations in sampled values of a piecewise-smooth map.

    A gap between consecutive samples counts as a jump when it exceeds ten
    times the median gap (the within-tread drift at this sampling density)
    plus 2% of the overall value range.  Returns the midpoints of the
    jumping sample intervals.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    gaps = np.abs(np.diff(values))
    if gaps.size == 0:
        return []
    threshold = 10.0 * float(np.median(gaps)) + 0.02 * float(values.max() - values.min())
    jumping = gaps > threshold
    return list(0.5 * (xs[:-1][jumping] + xs[1:][jumping]))


def _scan_jumps(
    pair: StrategyPair, params: ProblemParams
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """gamma1bar sampled at 20,001 points on [-8.5 sigma_x, 8.5 sigma_x]:
    the points, the values and the jumps jump_breakpoints finds in them."""
    xs = np.linspace(-8.5 * params.sigma_x, 8.5 * params.sigma_x, 20001)
    g = np.asarray(pair.gamma1bar(xs), dtype=float)
    return xs, g, jump_breakpoints(xs, g)


def payoff_quadrature(
    params: ProblemParams,
    pair: StrategyPair,
    outer_rule: QuadratureRule,
    inner_rule: QuadratureRule,
) -> PayoffBreakdown:
    """Deterministic payoff via nested quadrature.

    stage1 = k^2 E (gamma1bar(x_0) - x_0)^2 over the prior;
    stage2 = E (gamma1bar(x_0) - gamma2(gamma1bar(x_0) + v))^2 over prior and
    noise.  Affine pairs under a Gaussian prior use the plain nested
    Gauss-Hermite substitution with the given rules (exact for these
    polynomial integrands when both orders are >= 2).  All other pairs are
    treated as piecewise smooth: gamma1bar is scanned for jumps (the sign map
    jumps at 0; signaling-level strategies at their tread boundaries), the
    outer integral uses Gauss-Legendre panels split at those jumps, and the
    inner integral uses a composite rule fine enough for steep posterior
    means.  The given rule orders set the per-panel orders.
    """
    k2 = params.k**2
    prior = params.prior

    smooth_affine = pair.kind == "affine" and isinstance(prior, GaussianPrior)
    if smooth_affine:
        x0, px = prior.quad_points(outer_rule)
        v = math.sqrt(2.0) * params.sigma * inner_rule.nodes
        pv = inner_rule.weights / SQRT_PI
    else:
        if isinstance(prior, GaussianPrior):
            breakpoints = [0.0] if pair.kind == "wit" else _scan_jumps(pair, params)[2]
            x0, px = _gauss_panels(
                params.sigma_x, breakpoints, max(16, outer_rule.order), 8.5, 1.0
            )
        else:
            x0, px = prior.quad_points(outer_rule)
        v, pv = _gauss_panels(params.sigma, [], max(16, inner_rule.order), 8.0, 0.25)

    g1 = np.asarray(pair.gamma1bar(x0), dtype=float)
    g2 = np.asarray(pair.gamma2(g1[:, None] + v[None, :]), dtype=float)
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise NumericError("strategy evaluation produced non-finite values")
    stage1 = float(k2 * np.dot(px, (g1 - x0) ** 2))
    stage2 = float(np.dot(px, ((g1[:, None] - g2) ** 2) @ pv))
    return PayoffBreakdown(
        stage1=stage1,
        stage2=stage2,
        total=stage1 + stage2,
        estimator="quadrature",
        order=outer_rule.order,
    )


# ---------------------------------------------------------------------------
# stationarity residuals
# ---------------------------------------------------------------------------

def stationarity_residual(
    params: ProblemParams,
    pair: StrategyPair,
    rule: QuadratureRule,
    x0_grid: np.ndarray,
    y1_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise residuals of the two coupled optimality equations.

    r1(x_0) = gamma1bar(x_0) - x_0
              + (1/k^2)        E{ gamma1bar - gamma2(y_1)        | x_0 }
              + (1/2 k^2 s^2)  E{ (y_1 - gamma1bar)(gamma1bar - gamma2)^2 | x_0 },
    with s = sigma and the conditional expectations over v computed by the
    given Gauss-Hermite rule; r2(y_1) = gamma2(y_1) - E{gamma1bar(x_0) | y_1}
    with the conditional mean computed as the log-sum-exp-stabilized Bayes
    ratio over the prior discretized by the same rule.  Both residuals vanish
    at a person-by-person optimal pair.
    """
    x0_grid = np.asarray(x0_grid, dtype=float)
    y1_grid = np.asarray(y1_grid, dtype=float)

    c = math.sqrt(2.0) * params.sigma
    g1 = np.asarray(pair.gamma1bar(x0_grid), dtype=float)
    g2 = np.asarray(pair.gamma2(g1[None, :] + c * rule.nodes[:, None]), dtype=float)
    r1 = g1 - x0_grid + _first_stage_sum(g1 - g2, rule, params)

    xi, p_xi = params.prior.quad_points(rule)
    g1_xi = np.asarray(pair.gamma1bar(xi), dtype=float)
    posterior = gaussian_posterior_mean(y1_grid, g1_xi, p_xi, params.sigma)
    r2 = np.asarray(pair.gamma2(y1_grid), dtype=float) - posterior
    return r1, r2
