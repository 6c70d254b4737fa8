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
from .quadrature import SQRT_PI, QuadratureRule

Strategy = Callable[[np.ndarray], np.ndarray]

# The block size of every pass that weighs observations against levels or
# locations: a strategy sees at most _BLOCK observations per call, and
# gaussian_posterior_mean and ghq_solver._signal_pull, which builds its
# posterior weights itself, hold at most _BLOCK weights.  So no temporary
# grows with the number of samples, nodes or queries times the number of
# levels.  Every value depends on its own observation alone, so the blocks
# never change a bit.
_BLOCK = 65_536
# Half-width, in prior scales sigma_x, of the x0 window: payoff_quadrature's
# outer panels, the first-stage table and its jump scan in ghq_solver, and
# the default range of the curves command all span +-_REACH sigma_x.
_REACH = 8.5
# The largest cost whose square is finite: the standard error squares the
# deviations of the costs, and whether that overflows beyond this bound
# would depend on the rounding of their mean.
_MC_COST_LIMIT = math.sqrt(np.finfo(float).max)
# np.exp gives a normal result at and above _EXP_FAST_FLOOR and +0.0 below
# _EXP_ZERO_BELOW (it underflows below about -745.133); see _exp_in_place.
_EXP_FAST_FLOOR = -700.0
_EXP_ZERO_BELOW = -745.2


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
    breakpoints are the x0 where gamma1bar jumps, strictly increasing and
    finite, supplied by whoever builds the pair: payoff_quadrature splits
    its panels there and summarize_staircase splits its treads there, and
    neither looks for jumps itself.  A pair whose gamma1bar jumps must list
    its jumps, or the quadrature panels straddle them.  lam and mu are set
    on the affine pair gamma1bar(x) = lam x, gamma2(y) = mu y only.  The
    first-stage shift gamma1 is recovered as gamma1bar(x) - x.
    """

    gamma1bar: Strategy
    gamma2: Strategy
    breakpoints: tuple[float, ...] = ()
    lam: float | None = None
    mu: float | None = None

    def __post_init__(self) -> None:
        breakpoints = tuple(float(b) for b in self.breakpoints)
        if not all(math.isfinite(b) for b in breakpoints) or any(
            a >= b for a, b in zip(breakpoints, breakpoints[1:])
        ):
            raise ConfigurationError("breakpoints must be finite and strictly increasing")
        object.__setattr__(self, "breakpoints", breakpoints)


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
        lam=lam,
        mu=mu,
    )


# ---------------------------------------------------------------------------
# shared kernels: the posterior mean and the first-stage sum
# ---------------------------------------------------------------------------

def _reversal_invariant_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along an axis, bitwise invariant under reversal of that axis.

    Mirror-image entries are added to each other first (float addition is
    commutative, so each pair sum is identical for the reversed array).
    The pair sums are then accumulated left to right from +0.0, one
    elementwise pass each, and the odd middle entry is added last.  A sum
    of at most 32 pair sums in this order has an error bound of 31 units
    in the last place times the sum of their magnitudes (Higham 2002,
    sec. 4.2), so NumPy's pairwise order would gain no accuracy here.
    """
    a = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
    n = a.shape[0]
    h = n // 2
    total = np.zeros(a.shape[1:])
    for j in range(h):
        total += a[j] + a[n - 1 - j]
    for middle in a[h : n - h]:  # one entry when n is odd, none when even
        total += middle
    return total


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
    return _exp_in_place(log_a)


def _exp_in_place(a: np.ndarray) -> np.ndarray:
    """np.exp(a, out=a), bit for bit, with the low lanes kept off the vector
    pass when they are common.

    np.exp is several times slower on a lane whose result is subnormal or 0
    (below about -708) than on a normal one, and such a lane slows its
    whole SIMD vector; collocation weights hold many of them.  So when an
    array of 1,024 lanes or more shows 1 in 16 or more below
    _EXP_FAST_FLOOR among about 1,024 evenly spaced lanes, those lanes are
    raised to it for the vector pass and then overwritten: the ones at or
    above _EXP_ZERO_BELOW with np.exp of their gathered values, the ones
    below with 0.0, which np.exp gives there.  On a smaller array the fixed
    cost of those steps outweighs what they save.  np.exp rounds each lane
    on its own, so either path gives the same bits; NaN lanes stay in the
    vector pass."""
    step = a.size // 1024
    if step == 0:
        return np.exp(a, out=a)
    sample = a.reshape(-1)[::step]
    if np.count_nonzero(sample < _EXP_FAST_FLOOR) * 16 < sample.size:
        return np.exp(a, out=a)
    low = a < _EXP_FAST_FLOOR
    band = low & (a >= _EXP_ZERO_BELOW)
    band_values = np.exp(a[band])
    np.maximum(a, _EXP_FAST_FLOOR, out=a)
    np.exp(a, out=a)
    a[low] = 0.0
    a[band] = band_values
    return a


def _posterior_mean_parts(
    y: np.ndarray, locations: np.ndarray, log_masses: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized weights (as _posterior_weights, locations along axis
    0), their total and the posterior mean of a finite mixture observed
    through G(0, sigma^2) noise.  Broadcasts over y."""
    w = _posterior_weights(y, locations, log_masses, sigma)
    mass = _reversal_invariant_sum(w, axis=0)
    mean = _reversal_invariant_sum(w * _as_rows(locations, w.ndim - 1), axis=0) / mass
    return w, mass, mean


def _posterior_variance(
    w: np.ndarray, mass: np.ndarray, mean: np.ndarray, locations: np.ndarray
) -> np.ndarray:
    """The posterior variance from the weights, mass and mean of
    _posterior_mean_parts."""
    m = _as_rows(locations, w.ndim - 1)
    return _reversal_invariant_sum(w * (m * m), axis=0) / mass - mean * mean


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
    finite y.  The sums over the locations are reversal invariant, so
    negating y and negating and reversing the locations (with the weights
    reversed) negates the result bit for bit.  Broadcasts over any y shape.
    The flattened y is evaluated in pieces of _BLOCK // locations.size
    observations (at least one), so a call holds at most _BLOCK weights;
    a 0-d y gives a NumPy scalar.
    """
    y = np.asarray(y, dtype=float)
    locations = np.asarray(locations, dtype=float)
    if locations.size == 0:
        raise ConfigurationError("the mixture needs at least one location")
    # NumPy's vectorized log can round a strided (say, reversed) view
    # differently from a contiguous array, which would break the equivariance.
    log_masses = np.log(np.ascontiguousarray(prior_weights, dtype=float))
    flat = y.reshape(-1)
    mean = np.empty_like(flat)
    step = max(1, _BLOCK // locations.size)
    for a in range(0, flat.size, step):
        mean[a : a + step] = _posterior_mean_parts(
            flat[a : a + step], locations, log_masses, sigma
        )[2]
    return mean.reshape(y.shape)[()]


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
        # 2 sx - sx and 0 - sx are exact, so these are np.where's bits.
        return (np.asarray(x, dtype=float) >= 0.0) * (2.0 * sx) - sx

    def gamma2(y: np.ndarray) -> np.ndarray:
        return sx * np.tanh(scale * np.asarray(y, dtype=float))

    return StrategyPair(gamma1bar=gamma1bar, gamma2=gamma2, breakpoints=(0.0,))


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

    gamma1bar sees every sample in one call; v is drawn and gamma2 run
    _BLOCK samples at a time, continuing the same stream.  Only the squared
    misses of both stages and the cost are kept at full length: the means
    and the standard error read them whole, so they round as one pass would.
    Each is formed in place: y = gamma1bar(x_0) + v in v's buffer before
    gamma2 reads it, the second-stage miss in a buffer of its own, the
    first-stage miss in x_0's buffer when gamma1bar's values (which may be
    x_0 itself) are no longer read, and the cost's squared deviations in
    that buffer last, once stage1 has read it; the standard error takes
    np.std's steps on them.  No array gamma2 returned or read is written
    afterwards.
    """
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    seq_x, seq_v = np.random.SeedSequence(seed).spawn(2)
    rng_x = np.random.default_rng(seq_x)
    rng_v = np.random.default_rng(seq_v)
    x0 = params.prior.sample(rng_x, samples)
    g1 = np.asarray(pair.gamma1bar(x0), dtype=float)
    miss2 = np.empty_like(g1)
    for a in range(0, samples, _BLOCK):
        seg = miss2[a : a + _BLOCK]
        v = rng_v.normal(0.0, params.sigma, seg.size)
        v += g1[a : a + _BLOCK]
        np.subtract(g1[a : a + _BLOCK], pair.gamma2(v), out=seg)
        np.square(seg, out=seg)
    miss1 = np.subtract(g1, x0, out=x0)
    np.square(miss1, out=miss1)
    del g1
    cost = np.multiply(params.k**2, miss1)
    cost += miss2
    top = float(np.max(cost))
    if not top < _MC_COST_LIMIT:
        raise NumericError(
            f"Monte Carlo cost reaches {top:.6g}, beyond {_MC_COST_LIMIT:.6g}, "
            "where its standard error overflows"
        )
    stage1 = float(params.k**2 * np.mean(miss1))
    stage2 = float(np.mean(miss2))
    # np.std(cost)'s steps, with the deviations in miss1's buffer.
    dev = np.subtract(cost, np.add.reduce(cost) / samples, out=miss1)
    np.square(dev, out=dev)
    std_error = float(math.sqrt(np.add.reduce(dev) / samples) / math.sqrt(samples))
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


def _jump_mask(values: np.ndarray) -> np.ndarray:
    """Which gaps between consecutive samples of a piecewise-smooth map are
    jumps: those above ten times the median gap (the within-tread drift at
    this sampling density) plus 2% of the overall value range."""
    gaps = np.abs(np.diff(values))
    if gaps.size == 0:
        return np.zeros(0, dtype=bool)
    return gaps > 10.0 * float(np.median(gaps)) + 0.02 * float(values.max() - values.min())


def jump_breakpoints(xs: np.ndarray, values: np.ndarray) -> list[float]:
    """Detect jump locations in sampled values of a piecewise-smooth map.

    A gap between consecutive samples counts as a jump by the rule of
    _jump_mask.  Returns the midpoints of the jumping sample intervals.
    """
    xs = np.asarray(xs, dtype=float)
    jumping = _jump_mask(np.asarray(values, dtype=float))
    return list(0.5 * (xs[:-1][jumping] + xs[1:][jumping]))


def payoff_quadrature(
    params: ProblemParams,
    pair: StrategyPair,
    outer_rule: QuadratureRule,
    inner_rule: QuadratureRule,
) -> PayoffBreakdown:
    """Deterministic payoff via nested quadrature.

    stage1 = k^2 E (gamma1bar(x_0) - x_0)^2 over the prior;
    stage2 = E (gamma1bar(x_0) - gamma2(gamma1bar(x_0) + v))^2 over prior and
    noise.  The affine pair (lam and mu set) under a Gaussian prior uses the
    plain nested Gauss-Hermite substitution with the given rules (exact for
    these polynomial integrands when both orders are >= 2).  All other pairs
    are treated as piecewise smooth: the outer integral uses Gauss-Legendre
    panels split at pair.breakpoints (the sign map jumps at 0,
    signaling-level strategies at their tread boundaries), and the inner
    integral uses a composite rule fine enough for steep posterior means.
    The given rule orders set the per-panel orders.

    gamma1bar sees every outer node in one call.  gamma2 is evaluated on
    blocks of whole rows of the outer x inner grid, at most _BLOCK
    observations (at least one row) per call, so its posterior weights
    never span the whole grid; only the squared second-stage misses are
    kept for the whole grid, and the inner and outer sums read them whole.
    """
    k2 = params.k**2
    prior = params.prior

    gaussian = isinstance(prior, GaussianPrior)
    if gaussian and pair.lam is not None and pair.mu is not None:
        x0, px = prior.quad_points(outer_rule)
        v = math.sqrt(2.0) * params.sigma * inner_rule.nodes
        pv = inner_rule.weights / SQRT_PI
    else:
        if gaussian:
            x0, px = _gauss_panels(
                params.sigma_x, pair.breakpoints, max(16, outer_rule.order), _REACH, 1.0
            )
        else:
            x0, px = prior.quad_points(outer_rule)
        v, pv = _gauss_panels(params.sigma, [], max(16, inner_rule.order), 8.0, 0.25)

    g1 = np.asarray(pair.gamma1bar(x0), dtype=float)
    if not np.all(np.isfinite(g1)):
        raise NumericError("strategy evaluation produced non-finite values")
    miss2 = np.empty((g1.size, v.size))
    rows = max(1, _BLOCK // v.size)
    for a in range(0, g1.size, rows):
        g1_rows = g1[a : a + rows, None]
        g2 = np.asarray(pair.gamma2(g1_rows + v[None, :]), dtype=float)
        if not np.all(np.isfinite(g2)):
            raise NumericError("strategy evaluation produced non-finite values")
        miss2[a : a + rows] = (g1_rows - g2) ** 2
    stage1 = float(k2 * np.dot(px, (g1 - x0) ** 2))
    stage2 = float(np.dot(px, miss2 @ pv))
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
