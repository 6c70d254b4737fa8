"""Best-response fixed-point operator on gridded strategy pairs.

A strategy pair s = (gamma1bar, gamma2) is stationary exactly when it is a
fixed point of the operator F = (F1, F2):

    F1(x0) = x0 + integral f1(zeta; gamma1bar(x0), gamma2) dzeta,
    f1 = -(1/k^2) { (zeta - g)(g - gamma2(zeta))^2 / (2 sigma^2)
                    + (g - gamma2(zeta)) } N(zeta; g, sigma^2),
    with g = gamma1bar(x0);

    F2(y1) = integral gamma1bar(xi) w(xi; y1) dP(xi) / integral w dP,
    w(xi; y1) = exp(-(y1 - gamma1bar(xi))^2 / (2 sigma^2)),

where P is the prior of x0.  F1 is the stationarity condition of the first
stage given gamma2 and F2 is the posterior-mean best response of the second
stage given gamma1bar.  This module represents strategies by piecewise-
linear interpolation of samples on a common grid, applies F by Gauss-Hermite
quadrature, iterates s <- (1 - alpha) s + alpha F(s) (damped Picard), and
supplies the pointwise derivative kernels of the two integrands together
with a probed local Lipschitz estimate of F: a lower bound on the local
Lipschitz constant, so a value below one is necessary for local contraction,
not sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counterexample import (
    ProblemParams,
    StrategyPair,
    _first_stage_sum,
    _location_sum,
    _posterior_weights,
    gaussian_posterior_mean,
)
from .errors import ConfigurationError, NumericError
from .quadrature import QuadratureRule, build_hermite_rule

_CHUNK = 65_536


# ---------------------------------------------------------------------------
# gridded strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridStrategy:
    """A strategy pair sampled on a grid, evaluated by linear interpolation.

    values1 samples gamma1bar, values2 samples gamma2, both at the common
    strictly increasing grid; queries outside the grid return the boundary
    values (constant extrapolation).
    """

    grid: np.ndarray
    values1: np.ndarray
    values2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "values1", "values2"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.grid.ndim != 1 or self.grid.size < 2:
            raise ConfigurationError("grid must be a vector with at least two points")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ConfigurationError("grid must be strictly increasing")
        if self.values1.shape != self.grid.shape or self.values2.shape != self.grid.shape:
            raise ConfigurationError("values must match the grid shape")
        if not (
            np.all(np.isfinite(self.grid))
            and np.all(np.isfinite(self.values1))
            and np.all(np.isfinite(self.values2))
        ):
            raise ConfigurationError("grid and values must be finite")

    def interp1(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values1)

    def interp2(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values2)

    def to_pair(self) -> StrategyPair:
        return StrategyPair(gamma1bar=self.interp1, gamma2=self.interp2, kind="grid")


def default_grid(params: ProblemParams, points: int = 201, span: float = 6.0) -> np.ndarray:
    """Uniform grid of the given size on [-span sigma_x, span sigma_x]."""
    if points < 2:
        raise ConfigurationError("a grid needs at least two points")
    return np.linspace(-span * params.sigma_x, span * params.sigma_x, points)


def strategy_from_pair(
    pair: StrategyPair, params: ProblemParams, grid: np.ndarray | None = None
) -> GridStrategy:
    """Sample an evaluable pair onto a grid (the default grid if none given)."""
    if grid is None:
        grid = default_grid(params)
    grid = np.asarray(grid, dtype=float)
    return GridStrategy(
        grid=grid,
        values1=np.asarray(pair.gamma1bar(grid), dtype=float),
        values2=np.asarray(pair.gamma2(grid), dtype=float),
    )


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

def apply_F(
    strategy: GridStrategy, params: ProblemParams, rule: QuadratureRule
) -> GridStrategy:
    """One application of the best-response operator, sampled on the same grid.

    F1 at each grid point x0 integrates the first-stage integrand over the
    noise by the rule (substitution zeta = gamma1bar(x0) + sqrt(2) sigma z);
    gamma2 between grid points is linearly interpolated.  F2 at each grid
    point y1 is the posterior mean of the prior pushed through gamma1bar,
    with the prior discretized by the same rule.  F1 = x0 - R, with R the
    first-stage sum shared with the collocation residual.  Work is chunked
    so memory stays at (chunk x order) regardless of the grid size.
    """
    grid = strategy.grid
    c = math.sqrt(2.0) * params.sigma

    xi, p_xi = params.prior.quad_points(rule)
    locations = strategy.interp1(xi)

    f1 = np.empty_like(grid)
    f2 = np.empty_like(grid)
    for a in range(0, grid.size, _CHUNK):
        sl = slice(a, min(a + _CHUNK, grid.size))
        g1 = strategy.values1[sl]
        d = g1 - strategy.interp2(g1 + c * rule.nodes[:, None])
        f1[sl] = grid[sl] - _first_stage_sum(d, rule, params)
        f2[sl] = gaussian_posterior_mean(grid[sl], locations, p_xi, params.sigma)
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        raise NumericError("operator application produced non-finite values")
    return GridStrategy(grid=grid, values1=f1, values2=f2)


@dataclass(frozen=True)
class PicardResult:
    """Outcome of a damped Picard iteration.

    steps[m] is the sup-norm update size at iteration m (over both
    components); converged means the last step was at most tol; diverged
    means a step exceeded 1e6 and the iteration stopped early.
    """

    strategy: GridStrategy
    steps: tuple[float, ...]
    iterations: int
    converged: bool
    diverged: bool


def picard_iterate(
    init: GridStrategy,
    params: ProblemParams,
    rule: QuadratureRule,
    damping: float = 1.0,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> PicardResult:
    """Iterate s <- (1 - damping) s + damping F(s) from the given start.

    damping must lie in (0, 1].  Stops when the sup-norm step falls to tol
    (converged), when a step exceeds 1e6 (diverged), or after max_iter
    applications of the operator.
    """
    if not 0.0 < damping <= 1.0:
        raise ConfigurationError(f"damping must lie in (0, 1], got {damping!r}")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")
    s = init
    steps: list[float] = []
    converged = False
    diverged = False
    for _ in range(max_iter):
        image = apply_F(s, params, rule)
        new1 = (1.0 - damping) * s.values1 + damping * image.values1
        new2 = (1.0 - damping) * s.values2 + damping * image.values2
        step = float(
            max(
                np.max(np.abs(new1 - s.values1)),
                np.max(np.abs(new2 - s.values2)),
            )
        )
        steps.append(step)
        s = GridStrategy(grid=s.grid, values1=new1, values2=new2)
        if step > 1e6:
            diverged = True
            break
        if step <= tol:
            converged = True
            break
    return PicardResult(
        strategy=s,
        steps=tuple(steps),
        iterations=len(steps),
        converged=converged,
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# derivative kernels and contraction estimate
# ---------------------------------------------------------------------------

def frechet_kernel(
    strategy: GridStrategy,
    params: ProblemParams,
    at: tuple[float, float],
) -> np.ndarray:
    """Pointwise derivative kernels of the two operator integrands at s.

    With at = (a, b), returns the 2 x 2 matrix K:

    K[0,0]: derivative of the first-stage integrand f1(zeta; g, gamma2) with
            respect to the scalar g = gamma1bar(a), evaluated at zeta = b
            (the Gaussian factor N(zeta; g, sigma^2) contributes its own
            g-derivative, the factor (zeta - g)/sigma^2);
    K[0,1]: derivative of f1 with respect to the value gamma2(b);
    K[1,0]: derivative of the second-stage integrand of F2(y1 = b) with
            respect to the value gamma1bar(a), per unit prior mass at
            xi = a, including the normalization response of the posterior
            mean (so the derivative of F2 under a perturbation h of
            gamma1bar is the prior integral of K[1,0] h);
    K[1,1]: 0 (F2 does not read gamma2).

    The prior integrals in K[1,0] use an internal order-40 rule.
    """
    a, b = float(at[0]), float(at[1])
    sv = params.sigma
    sv2 = sv * sv
    k2 = params.k**2
    g = float(strategy.interp1(np.array([a]))[0])
    g2b = float(strategy.interp2(np.array([b]))[0])

    A = b - g
    d = g - g2b
    phi = math.exp(-A * A / (2.0 * sv2)) / (sv * math.sqrt(2.0 * math.pi))
    bracket = A * d * d / (2.0 * sv2) + d
    k00 = -(1.0 / k2) * ((-d * d / (2.0 * sv2) + A * d / sv2 + 1.0) + bracket * (A / sv2)) * phi
    k01 = -(1.0 / k2) * (-A * d / sv2 - 1.0) * phi

    # With w(xi) = exp(-(b - gamma1bar(xi))^2 / (2 sigma^2)), the posterior
    # mean m and the relative weight q_a = w(a) / integral w dP give
    # K[1,0] = q_a (1 + (g - m)(b - g) / sigma^2).  g joins the prior nodes
    # as a location of unit mass, so the shared log-sum-exp weights give q_a
    # where every raw weight underflows.
    prior_rule = build_hermite_rule(40)
    xi, p_xi = params.prior.quad_points(prior_rule)
    g1_xi = strategy.interp1(xi)
    m = float(gaussian_posterior_mean(np.array(b), g1_xi, p_xi, sv))
    log_masses = np.append(np.log(p_xi), 0.0)
    w = _posterior_weights(np.array(b), np.append(g1_xi, g), log_masses, sv)
    q_a = float(w[-1] / _location_sum(w[:-1]))
    k10 = q_a * (1.0 + (g - m) * (b - g) / sv2)

    return np.array([[k00, k01], [k10, 0.0]])


def _pair_norm(grid: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> float:
    """Trapezoid L2 norm of a strategy-pair perturbation on the grid."""
    return math.sqrt(float(np.trapezoid(v1 * v1 + v2 * v2, grid)))


def lipschitz_estimate(
    strategy: GridStrategy,
    params: ProblemParams,
    rule: QuadratureRule,
    probes: int = 20,
    seed: int = 0,
) -> float:
    """Probed local Lipschitz constant of F at the strategy.

    Each probe draws a random direction (h1, h2) on the grid, normalizes it
    in the trapezoid L2 pair norm, and measures
    ||F(s + eps h) - F(s)|| / eps with eps = 1e-4.  Returns the largest
    ratio, a lower bound on the local Lipschitz constant: above one it rules
    out local contraction of the Picard map in this norm; below one it does
    not certify it, since an unprobed direction may stretch more.
    """
    if probes < 1:
        raise ConfigurationError("probes must be >= 1")
    eps = 1e-4
    rng = np.random.default_rng(seed)
    base = apply_F(strategy, params, rule)
    worst = 0.0
    for _ in range(probes):
        h1 = rng.standard_normal(strategy.grid.size)
        h2 = rng.standard_normal(strategy.grid.size)
        norm = _pair_norm(strategy.grid, h1, h2)
        h1 /= norm
        h2 /= norm
        perturbed = GridStrategy(
            grid=strategy.grid,
            values1=strategy.values1 + eps * h1,
            values2=strategy.values2 + eps * h2,
        )
        image = apply_F(perturbed, params, rule)
        delta = _pair_norm(
            strategy.grid,
            image.values1 - base.values1,
            image.values2 - base.values2,
        )
        worst = max(worst, delta / eps)
    return worst
