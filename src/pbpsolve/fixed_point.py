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
linear interpolation of samples on a common grid (the pair a grid strategy
hands to the payoff estimators finds each query's cell directly, in O(1);
apply_F keeps np.interp, whose guessed search is already O(1) on queries in
grid order), applies F by Gauss-Hermite quadrature, iterates
s <- (1 - alpha) s + alpha F(s) (damped Picard), and supplies the pointwise
derivative kernels of the two integrands together with a probed local
Lipschitz estimate of F: a lower bound on the local Lipschitz constant, so
a value below one is necessary for local contraction, not sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counterexample import (
    _BLOCK,
    ProblemParams,
    Strategy,
    StrategyPair,
    _first_stage_sum,
    _jump_mask,
    _posterior_weights,
    _reversal_invariant_sum,
    gaussian_posterior_mean,
)
from .errors import ConfigurationError, NumericError
from .quadrature import QuadratureRule, build_hermite_rule


# ---------------------------------------------------------------------------
# gridded strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridStrategy:
    """A strategy pair sampled on a grid, evaluated by linear interpolation.

    values1 samples gamma1bar, values2 samples gamma2, both at the common
    strictly increasing grid; queries outside the grid return the boundary
    values (constant extrapolation).  interp1 and interp2 are np.interp:
    apply_F queries them in grid order, where its guessed search is O(1).
    The callables of to_pair give the same bits for random queries, such as
    Monte Carlo draws, by finding each query's cell directly.
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
        """The interpolating pair.  Its callables give np.interp's bits but
        find each query's cell directly, from one _CellTable of the grid
        built here.  Its breakpoints are both ends of every grid cell across
        which values1 jumps by the rule of jump_breakpoints: gamma1bar is
        continuous, but those cells hold ramps too steep for a quadrature
        panel that spans them."""
        table = _CellTable.of(self.grid)
        cells = np.flatnonzero(_jump_mask(self.values1))
        ends = np.unique(np.concatenate([self.grid[cells], self.grid[cells + 1]]))
        return StrategyPair(
            gamma1bar=_interpolant(table, self.values1),
            gamma2=_interpolant(table, self.values2),
            breakpoints=tuple(ends),
        )


@dataclass(frozen=True)
class _CellTable:
    """Direct cell lookup on a strictly increasing grid of n nodes.

    A query x in [grid[0], grid[-1]] falls in bin floor((x - grid[0]) scale),
    with scale = 2 (n - 1) / (grid[-1] - grid[0]) (two bins per cell of a
    uniform grid) and the bin capped at the top one.  The bin is a
    nondecreasing function of x, so a node whose bin lies below x's bin
    lies at or below x, and one whose bin lies above lies above x.
    first[b] is the lowest cell those bounds leave to a query of bin b, and
    steps the most cells any bin leaves past first: that many compares
    against the next node find the cell of np.interp's search, the largest
    j with grid[j] <= x.  Any grid runs the same code; a uniform one takes
    one step, where one bin per cell would take two wherever rounding puts
    a node into the bin below its own.  upper[j] is grid[j + 1], with NaN
    after the last node, which no query passes.
    """

    grid: np.ndarray
    upper: np.ndarray
    first: np.ndarray
    steps: int
    scale: float

    @classmethod
    def of(cls, grid: np.ndarray) -> _CellTable:
        top = 2 * (grid.size - 1)
        scale = top / (grid[-1] - grid[0])
        bins = np.fmin((grid - grid[0]) * scale, top).astype(np.intp)
        b = np.arange(top + 1)
        first = np.maximum(np.searchsorted(bins, b, "left") - 1, 0)
        last = np.searchsorted(bins, b, "right") - 1
        return cls(
            grid=grid,
            upper=np.append(grid[1:], np.nan),
            first=first,
            steps=int(np.max(last - first)),
            scale=float(scale),
        )

    def cells(self, x: np.ndarray) -> np.ndarray:
        """The cell of each x, clamped to the grid or NaN (a NaN query's
        cell is the last bin's and serves no value)."""
        t = x - self.grid[0]
        t *= self.scale
        np.fmin(t, self.first.size - 1, out=t)
        j = self.first[t.astype(np.intp)]
        for _ in range(self.steps):
            j += x >= self.upper[j]
        return j


def _interpolant(table: _CellTable, values: np.ndarray) -> Strategy:
    """np.interp(x, table.grid, values), bit for bit, _BLOCK queries at a
    time.  Every query takes np.interp's own formula in its cell,
    slope[j] (x - grid[j]) + values[j] with slope = diff(values) /
    diff(grid); queries beyond an end are clamped to it.  Node hits, whose
    formula can differ from values[j] in the sign of zero, and NaN results
    go to np.interp itself, which rules on them (ends and NaN queries
    included)."""
    grid = table.grid
    lo, hi = grid[0], grid[-1]
    slope = np.append(np.diff(values) / np.diff(grid), 0.0)

    def interpolate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = np.ravel(x)
        out = np.empty_like(flat)
        for a in range(0, flat.size, _BLOCK):
            piece, res = flat[a : a + _BLOCK], out[a : a + _BLOCK]
            xc = np.maximum(piece, lo)
            np.minimum(xc, hi, out=xc)
            j = table.cells(xc)
            d = np.subtract(xc, grid[j], out=xc)
            np.multiply(slope[j], d, out=res)
            res += values[j]
            routed = d == 0.0
            routed |= np.isnan(res)
            if routed.any():
                res[routed] = np.interp(piece[routed], grid, values)
        return np.reshape(out, x.shape)

    return interpolate


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
    first-stage sum shared with the collocation residual.  The grid is
    taken _BLOCK // order points at a time, so the gamma2 lookups of F1
    see at most _BLOCK observations per call and memory does not grow with
    the grid size; every value depends on its own grid point alone.
    """
    grid = strategy.grid
    c = math.sqrt(2.0) * params.sigma

    xi, p_xi = params.prior.quad_points(rule)
    locations = strategy.interp1(xi)

    f1 = np.empty_like(grid)
    f2 = np.empty_like(grid)
    step = max(1, _BLOCK // rule.order)
    for a in range(0, grid.size, step):
        sl = slice(a, a + step)
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
    components); converged means the last step started from an s whose
    undamped defect max|F(s) - s| over both components was at most tol,
    whatever the damping; diverged means a step exceeded 1e6 and the
    iteration stopped early.  A step of exactly 0 at a defect above tol
    stops it unconverged: s did not move, so every later step would be 0.
    """

    strategy: GridStrategy
    steps: tuple[float, ...]
    iterations: int
    converged: bool
    diverged: bool


def _sup_gap(s: GridStrategy, values1: np.ndarray, values2: np.ndarray) -> float:
    """The sup-norm distance of (values1, values2) from s over both components."""
    return float(max(np.max(np.abs(values1 - s.values1)), np.max(np.abs(values2 - s.values2))))


def picard_iterate(
    init: GridStrategy,
    params: ProblemParams,
    rule: QuadratureRule,
    damping: float = 1.0,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> PicardResult:
    """Iterate s <- (1 - damping) s + damping F(s) from the given start.

    damping must lie in (0, 1].  Stops when the sup-norm defect
    max|F(s) - s| falls to tol (converged), when a step exceeds 1e6
    (diverged), when a step is exactly 0 (not converged), or after
    max_iter applications of the operator.  The defect is read from F(s)
    and s, not as step / damping, which can round to 0 at a tiny damping.
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
        step = _sup_gap(s, new1, new2)
        defect = _sup_gap(s, image.values1, image.values2)
        steps.append(step)
        s = GridStrategy(grid=s.grid, values1=new1, values2=new2)
        if step > 1e6:
            diverged = True
            break
        converged = defect <= tol
        if converged or step == 0.0:
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
    q_a = float(w[-1] / _reversal_invariant_sum(w[:-1], axis=0))
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
