"""Collocation solver for the coupled signaling optimality equations.

Discretizing the prior of x_0 by an order-n Gauss-Hermite rule turns the two
coupled stationarity equations of the two-stage signaling team into a square
nonlinear system for the vector t of first-stage values at the collocation
points x0_l = sqrt(2) sigma_x z_l:

    f_l(t) = t_l - x0_l + (1 / (sqrt(pi) k^2)) sum_i lambda_i
             { (z_i / sqrt(2 sigma^2)) (t_l - B_il)^2 + (t_l - B_il) },

where B_il is the posterior mean of the level values t_j (with prior masses
lambda_j) given the observation y = sqrt(2) sigma z_i + t_l.  Optimal level
vectors look like staircases: a handful of distinct signaling levels, each
shared by a run of collocation points.

The module evaluates the residual f(t) = t - x0 + R(t) (summed so that
f(-t reversed) is the exact bitwise negation-reversal of f(t)) and its
analytic Jacobian, solves f(t) = 0 by trust-region least squares from
affine, quantizer, or user-supplied starts, and converts a converged level
vector into an evaluable strategy pair.  B and R are the shared kernels
gaussian_posterior_mean and _first_stage_sum of counterexample.  The second
stage is the posterior mean of the levels; the first stage gamma1bar(x0)
solves H(g) = g + R(g) = x0 (R is independent of x0, so one dense table of
H serves every x0, and one batch inverter serves every caller).  H is
increasing within branches and drops at finitely many jumps, so an x0 can
have several preimages; the returned value is the preimage closest to one of
the signaling levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .counterexample import (
    PayoffBreakdown,
    ProblemParams,
    StrategyPair,
    _first_stage_sum,
    _posterior_moments,
    _reversal_invariant_sum,
    _scan_jumps,
    affine_optimal,
    gaussian_posterior_mean,
    payoff_quadrature,
)
from .errors import ConfigurationError, NumericError
from .quadrature import SQRT_PI, QuadratureRule, build_hermite_rule

_TABLE_POINTS = 200_001
# _signal_pull works on pieces of _TABLE_CHUNK // order first-stage values,
# so it holds about _TABLE_CHUNK x order posterior weights at a time.
_TABLE_CHUNK = 50_000
# Newton steps of the batch inverter.  From the interpolated start a step
# with the exact slope converges quadratically, so once a step is below
# _NEWTON_SETTLED relative to max(1, |g|) the remaining error is far below
# rounding.  On a table spread over a wide query window the start is
# coarser and a query may need another step, up to _NEWTON_STEPS in all.
_NEWTON_STEPS = 3
_NEWTON_SETTLED = 1e-8


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalingLevels:
    """A collocation-point level vector t with its rule order and problem.

    levels[l] is the first-stage value at the collocation point
    x0_l = sqrt(2) sigma_x z_l of the order rule_order Gauss-Hermite rule.
    The strategy pair that collocation_pair builds is kept on the instance,
    so every caller shares one inverter table per level vector.
    """

    levels: np.ndarray
    rule_order: int
    params: ProblemParams
    _pair: StrategyPair | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        levels = np.array(self.levels, dtype=float)
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        if levels.ndim != 1 or levels.shape[0] != self.rule_order:
            raise ConfigurationError("levels must be a vector of length rule_order")
        if not np.all(np.isfinite(levels)):
            raise ConfigurationError("levels must be finite")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a level solve.

    residual_norm is the Euclidean norm of the residual vector at the
    returned levels; converged means residual_norm <= tol (enforced);
    iterations counts every residual-vector evaluation the least-squares
    iteration made (its nfev: the Jacobian is analytic, so no
    finite-difference evaluations are hidden), not counting the one that
    measures residual_norm; jacobian_evaluations counts its
    residual_jacobian calls (njev); both are 0 without iteration.  init
    records which initialization produced the result.  payoff is the
    quadrature payoff (order-20 outer and inner rules) by which
    init="auto" compared two converged candidates, None when no comparison
    ran.  An "auto" result lists both candidate reports, affine first, in
    candidates, which is empty otherwise.
    """

    levels: SignalingLevels
    residual_norm: float
    iterations: int
    converged: bool
    init: str
    tol: float
    jacobian_evaluations: int = 0
    payoff: PayoffBreakdown | None = None
    candidates: tuple[SolveReport, ...] = ()

    def __post_init__(self) -> None:
        if self.converged and not self.residual_norm <= self.tol:
            raise ConfigurationError(
                "a converged report requires residual_norm <= tol"
            )


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

def _level_vector(
    levels: np.ndarray | SignalingLevels,
    params: ProblemParams | None,
    rule: QuadratureRule | None,
) -> tuple[np.ndarray, ProblemParams, QuadratureRule]:
    """(t, params, rule) from a SignalingLevels bundle or a plain vector."""
    if isinstance(levels, SignalingLevels):
        params = levels.params
        rule = build_hermite_rule(levels.rule_order)
        t = np.asarray(levels.levels, dtype=float)
    else:
        if params is None or rule is None:
            raise ConfigurationError(
                "a plain level vector requires params and rule arguments"
            )
        t = np.asarray(levels, dtype=float)
    if t.shape != (rule.order,):
        raise ConfigurationError("level vector length must equal the rule order")
    return t, params, rule


def residual_system(
    levels: np.ndarray | SignalingLevels,
    params: ProblemParams | None = None,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """Residual vector f(t) of the collocation system.

    Accepts either a SignalingLevels bundle or a plain vector plus params and
    rule.  The summations are arranged so that negating and reversing the
    input negates and reverses the output bit-for-bit (the exact sign
    symmetry of the continuous equations, inherited from the exact node and
    weight symmetry of the rule).  f(t) = t - x0 + R(t), with R the
    first-stage sum of _signal_pull evaluated at the levels themselves.
    """
    t, params, rule = _level_vector(levels, params, rule)
    x0 = math.sqrt(2.0) * params.sigma_x * rule.nodes
    return t - x0 + _signal_pull(t, t, params, rule, with_slope=False)[0]


def residual_jacobian(
    levels: np.ndarray | SignalingLevels,
    params: ProblemParams | None = None,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """Jacobian J[l, m] = df_l / dt_m of the collocation residual.

    With p_ilm the posterior probability of level m at y_il = c z_i + t_l,
    B_il and V_il that posterior's mean and variance, d_il = t_l - B_il and
    g_il = lambda_i (2 z_i d_il / c + 1),

        J = I + (1 / (sqrt(pi) k^2)) [ diag_l(sum_i g_il (1 - V_il / sigma^2))
            - sum_i g_il p_ilm (1 + (t_m - B_il)(y_il - t_m) / sigma^2) ].

    The diagonal term is R'(t_l) of _signal_pull: t_l moves the observation
    y_il, and the posterior mean has derivative V / sigma^2 in y.  The
    second term is how B_il moves with level t_m itself.  Arguments as for
    residual_system; the n x n x n posterior tensor is 2 MB at n = 64.
    """
    t, params, rule = _level_vector(levels, params, rule)
    z = rule.nodes
    lam = rule.weights
    sv = params.sigma
    var_scale = sv * sv
    c = math.sqrt(2.0) * sv

    y = c * z[:, None] + t[None, :]
    w, mass, b, var = _posterior_moments(y, t, np.log(lam), sv)
    g = lam[:, None] * ((2.0 * z[:, None] / c) * (t[None, :] - b) + 1.0)
    diag = _reversal_invariant_sum(g * (1.0 - var / var_scale), axis=0)
    # p_ilm = w_mil / mass_il (the weights hold the levels m on axis 0); the
    # normalization rides on g.  The node sum runs along axis 1 and gives
    # the cross term as [m, l].
    t_m = t[:, None, None]
    dev = (t_m - b) * (y - t_m) / var_scale
    cross = _reversal_invariant_sum(g / mass * w * (1.0 + dev), axis=1)
    return np.eye(t.size) + (np.diag(diag) - cross.T) / (SQRT_PI * params.k**2)


def _signal_pull(
    g: np.ndarray,
    t: np.ndarray,
    params: ProblemParams,
    rule: QuadratureRule,
    with_slope: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """R(g) and its derivative R'(g) at a vector of first-stage values g.

    R(g) is _first_stage_sum when the second stage is the posterior mean of
    the levels t; the root g of g + R(g) = x0 is the first-stage strategy
    value at x0.  With d_i = g - b_i, b_i and V_i the posterior mean and
    variance of the levels at y = g + c z_i (b has derivative V / sigma^2),

        R'(g) = (1 / (sqrt(pi) k^2)) sum_i lambda_i (2 z_i d_i / c + 1)
                (1 - V_i / sigma^2).

    with_slope=False skips V and returns None for R'.  All noise nodes are
    handled at once, on pieces of _TABLE_CHUNK // order values of g, so peak
    memory stays near _TABLE_CHUNK x order posterior weights; each value
    depends on its own g alone, not on the piece.
    """
    g = np.asarray(g, dtype=float)
    z = rule.nodes[:, None]
    sv = params.sigma
    c = math.sqrt(2.0) * sv
    pull = np.empty_like(g)
    slope = np.empty_like(g) if with_slope else None
    step = max(1, _TABLE_CHUNK // rule.order)
    for a in range(0, g.size, step):
        part = g[a : a + step]
        y = c * z + part
        if with_slope:
            _, _, b, var = _posterior_moments(y, t, np.log(rule.weights), sv)
        else:
            b = gaussian_posterior_mean(y, t, rule.weights, sv)
        d = part - b
        pull[a : a + step] = _first_stage_sum(d, rule, params)
        if with_slope:
            gain = rule.weights[:, None] * ((2.0 * z / c) * d + 1.0) * (1.0 - var / (sv * sv))
            slope[a : a + step] = _reversal_invariant_sum(gain, axis=0) / (SQRT_PI * params.k**2)
    return pull, slope


# ---------------------------------------------------------------------------
# initializations and the solver
# ---------------------------------------------------------------------------

def expand_distinct_levels(
    values: Sequence[float], params: ProblemParams, rule: QuadratureRule
) -> np.ndarray:
    """Turn a short list of tread values into a full collocation level vector.

    Each collocation point x0_l receives the listed value nearest to x0_l.
    """
    values = np.asarray(list(values), dtype=float)
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
        raise ConfigurationError("tread values must be a nonempty finite vector")
    x0 = math.sqrt(2.0) * params.sigma_x * rule.nodes
    return values[np.argmin(np.abs(x0[:, None] - values[None, :]), axis=1)]


def _affine_init(params: ProblemParams, rule: QuadratureRule) -> np.ndarray:
    lam_aff = affine_optimal(params).lam
    return lam_aff * math.sqrt(2.0) * params.sigma_x * rule.nodes


def _quantizer_init(
    params: ProblemParams, rule: QuadratureRule, scale: float = 1.0
) -> np.ndarray:
    """Uniform quantizer seed: each collocation abscissa snapped to the
    nearest multiple of a spacing chosen so the outermost level sits at
    scale times the outermost abscissa."""
    x0 = math.sqrt(2.0) * params.sigma_x * rule.nodes
    half_steps = max((rule.order - 1) / 2.0, 1.0)
    delta = scale * math.sqrt(2.0) * params.sigma_x * float(rule.nodes[-1]) / half_steps
    if delta == 0.0:
        # A single node at 0 (or scale 0) leaves no lattice to snap to.
        return x0
    return delta * np.round(x0 / delta)


def _single_solve(
    params: ProblemParams,
    rule: QuadratureRule,
    start: np.ndarray,
    tag: str,
    tol: float,
    iterate: bool,
) -> SolveReport:
    if iterate:
        # least_squares begins with the residual and Jacobian at the start:
        # they are evaluated once here, checked and handed over.  A
        # non-finite one would end inside SciPy (its start check, or the
        # SVD of J).
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = residual_system(start, params, rule)
            j0 = residual_jacobian(start, params, rule) if np.all(np.isfinite(f0)) else None
        if j0 is None or not np.all(np.isfinite(j0)):
            raise ConfigurationError(
                f"the {tag} start gives a non-finite residual or Jacobian "
                f"(largest |level| {float(np.max(np.abs(start))):.6g}); "
                "start nearer the scale of the prior"
            )
        result = least_squares(
            lambda x: f0 if np.array_equal(x, start) else residual_system(x, params, rule),
            start,
            jac=lambda x: j0 if np.array_equal(x, start) else residual_jacobian(x, params, rule),
            method="trf",
            xtol=3e-16,
            ftol=3e-16,
            gtol=3e-16,
            max_nfev=500 * (rule.order + 1),
        )
        t = result.x
        iterations = int(result.nfev)
        jacobian_evaluations = int(result.njev)
    else:
        t = np.asarray(start, dtype=float)
        iterations = 0
        jacobian_evaluations = 0
    norm = float(np.linalg.norm(residual_system(t, params, rule)))
    return SolveReport(
        levels=SignalingLevels(t, rule.order, params),
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= tol),
        init=tag,
        tol=tol,
        jacobian_evaluations=jacobian_evaluations,
    )


def solve_signaling_levels(
    params: ProblemParams,
    rule: QuadratureRule,
    init: str | Sequence[float] | np.ndarray = "auto",
    tol: float = 1e-12,
    iterate: bool = True,
    quantizer_scale: float = 1.0,
) -> SolveReport:
    """Solve the collocation system for a signaling level vector.

    init selects the starting vector: "affine" (the optimal affine slope
    applied to the collocation points), "quantizer" (collocation points
    rounded to a uniform lattice whose spacing is controlled by
    quantizer_scale), "auto" (both starts are solved and the converged
    result with the lower quadrature payoff is kept), or an explicit list of
    level values, each collocation point receiving the nearest listed value
    (so the list order is immaterial and a short list of tread values
    suffices).  With iterate=False the residual is evaluated at
    the start without optimization, which reports the defect of a
    hypothesized level vector.  converged means the Euclidean residual norm
    is at most tol.
    """
    if not tol > 0.0:
        raise ConfigurationError("tol must be positive")
    if isinstance(init, str):
        key = init.lower()
        if key == "affine":
            return _single_solve(params, rule, _affine_init(params, rule), "affine", tol, iterate)
        if key == "quantizer":
            start = _quantizer_init(params, rule, quantizer_scale)
            return _single_solve(params, rule, start, "quantizer", tol, iterate)
        if key != "auto":
            raise ConfigurationError(
                f"init must be 'affine', 'quantizer', 'auto', or a vector, got {init!r}"
            )
        reports = [
            _single_solve(params, rule, _affine_init(params, rule), "auto:affine", tol, iterate),
            _single_solve(
                params,
                rule,
                _quantizer_init(params, rule, quantizer_scale),
                "auto:quantizer",
                tol,
                iterate,
            ),
        ]
        converged = [r for r in reports if r.converged]
        if len(converged) == 2:
            payoff_rule = build_hermite_rule(20)
            reports = [
                replace(r, payoff=payoff_quadrature(params, solved_pair(r), payoff_rule, payoff_rule))
                for r in reports
            ]
            best = min(reports, key=lambda r: r.payoff.total)
        elif converged:
            best = converged[0]
        else:
            best = min(reports, key=lambda r: r.residual_norm)
        return replace(best, candidates=tuple(reports))

    start = np.asarray(list(np.ravel(init)), dtype=float)
    if not np.all(np.isfinite(start)):
        raise ConfigurationError("user initialization must be finite")
    start = expand_distinct_levels(start, params, rule)
    return _single_solve(params, rule, start, "user", tol, iterate)


# ---------------------------------------------------------------------------
# evaluating a solved strategy
# ---------------------------------------------------------------------------

def _levels_pair(levels: SignalingLevels, rule: QuadratureRule | None) -> StrategyPair:
    """collocation_pair of the levels.  A given rule must match the level
    count (the rule of an order is unique)."""
    if rule is not None and rule.order != levels.rule_order:
        raise ConfigurationError(
            "rule order must match the level count "
            f"({rule.order} != {levels.rule_order})"
        )
    return collocation_pair(levels)


def eval_gamma2(
    y1: np.ndarray | float,
    levels: SignalingLevels,
    rule: QuadratureRule | None = None,
) -> np.ndarray | float:
    """Second-stage strategy: posterior mean of the levels given y1.

    The value of collocation_pair(levels).gamma2.  The mixture weights are
    the rule weights (the prior masses of the collocation points).
    Log-sum-exp stabilized, finite for every finite y1; far beyond the
    outermost level the value saturates at that level.  Scalar in, scalar
    out; array in, array out.  A given rule must match the level count.
    """
    out = _levels_pair(levels, rule).gamma2(y1)
    return float(out) if np.ndim(y1) == 0 else out


def eval_gamma1bar(
    x0: float,
    levels: SignalingLevels,
    rule: QuadratureRule | None = None,
) -> float:
    """First-stage strategy value at a single x0.

    The value of collocation_pair(levels).gamma1bar at x0, so it shares
    that pair's inverter table: the root of g + R(g) = x0 nearest to a
    signaling level.  Raises NumericError for a non-finite x0.  A given
    rule must match the level count.
    """
    return float(_levels_pair(levels, rule).gamma1bar(float(x0)))


@dataclass(frozen=True)
class _InverterTable:
    """H = g + R(g) tabulated on [lo, hi], split into monotone branches.

    Each branch is a pair (h, g) of views into the table with h ascending.
    h_min and h_max bound the tabulated values of H.
    """

    lo: float
    hi: float
    h_min: float
    h_max: float
    branches: tuple[tuple[np.ndarray, np.ndarray], ...]


class _TableInverter:
    """Batch inversion of H(g) = g + R(g) via one dense table.

    Because R does not depend on x0, a single table of H over a window
    covering all queried x0 serves every evaluation.  When the table is
    built it is split at slope-sign changes into monotone branches; each
    branch is inverted by linear interpolation for the queries inside its
    range of H, each x0 keeps the candidate preimage nearest to a signaling
    level, and Newton steps with the exact slope 1 + R'(g) restore full
    accuracy (one step suffices on a fine table).  The table is cached and
    rebuilt only when a query falls outside its window.

    The table is an immutable record published by a single assignment and
    each call works on the record it obtained, so concurrent calls never
    mix two tables; a concurrent rebuild can at worst drop another thread's
    window from the cache, which costs a later rebuild.
    """

    def __init__(self, levels: SignalingLevels, rule: QuadratureRule) -> None:
        # The level vector and problem, not the SignalingLevels object: that
        # object keeps this inverter's pair, and a reference back would form
        # a cycle that holds the table until the cyclic collector runs.
        self._t = levels.levels
        self._params = levels.params
        self._rule = rule
        self._table: _InverterTable | None = None

    def _ensure_table(self, x_min: float, x_max: float) -> _InverterTable:
        table = self._table
        t = self._t
        params = self._params
        pad = 6.0 * params.sigma + 1.0
        lo = min(float(t.min()), x_min) - pad
        hi = max(float(t.max()), x_max) + pad
        if table is not None:
            if lo >= table.lo and hi <= table.hi:
                return table
            lo = min(lo, table.lo)
            hi = max(hi, table.hi)
        grid = np.linspace(lo, hi, _TABLE_POINTS)
        h = grid + _signal_pull(grid, t, params, self._rule, with_slope=False)[0]

        # Split the table into maximal runs of constant slope sign.
        rising = np.diff(h) > 0.0
        boundaries = [0, *(np.flatnonzero(rising[1:] != rising[:-1]) + 1), h.size - 1]
        branches = []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            seg_h = h[a : b + 1]
            seg_g = grid[a : b + 1]
            if seg_h[0] > seg_h[-1]:
                seg_h, seg_g = seg_h[::-1], seg_g[::-1]
            branches.append((seg_h, seg_g))
        table = _InverterTable(lo, hi, float(h.min()), float(h.max()), tuple(branches))
        self._table = table
        return table

    def __call__(self, x0: np.ndarray) -> np.ndarray:
        x = np.asarray(x0, dtype=float)
        flat = np.ravel(x)
        if flat.size == 0:
            return np.reshape(flat, np.shape(x0))
        if not np.all(np.isfinite(flat)):
            raise NumericError("gamma1bar evaluation requires finite x0")
        table = self._ensure_table(float(flat.min()), float(flat.max()))
        t = self._t
        params = self._params

        order = np.argsort(flat, kind="stable")
        xs = flat[order]
        best = _nearest_preimages(xs, table.branches, t)

        # Queries beyond the tabulated range of H clamp to the table ends.
        best = np.where(np.isnan(best) & (xs <= table.h_min), table.lo, best)
        best = np.where(np.isnan(best), np.where(xs >= table.h_max, table.hi, best), best)

        active = np.arange(best.size)
        for _ in range(_NEWTON_STEPS):
            g_act = best[active]
            r, r_slope = _signal_pull(g_act, t, params, self._rule)
            f0 = g_act + r - xs[active]
            slope = 1.0 + r_slope
            step = np.clip(np.where(np.abs(slope) > 1e-12, f0 / slope, 0.0), -1.0, 1.0)
            best[active] = g_act - step
            active = active[np.abs(step) > _NEWTON_SETTLED * np.maximum(1.0, np.abs(g_act))]

        out = np.empty_like(best)
        out[order] = best
        return np.reshape(out, np.shape(x))


def _nearest_preimages(
    xs: np.ndarray, branches: Sequence[tuple[np.ndarray, np.ndarray]], t: np.ndarray
) -> np.ndarray:
    """For ascending queries xs, the interpolated preimage over the
    monotone branches that lies nearest to a level of t; NaN where no
    branch covers a query.  A later branch replaces a kept candidate only
    when it is strictly nearer.  Each branch visits only the queries inside
    its range of H, and the distance to the nearest level is taken by one
    elementwise pass per level (no queries x levels temporary)."""
    best = np.full(xs.shape, np.nan)
    best_dist = np.full(xs.shape, np.inf)
    for seg_h, seg_g in branches:
        a = np.searchsorted(xs, seg_h[0], side="left")
        b = np.searchsorted(xs, seg_h[-1], side="right")
        cand = np.interp(xs[a:b], seg_h, seg_g)
        dist = np.abs(cand - t[0])
        gap = np.empty_like(cand)
        for level in t[1:]:
            np.abs(np.subtract(cand, level, out=gap), out=gap)
            np.minimum(dist, gap, out=dist)
        take = dist < best_dist[a:b]
        best[a:b][take] = cand[take]
        best_dist[a:b][take] = dist[take]
    return best


def solved_pair(report: SolveReport) -> StrategyPair:
    """Evaluable strategy pair from a converged solve.

    Requires report.converged; otherwise the levels do not solve the system
    and a ConfigurationError is raised.  gamma1bar uses the cached-table
    batch inverter; gamma2 is the posterior mean of the levels.
    """
    if not report.converged:
        raise ConfigurationError(
            "solved_pair requires a converged report "
            f"(residual_norm={report.residual_norm!r} > tol={report.tol!r})"
        )
    return collocation_pair(report.levels)


def collocation_pair(levels: SignalingLevels) -> StrategyPair:
    """Evaluable strategy pair defined by a collocation level vector.

    The pair is built once per levels object and returned again on later
    calls, so its inverter table is built once.  Two threads that race on
    the first call may each build a pair; the last one is kept.
    """
    if levels._pair is not None:
        return levels._pair
    rule = build_hermite_rule(levels.rule_order)
    inverter = _TableInverter(levels, rule)
    sv = levels.params.sigma
    weights = rule.weights
    level_values = levels.levels

    def gamma2(y: np.ndarray) -> np.ndarray:
        return gaussian_posterior_mean(np.asarray(y, dtype=float), level_values, weights, sv)

    pair = StrategyPair(
        gamma1bar=inverter,
        gamma2=gamma2,
        kind="collocation",
        levels=level_values,
    )
    object.__setattr__(levels, "_pair", pair)
    return pair


# ---------------------------------------------------------------------------
# structural summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaircaseSummary:
    """Shape report for a first-stage strategy sampled on a symmetric window.

    steps counts the treads (jumps + 1); tread_values and tread_slopes are
    the mean strategy value and the least-squares slope on each tread;
    line_slope and line_rms are the global least-squares line fit and its
    RMS deviation; shape is "linear" when there are no jumps and the line
    fit is tight, otherwise "staircase".
    """

    steps: int
    breakpoints: tuple[float, ...]
    tread_values: tuple[float, ...]
    tread_slopes: tuple[float, ...]
    line_slope: float
    line_rms: float
    shape: str


def summarize_staircase(pair: StrategyPair, params: ProblemParams) -> StaircaseSummary:
    """Classify gamma1bar as linear or staircase and report its treads,
    on the jump scan that payoff_quadrature splits its panels at."""
    xs, g, breaks = _scan_jumps(pair, params)
    edges = [xs[0], *breaks, xs[-1]]
    tread_values = []
    tread_slopes = []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (xs >= a) & (xs <= b)
        tread_values.append(float(np.mean(g[mask])))
        if np.count_nonzero(mask) >= 2:
            tread_slopes.append(float(np.polyfit(xs[mask], g[mask], 1)[0]))
        else:
            tread_slopes.append(0.0)
    slope, intercept = np.polyfit(xs, g, 1)
    fit_rms = float(np.sqrt(np.mean((g - (slope * xs + intercept)) ** 2)))
    scale = max(1.0, float(np.max(np.abs(g))))
    shape = "linear" if not breaks and fit_rms <= 1e-2 * scale else "staircase"
    return StaircaseSummary(
        steps=len(breaks) + 1,
        breakpoints=tuple(float(b) for b in breaks),
        tread_values=tuple(tread_values),
        tread_slopes=tuple(tread_slopes),
        line_slope=float(slope),
        line_rms=fit_rms,
        shape=shape,
    )


def distinct_levels(levels: SignalingLevels) -> np.ndarray:
    """Cluster a level vector into its distinct signaling values.

    Values are sorted and split wherever a gap exceeds 2% of the total
    range (separating treads, which are narrow clusters, from the much
    wider spacing between signaling levels); each cluster is represented by
    its mean.  A zero-range vector is a single level.
    """
    t = np.sort(np.asarray(levels.levels, dtype=float))
    if t.size == 1:
        return t.copy()
    gaps = np.diff(t)
    threshold = 0.02 * float(t[-1] - t[0])
    if threshold == 0.0:
        return np.array([float(t.mean())])
    reps = []
    start = 0
    for i, gap in enumerate(gaps):
        if gap > threshold:
            reps.append(float(np.mean(t[start : i + 1])))
            start = i + 1
    reps.append(float(np.mean(t[start:])))
    return np.asarray(reps)
