"""Collocation solver for the coupled signaling optimality equations.

Discretizing the prior of x_0 by an order-n Gauss-Hermite rule turns the two
coupled stationarity equations of the two-stage signaling team into a square
nonlinear system for the vector t of first-stage values at the collocation
points x0_l = sqrt(2) sigma_x z_l:

    f_l(t) = t_l - x0_l + (1 / (sqrt(pi) k^2)) sum_i lambda_i
             { (z_i / sqrt(2 sigma^2)) (t_l - B_il)^2 + (t_l - B_il) },

where B_il is the posterior mean of the level values t_j (with prior masses
lambda_j) given the observation y = sqrt(2) sigma z_i + t_l.  The solved
levels are distinct: at the benchmark no solve of odd order from 5 to 31
shares a level.

The module evaluates the residual f(t) = t - x0 + R(t) (summed so that
f(-t reversed) is the exact bitwise negation-reversal of f(t)) and its
analytic Jacobian, solves f(t) = 0 by trust-region least squares from
affine, quantizer, or user-supplied starts, and converts a converged level
vector into an evaluable strategy pair; from an odd start (t = -t
reversed, as both named starts are) it iterates on the upper n // 2
levels alone.  B and R are the shared kernels
_posterior_mean_parts (the one beneath gaussian_posterior_mean) and
_first_stage_sum of counterexample; a least-squares point computes them
once for its residual and its Jacobian.

The pair's second stage gamma2 is the posterior mean of the levels, and its
first stage is the best response to gamma2: with c(g) = E_v (g - gamma2(g +
v))^2, gamma1bar(x0) = argmin_g k^2 (g - x0)^2 + c(g), the point of the
lower convex hull of phi = g^2 + c / k^2 where the hull's slope is 2 x0.
c and c' come from two FFT convolutions of gamma2 and gamma2^2 with the
N(0, sigma^2) density on one uniform grid.  A hull edge wider than one
step is a jump at x0 = its slope / 2, in closed form, and inside a convex
run a query solves g + c'(g) / (2 k^2) = x0 in one grid cell.  So gamma1bar
does not pass through the levels at the collocation points: residual_norm
measures the n-level collocation system, and the pair is the first
stage's best response to the levels' second stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .counterexample import (
    _BLOCK,
    _REACH,
    GaussianPrior,
    PayoffBreakdown,
    ProblemParams,
    Strategy,
    StrategyPair,
    _CellTable,
    _first_stage_sum,
    _posterior_mean_parts,
    _posterior_variance,
    _reversal_invariant_sum,
    affine_optimal,
    gaussian_posterior_mean,
    payoff_quadrature,
)
from .errors import ConfigurationError, NumericError, ResolutionError
from .quadrature import SQRT_PI, QuadratureRule, build_hermite_rule

# The first-stage grid has at least _MIN_NODES nodes and at most _MAX_NODES.
_MIN_NODES = 200_001
_MAX_NODES = 2_000_001
# gamma2 is tabulated this many sigma beyond the first-stage grid, where the
# N(0, sigma^2) density has fallen below 3e-18 of its peak.
_KERNEL_REACH = 9.0


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalingLevels:
    """A collocation-point level vector t with its rule order and problem.

    levels[l] is the first-stage value at the collocation point
    x0_l = sqrt(2) sigma_x z_l of the order rule_order Gauss-Hermite rule.
    The strategy pair that collocation_pair builds is kept on the instance,
    so every caller shares one first stage per level vector.
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
    returned levels (the least-squares iteration's own last residual,
    mirrored from the upper half of an odd start); converged means
    residual_norm <= tol (enforced); iterations counts every residual
    evaluation the least-squares iteration made, reduced or not (its nfev:
    the Jacobian is analytic, so no finite-difference evaluations are
    hidden); jacobian_evaluations counts its Jacobian evaluations
    (njev), each on the posterior weights its point's residual already
    computed; both are 0 without iteration.  init
    records which initialization produced the result.  payoff is the
    quadrature payoff (order-20 outer and inner rules) by which
    init="auto" compared two distinct converged candidates, None when no
    comparison ran: two converged level vectors within tol of each other
    (Euclidean norm of the difference) are one solution, and neither is
    scored.  An "auto" result lists both candidate reports, affine first,
    in candidates, which is empty otherwise.  status and message say why
    least_squares stopped, converged or not (None without iteration).
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
    status: int | None = None
    message: str | None = None

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


@dataclass(frozen=True)
class _CollocationPoint:
    """The collocation system evaluated at a level vector t, in its
    columns cols (ascending indices into t).

    y[i, l] = c z_i + t_l are the observations (c = sqrt(2) sigma), w the
    unnormalized posterior weights of the levels at them (levels on axis
    0, so w is n x n x cols.size: 262,144 weights, 2 MB, at n = 64 with
    every column), mass their total, mean the posterior mean B and f the
    residual entries of the columns.  The Jacobian is a tail on this state
    (_collocation_jacobian), so a least-squares point that needs both
    computes the weights once.
    """

    t: np.ndarray
    cols: np.ndarray
    y: np.ndarray
    w: np.ndarray
    mass: np.ndarray
    mean: np.ndarray
    f: np.ndarray


def _collocation_point(
    t: np.ndarray, params: ProblemParams, rule: QuadratureRule, cols: np.ndarray | None = None
) -> _CollocationPoint:
    """The weights, mean and residual in the columns cols (all by default)
    at t, in one pass over all noise nodes and levels; each residual entry
    depends on its own level's column alone, so this is the residual of
    residual_system in those columns, bit for bit."""
    cols = np.arange(t.size) if cols is None else cols
    sv = params.sigma
    tc = t[cols]
    y = math.sqrt(2.0) * sv * rule.nodes[:, None] + tc
    log_masses = np.log(np.ascontiguousarray(rule.weights))
    w, mass, mean = _posterior_mean_parts(y, t, log_masses, sv)
    x0 = math.sqrt(2.0) * params.sigma_x * rule.nodes[cols]
    f = tc - x0 + _first_stage_sum(tc - mean, rule, params)
    return _CollocationPoint(t, cols, y, w, mass, mean, f)


def _collocation_jacobian(
    point: _CollocationPoint, params: ProblemParams, rule: QuadratureRule
) -> np.ndarray:
    """The rows cols of residual_jacobian from the state of its point;
    when cols is the upper half U of an odd t, whose lower half moves as
    its negated mirror, the mirrored columns fold in: J[U, U] - J[U, n-1-U]."""
    t, cols, y, w, mass, b = point.t, point.cols, point.y, point.w, point.mass, point.mean
    sv = params.sigma
    var_scale = sv * sv
    var = _posterior_variance(w, mass, b, t)
    # The node factor g_il = lambda_i (2 z_i d_il / c + 1), d = t_l - B_il,
    # c = sqrt(2) sigma, and the diagonal term sum_i g_il (1 - V_il / sigma^2).
    c = math.sqrt(2.0) * sv
    g = rule.weights[:, None] * ((2.0 * rule.nodes[:, None] / c) * (t[cols] - b) + 1.0)
    diag = _reversal_invariant_sum(g * (1.0 - var / var_scale), axis=0)
    # p_ilm = w_mil / mass_il (the weights hold the levels m on axis 0); the
    # normalization rides on g.  The node sum runs along axis 1 and gives
    # the cross term as [m, l].  The n x n x cols.size products are formed in
    # place: the same elementwise operations, three buffers instead of six.
    t_m = t[:, None, None]
    dev = t_m - b
    dev *= y - t_m
    dev /= var_scale
    dev += 1.0
    terms = g / mass * w
    terms *= dev
    cross = _reversal_invariant_sum(terms, axis=1)
    eye = np.eye(t.size)[cols]
    jac = eye + (np.where(eye > 0.0, diag[:, None], 0.0) - cross.T) / (SQRT_PI * params.k**2)
    return jac if cols.size == t.size else jac[:, cols] - jac[:, t.size - 1 - cols]


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
    first-stage sum evaluated at the levels themselves.
    """
    t, params, rule = _level_vector(levels, params, rule)
    return _collocation_point(t, params, rule).f


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

    The diagonal term is R'(t_l): t_l moves the observation y_il, and the
    posterior mean has derivative V / sigma^2 in y.  The
    second term is how B_il moves with level t_m itself.  Arguments as for
    residual_system; the n x n x n posterior tensor is 2 MB at n = 64.
    """
    t, params, rule = _level_vector(levels, params, rule)
    return _collocation_jacobian(_collocation_point(t, params, rule), params, rule)


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


def _quantizer_init(params: ProblemParams, rule: QuadratureRule) -> np.ndarray:
    """Uniform quantizer seed: each collocation abscissa snapped to the
    nearest multiple of a spacing chosen so the outermost level sits at the
    outermost abscissa."""
    x0 = math.sqrt(2.0) * params.sigma_x * rule.nodes
    half_steps = max((rule.order - 1) / 2.0, 1.0)
    delta = math.sqrt(2.0) * params.sigma_x * float(rule.nodes[-1]) / half_steps
    if delta == 0.0:
        # A single node at 0 leaves no lattice to snap to.
        return x0
    return delta * np.round(x0 / delta)


# The named starts, in the order "auto" solves them.
_STARTS = {"affine": _affine_init, "quantizer": _quantizer_init}
# Residual evaluations per collocation point plus one that a least-squares
# solve may make, on all levels or the upper half.  It bounds what a stalled
# start costs: an n = 64 solve took 26 s for 5,245 evaluations at the
# benchmark (2-core x86-64 host), and the budget allows 32,500.
_NFEV_PER_UNKNOWN = 500


class _OnePointSystem:
    """fun and jac of one least-squares solve on the levels x in columns
    cols, all or the upper half of an odd vector (_full_vector), sharing
    the state of the last point evaluated.

    least_squares asks for the Jacobian only at the point whose residual
    it has just evaluated, so jac(x) puts the Jacobian tail on the cached
    state of fun(x) and evaluates afresh only at another x.  One point is
    held at a time: its state, and its Jacobian once asked for.
    """

    def __init__(self, params: ProblemParams, rule: QuadratureRule, cols: np.ndarray) -> None:
        self._params = params
        self._rule = rule
        self._cols = cols
        self._point: _CollocationPoint | None = None
        self._jac: np.ndarray | None = None

    def fun(self, x: np.ndarray) -> np.ndarray:
        if self._point is None or not np.array_equal(x, self._point.t[self._cols]):
            # Drop the old state before the new one is built.
            self._point = None
            self._jac = None
            t = _full_vector(np.array(x, dtype=float), self._rule.order)
            self._point = _collocation_point(t, self._params, self._rule, self._cols)
        return self._point.f

    def jac(self, x: np.ndarray) -> np.ndarray:
        self.fun(x)
        if self._jac is None:
            self._jac = _collocation_jacobian(self._point, self._params, self._rule)
        return self._jac


def _full_vector(x: np.ndarray, n: int) -> np.ndarray:
    """x itself when it has n entries, else the odd vector of length n
    whose upper entries are x (an odd n puts 0 in the middle)."""
    return x if x.size == n else np.concatenate([-x[::-1], np.zeros(n % 2), x])


def _single_solve(
    params: ProblemParams,
    rule: QuadratureRule,
    start: np.ndarray,
    tag: str,
    tol: float,
    iterate: bool,
) -> SolveReport:
    if iterate:
        from scipy.optimize import least_squares

        # least_squares begins with the residual and Jacobian at the start:
        # they are evaluated once here, checked, and kept in the cache that
        # its first calls read.  A non-finite one would end inside SciPy
        # (its start check, or the SVD of J).  The residual of an odd start
        # (n >= 2) stays odd at every iterate, so only the upper half moves.
        odd = start.size >= 2 and np.array_equal(start, -start[::-1])
        cols = np.arange(start.size - start.size // 2 if odd else 0, start.size)
        x0 = start[cols]
        system = _OnePointSystem(params, rule, cols)
        with np.errstate(over="ignore", invalid="ignore"):
            f0 = system.fun(x0)
            j0 = system.jac(x0) if np.all(np.isfinite(f0)) else None
        if j0 is None or not np.all(np.isfinite(j0)):
            raise ConfigurationError(
                f"the {tag} start gives a non-finite residual or Jacobian "
                f"(largest |level| {float(np.max(np.abs(start))):.6g}); "
                "start nearer the scale of the prior"
            )
        result = least_squares(
            system.fun,
            x0,
            jac=system.jac,
            method="trf",
            xtol=3e-16,
            ftol=3e-16,
            gtol=3e-16,
            max_nfev=_NFEV_PER_UNKNOWN * (rule.order + 1),
        )
        t = _full_vector(result.x, rule.order)
        residual = _full_vector(result.fun, rule.order)
        iterations = int(result.nfev)
        jacobian_evaluations = int(result.njev)
        status, message = int(result.status), str(result.message)
    else:
        t = np.asarray(start, dtype=float)
        residual = residual_system(t, params, rule)
        iterations = 0
        jacobian_evaluations = 0
        status = message = None
    norm = float(np.linalg.norm(residual))
    return SolveReport(
        levels=SignalingLevels(t, rule.order, params),
        residual_norm=norm,
        iterations=iterations,
        converged=bool(norm <= tol),
        init=tag,
        tol=tol,
        jacobian_evaluations=jacobian_evaluations,
        status=status,
        message=message,
    )


def solve_signaling_levels(
    params: ProblemParams,
    rule: QuadratureRule,
    init: str | Sequence[float] | np.ndarray = "auto",
    tol: float = 1e-12,
    iterate: bool = True,
) -> SolveReport:
    """Solve the collocation system for a signaling level vector.

    init selects the starting vector: "affine" (the optimal affine slope
    applied to the collocation points), "quantizer" (collocation points
    rounded to a uniform lattice whose outermost rung is the outermost
    collocation point), "auto" (both starts are solved; of two distinct
    converged results the one with the lower quadrature payoff is kept, of
    two within tol of each other the affine one), or an explicit list of
    level values, each collocation point receiving the nearest listed value
    (so the list order is immaterial and a short list of tread values
    suffices).  With iterate=False the residual is evaluated at the start
    without optimization, which reports the defect of a hypothesized level
    vector.  converged means the Euclidean residual norm is at most tol.
    From an odd start (start == -start[::-1], n >= 2, as the named starts
    are) the solve iterates on the upper n // 2 levels and returns exactly
    odd levels.  A least-squares solve makes at most 500 (n + 1) residual
    evaluations at order n.  Iterating under a non-Gaussian prior is refused.
    """
    if not tol > 0.0:
        raise ConfigurationError("tol must be positive")
    if iterate and not isinstance(params.prior, GaussianPrior):
        raise ConfigurationError("the collocation solve iterates only under the Gaussian prior")
    if isinstance(init, str):
        key = init.lower()
        if key in _STARTS:
            return _single_solve(params, rule, _STARTS[key](params, rule), key, tol, iterate)
        if key != "auto":
            names = ", ".join(f"'{name}'" for name in (*_STARTS, "auto"))
            raise ConfigurationError(f"init must be {names}, or a vector, got {init!r}")
        reports = [
            _single_solve(params, rule, start(params, rule), f"auto:{name}", tol, iterate)
            for name, start in _STARTS.items()
        ]
        converged = [r for r in reports if r.converged]
        # Two converged level vectors within tol of each other are one
        # solution: scoring both would decide nothing, so the first is kept
        # unscored, as a lone converged candidate is.
        if len(converged) == 2 and np.linalg.norm(
            converged[1].levels.levels - converged[0].levels.levels
        ) > tol:
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

@dataclass(frozen=True)
class _BestResponse:
    """gamma1bar of a collocation pair: the best response to its gamma2.

    The grid's nodes are origin + step j, j < pull.size.  pull holds G(g) =
    g + c'(g) / (2 k^2), half the slope of phi = g^2 + c / k^2, at the
    nodes.  cuts locates x0 among the ascending
    halved slopes of the edges of phi's lower convex hull: x0 in [cut j,
    cut j + 1) is served by the hull vertex at node vertices[j].  jumps
    are the cuts of the edges wider than one step, where gamma1bar jumps.
    The record is complete before the first query and never changes.
    """

    origin: float
    step: float
    pull: np.ndarray
    vertices: np.ndarray
    cuts: _CellTable
    jumps: tuple[float, ...]

    @property
    def span(self) -> tuple[float, float]:
        """The range of x0 that the hull's edges cover."""
        return float(self.cuts.grid[0]), float(self.cuts.grid[-1])

    def __call__(self, x0: np.ndarray) -> np.ndarray:
        """Inside a convex run of the hull the best response solves G(g) =
        x0.  A query takes the cell next to its vertex on the side where G
        passes x0 and solves there the cubic through G at the cell's ends
        with the central differences of G as its slopes, by two Newton
        steps from the chord, kept inside the cell.  Two neighbouring
        vertices of a run meet at a cut inside the
        cell between them, which both sides then read, so gamma1bar is
        continuous there, and at a node the slopes of the two cells' cubics
        agree.  _BLOCK queries are served at a time."""
        x = np.asarray(x0, dtype=float)
        flat = np.ravel(x)
        if not np.all(np.isfinite(flat)):
            raise NumericError("gamma1bar evaluation requires finite x0")
        lo, hi = self.span
        outside = np.count_nonzero((flat < lo) | (flat > hi))
        if outside:
            raise NumericError(
                f"{outside} of {flat.size} first-stage queries lie outside "
                f"[{lo:.6g}, {hi:.6g}], the range of x0 the first stage's hull covers"
            )
        pull, step = self.pull, self.step
        out = np.empty_like(flat)
        # A cell across which G does not rise leaves a Newton step without
        # a root; fmax and fmin, which take the bound for NaN, keep such a
        # query inside its cell.
        with np.errstate(divide="ignore", invalid="ignore"):
            for a in range(0, flat.size, _BLOCK):
                xs = flat[a : a + _BLOCK]
                node = self.vertices[self.cuts.cells(xs)]
                cell = node - (xs < pull[node])
                np.clip(cell, 1, pull.size - 3, out=cell)
                h0 = pull[cell]
                dh = pull[cell + 1] - h0
                a0 = 0.5 * (h0 - pull[cell - 1] - dh)
                a1 = 0.5 * (pull[cell + 2] - pull[cell + 1] - dh)
                u = (xs - h0) / dh
                for _ in range(2):
                    v = 1.0 - u
                    w = a0 * v - a1 * u
                    u -= (h0 + u * (dh + v * w) - xs) / (dh + (v - u) * w - u * v * (a0 + a1))
                    u = np.fmin(np.fmax(u, 0.0), 1.0)
                out[a : a + _BLOCK] = self.origin + step * (cell + u)
        return np.reshape(out, x.shape)


def _first_stage_grid(levels: SignalingLevels) -> tuple[float, float, int]:
    """The first node, step and node count of a level vector's first-stage grid.

    The window runs out to _REACH sigma_x, or the outermost level, plus
    6 sigma + 1 on each side.  gamma2 turns from one level to the next,
    a gap Delta away, over a width of about sigma^2 / Delta, and the
    convolutions of _first_stage_cost resolve a turn that spans w steps to
    about exp(-2 pi^2 w).  So the step is at most the narrowest width,
    sigma^2 / max(sigma, widest gap), with at least _MIN_NODES nodes and
    at most _MAX_NODES; a grid held at the cap resolves the turns less
    finely.  A capped step wider than sigma, on which the noise's density
    itself is unresolved, is refused: with a ResolutionError when the
    window of the parameters alone is too wide for it, whatever the levels,
    and with a NumericError when levels beyond that window widen it.
    """
    t, params = levels.levels, levels.params
    sv = params.sigma
    pad = 6.0 * sv + 1.0
    lo = min(float(t.min()), -_REACH * params.sigma_x) - pad
    hi = max(float(t.max()), _REACH * params.sigma_x) + pad
    width = sv * sv / max(sv, float(np.max(np.diff(np.unique(t)), initial=0.0)))
    cells = min((hi - lo) / width, _MAX_NODES - 1)
    n = max(_MIN_NODES, math.ceil(cells) + 1)
    step = (hi - lo) / (n - 1)
    if not step <= sv:
        fixed = 2.0 * (_REACH * params.sigma_x + pad) > sv * (_MAX_NODES - 1)
        raise (ResolutionError if fixed else NumericError)(
            f"the first-stage grid from {lo:.6g} to {hi:.6g} would need more than "
            f"{_MAX_NODES:,} nodes for a step no wider than sigma = {sv:.6g}"
        )
    return lo, step, n


def _first_stage_cost(
    gamma2: Strategy, params: ProblemParams, lo: float, step: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """c(g) = E_v (g - gamma2(g + v))^2, v ~ N(0, sigma^2), and c'(g) at the
    nodes lo + step j, j < n.

    With N the N(0, sigma^2) density, c = g^2 - 2 g (N * gamma2) + N *
    gamma2^2 and c' = 2 (g - N * gamma2 - g (N * gamma2)') + (N * gamma2^2)'.
    gamma2 is tabulated, _BLOCK values a call, on the grid extended by
    _KERNEL_REACH sigma on each side, with zeros after it up to a
    power-of-two length.  Each of the four convolutions is one inverse FFT
    of the table's transform (or its square's) times N's, exp(-(sigma
    omega)^2 / 2), and i omega for a derivative, into the table's buffer.
    A node reads the zeros, and the table's other end across the wrap, only
    through weights below exp(-_KERNEL_REACH^2 / 2).
    """
    pad = math.ceil(_KERNEL_REACH * params.sigma / step)
    size = 1 << (n + 2 * pad - 1).bit_length()
    table = np.zeros(size)
    for a in range(0, n + 2 * pad, _BLOCK):
        part = table[a : min(a + _BLOCK, n + 2 * pad)]
        part[:] = gamma2(lo + step * np.arange(a - pad, a - pad + part.size))
    fft = np.fft  # NumPy loads its FFT module on first use, not with the package
    spectrum = fft.rfft(table)
    np.square(table, out=table)
    spectrum_sq = fft.rfft(table)
    frequency = np.arange(spectrum.size, dtype=float)
    frequency *= 2.0 * math.pi / (size * step)
    density = frequency * params.sigma
    np.square(density, out=density)
    density *= -0.5
    spectrum *= np.exp(density, out=density)
    spectrum_sq *= density
    del density
    # Each transform below lands in the table's buffer, read at the nodes.
    nodes = table[pad : pad + n]
    g = np.arange(n, dtype=float)
    g *= step
    g += lo
    fft.irfft(spectrum_sq, size, out=table)
    c = g * g
    c += nodes
    spectrum_sq *= frequency
    spectrum_sq *= 1j
    fft.irfft(spectrum_sq, size, out=table)
    del spectrum_sq
    dc = nodes.copy()
    dc += g
    dc += g
    fft.irfft(spectrum, size, out=table)
    nodes *= -2.0
    dc += nodes
    nodes *= g
    c += nodes
    spectrum *= frequency
    spectrum *= 1j
    del frequency
    fft.irfft(spectrum, size, out=table)
    nodes *= g
    nodes *= 2.0
    dc -= nodes
    return c, dc


def _lower_hull(phi: np.ndarray) -> np.ndarray:
    """The ascending nodes j of the lower convex hull of the points (j, phi[j]).

    A node that does not lie below the chord of its two neighbours is on
    no hull.  The others form runs of consecutive nodes, each a convex
    chain, which join from left to right.  The bridge from the hull so far
    to the next run is found by turns: the hull node of greatest slope to
    the current run node (the leftmost of equals), then the run node of
    least slope from that hull node (the rightmost of equals), until
    neither moves, when every point lies on or above it and none between
    its ends on it.  Each join takes a few passes over the hull, and phi
    has few runs: one per convex piece.
    """
    d = np.diff(phi)
    convex = np.ones(phi.size, dtype=bool)
    convex[1:-1] = d[1:] > d[:-1]
    nodes = np.flatnonzero(convex)
    runs = np.split(nodes, np.flatnonzero(np.diff(nodes) > 1) + 1)
    hull = runs[0]
    for run in runs[1:]:
        p, q, seen = hull.size - 1, 0, set()
        while (p, q) not in seen:
            seen.add((p, q))
            p = int(np.argmax((phi[run[q]] - phi[hull]) / (run[q] - hull)))
            slopes = (phi[run] - phi[hull[p]]) / (run - hull[p])
            q = run.size - 1 - int(np.argmin(slopes[::-1]))
        hull = np.concatenate([hull[: p + 1], run[q:]])
    return hull


def _best_response(
    gamma2: Strategy, params: ProblemParams, lo: float, step: float, n: int
) -> _BestResponse:
    """The first stage that best responds to gamma2, on the grid lo + step j,
    j < n: BR1(x0) = argmin_g k^2 (g - x0)^2 + c(g), the point of the lower
    convex hull of phi = g^2 + c / k^2 where the hull's slope is 2 x0.

    The hull's vertices come from _lower_hull, less a first or last edge
    wider than one step: such an edge leans on a point beyond the grid's
    end.  A vertex on or above the chord of its neighbours after rounding is
    dropped too, so the halved slopes of the edges, the cuts, ascend
    strictly.  An edge wider than one step is a jump of gamma1bar, at x0 =
    its slope / 2."""
    phi, pull = _first_stage_cost(gamma2, params, lo, step, n)
    k2 = params.k**2
    g = lo + step * np.arange(n)
    phi /= k2
    phi += g * g
    pull /= 2.0 * k2
    pull += g
    del g
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(pull))):
        raise NumericError(f"the first-stage cost overflows on the grid from {lo:.6g}")
    vertices = _lower_hull(phi)
    if vertices[1] - vertices[0] > 1:
        vertices = vertices[1:]
    if vertices[-1] - vertices[-2] > 1:
        vertices = vertices[:-1]
    while True:
        cuts = np.diff(phi[vertices]) / (np.diff(vertices) * (2.0 * step))
        bent = np.flatnonzero(np.diff(cuts) <= 0.0)
        if not bent.size:
            break
        vertices = np.delete(vertices, bent + 1)
    jumps = cuts[np.diff(vertices) > 1]
    del phi
    return _BestResponse(
        lo, step, pull, vertices[1:].astype(np.int32), _CellTable.of(cuts), tuple(jumps.tolist())
    )


def solved_pair(report: SolveReport) -> StrategyPair:
    """Evaluable strategy pair from a converged solve.

    Requires report.converged; otherwise the levels do not solve the system
    and a ConfigurationError is raised.  gamma2 is the posterior mean of the
    levels and gamma1bar the best response to it (collocation_pair).
    """
    if not report.converged:
        raise ConfigurationError(
            "solved_pair requires a converged report "
            f"(residual_norm={report.residual_norm!r} > tol={report.tol!r})"
        )
    return collocation_pair(report.levels)


def collocation_pair(levels: SignalingLevels) -> StrategyPair:
    """Evaluable strategy pair defined by a collocation level vector.

    gamma2 is the posterior mean of the levels, with the rule weights (the
    prior masses of the collocation points) as mixture weights.  gamma1bar
    is the best response to that gamma2, read from the convex hull that
    _best_response builds here on the grid of _first_stage_grid (its step
    is gamma1bar.step); the breakpoints are its jumps inside +-_REACH
    sigma_x.  gamma1bar need not pass through the levels at the
    collocation points: the residual of the collocation system measures
    the n-level system, not this pair.  The pair is built once per levels
    object and returned again on later calls.  Two threads that race on
    the first call may each build a pair; the last one is kept.
    """
    if levels._pair is not None:
        return levels._pair
    weights = build_hermite_rule(levels.rule_order).weights
    level_values = levels.levels
    params = levels.params

    def gamma2(y: np.ndarray) -> np.ndarray:
        return gaussian_posterior_mean(np.asarray(y, dtype=float), level_values, weights, params.sigma)

    first_stage = _best_response(gamma2, params, *_first_stage_grid(levels))
    reach = _REACH * params.sigma_x
    pair = StrategyPair(
        gamma1bar=first_stage,
        gamma2=gamma2,
        breakpoints=tuple(b for b in first_stage.jumps if abs(b) < reach),
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


def _scan_points(params: ProblemParams) -> np.ndarray:
    """The 20,001 points on [-_REACH sigma_x, _REACH sigma_x] at which
    summarize_staircase fits treads."""
    return np.linspace(-_REACH * params.sigma_x, _REACH * params.sigma_x, 20001)


def summarize_staircase(pair: StrategyPair, params: ProblemParams) -> StaircaseSummary:
    """Classify gamma1bar as linear or staircase and report its treads.

    gamma1bar is sampled on _scan_points; the treads are split at the
    pair's breakpoints inside that window, each tread half-open [a, b) and
    the last one closed.  A tread that holds no sample takes the value of
    gamma1bar at its midpoint and slope 0.
    """
    xs = _scan_points(params)
    g = np.asarray(pair.gamma1bar(xs), dtype=float)
    breaks = [b for b in pair.breakpoints if xs[0] < b < xs[-1]]
    edges = [xs[0], *breaks, xs[-1]]
    tread_values = []
    tread_slopes = []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (xs >= a) & ((xs < b) | (b == xs[-1]))
        count = np.count_nonzero(mask)
        if count:
            tread_values.append(float(np.mean(g[mask])))
        else:
            tread_values.append(float(np.asarray(pair.gamma1bar(np.array([0.5 * (a + b)])))[0]))
        if count >= 2:
            tread_slopes.append(float(np.polyfit(xs[mask], g[mask], 1)[0]))
        else:
            tread_slopes.append(0.0)
    slope, intercept = np.polyfit(xs, g, 1)
    fit_rms = float(np.sqrt(np.mean((g - (slope * xs + intercept)) ** 2)))
    scale = max(1.0, float(np.max(np.abs(g))))
    shape = "linear" if not breaks and fit_rms <= 1e-2 * scale else "staircase"
    return StaircaseSummary(
        steps=len(breaks) + 1,
        breakpoints=tuple(breaks),
        tread_values=tuple(tread_values),
        tread_slopes=tuple(tread_slopes),
        line_slope=float(slope),
        line_rms=fit_rms,
        shape=shape,
    )
