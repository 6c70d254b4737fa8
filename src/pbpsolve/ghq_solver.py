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
vector into an evaluable strategy pair; from an odd start (t = -t
reversed, as both named starts are) it iterates on the upper n // 2
levels alone.  B and R are the shared kernels
_posterior_mean_parts (the one beneath gaussian_posterior_mean) and
_first_stage_sum of counterexample; a least-squares point computes them
once for its residual and its Jacobian.  The second
stage is the posterior mean of the levels; the first stage gamma1bar(x0)
is the root of H(g) = g + R(g) = x0 closest to a signaling level (H is not
monotone, so an x0 can have several).  R is independent of x0, so one
table of H and H' per pair locates the exact switch points of that choice
and inverts H by the cubic Hermite interpolant of one table cell per query.
The table's nodes are symmetric about the middle of its window; for odd
levels R is odd and R' even bit for bit, so the table computes its
nonnegative half and mirrors it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .counterexample import (
    _BLOCK,
    _REACH,
    GaussianPrior,
    PayoffBreakdown,
    ProblemParams,
    StrategyPair,
    _first_stage_sum,
    _posterior_mean_parts,
    _posterior_variance,
    _reversal_invariant_sum,
    affine_optimal,
    gaussian_posterior_mean,
    payoff_quadrature,
)
from .errors import ConfigurationError, NumericError
from .quadrature import SQRT_PI, QuadratureRule, build_hermite_rule

_TABLE_POINTS = 200_001
# The first-stage table's nodes run from -_HALF to _HALF steps about its middle.
_HALF = _TABLE_POINTS // 2
# A first-stage query whose cell cubic misses x by more than this share of
# the cubic's coefficient scale after the Newton steps is bisected; a
# converged Newton root misses by a few units of rounding (below 4e-15).
_CUBIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignalingLevels:
    """A collocation-point level vector t with its rule order and problem.

    levels[l] is the first-stage value at the collocation point
    x0_l = sqrt(2) sigma_x z_l of the order rule_order Gauss-Hermite rule.
    The strategy pair that collocation_pair builds is kept on the instance,
    so every caller shares one first-stage table per level vector.
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
    _signal_pull's pieces, and of residual_system in those columns, bit
    for bit."""
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
    g, diag = _node_gain(t[cols] - b, var, rule, sv)
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


def _node_gain(
    d: np.ndarray, var: np.ndarray, rule: QuadratureRule, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """The node factor g_i = lambda_i (2 z_i d_i / c + 1), c = sqrt(2) sigma,
    and the node sum sum_i g_i (1 - V_i / sigma^2), which is R'(g) times
    sqrt(pi) k^2.  d and the posterior variance var hold the noise nodes on
    axis 0."""
    c = math.sqrt(2.0) * sigma
    g = rule.weights[:, None] * ((2.0 * rule.nodes[:, None] / c) * d + 1.0)
    return g, _reversal_invariant_sum(g * (1.0 - var / (sigma * sigma)), axis=0)


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

    The diagonal term is R'(t_l) of _signal_pull: t_l moves the observation
    y_il, and the posterior mean has derivative V / sigma^2 in y.  The
    second term is how B_il moves with level t_m itself.  Arguments as for
    residual_system; the n x n x n posterior tensor is 2 MB at n = 64.
    """
    t, params, rule = _level_vector(levels, params, rule)
    return _collocation_jacobian(_collocation_point(t, params, rule), params, rule)


def _signal_pull(
    g: np.ndarray,
    t: np.ndarray,
    params: ProblemParams,
    rule: QuadratureRule,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """R(g) and its derivative R'(g) at a vector of first-stage values g.

    R(g) is _first_stage_sum when the second stage is the posterior mean of
    the levels t; the root g of g + R(g) = x0 is the first-stage strategy
    value at x0.  With d_i = g - b_i, b_i and V_i the posterior mean and
    variance of the levels at y = g + c z_i (b has derivative V / sigma^2),

        R'(g) = (1 / (sqrt(pi) k^2)) sum_i lambda_i (2 z_i d_i / c + 1)
                (1 - V_i / sigma^2).

    All noise nodes are handled at once, on pieces of _BLOCK // (order x
    levels) values of g, so each piece holds at most _BLOCK posterior
    weights whatever the order and the level count; each value depends on
    its own g alone, not on the piece.  Pieces of _BLOCK observations would
    hold _BLOCK x levels weights, which outgrow a core's cache and are
    returned to the system and faulted back in piece after piece.  The
    first-stage table's build is the one caller, and writes R and R' into
    its own arrays through out; the collocation system evaluates its
    levels in one pass (_collocation_point).
    """
    g = np.asarray(g, dtype=float)
    z = rule.nodes[:, None]
    sv = params.sigma
    c = math.sqrt(2.0) * sv
    pull, slope = (np.empty_like(g), np.empty_like(g)) if out is None else out
    step = max(1, _BLOCK // (rule.order * t.size))
    for a in range(0, g.size, step):
        part = g[a : a + step]
        w, mass, b = _posterior_mean_parts(c * z + part, t, np.log(rule.weights), sv)
        var = _posterior_variance(w, mass, b, t)
        d = part - b
        pull[a : a + step] = _first_stage_sum(d, rule, params)
        slope[a : a + step] = _node_gain(d, var, rule, sv)[1] / (SQRT_PI * params.k**2)
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
class _FirstStage:
    """gamma1bar of a collocation pair: H = g + R(g) and H' at the nodes
    origin + (c - _HALF) step, and the monotone branch of H that serves
    each tread, from span[0] (the bottom of the tabulated range of H) and
    from each switch on.  A query is inverted in the cell of its tread's
    branch that holds it, whatever its batch; the table never changes once
    built."""

    origin: float
    step: float
    h: np.ndarray
    slope: np.ndarray
    span: tuple[float, float] = (math.inf, -math.inf)
    switches: tuple[float, ...] = ()
    treads: tuple[tuple[np.ndarray, int, int], ...] = ()

    def __call__(self, x0: np.ndarray) -> np.ndarray:
        x = np.asarray(x0, dtype=float)
        flat = np.ravel(x)
        if not np.all(np.isfinite(flat)):
            raise NumericError("gamma1bar evaluation requires finite x0")
        outside = np.count_nonzero((flat < self.span[0]) | (flat > self.span[1]))
        if outside:
            raise NumericError(
                f"{outside} of {flat.size} first-stage queries lie outside "
                f"[{self.span[0]:.6g}, {self.span[1]:.6g}], the tabulated range of H"
            )
        out = np.empty_like(flat)
        for a in range(0, flat.size, _BLOCK):
            order = np.argsort(flat[a : a + _BLOCK])
            xs = flat[a : a + _BLOCK][order]
            ends = [0, *np.searchsorted(xs, self.switches), xs.size]
            cells = [_branch_cells(b, xs[i:j]) for b, i, j in zip(self.treads, ends, ends[1:])]
            out[a : a + _BLOCK][order] = self.inverse(np.concatenate(cells), xs)
        return np.reshape(out, x.shape)

    def inverse(self, cell: np.ndarray, x: np.ndarray) -> np.ndarray:
        """g with H(g) = x in the given cells (from node c to c + 1): the
        root of the cubic in g that matches H and H' at both nodes, by two
        Newton steps from the chord, kept inside the cell.  A cubic in x
        through g and dg/dH = 1 / H' would lose accuracy as H' falls toward
        a turn of H.

        Where |a0| + |a1| is at most |dh| / 64, the cubic stays within
        |dh| / 256 of its chord and the two steps end within 3e-14 of the
        root in u, a miss far below _CUBIC_TOL.  Elsewhere, next to a turn
        of H, the cubic need not be monotone and the steps can stop short
        or at a cell end, so a query whose cubic still misses x by more
        than _CUBIC_TOL of the cubic's scale is solved by bisection on the
        whole cell."""
        h, step = self.h, self.step
        h0 = h[cell]
        dh = h[cell + 1] - h0
        a0 = step * self.slope[cell] - dh
        a1 = step * self.slope[cell + 1] - dh
        u = (x - h0) / dh
        for _ in range(2):
            v = 1.0 - u
            w = a0 * v - a1 * u
            u -= (h0 + u * (dh + v * w) - x) / (dh + (v - u) * w - u * v * (a0 + a1))
            u = np.fmin(np.fmax(u, 0.0), 1.0)
        bent = np.flatnonzero(np.abs(a0) + np.abs(a1) > np.abs(dh) / 64.0)
        if bent.size:
            c, dh, a0, a1 = h0[bent] - x[bent], dh[bent], a0[bent], a1[bent]
            scale = np.abs(h0[bent]) + np.abs(dh) + np.abs(a0) + np.abs(a1)
            stuck = np.abs(_cell_cubic(u[bent], c, dh, a0, a1)) > _CUBIC_TOL * scale
            if stuck.any():
                u[bent[stuck]] = _cell_cubic_root(c[stuck], dh[stuck], a0[stuck], a1[stuck])
        return self.origin + step * (cell - _HALF + u)


def _cell_cubic(
    u: np.ndarray, c: np.ndarray, dh: np.ndarray, a0: np.ndarray, a1: np.ndarray
) -> np.ndarray:
    """c + u (dh + v (a0 v - a1 u)), v = 1 - u: a cell's cubic, shifted by c."""
    v = 1.0 - u
    return c + u * (dh + v * (a0 * v - a1 * u))


def _cell_cubic_root(c: np.ndarray, dh: np.ndarray, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """A root in [0, 1] of _cell_cubic(u, c, dh, a0, a1), whose values c at
    u = 0 and c + dh at u = 1 have opposite signs (or one is 0), by 60
    bisections: the bracket ends 2^-60 wide, below the rounding of cell + u."""
    low, high = np.zeros_like(c), np.ones_like(c)
    negative_at_low = c < 0.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        right = (_cell_cubic(mid, c, dh, a0, a1) < 0.0) == negative_at_low
        low, high = np.where(right, mid, low), np.where(right, high, mid)
    return 0.5 * (low + high)


def _branch_cells(branch: tuple[np.ndarray, int, int], x: np.ndarray) -> np.ndarray:
    """The cells of a branch (H at its nodes in ascending order, the first
    of those nodes and the node step, +1 or -1) that hold x."""
    hs, first, way = branch
    j = np.clip(np.searchsorted(hs, x, side="right") - 1, 0, hs.size - 2)
    return first + way * j - (way < 0)


def _nearest_branch(
    xs: np.ndarray, branches: Sequence[tuple], levels: np.ndarray, preimages: Callable
) -> np.ndarray:
    """At each of the ascending xs, the branch whose preimage lies nearest one of the
    ascending levels, the earlier on ties; -1 where no branch covers x.  preimages(spans,
    xs) inverts xs[i:j] on branch k for each span (k, i, j); branches[k][0] ascends."""
    starts = np.searchsorted(xs, [hs[0] for hs, *_ in branches])
    stops = np.searchsorted(xs, [hs[-1] for hs, *_ in branches], "right")
    spans = [(k, i, j) for k, (i, j) in enumerate(zip(starts.tolist(), stops.tolist())) if i < j]
    padded = np.concatenate([levels[:1], levels, levels[-1:]])
    choice = np.full(xs.shape, -1, dtype=np.intp)
    best = np.full(xs.shape, np.inf)
    for (k, i, j), g in zip(spans, preimages(spans, xs)):
        n = np.searchsorted(levels, g)  # padded[n] and padded[n + 1] bracket g
        dist = np.minimum(np.abs(g - padded.take(n)), np.abs(g - padded.take(n + 1)))
        nearer = dist < best[i:j]
        np.copyto(best[i:j], dist, where=nearer)
        np.copyto(choice[i:j], k, where=nearer)
    return choice


def _bisect(low: np.ndarray, high: np.ndarray, moves: Callable, depth: int = 4) -> np.ndarray:
    """The high ends of brackets [low, high] bisected to adjacent floats: mid = low +
    0.5 (high - low) replaces high where moves(mid), else low.  moves sees the next depth
    steps' midpoints at once (a column per bracket; depth 4 is quickest on smooth and
    staircase tables), and walking that tree ends where single steps end, for any moves."""
    column = np.arange(low.size)
    while True:
        lows, highs, mids = low[None], high[None], []
        for _ in range(depth):
            mids.append(lows + 0.5 * (highs - lows))
            lows, highs = np.concatenate([lows, mids[-1]]), np.concatenate([mids[-1], highs])
        if not ((mids[0] > low) & (mids[0] < high)).any():
            return high
        mids = np.concatenate(mids)
        move = moves(mids)
        row = np.zeros_like(column)  # a level's rows follow the last's, low halves first
        for level in range(depth):
            mid = mids[row, column]
            open_ = (mid > low) & (mid < high)
            go = open_ & move[row, column]
            high, low = np.where(go, mid, high), np.where(open_ & ~go, mid, low)
            row += np.where(go, 1, 2) << level


def _first_stage_table(levels: SignalingLevels, rule: QuadratureRule) -> _FirstStage:
    """The first stage of collocation_pair: H and H' on _TABLE_POINTS nodes
    out to _REACH sigma_x, or the outermost level, plus 6 sigma + 1, placed
    symmetrically about the window's middle.  Odd levels (t = -t reversed)
    leave the window, the nodes and R odd and R' even, bit for bit, so
    _signal_pull runs on the nonnegative nodes alone and the lower half is
    their mirror.  The rule picks the monotone branch of H whose preimage
    lies nearest a level at every value of H in the table (on interpolated
    preimages, then on the table's own near each change, all branches in
    one call), and bisects its switches."""
    t, params = levels.levels, levels.params
    pad = 6.0 * params.sigma + 1.0
    lo = min(float(t.min()), -_REACH * params.sigma_x) - pad
    hi = max(float(t.max()), _REACH * params.sigma_x) + pad
    step = (hi - lo) / (_TABLE_POINTS - 1)
    if not step <= params.sigma:
        # H turns on the scale of the noise, which a coarser table misses.
        raise NumericError(
            f"the first-stage table from {lo:.6g} would have nodes {step:.3g} apart, "
            f"wider than sigma = {params.sigma:.6g}"
        )
    origin = 0.5 * (lo + hi)
    nodes = origin + step * np.arange(-_HALF, _HALF + 1)
    h, slope = np.empty(_TABLE_POINTS), np.empty(_TABLE_POINTS)
    # Every sum over the noise nodes and the levels is reversal invariant,
    # which makes R(-g) = -R(g) and R'(-g) = R'(g) exact for odd levels.
    odd = np.array_equal(t, -t[::-1])
    first = _HALF if odd else 0
    _signal_pull(nodes[first:], t, params, rule, out=(h[first:], slope[first:]))
    if odd:
        np.negative(h[:_HALF:-1], out=h[:_HALF])
        slope[:_HALF] = slope[:_HALF:-1]
    h += nodes
    if not np.all(np.isfinite(h)):
        raise NumericError(f"H = g + R(g) overflows on the first-stage table from {lo:.6g}")
    slope += 1.0
    table = _FirstStage(origin, step, h, slope)
    rising = np.diff(h) > 0.0
    edges = [0, *(np.flatnonzero(rising[1:] != rising[:-1]) + 1).tolist(), h.size - 1]
    branches = [
        (h[a : b + 1], a, 1) if rising[a] else (h[a : b + 1][::-1], b, -1)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    grids = [nodes[a : b + 1][:: 1 if rising[a] else -1] for a, b in zip(edges[:-1], edges[1:])]
    t = np.sort(t)

    def interpolated(spans, xs):
        return (np.interp(xs[i:j], branches[k][0], grids[k]) for k, i, j in spans)

    def on_table(spans, xs):
        parts = [xs[i:j] for _, i, j in spans]
        cells = [_branch_cells(branches[k], part) for (k, *_), part in zip(spans, parts)]
        g = table.inverse(np.concatenate(cells), np.concatenate(parts))
        return np.split(g, np.cumsum([part.size for part in parts])[:-1])

    def pick(x):
        order = np.argsort(x)
        return _nearest_branch(x[order], branches, t, on_table)[np.argsort(order)]

    samples = np.sort(h)
    choice = np.concatenate([
        _nearest_branch(samples[a : a + _BLOCK], branches, t, interpolated)
        for a in range(0, samples.size, _BLOCK)
    ])
    change = np.flatnonzero(choice[1:] != choice[:-1])
    near = np.union1d(np.clip(change[:, None] + np.arange(-2, 4), 0, samples.size - 1), [0])
    choice[near] = pick(samples[near])
    change = np.flatnonzero(choice[1:] != choice[:-1])
    # Each pass bisects, to adjacent floats, where the branch picked at the
    # left end of an interval stops being picked; the next goes on from it.
    left, right = samples[change], samples[change + 1]
    switches = [np.empty(0)]
    while left.size:
        ends = pick(np.concatenate([left, right]))
        keep = ends[: left.size] != ends[left.size :]
        left, right, first = left[keep], right[keep], ends[: left.size][keep]
        left = _bisect(left, right, lambda mid: pick(mid.ravel()).reshape(mid.shape) != first)
        switches.append(left)
    switches = np.sort(np.concatenate(switches))
    serving = pick(np.concatenate([samples[:1], switches]))
    return replace(
        table,
        span=(float(samples[0]), float(samples[-1])),
        switches=tuple(switches.tolist()),
        treads=tuple(branches[k] for k in serving),
    )


def solved_pair(report: SolveReport) -> StrategyPair:
    """Evaluable strategy pair from a converged solve.

    Requires report.converged; otherwise the levels do not solve the system
    and a ConfigurationError is raised.  gamma1bar is the pair's first-stage
    table; gamma2 is the posterior mean of the levels.
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
    is the root of g + R(g) = x0 nearest to a signaling level, read from
    the one table _first_stage_table builds here; the breakpoints are those
    of its switch points inside +-_REACH sigma_x where gamma1bar jumps.  The pair
    is built once per levels object and returned again on later calls.  Two
    threads that race on the first call may each build a pair; the last
    one is kept.
    """
    if levels._pair is not None:
        return levels._pair
    rule = build_hermite_rule(levels.rule_order)
    table = _first_stage_table(levels, rule)
    sv = levels.params.sigma
    weights = rule.weights
    level_values = levels.levels

    def gamma2(y: np.ndarray) -> np.ndarray:
        return gaussian_posterior_mean(np.asarray(y, dtype=float), level_values, weights, sv)

    # A switch between two branches at their shared turn is not a jump.
    s = np.array(table.switches)
    jumps = np.abs(table(s) - table(np.nextafter(s, -np.inf))) > table.step
    pair = StrategyPair(
        gamma1bar=table,
        gamma2=gamma2,
        breakpoints=tuple(s[jumps & (np.abs(s) < _REACH * levels.params.sigma_x)].tolist()),
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
