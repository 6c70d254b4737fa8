"""Command-line front end for the two-stage signaling team toolkit.

Four subcommands:

``solve``
    Run the collocation solver (``--method ghq``) or the damped fixed-point
    iteration (``--method picard``) and emit a JSON result document with the
    parameters, the level vector, the residual norm, and the payoff under
    both the quadrature and the Monte Carlo estimator.

``baseline``
    Evaluate the optimal-affine or the two-point sign/tanh baseline pair and
    emit the same result document.

``curves``
    Sample the two strategy maps of a solved or baseline pair into a CSV
    table (columns ``x,gamma1bar,y,gamma2``) for external plotting, and
    report a staircase-shape summary (step count, tread values and slopes).

``verify``
    Load a finite team model from a JSON file (or one of the bundled
    models) and run the exact change-of-measure checks: likelihood-ratio
    martingale identities, payoff equivalence under the reference measure,
    and optionally the brute-force person-by-person optimality sweep.

Determinism contract: for a fixed command line the JSON and CSV documents
are byte-identical across runs.  Wall time is therefore reported on stderr;
the ``timing`` field inside the JSON document stays null unless ``--timing``
is given, which opts out of byte-identity.  Exit codes: 0 success, 1 failed
numerical outcome (solver did not converge, verification checks failed),
2 configuration or parse error, or a file that cannot be read or written.

If ``--out`` is a relative path and the environment variable
``PBPSOLVE_OUTPUT_DIR`` is set, the path is resolved inside that directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .counterexample import (
    _REACH,
    GaussianPrior,
    PayoffBreakdown,
    ProblemParams,
    StrategyPair,
    TwoPointSymmetricPrior,
    affine_optimal,
    payoff_mc,
    payoff_quadrature,
    wit_nonlinear,
)
from .errors import ConfigurationError, NumericError
from .fixed_point import default_grid, picard_iterate, strategy_from_pair
from .ghq_solver import (
    SignalingLevels,
    collocation_pair,
    expand_distinct_levels,
    residual_system,
    solve_signaling_levels,
    summarize_staircase,
)
from .measure_change import (
    _parse_model_document,
    brute_force_pbp,
    model_from_dict,
    payoff_equivalence,
    uniform_profile,
    verify_martingale,
)
from .quadrature import build_hermite_rule

OUTPUT_DIR_ENV = "PBPSOLVE_OUTPUT_DIR"
BUNDLED_MODELS = ("identity", "random42", "corrupted")

_SOLVE_METHODS = ("ghq", "picard")
_BASELINE_METHODS = ("affine", "wit")
_CURVE_METHODS = ("ghq", "picard", "affine", "wit")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything a subcommand needs.

    out_path of None writes to stdout.
    """

    subcommand: str
    k: float = 1.0
    sigma: float = 1.0
    sigma_x: float = 1.0
    prior: str = "gaussian"
    n: int = 7
    samples: int = 600_000
    seed: int = 0
    method: str = "ghq"
    init: str = "auto"
    iterate: bool = True
    tol: float | None = None
    damping: float = 0.5
    max_iter: int = 200
    grid_points: int = 2049
    grid_span: float = 8.0
    quad_order: int = 20
    points: int = 1001
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None
    model: str | None = None
    pbp: bool = False
    timing: bool = False
    out_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("k", "sigma", "sigma_x"):
            if not getattr(self, name) > 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.n < 1:
            raise ConfigurationError("n must be >= 1")
        if self.samples < 1:
            raise ConfigurationError("samples must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.points < 2:
            raise ConfigurationError("points must be >= 2")
        if self.tol is not None and not 0.0 <= self.tol < math.inf:
            raise ConfigurationError(f"tol must be positive or zero, got {self.tol!r}")
        if self.prior not in ("gaussian", "twopoint"):
            raise ConfigurationError(f"unknown prior {self.prior!r}")
        for name in ("x_range", "y_range"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            if not (
                math.isfinite(bounds[0]) and math.isfinite(bounds[1]) and bounds[0] < bounds[1]
            ):
                flag = "--" + name.replace("_", "-")
                raise ConfigurationError(
                    f"{flag} needs finite LO < HI, got {bounds[0]!r} {bounds[1]!r}"
                )
            object.__setattr__(self, name, tuple(bounds))

    def problem_params(self) -> ProblemParams:
        prior = None
        if self.prior == "twopoint":
            prior = TwoPointSymmetricPrior(self.sigma_x)
        return ProblemParams(
            k=self.k, sigma=self.sigma, sigma_x=self.sigma_x, prior=prior
        )


def _parse_init(text: str) -> str | np.ndarray:
    """Decode an --init value: a named start or ``user:v1,v2,...``."""
    if text.startswith("user:"):
        body = text[len("user:"):]
        tokens = [tok for tok in body.split(",") if tok.strip()]
        if not tokens:
            raise ConfigurationError("user: initialization needs at least one value")
        try:
            return np.array([float(tok) for tok in tokens], dtype=float)
        except ValueError as exc:
            raise ConfigurationError(f"bad user initialization {body!r}: {exc}") from None
    if text not in ("auto", "affine", "quantizer"):
        raise ConfigurationError(
            f"init must be auto, affine, quantizer, or user:v1,v2,..., got {text!r}"
        )
    return text


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text)


def _json_text(document: dict) -> str:
    """Strict JSON: a non-finite number is a NumericError, not Infinity or NaN."""
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericError("the result document holds a non-finite number") from None


def _emit_json(document: dict, path: Path | None) -> None:
    _emit(_json_text(document), path)


def _payoff_blocks(
    cfg: RunConfig,
    params: ProblemParams,
    pair: StrategyPair,
    quad: PayoffBreakdown | None,
) -> list[dict]:
    """The quadrature and Monte Carlo payoff blocks.  A given quadrature
    payoff of the --quad-order (outer and inner) is used as it is."""
    if quad is None or quad.order != cfg.quad_order:
        rule = build_hermite_rule(cfg.quad_order)
        quad = payoff_quadrature(params, pair, rule, rule)
    mc = payoff_mc(params, pair, cfg.samples, cfg.seed)
    return [asdict(quad), asdict(mc)]


def _result_document(
    cfg: RunConfig,
    method: str,
    init: str | None,
    levels: list[float] | None,
    residual_norm: float | None,
    converged: bool | None,
    pair: StrategyPair,
    params: ProblemParams,
    started: float,
    quad: PayoffBreakdown | None = None,
) -> dict:
    return {
        "converged": converged,
        "init": init,
        "lam": pair.lam,
        "levels": levels,
        "method": method,
        "mu": pair.mu,
        "params": {
            "k": cfg.k,
            "n": cfg.n,
            "prior": cfg.prior,
            "sigma": cfg.sigma,
            "sigma_x": cfg.sigma_x,
        },
        "payoff": _payoff_blocks(cfg, params, pair, quad),
        "residual_norm": residual_norm,
        "timing": (time.perf_counter() - started) if cfg.timing else None,
    }


# ---------------------------------------------------------------------------
# strategy construction shared by solve and curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Solved:
    """What a solver run produced, before any payoff is estimated.

    levels are the first-stage values at the collocation points (for
    picard, its grid strategy interpolated there); pair is the strategy pair
    the result document scores; ok is the subcommand's success; payoff is
    a quadrature payoff of pair the solver already computed, if any.
    """

    method: str
    init: str
    levels: np.ndarray
    residual_norm: float
    converged: bool
    pair: StrategyPair
    ok: bool
    payoff: PayoffBreakdown | None = None


def _solve(cfg: RunConfig, params: ProblemParams) -> _Solved:
    """Run the requested solver; estimate no payoff."""
    rule = build_hermite_rule(cfg.n)
    init = _parse_init(cfg.init)
    tol = 1e-10 if cfg.tol is None else cfg.tol

    if cfg.method == "ghq":
        if not isinstance(params.prior, GaussianPrior):
            raise ConfigurationError(
                f"--method ghq requires the Gaussian prior: its collocation "
                f"system does not model the {cfg.prior} prior"
            )
        report = solve_signaling_levels(
            params, rule, init=init, tol=tol, iterate=cfg.iterate
        )
        return _Solved(
            "ghq",
            report.init,
            report.levels.levels,
            report.residual_norm,
            report.converged,
            collocation_pair(report.levels),
            report.converged or not cfg.iterate,
            report.payoff,
        )

    if not cfg.iterate:
        raise ConfigurationError("--no-iterate applies only to --method ghq")
    if isinstance(init, np.ndarray):
        start_levels = expand_distinct_levels(init, params, rule)
        start_pair = collocation_pair(SignalingLevels(start_levels, rule.order, params))
        tag = "user"
    elif init == "quantizer":
        report = solve_signaling_levels(params, rule, init="quantizer", iterate=False)
        start_pair = collocation_pair(report.levels)
        tag = "quantizer"
    else:
        start_pair = affine_optimal(params)
        tag = "affine"
    grid = default_grid(params, points=cfg.grid_points, span=cfg.grid_span)
    start = strategy_from_pair(start_pair, params, grid)
    result = picard_iterate(
        start, params, rule, damping=cfg.damping, max_iter=cfg.max_iter, tol=tol
    )
    strategy = result.strategy
    colloc = math.sqrt(2.0) * params.sigma_x * rule.nodes
    level_values = np.asarray(strategy.interp1(colloc), dtype=float)
    resid = residual_system(level_values, params, rule)
    return _Solved(
        "picard",
        tag,
        level_values,
        float(np.linalg.norm(resid)),
        result.converged,
        strategy.to_pair(),
        result.converged,
    )


def _baseline_pair(cfg: RunConfig, params: ProblemParams) -> StrategyPair:
    if cfg.method == "affine":
        return affine_optimal(params)
    if cfg.method == "wit":
        return wit_nonlinear(params)
    raise ConfigurationError(f"baseline method must be affine or wit, got {cfg.method!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, started: float) -> int:
    params = cfg.problem_params()
    solved = _solve(cfg, params)
    doc = _result_document(
        cfg,
        solved.method,
        solved.init,
        [float(v) for v in solved.levels],
        solved.residual_norm,
        solved.converged,
        solved.pair,
        params,
        started,
        solved.payoff,
    )
    _emit_json(doc, _resolve_out(cfg.out_path))
    return 0 if solved.ok else 1


def cmd_baseline(cfg: RunConfig, started: float) -> int:
    params = cfg.problem_params()
    pair = _baseline_pair(cfg, params)
    doc = _result_document(
        cfg, cfg.method, None, None, None, None, pair, params, started
    )
    _emit_json(doc, _resolve_out(cfg.out_path))
    return 0


def cmd_curves(cfg: RunConfig, started: float) -> int:
    params = cfg.problem_params()
    if cfg.method in _BASELINE_METHODS:
        pair, ok = _baseline_pair(cfg, params), True
    else:
        solved = _solve(cfg, params)
        pair, ok = solved.pair, solved.ok
    half = _REACH * cfg.sigma_x
    x_lo, x_hi = cfg.x_range if cfg.x_range else (-half, half)
    # A collocation pair's first stage answers inside the range of its table.
    span = getattr(pair.gamma1bar, "span", None)
    if cfg.x_range and span is not None and not span[0] <= x_lo < x_hi <= span[1]:
        raise ConfigurationError(
            f"--x-range {x_lo!r} {x_hi!r} leaves [{span[0]:.6g}, {span[1]:.6g}], "
            "the range of x0 this pair's first stage covers"
        )
    y_lo, y_hi = cfg.y_range if cfg.y_range else (-half, half)
    xs = np.linspace(x_lo, x_hi, cfg.points)
    ys = np.linspace(y_lo, y_hi, cfg.points)
    g1 = np.asarray(pair.gamma1bar(xs), dtype=float)
    g2 = np.asarray(pair.gamma2(ys), dtype=float)
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise NumericError("the sampled strategy curves hold a non-finite value")

    lines = ["x,gamma1bar,y,gamma2"]
    for x, a, y, b in zip(xs, g1, ys, g2):
        lines.append(f"{x:.17g},{a:.17g},{y:.17g},{b:.17g}")
    out = _resolve_out(cfg.out_path)
    _emit("\n".join(lines) + "\n", out)

    text = _json_text(asdict(summarize_staircase(pair, params)))
    if out is None:
        sys.stderr.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _load_model_text(name_or_path: str) -> tuple[str, str]:
    """Return (display name, JSON text) for a path or a bundled model name."""
    path = Path(name_or_path)
    if path.exists():
        return str(path), path.read_text()
    if name_or_path in BUNDLED_MODELS:
        res = resources.files("pbpsolve").joinpath("models", f"{name_or_path}.json")
        return name_or_path, res.read_text()
    raise ConfigurationError(
        f"model {name_or_path!r} is neither a file nor one of the bundled "
        f"models {', '.join(BUNDLED_MODELS)}"
    )


def cmd_verify(cfg: RunConfig, started: float) -> int:
    tol = 1e-12 if cfg.tol is None else cfg.tol
    name, text = _load_model_text(cfg.model or "")
    data = _parse_model_document(text, name)

    doc: dict = {
        "martingale": None,
        "model": name,
        "passed": False,
        "payoff": None,
        "pbp": None,
        "timing": None,
        "tol": tol,
    }
    try:
        model = model_from_dict(data)
    except ConfigurationError as exc:
        doc["error"] = str(exc)
        _emit_json(doc, _resolve_out(cfg.out_path))
        return 1

    profile = uniform_profile(model)
    mart = verify_martingale(model, profile, tol=tol)
    pay = payoff_equivalence(model, profile, tol=tol)
    doc["martingale"] = {
        "conditional_error": mart.conditional_error,
        "passed": mart.passed,
        "unit_mean_error": mart.unit_mean_error,
    }
    doc["payoff"] = {
        "difference": pay.difference,
        "original": pay.original,
        "passed": pay.passed,
        "via_reference": pay.via_reference,
    }
    passed = mart.passed and pay.passed
    if cfg.pbp:
        pbp = brute_force_pbp(model, tol=tol)
        doc["pbp"] = {
            "best_cost": pbp.best_cost,
            "num_global_optima": pbp.num_global_optima,
            "num_profiles": pbp.num_profiles,
            "passed": pbp.pbp_holds,
            "worst_deviation_gain": pbp.worst_deviation_gain,
        }
        passed = passed and pbp.pbp_holds
    doc["passed"] = passed
    if cfg.timing:
        doc["timing"] = time.perf_counter() - started
    _emit_json(doc, _resolve_out(cfg.out_path))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# A negative number, exponent notation included: argparse's own pattern
# misses "-1e1" and would read it as an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=float, required=True, help="first-stage cost weight k")
    p.add_argument("--sigma-x", type=float, required=True, help="prior scale of x0")
    p.add_argument("--sigma", type=float, help="observation noise scale")
    p.add_argument(
        "--prior",
        choices=("gaussian", "twopoint"),
        help="prior of x0: Gaussian or symmetric two-point",
    )
    p.add_argument("--n", type=int, help="quadrature / collocation order")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--quad-order", type=int, help="payoff quadrature order")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", dest="out_path", help="output file (default: stdout)")
    p.add_argument(
        "--timing",
        action="store_true",
        help="embed wall time in the document (breaks byte-identical output)",
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--init", help="solver start: auto, affine, quantizer, or user:v1,v2,...")
    p.add_argument(
        "--no-iterate",
        dest="iterate",
        action="store_false",
        help="evaluate the residual at the start without optimizing",
    )
    p.add_argument("--tol", type=float, help="convergence tolerance")
    p.add_argument("--damping", type=float, help="picard damping factor in (0, 1]")
    p.add_argument("--max-iter", type=int, help="picard iteration budget")
    p.add_argument("--grid-points", type=int, help="picard grid resolution")
    p.add_argument("--grid-span", type=float, help="picard grid half-width in units of sigma_x")


def build_parser() -> argparse.ArgumentParser:
    """The pbpsolve argument parser.  Every option's dest is a RunConfig
    field, and an option not given leaves no attribute, so the defaults
    are RunConfig's."""
    parser = argparse.ArgumentParser(
        prog="pbpsolve",
        description="Solvers, baselines, and exact verifiers for the "
        "two-stage signaling team problem.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    p = subcommand("solve", "solve for the signaling strategy pair")
    _add_problem_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--method", choices=_SOLVE_METHODS)

    p = subcommand("baseline", "evaluate a closed-form baseline pair")
    _add_problem_flags(p)
    _add_output_flags(p)
    p.add_argument("--method", choices=_BASELINE_METHODS, default="affine")

    p = subcommand("curves", "export sampled strategy curves as CSV")
    _add_problem_flags(p)
    _add_solver_flags(p)
    _add_output_flags(p)
    p.add_argument("--method", choices=_CURVE_METHODS)
    p.add_argument("--points", type=int, help="rows in the CSV table")
    p.add_argument("--x-range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--y-range", type=float, nargs=2, metavar=("LO", "HI"))

    p = subcommand("verify", "run exact change-of-measure checks on a model")
    p.add_argument(
        "model",
        help="path to a model JSON file, or a bundled name: "
        + ", ".join(BUNDLED_MODELS),
    )
    p.add_argument("--tol", type=float, help="check tolerance")
    p.add_argument(
        "--pbp",
        action="store_true",
        help="also run the brute-force person-by-person optimality sweep",
    )
    _add_output_flags(p)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


_HANDLERS = {
    "solve": cmd_solve,
    "baseline": cmd_baseline,
    "curves": cmd_curves,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        # Overflow and invalid operations are not warned about: a
        # non-finite result ends in a NumericError where it is checked.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = _HANDLERS[cfg.subcommand](cfg, started)
    except (ConfigurationError, OSError, UnicodeDecodeError) as exc:
        # A file that cannot be read or written is a bad input, as is one
        # that is not UTF-8 text.
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 1
    sys.stderr.write(f"elapsed: {time.perf_counter() - started:.3f} s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
