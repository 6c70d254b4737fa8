"""Workload definitions: the operations of one round, generated from a seed.

A workload is a fixed list of operations (one *round*).  A run repeats the
round as a closed loop with a single client: each operation starts only after
the previous one returned.  The seed generates the inputs the program sees
(Monte Carlo ``--seed`` values, model files, the order of library calls); it
never changes how much work a round does.

Why these four workloads: each is the only place where one layer does most of
the work, so a change to that layer shows on one workload and is predicted to
leave the other three unchanged.

- ``signaling``: the paper's benchmark command.  First-stage inversion
  (``gamma1bar``) inside the payoff estimators dominates.
- ``sweep``: many short CLI operations that never build a collocation pair:
  Monte Carlo sampling, the wit pair's piecewise quadrature, ``apply_F`` and
  the CLI's own per-operation overhead.
- ``order``: library solves at growing collocation order; the least-squares
  solve and its finite-difference Jacobian dominate.
- ``verify``: exact finite-model enumeration in ``measure_change``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCHMARK_K = 0.2
BENCHMARK_SIGMA_X = 5.0

# sweep: a (k, sigma_x) grid for the closed-form baselines, and the three
# points where damped Picard iteration contracts.
SWEEP_GRID = [(k, sx) for k in (0.2, 0.5, 1.0) for sx in (1.0, 5.0)]
PICARD_POINTS = [(5.0, 1.0), (2.0, 1.0), (1.0, 0.5)]

ORDER_NS = (7, 15, 21, 31, 40)
ORDER_INITS = ("affine", "quantizer")
ORDER_TOL = 1e-10

# verify: random models of this shape have between 16 and 16,384 strategy
# profiles depending on their random information structure; keeping only
# those with exactly VERIFY_PROFILES makes the work independent of the seed.
VERIFY_SHAPE = dict(horizon=2, num_states=3, obs_sizes=(3, 2), action_sizes=(2, 2))
VERIFY_PROFILES = 1024
VERIFY_RANDOM_MODELS = 8
VERIFY_BUNDLED = ("identity", "random42", "corrupted")

# Tail percentile of op_tail_ms per workload: the highest percentile with at
# least ten operations beyond it at the designed run length.  On workloads
# with fewer than twenty operations per run no percentile qualifies, and the
# tail is the slowest operation (100).
TAIL_PERCENTILE = {"signaling": 100.0, "sweep": 95.0, "order": 100.0, "verify": 100.0}

WORKLOADS = ("signaling", "sweep", "order", "verify")


@dataclass
class Op:
    """One operation of a round.

    ``argv`` is set for CLI operations (run through ``pbpsolve.cli.main``);
    ``call`` is set for library operations and returns the solver report.
    ``expect`` is ``"ok"`` or ``"model_error"`` (a verify model that must be
    rejected with exit 1 and an ``error`` field).
    """

    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    expect: str = "ok"
    tol: float = ORDER_TOL


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def _mc_seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _signaling(rng: random.Random, smoke: bool) -> list[Op]:
    argv = ["solve", "--k", "0.2", "--sigma-x", "5", "--seed", _mc_seed(rng)]
    if smoke:
        argv += ["--samples", "20000"]
    return [Op("solve k=0.2 sx=5", argv=argv)]


def _sweep(rng: random.Random, smoke: bool) -> list[Op]:
    grid = SWEEP_GRID[-1:] if smoke else SWEEP_GRID
    picard = PICARD_POINTS[:1] if smoke else PICARD_POINTS
    ops = []
    for k, sx in grid:
        point = ["--k", repr(k), "--sigma-x", repr(sx)]
        for method in ("affine", "wit"):
            ops.append(Op(f"baseline {method} k={k} sx={sx}",
                          argv=["baseline", *point, "--method", method, "--seed", _mc_seed(rng)]))
            ops.append(Op(f"curves {method} k={k} sx={sx}",
                          argv=["curves", *point, "--method", method]))
    for k, sx in picard:
        ops.append(Op(f"picard k={k} sx={sx}",
                      argv=["solve", "--k", repr(k), "--sigma-x", repr(sx),
                            "--method", "picard", "--seed", _mc_seed(rng)]))
    return ops


def _order(rng: random.Random, smoke: bool, pbpsolve) -> list[Op]:
    ghq_solver = pbpsolve.ghq_solver
    quadrature = pbpsolve.quadrature
    params = pbpsolve.ProblemParams(k=BENCHMARK_K, sigma=1.0, sigma_x=BENCHMARK_SIGMA_X)
    cases = [(n, init) for n in (ORDER_NS[:1] if smoke else ORDER_NS) for init in ORDER_INITS]
    rng.shuffle(cases)

    def make(n: int, init: str) -> Callable[[], object]:
        # Resolve through the module attributes at call time so that the
        # traced run sees its wrappers.
        return lambda: ghq_solver.solve_signaling_levels(
            params, quadrature.build_hermite_rule(n), init, tol=ORDER_TOL
        )

    return [Op(f"solve n={n} init={init}", call=make(n, init)) for n, init in cases]


def _verify(rng: random.Random, smoke: bool, pbpsolve, model_dir: Path) -> tuple[list[Op], list[int]]:
    mc = pbpsolve.measure_change
    wanted = 1 if smoke else VERIFY_RANDOM_MODELS
    seeds: list[int] = []
    while len(seeds) < wanted:
        s = rng.randrange(2**31)
        model = mc.random_model(s, **VERIFY_SHAPE)
        if mc.profile_count(model) != VERIFY_PROFILES:
            continue
        seeds.append(s)
        (model_dir / f"random-{s}.json").write_text(json.dumps(mc.model_to_dict(model)))
    ops = [
        Op(f"verify {name}", argv=["verify", name, "--pbp"],
           expect="model_error" if name == "corrupted" else "ok")
        for name in VERIFY_BUNDLED
    ]
    ops += [
        Op(f"verify random-{s}", argv=["verify", str(model_dir / f"random-{s}.json"), "--pbp"])
        for s in seeds
    ]
    return ops, seeds


def build(name: str, seed: int, smoke: bool, pbpsolve, model_dir: Path) -> Workload:
    """Generate one round of the named workload from the seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "signaling":
        return Workload(_signaling(rng, smoke))
    if name == "sweep":
        return Workload(_sweep(rng, smoke))
    if name == "order":
        return Workload(_order(rng, smoke, pbpsolve))
    if name == "verify":
        ops, seeds = _verify(rng, smoke, pbpsolve, model_dir)
        return Workload(ops, {"random_model_seeds": seeds})
    raise ValueError(f"unknown workload {name!r}")
