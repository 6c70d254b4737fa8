"""Command-line interface: documents, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pbpsolve
from pbpsolve import (
    MartingaleReport,
    PayoffBreakdown,
    PayoffEquivalenceReport,
    ProblemParams,
    SignalingLevels,
    affine_optimal,
    collocation_pair,
    gaussian_posterior_mean,
    identity_model,
    model_to_dict,
    payoff_mc,
    payoff_quadrature,
    random_model,
    solve_signaling_levels,
    summarize_staircase,
)
from pbpsolve import cli, ghq_solver
from pbpsolve.cli import RunConfig, _parse_init, main
from pbpsolve.errors import ConfigurationError, NumericError
from pbpsolve.fixed_point import default_grid, strategy_from_pair
from pbpsolve.quadrature import build_hermite_rule

FAST_SOLVE = [
    "solve", "--k", "1", "--sigma-x", "1", "--init", "affine", "--samples", "2000",
]

RESULT_KEYS = {
    "converged", "init", "lam", "levels", "method", "mu",
    "params", "payoff", "residual_norm", "timing",
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    for kwargs in (
        dict(k=-1.0),
        dict(sigma=0.0),
        dict(n=0),
        dict(samples=0),
        dict(points=1),
        dict(prior="cauchy"),
        dict(seed=-1),
        dict(x_range=(float("nan"), 1.0)),
        dict(x_range=(2.0, 1.0)),
        dict(x_range=(1.0, 1.0)),
        dict(y_range=(float("inf"), 1.0)),
        dict(y_range=(-1.0, float("inf"))),
        dict(damping=float("nan")),
        dict(damping=0.0),
        dict(damping=1.5),
        dict(max_iter=0),
        dict(grid_points=1),
        dict(grid_span=float("inf")),
        dict(grid_span=0.0),
        dict(grid_span=float("nan")),
    ):
        with pytest.raises(ConfigurationError):
            RunConfig(subcommand="solve", **kwargs)


@pytest.mark.parametrize(
    "subcommand, method, message",
    [
        ("solve", "wit", "solve method must be ghq or picard, got 'wit'"),
        ("solve", "newton", "solve method must be ghq or picard, got 'newton'"),
        ("baseline", "ghq", "baseline method must be affine or wit, got 'ghq'"),
        ("curves", "newton", "curves method must be ghq or picard or affine or wit, got 'newton'"),
    ],
)
def test_a_method_its_subcommand_does_not_run_is_refused(subcommand, method, message):
    """A directly built config cannot run a baseline as a solve, nor an
    unknown name as Picard."""
    with pytest.raises(ConfigurationError) as error:
        RunConfig(subcommand, method=method)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--k", "0.2", "--sigma-x", "5"], RunConfig("solve", k=0.2, sigma_x=5.0)),
        (["curves", "--k", "0.2", "--sigma-x", "5"], RunConfig("curves", k=0.2, sigma_x=5.0)),
        (
            ["baseline", "--k", "0.2", "--sigma-x", "5"],
            RunConfig("baseline", k=0.2, sigma_x=5.0, method="affine"),
        ),
        (["verify", "identity"], RunConfig("verify", model="identity")),
    ],
)
def test_required_flags_alone_give_the_run_config_defaults(argv, expected):
    assert cli.config_from_args(cli.build_parser().parse_args(argv)) == expected


def test_every_option_sets_the_run_config_field_of_its_name():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for name, parser in subparsers.items():
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests <= fields, name
    argv = [
        "curves", "--k", "0.5", "--sigma-x", "2", "--sigma", "0.7", "--prior", "twopoint",
        "--n", "9", "--samples", "10", "--seed", "3", "--quad-order", "12",
        "--init", "affine", "--no-iterate", "--tol", "1e-9", "--damping", "0.25",
        "--max-iter", "7", "--grid-points", "65", "--grid-span", "4", "--out", "c.csv",
        "--timing", "--method", "ghq", "--points", "5", "--x-range", "-1e1", "2.5e0",
        "--y-range", "-.5", "1",
    ]
    assert cli.config_from_args(cli.build_parser().parse_args(argv)) == RunConfig(
        "curves", k=0.5, sigma=0.7, sigma_x=2.0, prior="twopoint", n=9, samples=10,
        seed=3, method="ghq", init="affine", iterate=False, tol=1e-9, damping=0.25,
        max_iter=7, grid_points=65, grid_span=4.0, quad_order=12, points=5,
        x_range=(-10.0, 2.5), y_range=(-0.5, 1.0), timing=True, out_path="c.csv",
    )
    # --no-iterate is ghq's alone, so --method is shown off its default here.
    argv = ["curves", "--k", "1", "--sigma-x", "1", "--method", "wit"]
    assert cli.config_from_args(cli.build_parser().parse_args(argv)) == RunConfig(
        "curves", method="wit"
    )
    assert RunConfig("curves").method != "wit"


def test_init_parsing():
    # The named starts are auto and the keys of the solver's one start table.
    names = ("auto", *ghq_solver._STARTS)
    for name in names:
        assert _parse_init(name) == name
    assert np.array_equal(_parse_init("user:1,2.5,-3"), np.array([1.0, 2.5, -3.0]))
    with pytest.raises(ConfigurationError):
        _parse_init("user:")
    with pytest.raises(ConfigurationError):
        _parse_init("user:1,abc")
    with pytest.raises(ConfigurationError) as cli_error:
        _parse_init("noinit")
    with pytest.raises(ConfigurationError) as library_error:
        solve_signaling_levels(
            ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0), build_hermite_rule(3), init="noinit"
        )
    for name in names:
        assert name in str(cli_error.value)
        assert f"'{name}'" in str(library_error.value)


class _Started(Exception):
    pass


@pytest.mark.parametrize("init", ["auto", *ghq_solver._STARTS])
def test_picard_starts_from_the_named_start(monkeypatch, init):
    # auto and affine start from the affine pair; every other named start
    # from the collocation pair of its levels.
    params = ProblemParams(k=5.0, sigma=1.0, sigma_x=1.0)
    cfg = RunConfig("solve", k=5.0, sigma_x=1.0, method="picard", init=init, grid_points=65)
    rule = build_hermite_rule(cfg.n)
    if init in ("auto", "affine"):
        pair = affine_optimal(params)
    else:
        levels = ghq_solver._STARTS[init](params, rule)
        pair = collocation_pair(SignalingLevels(levels, rule.order, params))
    grid = default_grid(params, points=cfg.grid_points, span=cfg.grid_span)
    expected = strategy_from_pair(pair, params, grid)

    def stop(start, *args, **kwargs):
        assert np.array_equal(start.values1, expected.values1)
        assert np.array_equal(start.values2, expected.values2)
        raise _Started

    monkeypatch.setattr(cli, "picard_iterate", stop)
    with pytest.raises(_Started):
        cli._solve(cfg, params)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "subcommand, method",
    [
        ("solve", "ghq"),
        ("solve", "picard"),
        ("baseline", "affine"),
        ("baseline", "wit"),
        ("curves", "ghq"),
        ("curves", "picard"),
        ("curves", "affine"),
        ("curves", "wit"),
    ],
)
def test_every_subcommand_runs_its_method_through_the_one_dispatch(
    capsys, monkeypatch, subcommand, method
):
    calls, solve = [], cli._solve

    def counted(cfg, params):
        calls.append(cfg.method)
        return solve(cfg, params)

    monkeypatch.setattr(cli, "_solve", counted)
    argv = [subcommand, "--k", "1", "--sigma-x", "1", "--method", method]
    argv += ["--points", "11"] if subcommand == "curves" else ["--samples", "2000"]
    if method == "ghq":
        argv += ["--init", "affine"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert calls == [method]
    if subcommand != "curves":
        assert json.loads(out)["method"] == method


def test_solve_document_layout(capsys):
    code, out, err = run_cli(capsys, *FAST_SOLVE)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == RESULT_KEYS
    assert set(doc["params"]) == {"k", "n", "prior", "sigma", "sigma_x"}
    assert doc["method"] == "ghq"
    assert doc["init"] == "affine"
    assert doc["converged"] is True
    assert doc["timing"] is None
    assert len(doc["levels"]) == 7
    assert doc["residual_norm"] <= 1e-10
    estimators = [block["estimator"] for block in doc["payoff"]]
    assert estimators == ["quadrature", "monte-carlo"]
    for block in doc["payoff"]:
        assert set(block) == {
            "estimator", "order", "samples", "seed",
            "stage1", "stage2", "std_error", "total",
        }
        assert block["total"] == pytest.approx(block["stage1"] + block["stage2"], abs=1e-12)


def test_solve_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, *FAST_SOLVE)
    _, second, _ = run_cli(capsys, *FAST_SOLVE)
    assert first == second


def test_unreachable_tolerance_exits_one(capsys):
    code, out, _ = run_cli(capsys, *FAST_SOLVE, "--tol", "1e-30")
    assert code == 1
    doc = json.loads(out)
    assert doc["converged"] is False


def test_no_iterate_reports_the_start_and_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "0.2", "--sigma-x", "5", "--samples", "2000",
        "--init", "user:0,6.5,-6.5,13.2,-13.2,19.9,-19.9", "--no-iterate",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["init"] == "user"
    assert sorted(doc["levels"]) == [-19.9, -13.2, -6.5, 0.0, 6.5, 13.2, 19.9]
    assert doc["residual_norm"] == pytest.approx(0.746, abs=0.05)


def test_picard_solve_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "5", "--sigma-x", "1", "--method", "picard",
        "--samples", "2000", "--grid-points", "513",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "picard"
    assert doc["converged"] is True
    assert doc["residual_norm"] <= 1e-6
    assert len(doc["levels"]) == 7


def test_picard_at_a_vanishing_damping_is_not_converged(capsys):
    # Each damped step rounds to 0, but the start is no fixed point: the
    # undamped defect |F(s) - s| stays near 1e-4, so the solve exits 1.
    code, out, _ = run_cli(
        capsys,
        "solve", "--k", "5", "--sigma-x", "1", "--method", "picard",
        "--damping", "1e-300", "--samples", "2000", "--grid-points", "513",
    )
    assert code == 1
    assert json.loads(out)["converged"] is False


# Bad inputs, run in-process: each ends in an exit code of 0, 1 or 2 with a
# message, never in an escaping exception.  argparse reports its own errors
# by SystemExit(2).
BAD_ARGV = [
    ["solve", "--k", "0.2", "--sigma-x", "5", "--seed", "-1"],
    ["baseline", "--k", "0.2", "--sigma-x", "5", "--seed", "-3"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--init", "user:1e300"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--init", "user:-1e300,1e300"],
    ["curves", "--k", "0.2", "--sigma-x", "5", "--x-range", "nan", "1"],
    ["curves", "--k", "0.2", "--sigma-x", "5", "--x-range", "2", "1"],
    ["curves", "--k", "0.2", "--sigma-x", "5", "--y-range", "inf", "1"],
    ["solve", "--k", "-1", "--sigma-x", "1"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--k", "1e-200"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--k", "1e200"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--sigma", "1e-170"],
    ["solve", "--k", "5", "--sigma-x", "1", "--method", "picard", "--no-iterate"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--prior", "twopoint"],
    ["curves", "--k", "0.2", "--sigma-x", "5", "--prior", "twopoint", "--init", "user:0,6,-6"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--init", "user:"],
    ["solve", "--k", "0.2", "--sigma-x", "5", "--init", "bogus"],
    ["solve", "--n", "0"],
    ["solve", "--samples", "0"],
    ["curves", "--points", "1"],
    ["baseline", "--method", "ghq"],
    ["verify", "nonesuch"],
    ["solve", "--k", "abc"],
    ["verify", "identity", "--tol", "-1"],
    ["verify", "identity", "--tol", "nan"],
    ["solve", "--k", "5", "--sigma-x", "1", "--method", "picard", "--tol", "-1"],
    ["verify", "."],
    ["baseline", "--k", "1", "--sigma-x", "1", "--samples", "100", "--out", "."],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=[" ".join(a) for a in BAD_ARGV])
def test_bad_argv_exits_with_a_code_not_an_exception(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Fuzzed argv: each flag of each subcommand, and verify's model argument,
# takes edge values (zero, negative, non-finite, overflowing, empty, and
# integers past any array size), drawn by a seeded generator, after cheap
# defaults that keep a run that gets through to a few tens of milliseconds:
# a one-point collocation start evaluated without iteration, 200 samples and
# an order-4 payoff quadrature.
FUZZ_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "", str(10**30), str(2**63)]
FUZZ_BASE = {
    "solve": ["--k", "0.2", "--sigma-x", "5", "--samples", "200", "--quad-order", "4",
              "--no-iterate", "--n", "1"],
    "baseline": ["--k", "0.2", "--sigma-x", "5", "--samples", "200", "--quad-order", "4"],
    "verify": ["identity"],
}
FUZZ_BASE["curves"] = FUZZ_BASE["solve"]


def _fuzzed_argv(seed: int, draws: int) -> list[list[str]]:
    """For each subcommand and each of its arguments, draws argv that give
    it distinct edge values (its choices and, for --init, user: forms of
    the edge values, among them)."""
    rng = random.Random(seed)
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    argvs = []
    for subcommand, base in FUZZ_BASE.items():
        for action in subparsers[subcommand]._actions:
            if action.dest == "help":
                continue
            values = FUZZ_VALUES + [f"user:{v}" for v in FUZZ_VALUES] * (action.dest == "init")
            values += list(action.choices or ())
            for value in rng.sample(values, draws):
                drawn = [value, rng.choice(values)][: action.nargs or 1]
                if action.option_strings:
                    argvs.append([subcommand, *base, action.option_strings[-1], *drawn])
                else:
                    argvs.append([subcommand, *drawn, *base[1:]])  # verify's model
    return argvs


def test_fuzzed_argv_exits_with_a_code_not_a_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    for argv in _fuzzed_argv(seed=0, draws=2):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv, name",
    [
        (["solve", "--samples"], "samples"),
        (["baseline", "--method", "wit", "--samples"], "samples"),
        (["curves", "--method", "affine", "--points"], "points"),
        (["solve", "--method", "picard", "--grid-points"], "grid_points"),
    ],
)
def test_counts_past_any_array_size_exit_two_with_a_message(capsys, argv, name):
    """Each of these counts sizes arrays; far past what NumPy can allocate
    they used to end in a ValueError traceback."""
    problem = ["--k", "5", "--sigma-x", "1"]
    code, out, err = run_cli(capsys, *argv[:1], *problem, *argv[1:], str(10**30))
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be at most 1,000,000,000\n"


def test_running_out_of_memory_exits_one_with_a_message(capsys, monkeypatch):
    def exhausted(cfg, started):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setitem(cli._HANDLERS, "baseline", exhausted)
    code, out, err = run_cli(capsys, "baseline", "--k", "1", "--sigma-x", "1")
    assert (code, out) == (1, "")
    assert err == "error: out of memory: Unable to allocate 7.45 GiB\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--seed", "-1"], "seed must be non-negative"),
        (["baseline", "--seed", "-3"], "seed must be non-negative"),
        (["solve", "--init", "user:1e300"], "non-finite residual or Jacobian"),
        (["curves", "--x-range", "nan", "1"], "--x-range needs finite LO < HI"),
        (["curves", "--x-range", "-inf", "1"], "--x-range needs finite LO < HI"),
        (["curves", "--y-range", "-NaN", "1"], "--y-range needs finite LO < HI"),
        (["curves", "--x-range", "2", "1"], "--x-range needs finite LO < HI"),
        (["curves", "--y-range", "inf", "1"], "--y-range needs finite LO < HI"),
        (
            ["curves", "--x-range", "-1000", "1000", "--points", "5"],
            "--x-range -1000.0 1000.0 leaves [-792, 792]",
        ),
        (
            ["solve", "--sigma", "1e-5", "--samples", "2000"],
            "more than 2,000,001 nodes for a step no wider than sigma = 1e-05",
        ),
    ],
)
def test_negative_seeds_overflowing_starts_and_bad_ranges_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv[:1], "--k", "0.2", "--sigma-x", "5", *argv[1:])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "."],
        ["baseline", "--k", "1", "--sigma-x", "1", "--samples", "100", "--out", "."],
    ],
)
def test_a_directory_in_place_of_a_file_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_a_model_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "can't decode byte 0xff" in err


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in the document")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        # The solve ends near 1e135, where the Monte Carlo costs pass 1e268.
        ["solve", "--init", "user:1e150", "--samples", "2000"],
        # The first stage of levels at 1e300 is NaN.
        ["curves", "--no-iterate", "--init", "user:1e300", "--points", "5"],
    ],
)
def test_a_diverging_run_ends_in_a_numeric_error_not_a_non_finite_document(capsys, argv):
    """One numeric-error line, nothing on stdout, and no RuntimeWarning from
    SciPy's or NumPy's overflowing steps."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv[:1], "--k", "0.2", "--sigma-x", "5", *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1


def test_documents_are_strict_json(capsys):
    for argv in (FAST_SOLVE, ["baseline", "--k", "0.2", "--sigma-x", "5", "--samples", "2000"],
                 ["verify", "identity", "--pbp"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _strict_json(out)
    with pytest.raises(NumericError, match="non-finite"):
        cli._json_text({"std_error": math.inf})
    with pytest.raises(NumericError, match="non-finite"):
        cli._json_text({"levels": [0.0, math.nan]})


def test_picard_rejects_no_iterate(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--k", "5", "--sigma-x", "1", "--method", "picard", "--no-iterate",
    )
    assert code == 2
    assert "--no-iterate" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "wit", "--init", "bogus", "--no-iterate"], "error: init must be auto, "),
        (["--method", "affine", "--init", "user:1,abc"], "error: bad user initialization"),
        (["--method", "wit", "--no-iterate"], "error: --no-iterate applies only to"),
        (["--method", "affine", "--no-iterate"], "error: --no-iterate applies only to"),
    ],
)
def test_curves_checks_the_solver_flags_whichever_method_runs(capsys, argv, message):
    """A baseline method runs no solver, yet a bad --init or --no-iterate
    exits 2 with the message ghq or picard would give."""
    code, out, err = run_cli(
        capsys, "curves", "--k", "1", "--sigma-x", "1", "--points", "3", *argv
    )
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "identity", "--tol", "-1"],
        ["verify", "identity", "--tol", "nan"],
        ["solve", "--k", "0.2", "--sigma-x", "5", "--tol", "inf"],
        ["solve", "--k", "5", "--sigma-x", "1", "--method", "picard", "--tol", "-1"],
        ["solve", "--k", "0.2", "--sigma-x", "5", "--tol", "-inf"],
        ["solve", "--k", "0.2", "--sigma-x", "5", "--tol", "-Infinity"],
        ["verify", "identity", "--tol", "-nan"],
    ],
)
def test_a_negative_or_non_finite_tol_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--damping", "nan"], "damping must lie in (0, 1], got nan"),
        (["solve", "--max-iter", "-1"], "max_iter must be >= 1"),
        (["solve", "--grid-points", "1"], "grid_points must be >= 2"),
        (["solve", "--grid-span", "inf"], "grid_span must be positive and finite, got inf"),
        (["curves", "--damping", "nan"], "damping must lie in (0, 1], got nan"),
        (
            ["solve", "--method", "picard", "--grid-span", "inf"],
            "grid_span must be positive and finite, got inf",
        ),
    ],
)
def test_bad_picard_flags_exit_two_whichever_method_runs(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv[:1], "--k", "0.2", "--sigma-x", "5", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["baseline", "--quad-order", "1"], "--quad-order must lie in [2, 64], got 1"),
        (["solve", "--quad-order", "65"], "--quad-order must lie in [2, 64], got 65"),
        (["solve", "--n", "65"], "--n must lie in [1, 64], got 65"),
        (["curves", "--method", "wit", "--n", "0"], "--n must lie in [1, 64], got 0"),
    ],
)
def test_rule_orders_beyond_the_rules_exit_two_naming_the_flag(capsys, argv, message):
    """An order-1 payoff rule put the affine baseline's total at 0.0 with
    exit 0; an order above 64 failed only once a rule was built, for
    --quad-order after the whole solve, with a message naming no flag."""
    code, out, err = run_cli(capsys, *argv[:1], "--k", "1", "--sigma-x", "1", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_zero_tol_still_asks_for_exact_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "--tol", "0")
    assert code == 0
    assert json.loads(out)["tol"] == 0.0


def test_bad_problem_values_exit_two(capsys):
    code, _, err = run_cli(capsys, "solve", "--k", "-1", "--sigma-x", "1")
    assert code == 2
    assert "k must be positive" in err


@pytest.mark.parametrize("flag, value", [("--k", "1e-200"), ("--k", "1e200"), ("--sigma", "1e-170")])
def test_problem_values_whose_square_is_not_a_positive_float_exit_two(capsys, flag, value):
    code, _, err = run_cli(capsys, "solve", "--k", "0.2", "--sigma-x", "5", flag, value)
    assert code == 2
    assert f"{flag[2:]}^2 must be a positive finite float" in err
    assert "Traceback" not in err


def test_single_collocation_point_solve_has_no_traceback(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--k", "0.2", "--sigma-x", "5", "--n", "1", "--samples", "2000"
    )
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["levels"] == [0.0]


@pytest.mark.parametrize("subcommand", ["solve", "curves"])
@pytest.mark.parametrize("init", ["auto", "affine", "quantizer", "user:0,6,-6"])
def test_collocation_with_the_two_point_prior_exits_two(capsys, subcommand, init):
    code, out, err = run_cli(
        capsys, subcommand, "--k", "0.2", "--sigma-x", "5", "--prior", "twopoint",
        "--init", init, "--samples", "2000",
    )
    assert code == 2
    assert out == ""
    assert "--method ghq requires the Gaussian prior" in err
    assert "Traceback" not in err


def count_first_stage_builds(monkeypatch) -> list:
    """Record the gamma2 of every first stage built from now on."""
    builds = []
    original = ghq_solver._best_response

    def counting(gamma2, *args):
        builds.append(gamma2)
        return original(gamma2, *args)

    monkeypatch.setattr(ghq_solver, "_best_response", counting)
    return builds


def test_default_solve_builds_one_first_stage(capsys, monkeypatch):
    """At the benchmark both auto candidates reach one solution, so neither
    is scored: the output builds the winner's pair and its one first stage,
    the best response to the posterior mean of the winner's levels, which
    serves the pair's breakpoints and every payoff query."""
    builds = count_first_stage_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "solve", "--k", "0.2", "--sigma-x", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["init"] == "auto:affine"
    assert len(builds) == 1
    ys = np.linspace(-30.0, 30.0, 61)
    weights = build_hermite_rule(7).weights
    want = gaussian_posterior_mean(ys, np.array(doc["levels"]), weights, 1.0)
    assert np.array_equal(builds[0](ys), want)


def test_default_solve_reuses_the_auto_pick_quadrature(capsys, monkeypatch):
    """At sigma_x = 5 the auto candidates coincide and only the output
    scores the winner.  At sigma_x = 1 they differ, the auto pick scores
    both with order-20 quadrature, and the output's quadrature block is the
    winner's score, not a third call."""
    calls = []

    def counting(params, pair, outer_rule, inner_rule):
        calls.append(outer_rule.order)
        return payoff_quadrature(params, pair, outer_rule, inner_rule)

    monkeypatch.setattr(ghq_solver, "payoff_quadrature", counting)
    monkeypatch.setattr(cli, "payoff_quadrature", counting)
    for sigma_x, expected in (("5", [20]), ("1", [20, 20])):
        calls.clear()
        argv = ["solve", "--k", "0.2", "--sigma-x", sigma_x, "--samples", "1000"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == expected, sigma_x
        assert json.loads(out)["payoff"][0]["order"] == 20


def test_payoff_blocks_reuse_only_a_quadrature_of_the_requested_order():
    params = ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)
    pair = affine_optimal(params)
    rule = build_hermite_rule(20)
    known = payoff_quadrature(params, pair, rule, rule)
    fake = dataclasses.replace(known, stage1=0.0, total=known.stage2)
    kept = cli._payoff_blocks(RunConfig("solve", samples=100), params, pair, fake)
    assert kept[0] == dataclasses.asdict(fake)
    other = cli._payoff_blocks(RunConfig("solve", samples=100, quad_order=24), params, pair, fake)
    assert other[0]["order"] == 24 and other[0]["stage1"] > 0.0


def test_payoff_record_and_result_schema_name_the_same_fields():
    # Each payoff block is the record's asdict, so the schema must list
    # exactly the record's fields.
    schema_path = Path(__file__).parents[1] / "docs" / "result-schema.json"
    items = json.loads(schema_path.read_text())["properties"]["payoff"]["items"]
    fields = {f.name for f in dataclasses.fields(PayoffBreakdown)}
    assert set(items["required"]) == fields
    assert set(items["properties"]) == fields


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def test_baseline_matches_the_library_estimators(capsys):
    code, out, _ = run_cli(
        capsys, "baseline", "--k", "1", "--sigma-x", "1", "--samples", "5000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "affine"
    assert doc["levels"] is None and doc["residual_norm"] is None
    params = ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)
    pair = affine_optimal(params)
    rule = build_hermite_rule(20)
    quad = payoff_quadrature(params, pair, rule, rule)
    mc = payoff_mc(params, pair, 5000, 0)
    assert doc["lam"] == pair.lam
    assert doc["payoff"][0]["total"] == quad.total
    assert doc["payoff"][1]["total"] == mc.total
    assert doc["payoff"][1]["std_error"] == mc.std_error


@pytest.mark.parametrize("method", list(cli._BASELINES))
def test_baseline_reports_the_pair_of_its_table_entry(capsys, method):
    code, out, _ = run_cli(
        capsys, "baseline", "--k", "1", "--sigma-x", "1", "--method", method,
        "--samples", "2000",
    )
    assert code == 0
    doc = json.loads(out)
    params = ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)
    pair = cli._BASELINES[method](params)
    rule = build_hermite_rule(20)
    assert doc["method"] == method
    assert (doc["lam"], doc["mu"]) == (pair.lam, pair.mu)
    assert doc["payoff"][0]["total"] == payoff_quadrature(params, pair, rule, rule).total


def test_two_point_baseline_has_zero_first_stage(capsys):
    code, out, _ = run_cli(
        capsys,
        "baseline", "--k", "1", "--sigma-x", "1", "--method", "wit",
        "--prior", "twopoint", "--samples", "2000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payoff"][0]["stage1"] == 0.0
    assert doc["params"]["prior"] == "twopoint"


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_curves_csv_and_summary(capsys):
    code, out, err = run_cli(
        capsys,
        "curves", "--k", "1", "--sigma-x", "1", "--method", "affine",
        "--points", "11", "--x-range", "-2", "2", "--y-range", "-3", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,gamma1bar,y,gamma2"
    assert len(lines) == 12
    lam = affine_optimal(ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)).lam
    for line in lines[1:]:
        x, g1, y, g2 = (float(tok) for tok in line.split(","))
        assert g1 == lam * x  # %.17g round-trips doubles exactly
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs[0] == -2.0 and xs[-1] == 2.0
    ys = [float(line.split(",")[2]) for line in lines[1:]]
    assert ys[0] == -3.0 and ys[-1] == 3.0
    # stderr carries the summary document followed by the wall-time line
    summary, _ = json.JSONDecoder().raw_decode(err)
    assert summary["shape"] == "linear"
    assert summary["steps"] == 1
    assert summary["line_slope"] == pytest.approx(lam, abs=1e-10)


def test_ranges_take_negative_bounds_in_exponent_notation(capsys):
    base = ["curves", "--k", "1", "--sigma-x", "1", "--method", "affine", "--points", "21"]
    code, out, err = run_cli(capsys, *base, "--x-range", "-1e1", "10", "--y-range", "-2.5e0", "1")
    assert code == 0, err
    assert (code, out) == run_cli(capsys, *base, "--x-range", "-10", "10", "--y-range", "-2.5", "1")[:2]
    assert out.split("\n")[1].startswith("-10,")


def test_picard_curves_plot_the_solved_pair(capsys):
    argv = [
        "curves", "--k", "5", "--sigma-x", "1", "--method", "picard",
        "--grid-points", "513", "--points", "101",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    pair = cli._solve(cfg, cfg.problem_params()).pair
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert rows.shape == (101, 4)
    assert np.array_equal(rows[:, 1], pair.gamma1bar(rows[:, 0]))
    assert np.array_equal(rows[:, 3], pair.gamma2(rows[:, 2]))


def test_default_curves_reuses_the_solve_pair_and_estimates_no_payoff(capsys, monkeypatch):
    """curves plots the solve's own pair: no payoff estimate and no second
    first stage (the auto candidates coincide and are not scored), and
    the same curves and summary as a fresh pair built on the solved
    levels."""
    builds = count_first_stage_builds(monkeypatch)
    estimates = []
    for name in ("payoff_mc", "payoff_quadrature"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **kw: estimates.append(_name))
    code, out, err = run_cli(capsys, "curves", "--k", "0.2", "--sigma-x", "5")
    assert code == 0
    assert estimates == []
    assert len(builds) == 1

    params = ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0)
    rule = build_hermite_rule(7)
    report = solve_signaling_levels(params, rule, init="auto", tol=1e-10)
    fresh = collocation_pair(
        SignalingLevels([float(v) for v in report.levels.levels], rule.order, params)
    )
    xs = np.linspace(-42.5, 42.5, 1001)
    rows = np.array([[float(tok) for tok in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert np.array_equal(rows[:, 0], xs) and np.array_equal(rows[:, 2], xs)
    assert np.array_equal(rows[:, 1], fresh.gamma1bar(xs))
    assert np.array_equal(rows[:, 3], fresh.gamma2(xs))
    summary, _ = json.JSONDecoder().raw_decode(err)
    expected = summarize_staircase(fresh, params)
    assert summary["breakpoints"] == list(expected.breakpoints)
    assert summary["tread_values"] == list(expected.tread_values)
    assert summary["tread_slopes"] == list(expected.tread_slopes)
    assert (summary["line_slope"], summary["line_rms"]) == (
        expected.line_slope, expected.line_rms,
    )
    assert (summary["steps"], summary["shape"]) == (7, "staircase")


def test_curves_to_file_moves_summary_to_stdout(capsys, tmp_path):
    target = tmp_path / "curves.csv"
    code, out, _ = run_cli(
        capsys,
        "curves", "--k", "1", "--sigma-x", "1", "--method", "affine",
        "--points", "5", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("x,gamma1bar,y,gamma2\n")
    summary = json.loads(out)
    assert summary["shape"] == "linear"


def test_staircase_summary_of_a_solved_curve(capsys):
    code, out, err = run_cli(
        capsys,
        "curves", "--k", "0.2", "--sigma-x", "5", "--init", "quantizer",
        "--points", "201", "--samples", "2000",
    )
    assert code == 0
    summary, _ = json.JSONDecoder().raw_decode(err)
    assert summary["shape"] == "staircase"
    assert summary["steps"] == 7
    assert len(summary["breakpoints"]) == 6


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_bundled_identity_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["martingale"]["unit_mean_error"] == 0.0
    assert doc["martingale"]["conditional_error"] == 0.0
    assert doc["payoff"]["difference"] == 0.0
    assert doc["payoff"]["original"] == 1.0
    assert doc["pbp"] is None


def test_verify_bundled_random_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "random42")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["martingale"]["unit_mean_error"] <= 1e-12


def test_verify_corrupted_model_reports_the_defect(capsys):
    code, out, _ = run_cli(capsys, "verify", "corrupted")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert "sum to 1" in doc["error"]
    assert doc["martingale"] is None


def test_verify_with_brute_force_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "identity", "--pbp")
    assert code == 0
    doc = json.loads(out)
    assert doc["pbp"]["passed"] is True
    assert doc["pbp"]["best_cost"] == 0.5
    assert doc["pbp"]["num_profiles"] == 8
    assert doc["pbp"]["worst_deviation_gain"] == -0.25


def test_verify_records_and_verify_schema_name_the_same_fields():
    # The martingale and payoff blocks are their reports' asdict less tol,
    # which the document states once at its top level.
    schema_path = Path(__file__).parents[1] / "docs" / "verify-schema.json"
    blocks = json.loads(schema_path.read_text())["properties"]
    for block, record in (("martingale", MartingaleReport), ("payoff", PayoffEquivalenceReport)):
        names = {f.name for f in dataclasses.fields(record)} - {"tol"}
        assert set(blocks[block]["required"]) == names, block
        assert set(blocks[block]["properties"]) == names, block


def test_verify_unknown_model_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "nonesuch")
    assert code == 2
    assert "bundled" in err


def test_verify_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"horizon": }')
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"horizon": }', "invalid JSON at line 1, column 13: Expecting value"),
        ("[" * 200_000 + "]" * 200_000, "invalid JSON: nested too deeply"),
        ('{"a": ' * 200_000 + "1" + "}" * 200_000, "invalid JSON: nested too deeply"),
    ],
    ids=["syntax", "deep-arrays", "deep-objects"],
)
def test_a_model_file_json_cannot_read_exits_two_with_a_message(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    # the format load_model reports too
    assert err == f"error: model {bad}: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("horizon", 2.5, "horizon must be an integer, got 2.5"),
        ("num_states", 2.9, "num_states must be an integer, got 2.9"),
        ("obs_sizes", [2.5], "obs_sizes entry must be an integer, got 2.5"),
        ("info", [[[], [["y", 0, True]]]], "info[0][1] item station must be an integer"),
    ],
)
def test_verify_reports_a_non_integral_integer_field(capsys, tmp_path, field, value, message):
    data = model_to_dict(identity_model())
    data[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(path), "--pbp")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert message in doc["error"]


def test_verify_reports_a_nan_kernel_entry_by_name(capsys, tmp_path):
    # json reads NaN; the model is refused before any check could pass it
    data = model_to_dict(identity_model())
    data["observations"][0][0][0] = [math.nan, 1.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(path), "--pbp")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False and doc["martingale"] is None
    assert doc["error"] == "observation kernel 0 has non-finite entries"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["identity", "random42", "random-4"])
def test_verify_pbp_prints_the_committed_document(capsys, monkeypatch, tmp_path, name):
    """The exact enumeration's whole output, byte for byte, against a
    committed copy: refactors of measure_change keep every bit.

    random-4 is a benchmark-shaped model written to the working directory:
    1,024 profiles on 324 trajectories, 64 exactly tied global optima and a
    worst deviation gain of exactly 0.0.
    """
    model_arg = name
    if name == "random-4":
        monkeypatch.chdir(tmp_path)
        model = random_model(4, horizon=2, num_states=3, obs_sizes=(3, 2), action_sizes=(2, 2))
        model_arg = "random-4.json"
        Path(model_arg).write_text(json.dumps(model_to_dict(model)))
    code, out, _ = run_cli(capsys, "verify", model_arg, "--pbp")
    assert code == 0
    assert out.encode() == (GOLDEN / f"verify-{name}-pbp.json").read_bytes()


def test_verify_a_model_file_from_disk(capsys, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(model_to_dict(identity_model())))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_refuses_a_model_above_the_trajectory_cap(capsys, tmp_path):
    # 9**8 (about 4.3e7) trajectories; the cap is checked before any is built
    model = random_model(0, horizon=8, num_states=3, obs_sizes=(3,), action_sizes=(1,))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(model_to_dict(model)))
    code, out, err = run_cli(capsys, "verify", str(path), "--pbp")
    assert code == 2
    assert out == ""
    assert "43046721 trajectories, above the 10000000 cap" in err


def test_verify_refuses_a_model_whose_path_costs_overflow(capsys, tmp_path):
    """Two stage costs of 1e308 on one action overflow the fsum of a path
    through both: the brute-force sweep refuses the model with exit 2
    before its first block, and the checks without it still run."""
    model = random_model(5, horizon=2, num_states=2, obs_sizes=(2,), action_sizes=(2,))
    data = model_to_dict(model)
    data["stage_costs"][0][0][1] = 1e308
    data["stage_costs"][1][0][1] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(path), "--pbp")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the model's costs can sum past the float range")
    assert "Traceback" not in err
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(pbpsolve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pbpsolve", "verify", "identity"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


# Runs cli.main on its argv in a fresh interpreter and prints the exit code
# and the names in sys.modules afterwards.
_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from pbpsolve import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        (["verify", "identity", "--pbp"], set(), {"scipy"}),
        (["verify", "random42", "--pbp"], set(), {"scipy"}),
        (["baseline", "--k", "1", "--sigma-x", "1", "--method", "wit", "--samples", "1000"],
         set(), {"scipy"}),
        (["curves", "--k", "5", "--sigma-x", "1", "--method", "picard", "--grid-points", "513"],
         set(), {"scipy"}),
        (["solve", "--k", "5", "--sigma-x", "1", "--method", "picard", "--samples", "1000",
          "--grid-points", "513"],
         set(), {"scipy"}),
        (["solve", "--k", "1", "--sigma-x", "1", "--init", "affine", "--samples", "1000"],
         {"scipy.optimize"}, set()),
    ],
    ids=["verify-identity", "verify-random42", "baseline-wit", "curves-picard", "solve-picard",
         "solve"],
)
def test_scipy_is_imported_only_by_the_commands_that_call_it(argv, loaded, not_loaded):
    env = dict(os.environ)
    src = str(Path(pbpsolve.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["code"] == 0
    modules = set(report["modules"])
    assert loaded <= modules
    for name in not_loaded:
        assert not {m for m in modules if m == name or m.startswith(name + ".")}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_output_dir_env_redirects_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PBPSOLVE_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify", "identity", "--out", "sub/report.json")
    assert code == 0
    assert out == ""
    written = tmp_path / "sub" / "report.json"
    assert json.loads(written.read_text())["passed"] is True


def test_absolute_out_ignores_the_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PBPSOLVE_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.json"
    code, _, _ = run_cli(capsys, "verify", "identity", "--out", str(target))
    assert code == 0
    assert target.exists()


def test_timing_flag_embeds_a_number(capsys):
    _, out, _ = run_cli(capsys, "verify", "identity", "--timing")
    doc = json.loads(out)
    assert isinstance(doc["timing"], float) and doc["timing"] > 0.0
    _, out, _ = run_cli(capsys, "verify", "identity")
    assert json.loads(out)["timing"] is None


def test_wall_time_goes_to_stderr(capsys):
    _, _, err = run_cli(capsys, "verify", "identity")
    assert "s" in err and err.strip()
