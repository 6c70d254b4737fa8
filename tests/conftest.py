"""Shared fixtures: expensive solves are done once per session."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pbpsolve import (
    ProblemParams,
    SolveReport,
    StrategyPair,
    solve_signaling_levels,
    solved_pair,
)
from pbpsolve.quadrature import QuadratureRule, build_hermite_rule


@pytest.fixture(scope="session")
def rule7() -> QuadratureRule:
    return build_hermite_rule(7)


@pytest.fixture(scope="session")
def rule20() -> QuadratureRule:
    return build_hermite_rule(20)


@pytest.fixture(scope="session")
def rule40() -> QuadratureRule:
    return build_hermite_rule(40)


@pytest.fixture(scope="session")
def bench_params() -> ProblemParams:
    """The deep-signaling parameter point k=0.2, sigma_x=5, sigma=1."""
    return ProblemParams(k=0.2, sigma=1.0, sigma_x=5.0)


@pytest.fixture(scope="session")
def bench_report(bench_params, rule7) -> SolveReport:
    """Benchmark solve at order 7 from the quantizer start."""
    return solve_signaling_levels(bench_params, rule7, init="quantizer", tol=1e-10)


@pytest.fixture(scope="session")
def bench_pair(bench_report) -> StrategyPair:
    return solved_pair(bench_report)


@pytest.fixture(scope="session")
def bench_atoms(bench_params, bench_report, bench_pair) -> tuple[np.ndarray, StrategyPair]:
    """The collocation points x0_l and the benchmark's n-level solution as a
    pair: gamma1bar runs linearly through the levels at the x0_l, and gamma2
    is the posterior mean of the levels.  The solver solves the
    stationarity conditions of this pair at the x0_l, with the order-7 rule
    in v and over x0; the collocation pair's own gamma1bar is instead the
    exact best response to gamma2."""
    x0 = math.sqrt(2.0) * bench_params.sigma_x * build_hermite_rule(7).nodes
    levels = bench_report.levels.levels
    return x0, StrategyPair(
        gamma1bar=lambda x: np.interp(x, x0, levels), gamma2=bench_pair.gamma2
    )


@pytest.fixture(scope="session")
def unit_params() -> ProblemParams:
    """The near-affine parameter point k=1, sigma_x=1, sigma=1."""
    return ProblemParams(k=1.0, sigma=1.0, sigma_x=1.0)


def sorted_close(values, targets, atol):
    values = np.sort(np.asarray(values, dtype=float))
    targets = np.sort(np.asarray(targets, dtype=float))
    return values.shape == targets.shape and np.all(np.abs(values - targets) <= atol)
