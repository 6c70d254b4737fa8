"""Gauss-Hermite rule construction against closed-form oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pbpsolve.errors import ConfigurationError, NumericError
from pbpsolve.quadrature import SQRT_PI, QuadratureRule, build_hermite_rule, integrate


def even_moment_exact(power: int) -> float:
    """Closed form of the weighted moment integral for even powers.

    integral z^{2m} exp(-z^2) dz = sqrt(pi) (2m-1)!! / 2^m.
    """
    m = power // 2
    return SQRT_PI * math.prod(range(1, 2 * m, 2)) / 2.0**m


def test_order_two_matches_analytic_roots():
    rule = build_hermite_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-15)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], abs=1e-15)


def test_order_three_matches_analytic_roots():
    rule = build_hermite_rule(3)
    r = math.sqrt(1.5)
    assert rule.nodes == pytest.approx([-r, 0.0, r], abs=1e-15)
    assert rule.weights == pytest.approx(
        [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], abs=1e-14
    )
    assert rule.nodes[1] == 0.0


def test_order_one_is_midpoint():
    rule = build_hermite_rule(1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(SQRT_PI, abs=0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 20, 40, 64])
def test_moments_integrate_exactly_up_to_degree_bound(order):
    rule = build_hermite_rule(order)
    for power in range(2 * order):
        got = integrate(rule, lambda z: z**power)
        exact = 0.0 if power % 2 else even_moment_exact(power)
        assert got == pytest.approx(exact, abs=1e-10 * max(1.0, abs(exact)))


@pytest.mark.parametrize("order", [2, 7, 33, 64])
def test_rule_structure(order):
    rule = build_hermite_rule(order)
    assert rule.order == order
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert math.fsum(rule.weights) == pytest.approx(SQRT_PI, abs=1e-13)
    # symmetry is bitwise by construction
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    if order % 2:
        assert rule.nodes[order // 2] == 0.0


def test_gaussian_expectation_example():
    # E cos(Z) for Z ~ G(0, 1/2) via the weight exp(-z^2)
    rule = build_hermite_rule(40)
    got = integrate(rule, np.cos) / SQRT_PI
    assert got == pytest.approx(math.exp(-0.25), abs=1e-14)


@pytest.mark.parametrize("bad", [0, -3, 65, 2.5, "7", True])
def test_rejected_orders(bad):
    with pytest.raises(ConfigurationError):
        build_hermite_rule(bad)


def test_constructor_validates_arrays():
    rule = build_hermite_rule(4)
    with pytest.raises(ConfigurationError):
        QuadratureRule(order=4, nodes=rule.nodes[::-1].copy(), weights=rule.weights)
    with pytest.raises(ConfigurationError):
        QuadratureRule(order=4, nodes=rule.nodes, weights=-rule.weights)
    with pytest.raises(ConfigurationError):
        QuadratureRule(order=4, nodes=rule.nodes, weights=2.0 * rule.weights)
    with pytest.raises(ConfigurationError):
        QuadratureRule(order=3, nodes=rule.nodes, weights=rule.weights)


def test_integrate_reports_nonfinite_node():
    rule = build_hermite_rule(5)

    def bad(z):
        return math.inf if z == 0.0 else 1.0

    with pytest.raises(NumericError, match="node"):
        integrate(rule, bad)


@pytest.mark.parametrize("order", [2, 7, 20, 40, 64])
def test_rules_match_reference_implementation(order):
    # numpy's hermgauss is an independently written construction of the
    # same rule; nodes and weights must agree to close to full precision.
    ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(order)
    rule = build_hermite_rule(order)
    assert np.max(np.abs(rule.nodes - ref_nodes)) < 1e-13
    assert np.max(np.abs(rule.weights - ref_weights) / ref_weights) < 1e-12


def _tridiagonal_solver_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule as built from SciPy's tridiagonal eigensolver, with the same
    Newton polish, Christoffel weights and symmetrization as the package."""
    from scipy.linalg import eigh_tridiagonal

    from pbpsolve.quadrature import _christoffel_inverse, _hermite_and_derivative

    n = order
    if n == 1:
        return np.array([0.0]), np.array([SQRT_PI])
    off_diag = np.sqrt(np.arange(1, n) / 2.0)
    nodes = eigh_tridiagonal(np.zeros(n), off_diag, eigvals_only=True)
    h, dh = _hermite_and_derivative(n, nodes)
    nodes = nodes - h / dh
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 1.0 / _christoffel_inverse(n, nodes)
    weights = 0.5 * (weights + weights[::-1])
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    return nodes, weights


def test_dense_eigensolver_gives_the_tridiagonal_solvers_rules_bit_for_bit():
    # np.linalg.eigvalsh of the dense Jacobi matrix replaced SciPy's
    # eigh_tridiagonal; after the polish every rule keeps its bits.
    for order in range(1, 65):
        nodes, weights = _tridiagonal_solver_rule(order)
        rule = build_hermite_rule(order)
        assert np.array_equal(rule.nodes, nodes), order
        assert np.array_equal(rule.weights, weights), order
