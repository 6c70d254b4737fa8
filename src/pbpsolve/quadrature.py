"""Gauss-Hermite quadrature: rules that approximate integral f(x) e^{-x^2} dx.

An order-n rule consists of the n roots z_1 < ... < z_n of the physicists'
Hermite polynomial H_n together with positive weights lambda_i such that

    integral f(x) e^{-x^2} dx  ~=  sum_i lambda_i f(z_i),

with equality for every polynomial f of degree <= 2n-1.  Nodes and weights
are obtained from the symmetric-tridiagonal Jacobi matrix of the Hermite
three-term recurrence (off-diagonal entries sqrt(i/2)): its eigenvalues are
the nodes and the weights are sqrt(pi) times the squared first components of
the normalized eigenvectors.  Each node then receives one Newton step on H_n
(using H_n' = 2 n H_{n-1}), and the node/weight vectors are symmetrized so
that z_i = -z_{n+1-i} and lambda_i = lambda_{n+1-i} hold exactly, with the
middle node of an odd-order rule exactly zero.  The sign symmetry is relied
on downstream for exactly equivariant residual evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError

SQRT_PI = math.sqrt(math.pi)

_MAX_ORDER = 64


@dataclass(frozen=True)
class QuadratureRule:
    """An order-n Gauss-Hermite rule for the weight function e^{-x^2}.

    nodes are strictly increasing and symmetric about 0; weights are
    positive, symmetric, and sum to sqrt(pi).  Instances are immutable and
    safe to share across threads; the arrays must not be mutated.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        n = self.order
        if nodes.shape != (n,) or weights.shape != (n,):
            raise ConfigurationError("rule arrays must have length equal to order")
        if np.any(np.diff(nodes) <= 0.0):
            raise ConfigurationError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ConfigurationError("weights must be positive")
        if np.max(np.abs(nodes + nodes[::-1])) > 1e-12:
            raise ConfigurationError("nodes must be symmetric about zero")
        if np.max(np.abs(weights - weights[::-1])) > 1e-12:
            raise ConfigurationError("weights must be symmetric")
        if abs(float(weights.sum()) - SQRT_PI) > 1e-12 * SQRT_PI:
            raise ConfigurationError("weights must sum to sqrt(pi)")
        if n % 2 == 1 and nodes[n // 2] != 0.0:
            raise ConfigurationError("odd-order rule must have an exact zero middle node")


def _hermite_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate H_n(x) and H_n'(x) = 2 n H_{n-1}(x) by the three-term recurrence."""
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev, np.zeros_like(x)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h, 2.0 * n * h_prev


def _christoffel_inverse(n: int, x: np.ndarray) -> np.ndarray:
    """Sum of squares of the first n orthonormal Hermite polynomials at x.

    The Gauss weight at a node is the reciprocal of this sum.  Unlike the
    Jacobi-matrix eigenvector formula, the recurrence keeps full relative
    accuracy for the extreme nodes, whose weights underflow the
    eigensolver's component resolution at high orders.
    """
    h_prev = np.full_like(x, math.pi**-0.25)
    total = h_prev * h_prev
    if n == 1:
        return total
    h = math.sqrt(2.0) * x * h_prev
    total = total + h * h
    for k in range(1, n - 1):
        h, h_prev = (x * h - math.sqrt(k / 2.0) * h_prev) / math.sqrt((k + 1) / 2.0), h
        total = total + h * h
    return total


def build_hermite_rule(order: int) -> QuadratureRule:
    """Construct the order-n Gauss-Hermite rule.

    The Jacobi-matrix eigen-decomposition supplies machine-accurate nodes;
    one Newton polish per node tightens the roots, the weights come from the
    Christoffel function at the polished nodes, and a final symmetrization
    makes the sign symmetry exact.  Deterministic: identical order gives
    bit-identical rules.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigurationError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= _MAX_ORDER:
        raise ConfigurationError(f"order must be in [1, {_MAX_ORDER}], got {order}")
    n = int(order)
    if n == 1:
        return QuadratureRule(1, np.array([0.0]), np.array([SQRT_PI]))

    from scipy.linalg import eigh_tridiagonal

    off_diag = np.sqrt(np.arange(1, n) / 2.0)
    nodes = eigh_tridiagonal(np.zeros(n), off_diag, eigvals_only=True)

    h, dh = _hermite_and_derivative(n, nodes)
    nodes = nodes - h / dh

    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 1.0 / _christoffel_inverse(n, nodes)
    weights = 0.5 * (weights + weights[::-1])
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    return QuadratureRule(n, nodes, weights)


def integrate(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Apply the rule: returns sum_i lambda_i f(z_i).

    f is evaluated once per node and must return a finite value at each one;
    a non-finite value raises NumericError naming the offending node.  The
    weighted terms are accumulated with math.fsum, so sums of exactly
    cancelling symmetric terms (odd integrands) come out exactly zero.
    """
    terms = []
    for i, (z, w) in enumerate(zip(rule.nodes, rule.weights)):
        value = float(f(float(z)))
        if not math.isfinite(value):
            raise NumericError(f"integrand is not finite at node {i} (z={z!r}): {value!r}")
        terms.append(w * value)
    return math.fsum(terms)
