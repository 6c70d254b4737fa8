"""Output checker: decides whether one operation failed.

A failure is a broken contract, never a changed number.  A lower (or higher)
payoff, a different level vector or a solve that no longer converges is not a
failure by itself; an operation fails only when

- it raises, or it exits 2 (configuration error);
- its exit code contradicts its own document (``converged`` against exit
  0/1 for solve, ``passed`` against exit 0/1 for verify);
- its document fails ``docs/result-schema.json`` or
  ``docs/verify-schema.json``;
- a collocation (``ghq``) document reports ``converged`` with
  ``residual_norm > tol``.  Picard documents are exempt: their ``converged``
  is the grid iteration's step test, and their ``residual_norm`` is the
  collocation residual of the interpolated grid strategy, a different
  quantity (3e-9 to 1.5e-4 at the contracting points);
- its quadrature and Monte Carlo totals differ by more than five Monte Carlo
  standard errors;
- a verify check does not pass, or the exact ``identity`` model reports an
  error other than exactly 0.0;
- a model that must be rejected (``corrupted``) is not rejected with exit 1
  and an ``error`` field.

Each check returns ``(reason, success)``: ``reason`` is None when the
operation is correct, ``success`` is the document's own ``converged`` or
``passed`` claim (None when the document makes none).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

MC_SIGMAS = 5.0
DEFAULT_SOLVE_TOL = 1e-10
CSV_HEADER = "x,gamma1bar,y,gamma2"


class Checker:
    def __init__(self, docs_dir: Path) -> None:
        self._result = _validator(docs_dir / "result-schema.json")
        self._verify = _validator(docs_dir / "verify-schema.json")

    def check_cli(self, argv: list[str], code: int, out: str, err: str, expect: str = "ok"):
        """Check one ``pbpsolve`` invocation from its exit code and output."""
        if code == 2:
            return f"exit 2: {err.strip()[-200:]}", None
        if code not in (0, 1):
            return f"unexpected exit code {code}", None
        sub = argv[0]
        if sub == "curves":
            return _check_curves(code, out, err), None
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"stdout is not a JSON document: {exc}", None
        if sub == "verify":
            return self._check_verify(code, doc, expect), doc.get("passed")
        return self._check_result(code, doc), doc.get("converged")

    def _check_result(self, code: int, doc: dict) -> str | None:
        problem = _schema_problem(self._result, doc)
        if problem:
            return problem
        if doc["converged"] is not None and doc["converged"] != (code == 0):
            return f"converged={doc['converged']} but exit {code}"
        if doc["converged"] is None and code != 0:
            return f"baseline document but exit {code}"
        if (doc["method"] == "ghq" and doc["converged"]
                and not doc["residual_norm"] <= DEFAULT_SOLVE_TOL):
            return f"converged with residual_norm {doc['residual_norm']!r} > tol"
        quad, mc = doc["payoff"]
        return check_payoff_agreement(quad, mc)

    def _check_verify(self, code: int, doc: dict, expect: str) -> str | None:
        problem = _schema_problem(self._verify, doc)
        if problem:
            return problem
        if doc["passed"] != (code == 0):
            return f"passed={doc['passed']} but exit {code}"
        if expect == "model_error":
            if code != 1 or "error" not in doc:
                return "invalid model was not rejected with exit 1 and an error field"
            return None
        if "error" in doc:
            return f"valid model rejected: {doc['error']}"
        for block in ("martingale", "payoff", "pbp"):
            if doc[block] is None or not doc[block]["passed"]:
                return f"{block} check did not pass"
        if doc["model"] == "identity":
            errors = (doc["martingale"]["conditional_error"],
                      doc["martingale"]["unit_mean_error"],
                      doc["payoff"]["difference"])
            if any(e != 0.0 for e in errors):
                return f"identity model errors {errors} are not exactly 0.0"
        return None

    @staticmethod
    def check_report(report, tol: float):
        """Check one library ``SolveReport``."""
        if report.converged and not report.residual_norm <= tol:
            return f"converged with residual_norm {report.residual_norm!r} > tol", True
        if not all(math.isfinite(float(v)) for v in report.levels.levels):
            return "non-finite levels", report.converged
        return None, report.converged


def check_payoff_agreement(quad: dict, mc: dict) -> str | None:
    """Quadrature and Monte Carlo totals agree within MC_SIGMAS standard errors."""
    if (quad["estimator"], mc["estimator"]) != ("quadrature", "monte-carlo") or mc["std_error"] is None:
        return "payoff blocks are not [quadrature, monte-carlo] with a standard error"
    gap = abs(quad["total"] - mc["total"])
    if not gap <= MC_SIGMAS * mc["std_error"]:
        return (f"quadrature total {quad['total']!r} and Monte Carlo total "
                f"{mc['total']!r} differ by {gap / mc['std_error']:.1f} standard errors")
    return None


def _check_curves(code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"baseline curves exited {code}"
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) < 3:
        return "curves CSV lacks its header or rows"
    for line in lines[1:]:
        try:
            cells = [float(c) for c in line.split(",")]
        except ValueError:
            cells = []
        if len(cells) != 4 or not all(map(math.isfinite, cells)):
            return f"bad curves row {line!r}"
    summary_text = err.split("elapsed:")[0]
    try:
        summary = json.loads(summary_text)
    except json.JSONDecodeError:
        return "curves staircase summary is not JSON"
    if not (isinstance(summary.get("steps"), int) and summary["steps"] >= 1
            and summary.get("shape") in ("linear", "staircase")):
        return "curves staircase summary is malformed"
    return None


def _validator(path: Path):
    schema = json.loads(path.read_text())
    return jsonschema.Draft7Validator(schema)


def _schema_problem(validator, doc) -> str | None:
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is None:
        return None
    return f"schema: {error.message} at {'/'.join(map(str, error.absolute_path))}"
