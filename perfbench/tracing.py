"""Span tracing of pbpsolve's layers from outside the package.

The traced run replaces public functions of the six layer modules by timing
wrappers, patching every ``pbpsolve`` module attribute that refers to the
original function (so ``cli.payoff_mc`` and ``counterexample.payoff_mc`` are
both wrapped).  Pairs returned by ``collocation_pair`` get a wrapped
``gamma1bar`` that also counts its queries.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples and are written out at exit.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, public function) pairs wrapped in the traced run.
TRACED = (
    ("quadrature", "build_hermite_rule"),
    ("counterexample", "payoff_mc"),
    ("counterexample", "payoff_quadrature"),
    ("ghq_solver", "solve_signaling_levels"),
    ("ghq_solver", "residual_system"),
    ("ghq_solver", "summarize_staircase"),
    ("ghq_solver", "collocation_pair"),
    ("fixed_point", "apply_F"),
    ("fixed_point", "picard_iterate"),
    ("measure_change", "brute_force_pbp"),
    ("measure_change", "expected_cost"),
    ("measure_change", "verify_martingale"),
    ("measure_change", "payoff_equivalence"),
)
GAMMA1BAR = "ghq_solver.gamma1bar"
CLI_MAIN = "cli.main"

# Span name -> which of calls / s / self_s is reported.
PER_LAYER_SPANS = {
    GAMMA1BAR: ("s",),
    "counterexample.payoff_mc": ("s", "self_s"),
    "counterexample.payoff_quadrature": ("calls", "s", "self_s"),
    "ghq_solver.solve_signaling_levels": ("calls", "s", "self_s"),
    "ghq_solver.residual_system": ("calls", "s"),
    "ghq_solver.summarize_staircase": ("s",),
    "fixed_point.apply_F": ("calls", "s"),
    "fixed_point.picard_iterate": ("s",),
    "measure_change.brute_force_pbp": ("s",),
    "measure_change.expected_cost": ("calls", "s"),
    "measure_change.verify_martingale": ("s",),
    "measure_change.payoff_equivalence": ("s",),
    "quadrature.build_hermite_rule": ("calls", "s"),
}


class Tracer:
    """In-memory span recorder with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, pbpsolve) -> None:
        """Patch the TRACED functions wherever pbpsolve's modules hold them."""
        modules = [pbpsolve] + [
            m for key, m in sys.modules.items() if key.startswith("pbpsolve.")
        ]
        for module_name, attr in TRACED:
            original = getattr(getattr(pbpsolve, module_name), attr)
            name = f"{module_name}.{attr}"
            if attr == "payoff_mc":
                wrapped = self._payoff_mc_wrapper(name, original)
            elif attr == "collocation_pair":
                wrapped = self._pair_wrapper(name, original)
            else:
                wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _payoff_mc_wrapper(self, name: str, fn):
        def traced(params, pair, samples, *args, **kwargs):
            self.counts[f"{name}.samples"] += samples
            return self.call(name, fn, params, pair, samples, *args, **kwargs)
        return traced

    def _pair_wrapper(self, name: str, fn):
        def gamma1bar_of(inverter):
            def traced(x0):
                self.counts[f"{GAMMA1BAR}.queries"] += np.size(x0)
                return self.call(GAMMA1BAR, inverter, x0)
            return traced

        def traced_pair(levels):
            pair = self.call(name, fn, levels)
            return dataclasses.replace(pair, gamma1bar=gamma1bar_of(pair.gamma1bar))
        return traced_pair

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, dict]:
    """Per-layer metrics per traced round, named as in BENCHMARK.json."""
    t = tracer.totals()
    counts = tracer.counts

    def get(span: str, key: str) -> float:
        return t[span][key] if span in t else 0.0

    values = {}
    for span, keys in PER_LAYER_SPANS.items():
        for key in keys:
            values[f"{span}.{key}"] = get(span, key)
    queries = counts.get(f"{GAMMA1BAR}.queries", 0.0)
    values[f"{GAMMA1BAR}.queries"] = queries
    values["counterexample.payoff_mc.samples"] = counts.get("counterexample.payoff_mc.samples", 0.0)
    values["cli.self_s"] = get(CLI_MAIN, "self_s")
    metrics = {name: {"value": v / rounds, "unit": _unit(name)} for name, v in values.items()}
    metrics[f"{GAMMA1BAR}.us_per_query"] = {
        "value": 1e6 * get(GAMMA1BAR, "s") / queries if queries else 0.0, "unit": "us"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def _unit(name: str) -> str:
    return "count" if name.endswith((".calls", ".queries", ".samples")) else "s"
