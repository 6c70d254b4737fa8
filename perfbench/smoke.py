"""The benchmark's own smoke tests.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Checks that every workload runs at its smallest size with every metric of
BENCHMARK.json printed with its unit, that the traced run separates the
layers (``gamma1bar`` queries only on ``signaling``), that the output checker
flags corrupted documents and accepts the ``corrupted`` model's expected
exit 1, and that the benchmark refuses to run without the program's sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checker import Checker  # noqa: E402
from run import EXTRA_UNITS  # noqa: E402
from worker import OUT_DIR  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        check(proc.returncode == 0, f"trace {trace} run exited {proc.returncode}: {proc.stderr[-500:]}")
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(results) == set(workloads.WORKLOADS), "not every workload ran")
        for name, result in results.items():
            check(result["correct"] and result["failed"] == 0, f"{name} failed: {result}")
            check(result["attempted"] >= 1, f"{name} attempted nothing")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"],
                      f"{name} trace {trace} lacks {metric['name']} in {metric['unit']}")
            check(len(result["metrics"]) == len(spec[key]), f"{name} prints extra metrics")
        if trace:
            queries = {n: r["metrics"]["ghq_solver.gamma1bar.queries"]["value"]
                       for n, r in results.items()}
            check(queries["signaling"] > 0, "no gamma1bar queries on signaling")
            check(all(queries[n] == 0 for n in ("sweep", "order", "verify")),
                  f"gamma1bar queried outside signaling: {queries}")
        else:
            for extra, unit in EXTRA_UNITS.items():
                check(f" {extra} " in proc.stdout and unit in proc.stdout,
                      f"{extra} not printed with its unit")


def cli_output(argv: list[str]) -> tuple[int, str, str]:
    from pbpsolve import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_checker() -> None:
    checker = Checker(ROOT / "docs")
    argv = ["solve", "--k", "5", "--sigma-x", "1", "--method", "picard"]
    code, out, err = cli_output(argv)
    check(checker.check_cli(argv, code, out, err)[0] is None, "valid picard document flagged")
    doc = json.loads(out)

    def flagged(mutate, exit_code: int = code, args=argv) -> bool:
        bad = copy.deepcopy(doc)
        mutate(bad)
        return checker.check_cli(args, exit_code, json.dumps(bad), "")[0] is not None

    check(flagged(lambda d: d.pop("levels")), "missing field not flagged")
    check(flagged(lambda d: d.update(converged="yes")), "wrong type not flagged")
    check(flagged(lambda d: None, exit_code=1), "exit 1 with converged=true not flagged")
    check(flagged(lambda d: d["payoff"][1].update(total=d["payoff"][0]["total"] + 1.0)),
          "quadrature/Monte Carlo disagreement not flagged")
    check(flagged(lambda d: d.update(method="ghq", residual_norm=1.0)),
          "converged with residual_norm > tol not flagged")
    check(checker.check_cli(argv, 2, "", "error: bad")[0] is not None, "exit 2 not flagged")
    check(checker.check_cli(argv, 0, "not json", "")[0] is not None, "non-JSON stdout not flagged")

    for name in ("identity", "corrupted"):
        vargv = ["verify", name, "--pbp"]
        vcode, vout, verr = cli_output(vargv)
        expect = "model_error" if name == "corrupted" else "ok"
        check(checker.check_cli(vargv, vcode, vout, verr, expect)[0] is None,
              f"{name} verify flagged")
        vdoc = json.loads(vout)
        if name == "corrupted":
            check(vcode == 1, "corrupted model did not exit 1")
            check(checker.check_cli(vargv, vcode, vout, verr, "ok")[0] is not None,
                  "rejected valid-model expectation not flagged")
            continue
        bad = copy.deepcopy(vdoc)
        bad["martingale"]["conditional_error"] = 1e-17
        check(checker.check_cli(vargv, vcode, json.dumps(bad), "")[0] is not None,
              "nonzero identity error not flagged")
        bad = copy.deepcopy(vdoc)
        bad["pbp"]["passed"] = False
        bad["passed"] = False
        check(checker.check_cli(vargv, 1, json.dumps(bad), "")[0] is not None,
              "failed pbp check not flagged")

    cargv = ["curves", "--k", "1", "--sigma-x", "1", "--method", "affine"]
    ccode, cout, cerr = cli_output(cargv)
    check(checker.check_cli(cargv, ccode, cout, cerr)[0] is None, "valid curves flagged")
    rows = cout.splitlines()
    rows[1] = "0,nan,0,0"
    check(checker.check_cli(cargv, ccode, "\n".join(rows), cerr)[0] is not None,
          "corrupted curves row not flagged")


def check_refuses_without_sources() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "signaling", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        check(proc.returncode != 0, "benchmark ran without the program's sources")
        check("{" not in proc.stdout, "benchmark printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checker()
    check_refuses_without_sources()
    check_runs(spec)
    print("smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
