"""One workload process: set up, report when ready, run rounds, report.

Started by ``run.py`` in a fresh interpreter.  Set-up is importing pbpsolve
from the checkout's ``src`` and generating the workload's inputs; the
process then records ``time.monotonic()`` (a system-wide clock, so the parent
can subtract its own launch time).  With ``--setup-only`` it stops there.

Otherwise it runs whole rounds of the workload, one operation at a time,
until another round would end after ``--seconds`` (at least one round).  With
``--trace 0`` host-speed probes (``hostspeed.py``) run alongside, and each
operation's time is also recorded at the reference speed.  With ``--trace 1``
rounds alternate untraced and traced, at least one of each, the per-layer
metrics come from the traced rounds, and no probes run.  The last line of
stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def model_dir_for(workload: str, seed: int) -> Path:
    return OUT_DIR / "models" / f"{workload}-{seed}"


def run_op(op, cli, checker, tracer, speed) -> dict:
    """Run one operation, timed, then check its output (untimed)."""
    out, err = io.StringIO(), io.StringIO()
    code, report, raised = None, None, None
    start = time.perf_counter()
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = tracer.call("cli.main", cli.main, op.argv) if tracer else cli.main(op.argv)
                except SystemExit as exc:  # argparse rejects an argument list with exit 2
                    code = exc.code if isinstance(exc.code, int) else 2
        else:
            report = tracer.call("op", op.call) if tracer else op.call()
    except Exception as exc:  # an operation that raises is a failed operation
        raised = f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()

    record = {"label": op.label, "start": start, "end": end, "code": code,
              "latency_s": end - start - (speed.busy(start, end) if speed else 0.0)}
    if raised:
        record.update(failure=raised, success=None, sha256=None)
    elif op.argv is not None:
        text = out.getvalue()
        failure, success = checker.check_cli(op.argv, code, text, err.getvalue(), op.expect)
        record.update(failure=failure, success=success,
                      sha256=hashlib.sha256(text.encode()).hexdigest())
        if op.argv[0] == "solve" and failure is None:
            record["payoff_total"] = json.loads(text)["payoff"][0]["total"]
    else:
        failure, success = checker.check_report(report, op.tol)
        canonical = json.dumps({
            "converged": report.converged, "init": report.init,
            "iterations": report.iterations, "levels": [float(v) for v in report.levels.levels],
            "residual_norm": report.residual_norm,
        }, sort_keys=True)
        record.update(failure=failure, success=success,
                      sha256=hashlib.sha256(canonical.encode()).hexdigest())
    record["expect"] = op.expect
    return record


def blas_threads() -> int | None:
    """Thread count of NumPy's bundled OpenBLAS, when it can be queried."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    src = ROOT / "src" / "pbpsolve"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "src_pbpsolve_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import pbpsolve
    from pbpsolve import cli

    import workloads

    # Model files are named relative to the checkout (the working directory),
    # so verify documents and their digests do not depend on its location.
    model_dir = model_dir_for(args.workload, args.seed)
    model_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.smoke, pbpsolve,
                               model_dir.relative_to(ROOT))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import checker as checker_mod
    import hostspeed
    import tracing

    checker = checker_mod.Checker(ROOT / "docs")
    tracer = tracing.Tracer() if args.trace else None
    speed = None if args.trace else hostspeed.HostSpeed()
    rounds: list[dict] = []
    op_index = 0
    if speed:
        speed.start()
    try:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                tracer.install(pbpsolve)
            round_start = time.perf_counter()
            records = []
            for op in workload.ops:
                if traced:
                    tracer.op = op_index
                records.append(run_op(op, cli, checker, tracer if traced else None, speed))
                op_index += 1
            wall = time.perf_counter() - round_start
            if traced:
                tracer.uninstall()
            rounds.append({"traced": traced, "wall_s": wall, "ops": records,
                           "run_s": sum(r["latency_s"] for r in records)})

            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall_s"] for r in rounds)
            if (not args.trace or len(rounds) >= 2) and elapsed + typical > args.seconds:
                break
    finally:
        if speed:
            speed.stop()
    if speed:
        # Each operation's factor comes from the probes on both sides of it.
        for r in rounds:
            for record in r["ops"]:
                record["host_factor"] = speed.factor(record["start"], record["end"])
                record["ref_latency_s"] = record["latency_s"] / record["host_factor"]
            r["run_ref_s"] = sum(record["ref_latency_s"] for record in r["ops"])

    result = {
        "ready": ready,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_factors": [f for _, _, f in speed.probes] if speed else [],
        "environment": environment(),
        "inputs": workload.inputs,
    }
    if tracer:
        plain = [r["run_s"] for r in rounds if not r["traced"]]
        traced_runs = [r["run_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(traced_runs) - statistics.median(plain)
        result["per_layer"] = tracing.per_layer_metrics(tracer, len(traced_runs), overhead)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
