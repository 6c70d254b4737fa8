"""pbpsolve benchmark: one workload per fresh process, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload signaling --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
traced rounds in one process and prints the per-layer metrics, including the
tracing overhead.  ``--workload all`` runs the four workloads in turn and also
prints the metrics that do not suit every workload (``fail_ratio``,
``payoff_total``).  ``--smoke`` shrinks every workload to its smallest size.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run (every
operation's latency, exit code, check result and output sha256, and the run
environment) is written to ``perfbench/out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import OUT_DIR, model_dir_for  # noqa: E402

# Fresh processes that only set up, on top of the measuring one; setup_s is
# the median over all of them.
SETUP_PROBES = 3
# Every run must end well within 180 s.
RUN_DEADLINE_S = 175.0

# The end-to-end metrics of BENCHMARK.json: defined, nonzero and steady on
# every workload.  run_ref_s is run_s at the reference host speed (see
# hostspeed.py); run_s itself follows the host's drift.
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ref_s": "s",
    "peak_rss_mb": "MB",
    "converged_ratio": "ratio",
}
# End-to-end metrics that are printed and recorded but not in BENCHMARK.json:
# run_s spreads with the host's speed by more than any allowed bound,
# op_p50_ms and op_tail_ms are single-operation values on the workloads with
# a dozen or fewer operations a run, fail_ratio is 0 when the program is
# correct, and payoff_total exists only on signaling.  See NOTES.md.
EXTRA_UNITS = {"run_s": "s", "host_factor": "ratio", "op_p50_ms": "ms", "op_tail_ms": "ms",
               "fail_ratio": "ratio", "payoff_total": "cost"}


class BenchError(RuntimeError):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile, as numpy.percentile computes it."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def launch(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return (launch time, its result)."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return launched, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        common.append("--smoke")
    setups = []
    try:
        probes = 0 if trace else (1 if smoke else SETUP_PROBES)
        for _ in range(probes):
            launched, probe = launch([*common, "--setup-only"], deadline - time.monotonic())
            setups.append(probe["ready"] - launched)
        launched, result = launch([*common, "--trace", str(int(trace))],
                                  deadline - time.monotonic())
        setups.append(result["ready"] - launched)
    finally:
        shutil.rmtree(model_dir_for(name, seed), ignore_errors=True)
    return summarize(name, seed, trace, setups, result)


def summarize(name: str, seed: int, trace: bool, setups: list[float], result: dict) -> dict:
    rounds = result["rounds"]
    records = [op for r in rounds for op in r["ops"]]
    failures = [op for op in records if op["failure"]]
    plain = [r for r in rounds if not r["traced"]]
    latencies = [op["latency_s"] for r in plain for op in r["ops"]]
    claims = [op["success"] for op in records
              if op["success"] is not None and op["expect"] == "ok"]
    totals = [op["payoff_total"] for op in records if "payoff_total" in op]
    tail_pct = workloads.TAIL_PERCENTILE[name]

    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "converged_ratio": sum(claims) / max(len(claims), 1),
    }
    extras = {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * percentile(latencies, tail_pct),
        "fail_ratio": len(failures) / len(records),
    }
    if not trace:
        end_to_end["run_ref_s"] = statistics.median(r["run_ref_s"] for r in plain)
        extras["host_factor"] = statistics.median(result["host_factors"])
    if name == "signaling":
        extras["payoff_total"] = statistics.median(totals) if totals else float("nan")
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    digests: dict[str, set] = {}
    for op in records:
        digests.setdefault(op["label"], set()).add(op["sha256"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "tail_percentile": tail_pct,
        "rounds": len(rounds),
        "operations_per_round": len(rounds[0]["ops"]),
        "setup_s_samples": setups,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_run_s": [r["run_s"] for r in rounds],
        "round_run_ref_s": [r.get("run_ref_s") for r in rounds],
        "host_factors": result["host_factors"],
        "end_to_end": end_to_end,
        "extras": extras,
        "environment": result["environment"],
        "inputs": result["inputs"],
        "digests": {label: sorted(d, key=str) for label, d in digests.items()},
        "digests_repeat": all(len(d) == 1 for d in digests.values()),
        "failures": [{"label": op["label"], "failure": op["failure"]} for op in failures],
        "operations": records,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {
        "record": record,
        "result": {"correct": not failures, "attempted": len(records),
                   "failed": len(failures), "metrics": metrics},
    }


def print_report(outcome: dict) -> None:
    record = outcome["record"]
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"rounds {record['rounds']} x {record['operations_per_round']} operations  "
          f"(closed loop, one client)")
    print("  environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in outcome["result"]["metrics"].items():
        print(f"  {key:42s} {m['value']:14.6g} {m['unit']}")
    if not record["trace"]:
        for key, value in record["extras"].items():
            print(f"  {key:42s} {value:14.6g} {EXTRA_UNITS[key]}")
        pct = record["tail_percentile"]
        print(f"  op_tail_ms is the {'maximum' if pct == 100.0 else f'p{pct:g}'} latency "
              f"of {len(record['operations'])} operations")
    print(f"  output digests repeat across rounds: {record['digests_repeat']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure['label']}: {failure['failure']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest size")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that launch() stops its worker first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pbpsolve" / "__init__.py").is_file():
        print(f"error: no pbpsolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                   args.smoke, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(outcome)
        results[name] = outcome["result"]
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
