"""Benchmark of settle's exact solvers, end to end and per layer.

    python3 perfbench/run.py --workload max-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; settle is imported from its ``src``.  Each
run starts one fresh single-threaded child process for the workload (see
child.py).  With ``--trace 0`` it then starts a few more fresh children that
only set up, and reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the child also makes a traced pass and the differential
probes, and the per-layer metrics are reported.  Every answer is checked.
The last line of stdout is one JSON object; the exit code is 0 only when
every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-up is timed in the run's child and in 2 set-up-only children
TIME_LIMIT_S = 170.0

THREADS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def run_child(deadline: float, *args: str) -> dict:
    """Run child.py to completion and return its last stdout line, parsed."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREADS_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {' '.join(args)} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(args, deadline: float) -> tuple[dict, dict[str, float]]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        result = run_child(deadline, "--mode", "trace", *common, "--reference", str(args.reference))
        return result, result["metrics"]

    # The run's child is the first child this process waits for, so the
    # children's rusage after it is that child's alone (ru_maxrss included).
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = run_child(deadline, "--mode", "run", *common, "--seconds", str(args.seconds),
                       "--reference", str(args.reference))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    setups = [result["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(deadline, "--mode", "setup", *common)["setup_s"])
    metrics = {
        "wall_s": result["wall_s"],
        "cpu_s": cpu_s(after) - cpu_s(before),
        "peak_rss_mib": after.ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"],
    }
    return result, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="expected answers (a corrupted copy must make the run fail)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result, measured = measure(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
