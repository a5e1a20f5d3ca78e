"""Print every metric of every workload by name and unit; optionally save it.

    python3 perfbench/report.py [--seed0 1] [--out FILE]

For each workload this makes RUNS untraced runs of run.py, with seeds
seed0, seed0+1, ..., and prints the median, quartiles and spread
((q3 - q1) / median) of each end-to-end metric; then one traced run with
seed0, whose per-layer metrics it prints.  ``--out`` writes the same
numbers as JSON, with the machine facts and the layer-to-end-to-end mapping
below; perfbench/baseline.json was written this way.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# Which end-to-end metric each per-layer metric is expected to move, and on
# which workload.
LAYER_MOVES = {
    "solvers.solve_max.{calls,s,self_s,stats_wall_s,states,transitions,transitions_per_s}":
        "wall_s on max-wide and table-sweep",
    "solvers.solve_max.validate_s": "wall_s on max-wide, table-sweep and oracle-small",
    "solvers.solve_max.row_advance_s":
        "wall_s on max-wide; times the number of row advances, wall_s on table-sweep",
    "solvers.solve_max.witness_s": "wall_s and peak_rss_mib on max-wide only",
    "solvers.solve_max.cold_s": "setup_s on max-wide; wall_s on table-sweep, where tables are rebuilt",
    "solvers.solve_max.traced_peak_mib": "peak_rss_mib on max-wide",
    "solvers.solve_min_maximal.*":
        "as solve_max, on min-wide and the min half of table-sweep",
    "solvers.table.{s,self_s,cells,cell_p50_s,cell_p95_s}": "wall_s on table-sweep",
    "solvers.brute_force.{calls,s,states}": "wall_s on oracle-small",
    "grid.is_maximal, bounds.*, patterns.generate_pattern, modelgen.*, formats.*":
        "wall_s on oracle-small",
    "cli.import_s": "setup_s on every workload",
    "trace.{overhead_s,wall_s,top_span_s}":
        "none: traced wall_s minus untraced wall_s, and the share the top-level spans cover",
}


def machine() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return facts


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}: {result}")
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "layer_moves": LAYER_MOVES, "workloads": {}}
    for w in spec["workloads"]:
        runs = [bench(w["name"], args.seed0 + i, spec["run_seconds"], 0) for i in range(RUNS)]
        e2e = {}
        print(f"== {w['name']}: {RUNS} untraced runs")
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            e2e[m["name"]] = {"unit": m["unit"], **s}
            flag = "" if m["name"] == "setup_s" or s["spread"] <= bounds[m["name"]] / 3 else "  WIDE"
            print(f"  {m['name']:<14} median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f} "
                  f"(bound {bounds[m['name']]}){flag}")
        traced = bench(w["name"], args.seed0, spec["run_seconds"], 1)
        print(f"== {w['name']}: traced run, seed {args.seed0}")
        for name, metric in traced["metrics"].items():
            print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
        report["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": [r["attempted"] for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
