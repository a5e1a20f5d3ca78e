"""One fresh benchmark process: set-up, passes of one workload, checks.

Started by run.py, never by hand.  Modes:

- ``setup``: import settle.cli and run the workload's cold set-up solves;
  report the set-up time only.
- ``run``: set-up, then untraced passes of the workload filling about
  ``--seconds`` (a fixed number per workload and length, at least one).
- ``trace``: set-up, the differential probes, then an untraced, a traced
  and another untraced pass; report the per-layer metrics and write the spans to
  ``.perfbench/``.

The last line of stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Tally, check_value, check_witness, load_api, request, solver,
)

OUT = HERE.parent / ".perfbench"
SPAN = {"max": "solvers.solve_max", "min": "solvers.solve_min_maximal"}


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def setup(workload):
    """Import the CLI module and build the solver tables, cold.

    Returns (import seconds, {objective: cold set-up solve seconds}).
    """
    t0 = time.perf_counter()
    api = load_api()
    import_s = time.perf_counter() - t0
    cold = {}
    for objective, n in workload.setup:
        _, cold[objective] = timed(solver(api, objective), request(api, objective, 2, n, witness=False))
    return api, import_s, cold


def one_pass(api, work) -> Tally:
    tally = Tally()
    try:
        work.run(api, tally)
    except Exception as exc:  # a raised call fails the pass, not the benchmark
        tally.check(False, f"{type(exc).__name__}: {exc}")
    return tally


def probe(api, tally: Tally, objective: str, m: int, n: int) -> dict[str, float]:
    """Row advance, witness cost and tracemalloc peak of one solve size.

    A row advance is the mean over the m - 2 advances between a 2-row and an
    m-row solve: one m versus m - 1 difference drowns in run-to-run noise.
    The witness cost compares two solves timed without tracemalloc; the
    peak comes from a third solve, with a witness, under tracemalloc.
    """
    fn = solver(api, objective)
    fn(request(api, objective, 2, n, witness=False))  # the tables may have been evicted
    _, t_2 = timed(fn, request(api, objective, 2, n, witness=False))
    full, t_m = timed(fn, request(api, objective, m, n, witness=False))
    res, t_w = timed(fn, request(api, objective, m, n, witness=True))
    tracemalloc.start()
    try:
        traced = fn(request(api, objective, m, n, witness=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    label = f"probe {objective} {m}x{n}"
    tally.check(res.optimum == full.optimum == traced.optimum,
                f"{label}: witness or tracemalloc changed the optimum")
    check_value(api, tally, objective, res.optimum, m, n, label)
    check_witness(api, tally, res, label)
    span = SPAN[objective]
    return {
        f"{span}.row_advance_s": (t_m - t_2) / (m - 2),
        f"{span}.witness_s": t_w - t_m,
        f"{span}.traced_peak_mib": peak / 2**20,
    }


def trace_run(args, api, import_s: float, cold: dict[str, float], work) -> dict:
    metrics: dict[str, float] = {"cli.import_s": import_s}
    for span in SPAN.values():
        for key in ("row_advance_s", "witness_s", "traced_peak_mib", "cold_s"):
            metrics[f"{span}.{key}"] = 0.0
    for objective, n in work.setup:
        _, warm = timed(solver(api, objective), request(api, objective, 2, n, witness=False))
        metrics[f"{SPAN[objective]}.cold_s"] = cold[objective] - warm

    # The probes run first, so both passes start from a warmed-up process.
    checks = Tally()
    for objective, m, n in work.probes:
        try:
            metrics.update(probe(api, checks, objective, m, n))
        except Exception as exc:  # as in one_pass: a raised call is a failed check
            checks.check(False, f"probe {objective} {m}x{n}: {type(exc).__name__}: {exc}")

    # Untraced passes before and after the traced one: a later pass in a
    # process tends to run faster, and the mean of the two cancels that.
    before = one_pass(api, work)
    tracer = Tracer(f"{args.workload}-seed{args.seed}")
    tracer.install()
    try:
        traced = one_pass(api, work)
    finally:
        tracer.uninstall()
    after = one_pass(api, work)
    metrics.update(layer_metrics(tracer.spans))
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - (before.wall + after.wall) / 2
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    tallies = (checks, before, traced, after)
    return {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:20],
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--reference", type=Path, help="expected answers (run and trace modes)")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    api, import_s, cold = setup(workload)
    setup_s = import_s + sum(cold.values())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    ref = json.loads(args.reference.read_text())
    work = workload(api, ref, args.seed)
    if args.mode == "trace":
        print(json.dumps(trace_run(args, api, import_s, cold, work)))
        return

    passes = max(1, int(args.seconds // workload.pass_s))
    tallies = [one_pass(api, work) for _ in range(passes)]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": statistics.median(t.wall for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "errors": [e for t in tallies for e in t.errors][:20],
    }))


if __name__ == "__main__":
    main()
