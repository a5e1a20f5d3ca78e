"""Spans around calls into settle's public functions, recorded from outside.

The tracer replaces module attributes (and one method) with wrappers that
time each call.  Nothing under ``src/`` is edited: the wrappers live here
and are removed again by ``uninstall``.  Spans are kept in memory and
written out once, when the benchmark ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (span name, module under settle, attribute).  A dotted attribute names a
# method; grid.is_maximal is traced on the method because the module-level
# function, the solvers' witness validation and the audits all go through it.
TARGETS = [
    ("solvers.solve_max", "solvers", "solve_max"),
    ("solvers.solve_min_maximal", "solvers", "solve_min_maximal"),
    ("solvers.table", "solvers", "table"),
    ("solvers.brute_force", "solvers", "brute_force"),
    ("grid.is_maximal", "grid", "Configuration.is_maximal"),
    ("bounds.audit_structural_lemmas", "bounds", "audit_structural_lemmas"),
    ("bounds.bounds_report", "bounds", "bounds_report"),
    ("patterns.generate_pattern", "patterns", "generate_pattern"),
    ("modelgen.export_efficient", "modelgen", "export_efficient"),
    ("modelgen.export_inefficient", "modelgen", "export_inefficient"),
    ("modelgen.to_lp", "modelgen", "to_lp"),
    ("modelgen.enumerate_model_optimum", "modelgen", "enumerate_model_optimum"),
    ("formats.render", "formats", "render"),
    ("formats.parse_grid", "formats", "parse_grid"),
]

SOLVERS = ("solvers.solve_max", "solvers.solve_min_maximal")


class Tracer:
    """In-memory span recorder; spans of one run share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None,
                    "run": run_id, "start": time.perf_counter()}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            stats = getattr(result, "stats", None)
            if isinstance(stats, dict):
                span["stats"] = {k: stats[k] for k in ("states", "transitions", "wall_s")}
            return result

        return traced

    def install(self):
        """Swap every traced public function for its wrapper, in every settle module."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "settle" or name.startswith("settle.")]
        for span_name, module, attr in TARGETS:
            owner = sys.modules[f"settle.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span_name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(span_name, orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}))


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, n=100); 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.

    ``s`` is inclusive time; ``self_s`` is that minus the time of child spans.
    """
    dur = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    child_time = dict.fromkeys(dur, 0.0)
    for sp in spans:
        if sp["parent"] is not None:
            child_time[sp["parent"]] += dur[sp["id"]]
    by_name: dict[str, list[dict]] = {name: [] for name, _, _ in TARGETS}
    for sp in spans:
        by_name[sp["name"]].append(sp)

    out: dict[str, float] = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = sum(dur[sp["id"]] for sp in group)
        out[f"{name}.self_s"] = sum(dur[sp["id"]] - child_time[sp["id"]] for sp in group)

    for name in SOLVERS + ("solvers.brute_force",):
        stats = [sp["stats"] for sp in by_name[name] if "stats" in sp]
        out[f"{name}.states"] = sum(st["states"] for st in stats)
        out[f"{name}.transitions"] = sum(st["transitions"] for st in stats)
        out[f"{name}.stats_wall_s"] = sum(st["wall_s"] for st in stats)
    for name in SOLVERS:
        out[f"{name}.validate_s"] = out[f"{name}.s"] - out[f"{name}.stats_wall_s"]
        wall = out[f"{name}.stats_wall_s"]
        out[f"{name}.transitions_per_s"] = out[f"{name}.transitions"] / wall if wall else 0.0

    table_ids = {sp["id"] for sp in by_name["solvers.table"]}
    cells = [dur[sp["id"]] for sp in spans
             if sp["name"] in SOLVERS and sp["parent"] in table_ids]
    out["solvers.table.cells"] = len(cells)
    out["solvers.table.cell_p50_s"] = _quantile(cells, 50)
    out["solvers.table.cell_p95_s"] = _quantile(cells, 95)
    out["trace.top_span_s"] = sum(dur[sp["id"]] for sp in spans if sp["parent"] is None)
    return out
