"""The four workloads: the calls each pass makes into settle, and their checks.

A pass times only the calls into settle (``Tally.call``); every answer is
then checked against a reference that does not come from the call itself:
the golden table, values recorded in ``reference.json``, closed-form
bounds, brute force, or the naive maximality test below.
"""
from __future__ import annotations

import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def load_api():
    """Import settle from the checkout's ``src``; refuse any other copy."""
    import settle
    import settle.cli  # noqa: F401  (set-up cost includes the CLI's imports)

    src = (ROOT / "src").resolve()
    if src not in Path(settle.__file__).resolve().parents:
        raise SystemExit(f"settle was imported from {settle.__file__}, not from {src}")
    return SimpleNamespace(
        solvers=settle.solvers,
        grid=settle.grid,
        bounds=settle.bounds,
        patterns=settle.patterns,
        modelgen=settle.modelgen,
        formats=settle.formats,
    )


class Tally:
    """Time spent in calls into settle, and the checks made on their answers."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - t0

    def check(self, ok: bool, what: str):
        """Count one check; a call that raised is counted as ``check(False, ...)``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def request(api, objective: str, m: int, n: int, boundary=None, *, witness: bool):
    S = api.solvers
    boundary = boundary or api.grid.Boundary.FREE
    make = S.SolveRequest.maximum if objective == "max" else S.SolveRequest.minimum
    return make(m, n, boundary, want_witness=witness)


def solver(api, objective: str):
    """The public solver for an objective, looked up at call time so a
    traced run sees the wrapper."""
    return api.solvers.solve_max if objective == "max" else api.solvers.solve_min_maximal


def naive_maximal(config, bricked: bool) -> bool:
    """Maximality by definition, cell by cell, independent of settle's masks.

    A house is blocked when its east, south and west lots are occupied;
    off-grid lots are empty on a free border and occupied on a bricked one
    (the north border never matters).  Maximal: no house is blocked, and a
    house added on any empty lot would block itself or a neighbour.
    """
    m, n = config.dims.rows, config.dims.cols
    occ = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)
           if config.row_bits[i - 1] >> (j - 1) & 1}

    def occupied(i, j):
        if 1 <= i <= m and 1 <= j <= n:
            return (i, j) in occ
        return bricked and i >= 1

    def blocked(i, j):
        return ((i, j) in occ and occupied(i, j + 1) and occupied(i + 1, j)
                and occupied(i, j - 1))

    if any(blocked(i, j) for i, j in occ):
        return False
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if (i, j) in occ:
                continue
            occ.add((i, j))
            stuck = any(blocked(a, b) for a, b in ((i, j), (i, j - 1), (i, j + 1), (i - 1, j)))
            occ.discard((i, j))
            if not stuck:
                return False
    return True


def check_witness(api, tally: Tally, res, label: str):
    w = res.witness
    ok = (w is not None and w.dims == res.dims and w.occupancy() == res.optimum
          and naive_maximal(w, res.dims.boundary is api.grid.Boundary.BRICKED))
    tally.check(ok, f"{label}: witness is not a maximal configuration of the optimum")


def check_value(api, tally: Tally, objective: str, value, m: int, n: int, label: str):
    """E(m, n) lies between the best maximal pattern's occupancy and the
    row-recurrence bound; I(m, n) equals the sharp lower-bound formula."""
    if objective == "max":
        P = api.patterns
        best = max(P.pattern_occupancy(kind, m, n) for kind in P.PatternKind)
        ok = value is not None and best <= value <= api.bounds.r_recurrence(m, n)
        tally.check(ok, f"{label}: E({m},{n}) = {value} outside pattern..recurrence bounds")
    else:
        expect = api.bounds.i_lower_bound(m, n)
        tally.check(value == expect, f"{label}: I({m},{n}) = {value}, formula gives {expect}")


# -- workloads -----------------------------------------------------------------
#
# Each workload class names itself and carries its own settings:
#
# - ``setup``: (objective, width) of the smallest solves (2 rows) that build
#   the solver tables at the widest width the workload reaches with that
#   objective.  Run cold, they are part of set-up.
# - ``pass_s``: nominal seconds of one pass at the commit that added the
#   benchmark.  A run makes max(1, --seconds // pass_s) passes, the same
#   number on every commit.
# - ``probes``: (objective, rows, cols) of the traced run's differential probes.


class TableSweep:
    """Whole tables without witnesses: many small and medium solves."""

    name = "table-sweep"
    setup = [("max", 20), ("min", 10)]
    pass_s = 13
    probes = [("max", 16, 20), ("min", 10, 10)]

    def __init__(self, api, ref: dict, seed: int):
        self.golden = json.loads((ROOT / "golden" / "table5.json").read_text())
        self.recorded = ref["table-sweep"]["max_cols_17_20"]

    def run(self, api, tally: Tally):
        S = api.solvers
        top = tally.call(S.table, S.Objective.MAX_PERMISSIBLE, range(2, 17), range(2, 21))
        low = tally.call(S.table, S.Objective.MIN_MAXIMAL, range(2, 11), range(2, 11))
        tally.check(not top["errors"] and not low["errors"], "table reported errors")
        gold_rows, gold_cols = self.golden["rows"], self.golden["cols"]
        for a, m in enumerate(top["rows"]):
            for b, n in enumerate(top["cols"]):
                value = top["values"][a][b]
                if m in gold_rows and n in gold_cols:
                    expect = self.golden["values"][gold_rows.index(m)][gold_cols.index(n)]
                    tally.check(value == expect, f"max table ({m},{n}) = {value}, golden {expect}")
                    continue
                check_value(api, tally, "max", value, m, n, "max table")
                rec = self.recorded
                expect = rec["values"][rec["rows"].index(m)][rec["cols"].index(n)]
                tally.check(value == expect, f"max table ({m},{n}) = {value}, recorded {expect}")
        for a, m in enumerate(low["rows"]):
            for b, n in enumerate(low["cols"]):
                check_value(api, tally, "min", low["values"][a][b], m, n, "min table")


class WideSolve:
    """One large square solve of ``objective`` with a witness."""

    name: str
    objective: str
    size: int

    def __init__(self, api, ref: dict, seed: int):
        self.expect = ref[self.name]["optimum"]

    def run(self, api, tally: Tally):
        o, m = self.objective, self.size
        res = tally.call(solver(api, o), request(api, o, m, m, witness=True))
        tally.check(res.optimum == self.expect, f"{o} {m}x{m} = {res.optimum}, recorded {self.expect}")
        check_value(api, tally, o, res.optimum, m, m, self.name)
        check_witness(api, tally, res, self.name)


class MaxWide(WideSolve):
    """The subset-transform kernel plus witness capture, as ``settle solve
    --json`` runs it."""

    name, objective, size = "max-wide", "max", 23
    setup = [("max", 23)]
    pass_s = 20
    probes = [("max", 23, 23)]


class MinWide(WideSolve):
    """The pair-state DP: gather, superset fold and pair-table build."""

    name, objective, size = "min-wide", "min", 12
    setup = [("min", 12)]
    pass_s = 18
    probes = [("min", 12, 12)]


class OracleSmall:
    """Verification traffic over every layer; the seed orders the instances.

    The widest grids are 1 x 20: the max solver and the single-row min solver
    build width-20 state tables for them, while two-row min solves (pair
    tables) reach width 10.  The state-table cache holds 8 (width, border)
    entries, so the 40 combinations a pass visits still rebuild some tables.
    """

    name = "oracle-small"
    setup = [("max", 20), ("min", 10)]
    pass_s = 9
    probes: list[tuple[str, int, int]] = []

    def __init__(self, api, ref: dict, seed: int):
        B, P = api.grid.Boundary, api.patterns.PatternKind
        grids = [(m, n) for m in range(1, 21) for n in range(1, 21) if 2 <= m * n <= 20]
        models = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
        self.instances = (
            [("oracle", m, n, b, obj) for b in B for m, n in grids for obj in ("max", "min")]
            + [("ip", m, n) for m, n in models]
            + [("pattern", kind, m, n) for kind in P for m in range(2, 41) for n in range(2, 41)]
            + [("bounds", m, n) for m in range(2, 17) for n in range(2, 17)]
        )
        random.Random(seed).shuffle(self.instances)
        self.golden_lp = {
            "max": (ROOT / "golden" / "efficient_3x4.lp").read_text(),
            "min": (ROOT / "golden" / "inefficient_3x4.lp").read_text(),
        }

    def run(self, api, tally: Tally):
        handlers = {"oracle": self._oracle, "ip": self._ip,
                    "pattern": self._pattern, "bounds": self._bounds}
        for inst in self.instances:
            try:
                handlers[inst[0]](api, tally, *inst[1:])
            except Exception as exc:  # a raised call counts as a failed answer
                tally.check(False, f"{inst}: {type(exc).__name__}: {exc}")

    def _oracle(self, api, tally, m, n, boundary, objective):
        req = request(api, objective, m, n, boundary, witness=True)
        label = f"oracle {objective} {m}x{n} {boundary.value}"
        brute = tally.call(api.solvers.brute_force, req)
        res = tally.call(solver(api, objective), req)
        tally.check(brute.optimum == res.optimum,
                    f"{label}: brute force {brute.optimum}, solver {res.optimum}")
        for found in (brute, res):
            check_witness(api, tally, found, label)
            tally.check(tally.call(found.witness.is_maximal), f"{label}: is_maximal is False")
        F = api.formats
        text = tally.call(F.render, res.witness)
        back = tally.call(F.parse_grid, text, boundary)
        tally.check(back == res.witness, f"{label}: render/parse_grid round trip differs")
        # The structural lemmas are stated for open borders and m, n >= 2; at
        # n = 1 two rows cannot hold the n + 2 houses the audit asks for.
        if boundary is api.grid.Boundary.FREE and m >= 2 and n >= 2:
            report = tally.call(api.bounds.audit_structural_lemmas, res.witness)
            tally.check(api.bounds.audit_passed(report), f"{label}: structural audit failed")

    def _ip(self, api, tally, m, n):
        G = api.modelgen
        for objective, export in (("max", G.export_efficient), ("min", G.export_inefficient)):
            label = f"ip {objective} {m}x{n}"
            model = tally.call(export, m, n)
            lp = tally.call(G.to_lp, model)
            if (m, n) == (3, 4):
                tally.check(lp == self.golden_lp[objective], f"{label}: LP text differs from golden")
            optimum = tally.call(G.enumerate_model_optimum, model)
            res = tally.call(solver(api, objective), request(api, objective, m, n, witness=False))
            tally.check(optimum == res.optimum, f"{label}: model {optimum}, solver {res.optimum}")

    def _pattern(self, api, tally, kind, m, n):
        P = api.patterns
        label = f"pattern {kind.value} {m}x{n}"
        config = tally.call(P.generate_pattern, kind, m, n)
        tally.check(config.occupancy() == P.pattern_occupancy(kind, m, n),
                    f"{label}: occupancy differs from closed form")
        tally.check(tally.call(config.is_maximal), f"{label}: not maximal")

    def _bounds(self, api, tally, m, n):
        Bd = api.bounds
        r = tally.call(Bd.bounds_report, m, n)
        chain = (r.crude_lower, r.i_lower, r.e_upper_recurrence, r.e_upper_block, r.crude_upper)
        tally.check(r.i_lower == Bd.i_lower_bound(m, n)
                    and r.e_upper_recurrence == Bd.r_recurrence(m, n)
                    and all(a <= b for a, b in zip(chain, chain[1:])),
                    f"bounds {m}x{n}: report {r.as_dict()} inconsistent")


WORKLOADS = {w.name: w for w in (TableSweep, MaxWide, MinWide, OracleSmall)}
