"""Exact extremal solvers and the brute-force oracle.

The maximum solver advances a value function over single-row profiles with a
subset-indexed maximum transform (cost ~ n·2^n per row).  The minimum solver
runs over ordered (row above, current row) pairs, folding the row-above axis
with a superset-indexed minimum transform so each advance also costs a
transform instead of 4^n transitions per pair.  Both share the row mask
algebra from the rows module, evaluated on whole numpy arrays of states.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import LimitError, SettleError
from .grid import Boundary, Configuration, Dims
from .rows import (
    bit_reverse,
    covered_mask,
    full_mask,
    prop_center_mask,
    prop_east_mask,
    prop_west_mask,
    triple_mask,
)


class Objective(Enum):
    MAX_PERMISSIBLE = "max"
    MIN_MAXIMAL = "min"


@dataclass(frozen=True)
class Limits:
    """Resource caps for a solve call.

    Column caps keep the state spaces (2^n profiles for the maximum solver,
    4^n profile pairs for the minimum solver) within memory; single-row
    grids are enumerated directly and only need the wider max_cols cap.
    """

    max_cols: int = 24
    max_cols_pairs: int = 12
    max_state_bytes: int = 3 << 30
    max_wall_s: float | None = None


@dataclass(frozen=True)
class SolveRequest:
    dims: Dims
    objective: Objective
    want_witness: bool = True
    limits: Limits = field(default_factory=Limits)

    @classmethod
    def maximum(cls, m: int, n: int, boundary: Boundary = Boundary.FREE, *,
                want_witness: bool = True, limits: Limits | None = None) -> SolveRequest:
        return cls(Dims(m, n, boundary), Objective.MAX_PERMISSIBLE,
                   want_witness, limits or Limits())

    @classmethod
    def minimum(cls, m: int, n: int, boundary: Boundary = Boundary.FREE, *,
                want_witness: bool = True, limits: Limits | None = None) -> SolveRequest:
        return cls(Dims(m, n, boundary), Objective.MIN_MAXIMAL,
                   want_witness, limits or Limits())


@dataclass(frozen=True)
class SolveResult:
    """Exact optimum with an optional witness.

    stats: "states" is the number of DP states materialized, "transitions"
    the number of elementwise updates performed by the subset/superset
    transforms, "wall_s" the elapsed time.
    """

    dims: Dims
    objective: Objective
    optimum: int
    witness: Configuration | None
    stats: dict


def _check_wall(t0: float, limits: Limits):
    if limits.max_wall_s is not None and time.perf_counter() - t0 > limits.max_wall_s:
        raise LimitError(f"wall time cap of {limits.max_wall_s}s exceeded")


def _validate_witness(result: SolveResult):
    w = result.witness
    if w is None:
        return
    if w.occupancy() != result.optimum or not w.is_maximal():
        raise SettleError(
            f"internal error: witness for {result.dims.rows}x{result.dims.cols} "
            f"{result.objective.value} fails validation"
        )


@lru_cache(maxsize=8)
def _state_tables(n: int, bricked: bool):
    """Per-state masks shared by solver calls of equal width and border."""
    states = np.arange(1 << n, dtype=np.uint32)
    tb = triple_mask(states, n, bricked).astype(np.uint32)
    order = np.argsort(tb, kind="stable").astype(np.intp)
    tb_sorted = tb[order]
    starts = np.flatnonzero(np.r_[True, tb_sorted[1:] != tb_sorted[:-1]])
    group_keys = tb_sorted[starts].astype(np.intp)
    pc = np.bitwise_count(states).astype(np.int64)
    rev = bit_reverse(states, n).astype(np.int64)
    return states, tb, order, starts, group_keys, pc, rev


def _subset_max_inplace(z: np.ndarray, n: int):
    """z[k] := max over k' ⊆ k of z[k'], along axis 0."""
    tail = z.shape[1:]
    for b in range(n):
        view = z.reshape(-1, 2, 1 << b, *tail)
        np.maximum(view[:, 1], view[:, 0], out=view[:, 1])


def _superset_min_inplace(z: np.ndarray, n: int):
    """z[k] := min over k' ⊇ k of z[k'], along axis 0."""
    tail = z.shape[1:]
    for b in range(n):
        view = z.reshape(-1, 2, 1 << b, *tail)
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])


def solve_max(req: SolveRequest) -> SolveResult:
    """Exact maximum occupancy over permissible configurations, with witness."""
    if req.objective is not Objective.MAX_PERMISSIBLE:
        raise ValueError("solve_max requires the max objective")
    limits = req.limits
    m, n = req.dims.rows, req.dims.cols
    bricked = req.dims.boundary is Boundary.BRICKED
    if n > limits.max_cols:
        raise LimitError(f"cols {n} over the configured cap {limits.max_cols}")
    size = 1 << n
    need = size * 56 + (size * 4 * (m - 1) if req.want_witness else 0)
    if need > limits.max_state_bytes:
        raise LimitError(
            f"estimated state space of {need} bytes over cap {limits.max_state_bytes}"
        )
    t0 = time.perf_counter()
    states, tb, order, starts, group_keys, pc, rev = _state_tables(n, bricked)
    full = full_mask(n)

    value = pc.copy()  # row 1: any profile, value = its occupancy
    preds: list[np.ndarray] = []
    for _ in range(2, m + 1):
        packed = (value << n) | rev
        grouped = np.maximum.reduceat(packed[order], starts)
        z = np.full(size, -1, dtype=np.int64)
        z[group_keys] = grouped
        _subset_max_inplace(z, n)
        # A lower row r admits upper rows u with triple(u) ⊆ complement(r);
        # indexing the transform at full-r is exactly that complement.
        zc = z[::-1]
        value = pc + (zc >> n)
        if req.want_witness:
            preds.append(bit_reverse((zc & full).astype(np.uint32), n))
        _check_wall(t0, limits)

    final = (value << n) | rev
    if bricked:
        # the virtual south row is occupied, so the last row must hold no
        # east-west-flanked house
        final = np.where(tb == 0, final, np.int64(-1))
    best = int(np.argmax(final))
    optimum = int(value[best])

    witness = None
    if req.want_witness:
        rows_rev = [best]
        cur = best
        for pred in reversed(preds):
            cur = int(pred[cur])
            rows_rev.append(cur)
        witness = Configuration(req.dims, tuple(reversed(rows_rev)))
    result = SolveResult(
        req.dims,
        req.objective,
        optimum,
        witness,
        {
            "states": m * size,
            "transitions": (m - 1) * n * size,
            "wall_s": time.perf_counter() - t0,
        },
    )
    _validate_witness(result)
    return result


@lru_cache(maxsize=4)
def _pair_tables(n: int, bricked: bool):
    """(c,d)-indexed masks for the pair solver: uncoverable-empty and validity."""
    states, tb, _, _, _, _, _ = _state_tables(n, bricked)
    full = full_mask(n)
    # c is the current row, d the row below; the north proposition depends
    # on the row above and is folded in by the DP itself
    c, d = states[:, None], states[None, :]
    covered = (
        prop_east_mask(c, d, n, bricked)
        | prop_west_mask(c, d, n, bricked)
        | prop_center_mask(c, d, n, bricked)
    )
    req_mask = ((~c & np.uint32(full)) & ~covered).astype(np.uint16)
    invalid = (tb[:, None] & d) != 0
    return req_mask, invalid


def _min_single_row(req: SolveRequest, t0: float) -> SolveResult:
    """Minimum maximal occupancy of a 1×n grid by direct enumeration."""
    n = req.dims.cols
    bricked = req.dims.boundary is Boundary.BRICKED
    full = full_mask(n)
    states, tb, _, _, _, pc, rev = _state_tables(n, bricked)
    d_v = np.uint32(full if bricked else 0)
    covered = covered_mask(np.uint32(0), states, d_v, n, bricked)
    uncovered = (~states & np.uint32(full)) & ~covered
    ok = ((tb & d_v) == 0) & (uncovered == 0)
    inv_rev = (~rev) & full
    packed = np.where(ok, (pc << n) | inv_rev, np.int64(1) << 62)
    best = int(np.argmin(packed))
    optimum = int(pc[best])
    witness = Configuration(req.dims, (int(states[best]),)) if req.want_witness else None
    result = SolveResult(
        req.dims, req.objective, optimum, witness,
        {"states": 1 << n, "transitions": 1 << n, "wall_s": time.perf_counter() - t0},
    )
    _validate_witness(result)
    return result


def solve_min_maximal(req: SolveRequest) -> SolveResult:
    """Exact minimum occupancy over maximal configurations, with witness.

    DP over ordered (row above, current row) profile pairs; advancing to the
    next row requires the current row to stay unblocked and every current-row
    empty lot to be covered by one of the four propositions, where the
    north proposition folds over the row-above axis as a superset-minimum
    transform.  Virtual empty/full rows close off the two borders.
    """
    if req.objective is not Objective.MIN_MAXIMAL:
        raise ValueError("solve_min_maximal requires the min objective")
    limits = req.limits
    m, n = req.dims.rows, req.dims.cols
    bricked = req.dims.boundary is Boundary.BRICKED
    t0 = time.perf_counter()
    if m == 1:
        if n > limits.max_cols:
            raise LimitError(f"cols {n} over the configured cap {limits.max_cols}")
        return _min_single_row(req, t0)
    if n > limits.max_cols_pairs:
        raise LimitError(f"cols {n} over the configured pair-state cap {limits.max_cols_pairs}")
    size = 1 << n
    need = size * size * 43 + (size * size * 2 * max(m - 2, 0) if req.want_witness else 0)
    if need > limits.max_state_bytes:
        raise LimitError(
            f"estimated state space of {need} bytes over cap {limits.max_state_bytes}"
        )
    states, tb, order, starts, group_keys, pc, rev = _state_tables(n, bricked)
    req_mask, invalid = _pair_tables(n, bricked)
    full = full_mask(n)
    INF = np.int64(1) << 40
    inv_rev = (~rev) & full
    col_idx = np.arange(size, dtype=np.intp)

    # dp[u, c]: min houses in rows 1..i with rows (i-1, i) = (u, c), all rows
    # above i-1 settled.  Row 1 exists only under the virtual empty north row.
    dp = np.full((size, size), INF, dtype=np.int64)
    dp[0, :] = pc
    pred_layers: list[np.ndarray] = []

    def fold(dp_layer: np.ndarray) -> np.ndarray:
        """g[k, c] = min over u with triple(u) ⊇ k of packed dp[u, c]."""
        packed = (dp_layer << n) | inv_rev[:, None]
        grouped = np.minimum.reduceat(packed[order, :], starts, axis=0)
        g = np.full((size, size), INF << n, dtype=np.int64)
        g[group_keys, :] = grouped
        _superset_min_inplace(g, n)
        return g

    pc32 = pc[None, :]
    for i in range(3, m + 2):
        g = fold(dp)
        gathered = g[req_mask, col_idx[:, None]]
        dp = pc32 + (gathered >> n)
        np.minimum(dp, INF, out=dp)
        dp[invalid] = INF
        # the row-above choice matters for reconstruction only once it is a
        # real row (the first advance sits on the virtual empty north row)
        if req.want_witness and i >= 4:
            pred_layers.append(
                bit_reverse((~gathered & full).astype(np.uint32), n).astype(np.uint16)
            )
        _check_wall(t0, limits)
    # one more fold against the virtual south row, adding no houses
    g = fold(dp)
    d_v = full if bricked else 0
    req_v = np.asarray(req_mask[:, d_v], dtype=np.intp)
    gathered_v = g[req_v, col_idx]
    final_val = gathered_v >> n
    final_val = np.where(invalid[:, d_v], INF, final_val)
    final_packed = (np.minimum(final_val, INF) << n) | inv_rev
    best_c = int(np.argmin(final_packed))
    optimum = int(final_val[best_c])
    if optimum >= INF:
        raise SettleError(f"no maximal configuration found for {m}x{n} (internal error)")

    witness = None
    if req.want_witness:
        best_u = bit_reverse(~int(gathered_v[best_c]) & full, n)
        rows_rev = [best_c, best_u]  # rows m, m-1
        for layer in reversed(pred_layers):
            rows_rev.append(int(layer[rows_rev[-1], rows_rev[-2]]))
        witness = Configuration(req.dims, tuple(reversed(rows_rev)))
    result = SolveResult(
        req.dims,
        req.objective,
        optimum,
        witness,
        {
            "states": m * size * size,
            "transitions": m * n * size * size,
            "wall_s": time.perf_counter() - t0,
        },
    )
    _validate_witness(result)
    return result


def brute_force(req: SolveRequest) -> SolveResult:
    """Independent oracle: enumerate all 2^(mn) configurations.

    Filters by permissibility (max objective) or maximality (min objective);
    ties break toward the lexicographically smallest cell string.
    """
    m, n = req.dims.rows, req.dims.cols
    cells = m * n
    if cells > 22:
        raise LimitError(f"brute force handles at most 22 cells, got {cells}")
    bricked = req.dims.boundary is Boundary.BRICKED
    minimize = req.objective is Objective.MIN_MAXIMAL
    t0 = time.perf_counter()
    full = full_mask(n)
    d_v = full if bricked else 0
    total = 1 << cells
    chunk = min(total, 1 << 20)
    best_packed = np.int64(-1)
    best_grid = 0
    for base in range(0, total, chunk):
        g = np.arange(base, base + chunk, dtype=np.uint32)
        rows = [(g >> np.uint32(i * n)) & np.uint32(full) for i in range(m)]
        ok = np.ones(len(g), dtype=bool)
        for i in range(m):
            south = rows[i + 1] if i + 1 < m else np.uint32(d_v)
            ok &= (triple_mask(rows[i], n, bricked) & south) == 0
        if minimize:
            for i in range(m):
                north = rows[i - 1] if i >= 1 else np.uint32(0)
                south = rows[i + 1] if i + 1 < m else np.uint32(d_v)
                covered = covered_mask(north, rows[i], south, n, bricked)
                ok &= ((~rows[i] & np.uint32(full)) & ~covered) == 0
        pc = np.bitwise_count(g).astype(np.int64)
        score = (np.int64(cells) - pc) if minimize else pc
        packed = (score << cells) | bit_reverse(g, cells).astype(np.int64)
        packed = np.where(ok, packed, np.int64(-1))
        idx = int(np.argmax(packed))
        if packed[idx] > best_packed:
            best_packed = np.int64(packed[idx])
            best_grid = int(g[idx])
    if best_packed < 0:
        raise SettleError(f"no feasible configuration found for {m}x{n} (internal error)")
    row_bits = tuple((best_grid >> (i * n)) & full for i in range(m))
    config = Configuration(req.dims, row_bits)
    optimum = config.occupancy()
    witness = config if req.want_witness else None
    return SolveResult(
        req.dims, req.objective, optimum, witness,
        {"states": total, "transitions": total * m, "wall_s": time.perf_counter() - t0},
    )


def solve(req: SolveRequest) -> SolveResult:
    """Dispatch to the solver matching the request's objective."""
    if req.objective is Objective.MAX_PERMISSIBLE:
        return solve_max(req)
    return solve_min_maximal(req)


def table(
    objective: Objective,
    row_range,
    col_range,
    boundary: Boundary = Boundary.FREE,
    limits: Limits | None = None,
) -> dict:
    """Solve a whole grid of (m, n) cells; failures mark cells unavailable."""
    limits = limits or Limits()
    rows = list(row_range)
    cols = list(col_range)
    values: list[list[int | None]] = []
    errors: list[dict] = []
    for m in rows:
        line: list[int | None] = []
        for n in cols:
            try:
                res = solve(SolveRequest(Dims(m, n, boundary), objective,
                                         want_witness=False, limits=limits))
                line.append(res.optimum)
            except (SettleError, ValueError) as exc:
                line.append(None)
                errors.append({"row": m, "col": n, "error": str(exc)})
        values.append(line)
    return {
        "objective": objective.value,
        "boundary": boundary.value,
        "rows": rows,
        "cols": cols,
        "values": values,
        "errors": errors,
    }
