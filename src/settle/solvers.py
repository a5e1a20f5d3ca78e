"""Exact extremal solvers and the brute-force oracle.

The maximum solver advances a value function over single-row profiles with a
subset-indexed maximum transform (cost ~ n·2^n per row).  The minimum solver
runs over ordered (row above, current row) pairs, folding the row-above axis
with a superset-indexed minimum transform so each advance also costs a
transform instead of 4^n transitions per pair.  Both share the row mask
algebra from the rows module, evaluated on whole numpy arrays of states.

Each DP's row loop lives in one generator, _sweep_max or _sweep_min.  The
state after row k does not depend on the final row count, so one sweep to
the largest m closes off every requested row count on the way: solve_max and
solve_min_maximal ask a sweep for their single m, and table makes one sweep
per column.
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
    max_state_bytes caps the estimated bytes a solve allocates, the cached
    state and pair tables included.
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


# Bytes a solve allocates beyond its arrays: ufunc buffers, Python objects.
_FIXED_BYTES = 1 << 20


def _group_bound(n: int) -> int:
    """Upper bound on the distinct triple masks of width n (the fold's groups).

    A triple mask never holds 1-0-1 in adjacent columns: flanked houses at
    columns j-1 and j+1 occupy column j and both its neighbours, so column j
    is flanked too.  n-bit strings without 101 number a(n) = a(n-1) + a(n-2)
    + a(n-4).
    """
    a = [1, 2, 4, 7]
    while len(a) <= n:
        a.append(a[-1] + a[-2] + a[-4])
    return a[n]


def _need_bytes(objective: Objective, m: int, n: int, want_witness: bool) -> int:
    """Upper bound on the bytes one solve allocates, with cold table caches.

    Counts the arrays alive at the DP's peak: the cached tables, the working
    arrays of one row advance, and the witness layers kept for every row.
    """
    size, groups = 1 << n, _group_bound(n)
    # _state_tables: states and tb (uint32); order, pc and rev (int64);
    # starts and group_keys (intp, one per group)
    need = _FIXED_BYTES + size * 32 + groups * 16
    if objective is Objective.MAX_PERMISSIBLE:
        # value, z and one int64 scratch (the sorted key or the close-off
        # key), the grouped maxima and the bricked close-off mask
        need += size * 25 + groups * 8
        if want_witness:
            # the capture's uint32 copy and bit_reverse stages; one uint32
            # predecessor array per advance
            need += size * 8 + size * 4 * (m - 1)
        return need
    pairs = size * size
    # _pair_tables (uint16 req_mask, bool invalid); dp, g and gathered, or
    # dp, its sorted copy and the grouped minima
    need += pairs * 27 + groups * size * 8
    if want_witness:
        # the capture's scratch as above; one uint16 predecessor layer per
        # advance after the first
        need += pairs * 8 + pairs * 2 * max(m - 2, 0)
    return need


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
    pc = np.bitwise_count(states).astype(np.int64)
    rev = bit_reverse(states, n).astype(np.int64)
    tb = triple_mask(states, n, bricked)
    order = np.argsort(tb, kind="stable")
    tb_sorted = tb[order]
    starts = np.flatnonzero(np.r_[True, tb_sorted[1:] != tb_sorted[:-1]])
    group_keys = tb_sorted[starts].astype(np.intp)
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


def _sweep_max(n: int, boundary: Boundary, rows: list[int], want_witness: bool,
               limits: Limits):
    """One max DP sweep to rows[-1], yielding a SolveResult at each m in rows.

    rows holds distinct row counts >= 1 in increasing order.  The value
    function after row k does not depend on the final row count, so closing
    off at m (masking the last row against the south border and taking the
    argmax) can happen at every requested m along the way.
    """
    bricked = boundary is Boundary.BRICKED
    if n > limits.max_cols:
        raise LimitError(f"cols {n} over the configured cap {limits.max_cols}")
    size = 1 << n
    top = rows[-1]
    need = _need_bytes(Objective.MAX_PERMISSIBLE, top, n, want_witness)
    if need > limits.max_state_bytes:
        raise LimitError(
            f"estimated state space of {need} bytes over cap {limits.max_state_bytes}"
        )
    t0 = time.perf_counter()
    states, tb, order, starts, group_keys, pc, rev = _state_tables(n, bricked)
    full = full_mask(n)
    closing = set(rows)

    value = pc.copy()  # row 1: any profile, value = its occupancy
    preds: list[np.ndarray] = []
    for m in range(1, top + 1):
        if m > 1:
            # value is packed with the tie-break key in place, and its buffer
            # then receives the next row's value
            value <<= n
            value |= rev
            z = np.full(size, -1, dtype=np.int64)
            z[group_keys] = np.maximum.reduceat(value[order], starts)
            _subset_max_inplace(z, n)
            # A lower row r admits upper rows u with triple(u) ⊆ complement(r);
            # indexing the transform at full-r is exactly that complement.
            zc = z[::-1]
            np.right_shift(zc, n, out=value)
            value += pc
            if want_witness:
                z &= full
                preds.append(bit_reverse(zc.astype(np.uint32), n))
            del z, zc  # spent arrays go at once: _need_bytes counts on it
            _check_wall(t0, limits)
        if m not in closing:
            continue

        final = value << n
        final |= rev
        if bricked:
            # the virtual south row is occupied, so the last row must hold no
            # east-west-flanked house
            final[tb != 0] = -1
        best = int(np.argmax(final))
        del final
        optimum = int(value[best])
        dims = Dims(m, n, boundary)
        witness = None
        if want_witness:
            rows_rev = [best]
            cur = best
            for pred in reversed(preds):
                cur = int(pred[cur])
                rows_rev.append(cur)
            witness = Configuration(dims, tuple(reversed(rows_rev)))
        result = SolveResult(
            dims,
            Objective.MAX_PERMISSIBLE,
            optimum,
            witness,
            {
                "states": m * size,
                "transitions": (m - 1) * n * size,
                "wall_s": time.perf_counter() - t0,
            },
        )
        _validate_witness(result)
        yield result


def solve_max(req: SolveRequest) -> SolveResult:
    """Exact maximum occupancy over permissible configurations, with witness."""
    if req.objective is not Objective.MAX_PERMISSIBLE:
        raise ValueError("solve_max requires the max objective")
    dims = req.dims
    return next(_sweep_max(dims.cols, dims.boundary, [dims.rows], req.want_witness, req.limits))


@lru_cache(maxsize=4)
def _pair_tables(n: int, bricked: bool):
    """(c,d)-indexed masks for the pair solver: uncoverable-empty and validity."""
    states, tb, _, _, _, _, _ = _state_tables(n, bricked)
    full = full_mask(n)
    # c is the current row, d the row below; the north proposition depends
    # on the row above and is folded in by the DP itself
    c, d = states[:, None], states[None, :]
    # built in place: one (c, d) array of uint32 plus one proposition at a time
    uncovered = prop_east_mask(c, d, n, bricked)
    uncovered |= prop_west_mask(c, d, n, bricked)
    uncovered |= prop_center_mask(c, d, n, bricked)
    np.invert(uncovered, out=uncovered)
    uncovered &= ~c & np.uint32(full)
    req_mask = uncovered.astype(np.uint16)
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


def _sweep_min(n: int, boundary: Boundary, rows: list[int], want_witness: bool,
               limits: Limits):
    """One min DP sweep to rows[-1], yielding a SolveResult at each m in rows.

    rows holds distinct row counts >= 2 in increasing order.  Each row's
    fold over the row-above axis serves both the advance to the next row and
    the close-off against the virtual south row, so a requested m costs only
    one extra gather of 2^n entries.
    """
    bricked = boundary is Boundary.BRICKED
    t0 = time.perf_counter()
    if n > limits.max_cols_pairs:
        raise LimitError(f"cols {n} over the configured pair-state cap {limits.max_cols_pairs}")
    size = 1 << n
    top = rows[-1]
    need = _need_bytes(Objective.MIN_MAXIMAL, top, n, want_witness)
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
    d_v = full if bricked else 0
    req_v = np.asarray(req_mask[:, d_v], dtype=np.intp)
    closing = set(rows)

    # dp[u, c]: min houses in rows 1..i with rows (i-1, i) = (u, c), all rows
    # above i-1 settled.  Row 1 exists only under the virtual empty north row.
    dp = np.full((size, size), INF, dtype=np.int64)
    dp[0, :] = pc
    pred_layers: list[np.ndarray] = []
    pc32 = pc[None, :]
    for m in range(1, top + 1):
        # fold the row-above axis: g[k, c] = min over u with triple(u) ⊇ k of
        # dp[u, c], packed with the tie-break key in dp's own buffer
        dp <<= n
        dp |= inv_rev[:, None]
        g = np.full((size, size), INF << n, dtype=np.int64)
        g[group_keys, :] = np.minimum.reduceat(dp[order, :], starts, axis=0)
        _superset_min_inplace(g, n)
        if m in closing:
            # close off against the virtual south row, adding no houses
            gathered_v = g[req_v, col_idx]
            final_val = gathered_v >> n
            final_val = np.where(invalid[:, d_v], INF, final_val)
            final_packed = (np.minimum(final_val, INF) << n) | inv_rev
            best_c = int(np.argmin(final_packed))
            optimum = int(final_val[best_c])
            if optimum >= INF:
                raise SettleError(f"no maximal configuration found for {m}x{n} (internal error)")
            dims = Dims(m, n, boundary)
            witness = None
            if want_witness:
                best_u = bit_reverse(~int(gathered_v[best_c]) & full, n)
                rows_rev = [best_c, best_u]  # rows m, m-1
                for layer in reversed(pred_layers):
                    rows_rev.append(int(layer[rows_rev[-1], rows_rev[-2]]))
                witness = Configuration(dims, tuple(reversed(rows_rev)))
            result = SolveResult(
                dims,
                Objective.MIN_MAXIMAL,
                optimum,
                witness,
                {
                    "states": m * size * size,
                    "transitions": m * n * size * size,
                    "wall_s": time.perf_counter() - t0,
                },
            )
            _validate_witness(result)
            yield result
        if m == top:
            return
        # advance: the next row's dp lands in the buffer of this one
        gathered = g[req_mask, col_idx[:, None]]
        del g  # spent arrays go at once: _need_bytes counts on it
        np.right_shift(gathered, n, out=dp)
        dp += pc32
        np.minimum(dp, INF, out=dp)
        dp[invalid] = INF
        # the row-above choice matters for reconstruction only once it is a
        # real row (the first advance sits on the virtual empty north row)
        if want_witness and m >= 2:
            np.invert(gathered, out=gathered)
            gathered &= full
            pred_layers.append(bit_reverse(gathered.astype(np.uint32), n).astype(np.uint16))
        del gathered
        _check_wall(t0, limits)


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
    dims, limits = req.dims, req.limits
    if dims.rows == 1:
        t0 = time.perf_counter()
        if dims.cols > limits.max_cols:
            raise LimitError(f"cols {dims.cols} over the configured cap {limits.max_cols}")
        return _min_single_row(req, t0)
    return next(_sweep_min(dims.cols, dims.boundary, [dims.rows], req.want_witness, limits))


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
    """Solve a whole grid of (m, n) cells; failures mark cells unavailable.

    Each column is one DP sweep without witness to its largest row count,
    closing off at every requested m on the way.  Rows may come in any
    order and repeat; a row count below 1 is a per-cell ValueError entry,
    and cap errors keep their per-cell messages.  Single-row cells of the
    min objective are enumerated directly under the wider max_cols cap, as
    in solve.  The max_wall_s cap counts from the start of a column's
    sweep; cells the sweep has not reached when it trips get its
    LimitError message.
    """
    limits = limits or Limits()
    rows = list(row_range)
    cols = list(col_range)
    cells: dict[tuple[int, int], int | str] = {}
    for n in cols:
        swept = []
        for m in sorted(set(rows)):
            try:
                dims = Dims(m, n, boundary)
                if objective is Objective.MIN_MAXIMAL and m == 1:
                    req = SolveRequest(dims, objective, want_witness=False, limits=limits)
                    cells[m, n] = solve_min_maximal(req).optimum
                else:
                    swept.append(m)
            except (SettleError, ValueError) as exc:
                cells[m, n] = str(exc)
        if not swept:
            continue
        sweep = _sweep_max if objective is Objective.MAX_PERMISSIBLE else _sweep_min
        try:
            for res in sweep(n, boundary, swept, False, limits):
                cells[res.dims.rows, n] = res.optimum
        except SettleError as exc:
            for m in swept:
                cells.setdefault((m, n), str(exc))
    values: list[list[int | None]] = []
    errors: list[dict] = []
    for m in rows:
        line: list[int | None] = []
        for n in cols:
            cell = cells[m, n]
            if isinstance(cell, str):
                line.append(None)
                errors.append({"row": m, "col": n, "error": cell})
            else:
                line.append(cell)
        values.append(line)
    return {
        "objective": objective.value,
        "boundary": boundary.value,
        "rows": rows,
        "cols": cols,
        "values": values,
        "errors": errors,
    }
