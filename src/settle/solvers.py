"""Exact extremal solvers and the brute-force oracle.

Both objectives run on one row-sweep engine, _sweep.  The maximum solver
keeps a score per row profile; the minimum solver keeps one per ordered
(row above, current row) pair, so that the north proposition can cover the
current row.  The minimum scores minus its houses, so both maximize, and
each row's transition maximum is one subset-indexed maximum transform over
triple masks (cost ~ n·2^n per state column): the maximum scatters its rows
at triple(u), the minimum at the complement of triple(u), since
triple(u) ⊇ k exactly when ~triple(u) ⊆ ~k.  The row mask algebra comes
from the rows module, evaluated on whole numpy arrays of states.

The forward pass carries scores alone, in the narrowest signed dtype that
holds them (int16 for every grid within the default caps).  A witness is
not tracked forward: the sweep keeps each row's scores, and a backward scan
rebuilds the rows from the south border up, each the argmax of the key
(score << n) | rev(row) over the rows that fit the rows below it.

The state after row k does not depend on the final row count, so one sweep
to the largest m closes off every requested row count on the way:
solve_max and solve_min_maximal ask a sweep for their single m, and table
makes one sweep per column.
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
    n updates per state for each of the m - 1 row-to-row transition maxima
    (the close-off reads the grouped maxima, not a transform),
    "state_bytes" the estimate of allocated bytes the solve was checked
    against (_need_bytes), "wall_s" the elapsed time.
    """

    dims: Dims
    objective: Objective
    optimum: int
    witness: Configuration | None
    stats: dict


# Bytes a solve allocates beyond its arrays: ufunc buffers, Python objects.
_FIXED_BYTES = 1 << 20


def _score_type(m: int, n: int):
    """The narrowest signed dtype for an m×n sweep's scores, and its dead score.

    A real score lies in [-mn, mn].  An unreachable (dead) state starts at
    or below the dead score, -2^(bits - 2), and loses at most mn more over
    the sweep, so neither wraps while mn < 2^(bits - 2): int16 up to
    mn = 16383.
    """
    for dtype in (np.int16, np.int32, np.int64):
        dead = -(1 << (np.iinfo(dtype).bits - 2))
        if m * n < -dead:
            break
    return dtype, dead


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
    arrays of one row, the score layers a witness keeps for every row, and
    the masks of the backward scan.
    """
    size, groups = 1 << n, _group_bound(n)
    width = np.dtype(_score_type(m, n)[0]).itemsize
    # _state_tables: states, tb and rev (uint32), order (intp), pc (int8);
    # starts and group_keys (intp, one per group).  Its build peaks at 27
    # bytes a state, with the sorted tb and two masks, below every use.
    need = _FIXED_BYTES + size * 21 + groups * 16
    if objective is Objective.MIN_MAXIMAL and m == 1:
        # _min_single_row: covered (uint32, its stages before it) and ok;
        # the negated pc and _argmax_key's masks and uint32 pick
        return need + size * 24
    # the grouped maxima; at a close-off, their int64 fit test and its mask
    per_group = width + 9
    # _scan_back: the fit mask and its uint32 stage, then _argmax_key's
    # masks and uint32 pick
    scan = 8 if want_witness else 0
    if objective is Objective.MAX_PERMISSIBLE:
        # score, gain, z and the sorted copy of score; one score layer per
        # row before the last for the witness
        layers = m - 1 if want_witness else 0
        return need + size * (width * (4 + layers) + scan) + groups * per_group
    # _pair_tables: reach (uint16) and invalid (bool), built at a peak of
    # 12 bytes a pair; score, z and one group's gathered rows or the read;
    # one score layer per row after the first and before the last
    layers = max(m - 2, 0) if want_witness else 0
    pairs = size * size
    return (need + pairs * max(12, 3 + width * (3 + layers))
            + groups * size * per_group + size * scan)


def _check_limits(objective: Objective, m: int, n: int, want_witness: bool,
                  limits: Limits) -> int:
    """Raise LimitError when an m×n solve would pass a column or byte cap.

    Returns the byte estimate the solve was checked against.
    """
    pairs = objective is Objective.MIN_MAXIMAL and m > 1
    cap, what = (limits.max_cols_pairs, "pair-state cap") if pairs else (limits.max_cols, "cap")
    if n > cap:
        raise LimitError(f"cols {n} over the configured {what} {cap}")
    need = _need_bytes(objective, m, n, want_witness)
    if need > limits.max_state_bytes:
        raise LimitError(
            f"estimated state space of {need} bytes over cap {limits.max_state_bytes}"
        )
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
    pc = np.bitwise_count(states).astype(np.int8)
    rev = bit_reverse(states, n)
    tb = triple_mask(states, n, bricked)
    order = np.argsort(tb, kind="stable")
    tb_sorted = tb[order]
    starts = np.flatnonzero(np.r_[True, tb_sorted[1:] != tb_sorted[:-1]])
    group_keys = tb_sorted[starts].astype(np.intp)
    return states, tb, order, starts, group_keys, pc, rev


@lru_cache(maxsize=4)
def _pair_tables(n: int, bricked: bool):
    """(c, d)-indexed tables for the pair solver: reach and invalid.

    c is the current row and d the row below.  reach holds the houses of c
    and the empty lots of c that the east, west and center propositions
    cover; the north proposition must cover the rest, so a row u above c
    fits when triple(u) ⊇ ~reach, that is ~triple(u) ⊆ reach.  invalid marks
    the pairs where d blocks a house of c.
    """
    states, tb, _, _, _, _, _ = _state_tables(n, bricked)
    c, d = states[:, None], states[None, :]
    # built in place: one (c, d) array of uint32 plus one proposition at a time
    reach = prop_east_mask(c, d, n, bricked)
    reach |= prop_west_mask(c, d, n, bricked)
    reach |= prop_center_mask(c, d, n, bricked)
    reach |= c
    invalid = (tb[:, None] & d) != 0
    return reach.astype(np.uint16), invalid


def _subset_max_inplace(z: np.ndarray, n: int):
    """z[k] := max over k' ⊆ k of z[k'], along axis 0."""
    tail = z.shape[1:]
    for b in range(n):
        view = z.reshape(-1, 2, 1 << b, *tail)
        hi, lo = view[:, 1], view[:, 0]
        if tail or b >= 3:
            np.maximum(hi, lo, out=hi)
        else:
            # runs of 1 << b elements are too short for the inner loop:
            # walk the long axis innermost instead (several times faster)
            np.maximum(hi.T, lo.T, out=hi.T, order="C")


def _group_maxima(score: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Maxima of score over the triple-mask groups of axis 0 (order sorts the groups)."""
    if score.ndim == 1:
        return np.maximum.reduceat(score[order], starts)
    # a 2-D reduceat walks each group one short run at a time: one reduction
    # of whole rows per group is about 15 times faster at n = 12
    ends = np.r_[starts[1:], len(order)].tolist()
    grouped = np.empty((len(starts),) + score.shape[1:], dtype=score.dtype)
    for g, (start, end) in enumerate(zip(starts.tolist(), ends)):
        np.max(score[order[start:end]], axis=0, out=grouped[g])
    return grouped


def _argmax_key(score: np.ndarray, fit: np.ndarray, rev: np.ndarray) -> int:
    """The index u with the largest (score[u] << n) | rev[u] where fit holds.

    That is the highest score, ties broken toward the largest rev, found
    without packing the two.  rev is a permutation in which only 0 maps to
    0, so an all-zero pick leaves index 0, the one candidate then.
    """
    best = np.max(score, where=fit, initial=np.iinfo(score.dtype).min)
    return int(np.argmax(np.where(fit & (score == best), rev, 0)))


def _scan_back(layers, below: list[int], key_u, rev, reach, full: int) -> tuple[int, ...]:
    """Rebuild a witness's rows, north first, from the scores after every row.

    layers holds the score array after each row, the last row's last.
    below starts with the virtual south row; for the minimum (reach given)
    it also holds the last row, picked already.  Walking north, each row is
    the _argmax_key over the rows u that fit the rows below, u fitting when
    key_u[u] & block == 0: the set and the key the forward pass maximized
    over, so the rows are those a stored argmax would give.
    """
    for layer in reversed(layers):
        if reach is None:
            # the maximum: u fits the row r below it when triple(u) ⊆ ~r
            scores, block = layer, below[-1]
        else:
            # the minimum: u fits the rows (c, d) below it when
            # ~triple(u) ⊆ reach(c, d), scored at the state (u, c)
            c, d = below[-1], below[-2]
            scores, block = layer[:, c], full ^ int(reach[c, d])
        below.append(_argmax_key(scores, (key_u & block) == 0, rev))
    return tuple(reversed(below[1:]))


def _sweep(objective: Objective, n: int, boundary: Boundary, rows: list[int],
           want_witness: bool, limits: Limits):
    """One DP sweep to rows[-1], yielding a SolveResult at each m in rows.

    rows holds distinct row counts in increasing order, each >= 1 for the
    maximum and >= 2 for the minimum.  Both objectives maximize a score: the
    houses for the maximum, minus the houses for the minimum.  The maximum's
    state is indexed by the last row; the minimum's by the row above it and
    the last row, so that the north proposition can cover the last row.
    The forward pass carries scores alone, in the narrowest dtype that
    holds them (_score_type), and takes their maxima over the triple-mask
    groups of axis 0, the oldest row.  The groups that fit the virtual
    south row close off at m; scattered and run through the subset-maximum
    transform, the groups are read at every real row to advance to m + 1.
    With a witness, each row's scores are kept, and _scan_back rebuilds
    the rows from the virtual south row up, breaking ties toward the
    largest rev of each row, the last row first.
    """
    maximize = objective is Objective.MAX_PERMISSIBLE
    bricked = boundary is Boundary.BRICKED
    top = rows[-1]
    need = _check_limits(objective, top, n, want_witness, limits)
    t0 = time.perf_counter()
    _, tb, order, starts, group_keys, pc, rev = _state_tables(n, bricked)
    dtype, dead = _score_type(top, n)
    full = full_mask(n)
    size = 1 << n
    d_v = full if bricked else 0  # the virtual south row
    if maximize:
        # a row r admits the rows u above it with triple(u) ⊆ ~r: the fold
        # scatters at triple(u) and is read at full - r, which is z reversed
        score = pc.astype(dtype)
        gain, reach, invalid = score.copy(), None, None
        key_u, scatter = tb, group_keys
        veto = d_v  # the bits a scatter key must miss to fit the south row
    else:
        # a row c admits the rows u above it with ~triple(u) ⊆ reach(c, d):
        # the fold scatters at full - triple(u) and is read at reach
        reach, invalid = _pair_tables(n, bricked)
        gain = -pc.astype(dtype)
        score = np.full((size, size), dead, dtype=dtype)
        score[0] = gain  # row 1 sits under the virtual empty north row
        key_u, scatter = full ^ tb, full - group_keys
        veto = full ^ reach[:, d_v]  # per last row: the lots only north covers
        cols = np.arange(size)[:, None]
    scatter_u = scatter.reshape((-1,) + (1,) * (score.ndim - 1))
    z = np.empty_like(score)
    closing = set(rows)
    layers: list[np.ndarray] = []
    for m in range(1, top + 1):
        grouped = _group_maxima(score, order, starts)
        if m in closing:
            # the transition maximum into the virtual south row, taken over
            # the groups that fit it: the transform is not needed for it
            s = np.where((scatter_u & veto) == 0, grouped, dead).max(axis=0)
            if not maximize:
                s[invalid[:, d_v]] = dead  # the last row must fit the south row
            best = int(s.max())
            if best <= dead:
                raise SettleError(f"no maximal configuration found for {m}x{n} (internal error)")
            dims = Dims(m, n, boundary)
            witness = None
            if want_witness:
                # the minimum's last row is still an axis: pick it first
                below = [d_v] if maximize else [d_v, _argmax_key(s, ~invalid[:, d_v], rev)]
                witness = Configuration(
                    dims, _scan_back(layers + [score], below, key_u, rev, reach, full))
            result = SolveResult(
                dims,
                objective,
                best if maximize else -best,
                witness,
                {
                    "states": m * score.size,
                    "transitions": (m - 1) * n * score.size,
                    "state_bytes": need,
                    "wall_s": time.perf_counter() - t0,
                },
            )
            _validate_witness(result)
            yield result
        if m == top:
            return
        z.fill(dead)
        z[scatter] = grouped
        del grouped  # spent arrays go at once: _need_bytes counts on it
        _subset_max_inplace(z, n)
        # _scan_back reads this row's scores once the row a state drops on
        # advancing is a real row, that is once m reaches the rows it keeps
        if want_witness and m >= score.ndim:
            layers.append(score)
            score = np.empty_like(z)
        if maximize:
            np.add(z[::-1], gain, out=score)
        else:
            np.add(z[reach, cols], gain, out=score)
            score[invalid] = dead
        _check_wall(t0, limits)


def solve_max(req: SolveRequest) -> SolveResult:
    """Exact maximum occupancy over permissible configurations, with witness."""
    if req.objective is not Objective.MAX_PERMISSIBLE:
        raise ValueError("solve_max requires the max objective")
    dims = req.dims
    return next(_sweep(req.objective, dims.cols, dims.boundary, [dims.rows],
                       req.want_witness, req.limits))


def _min_single_row(req: SolveRequest, t0: float, need: int) -> SolveResult:
    """Minimum maximal occupancy of a 1×n grid by direct enumeration."""
    n = req.dims.cols
    bricked = req.dims.boundary is Boundary.BRICKED
    full = full_mask(n)
    states, tb, _, _, _, pc, rev = _state_tables(n, bricked)
    d_v = np.uint32(full if bricked else 0)
    # the empty north row covers nothing, so every empty lot needs cover
    covered = covered_mask(np.uint32(0), states, d_v, n, bricked)
    ok = ((tb & d_v) == 0) & ((covered | states) == full)
    # the sweep's key: fewest houses, then the largest rev
    best = _argmax_key(-pc, ok, rev)
    optimum = int(pc[best])
    witness = Configuration(req.dims, (best,)) if req.want_witness else None
    result = SolveResult(
        req.dims, req.objective, optimum, witness,
        {"states": 1 << n, "transitions": 1 << n, "state_bytes": need,
         "wall_s": time.perf_counter() - t0},
    )
    _validate_witness(result)
    return result


def solve_min_maximal(req: SolveRequest) -> SolveResult:
    """Exact minimum occupancy over maximal configurations, with witness.

    DP over ordered (row above, current row) profile pairs; advancing to the
    next row requires the current row to stay unblocked and every current-row
    empty lot to be covered by one of the four propositions, where the
    north proposition folds over the row-above axis through the subset
    transform on complemented triple masks.  Virtual empty/full rows close
    off the two borders.
    """
    if req.objective is not Objective.MIN_MAXIMAL:
        raise ValueError("solve_min_maximal requires the min objective")
    dims = req.dims
    if dims.rows == 1:
        t0 = time.perf_counter()
        need = _check_limits(req.objective, 1, dims.cols, req.want_witness, req.limits)
        return _min_single_row(req, t0, need)
    return next(_sweep(req.objective, dims.cols, dims.boundary, [dims.rows],
                       req.want_witness, req.limits))


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
        try:
            for res in _sweep(objective, n, boundary, swept, False, limits):
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
