"""Exact extremal solvers and the brute-force oracle.

Both objectives run on one row-sweep engine, _sweep.  The maximum solver's
states are row profiles.  The minimum solver's states are ordered
(row above, current row) pairs, so that the north proposition can cover
the current row; since its transition reads the row above only through
its triple mask, it keeps one score per (triple class of the row above,
current row).  A triple class is a triple mask that occurs; the
maximum's _split_plan finds the classes from the two halves of a row,
and the minimum's _reach_bits from every row.  The minimum scores its
empty lots, so both maximize.

The maximum splits a row in two: the low h = n // 2 bits and the high
n - h.  Triple bit j reads bits j - 1, j and j + 1 alone, so each half
of a state's triple mask follows from that half of the state and the
one bit of the other half next to it, and a key misses a row exactly
when each of its halves misses that half of the row.  So each row's
transition maximum is a sparse (max, +) product with a cover table on
each side, over the grouped maxima at (key low half, key high half),
and it holds no score per row nor a row of them per low half
(_max_rule).  The low
product runs on the runs of low halves of equal low-half triple bits at
both values of the row's bit h (column runs), the high one on the runs
of rows of equal high-half triple bits, and a class is a (run, column
run) cell.  Each product's input is first closed over its family of key
halves, a subset-maximum transform along the Hasse edges of that family
alone, so that it reads only the undominated pairs of its cover table.
The row mask algebra comes from the rows module, evaluated on numpy
arrays of states.

The minimum reads no split plan: its classes and reach tables are its
own (_reach_bits, _reach_tables).  A pair (c, d) admits the rows u above
it whose hole, the complemented key ~triple(u), lies in reach(c, d).  The
classes are and-closed, so the holes are or-closed: those inside a reach
R have one largest, their union, of class g(R) (_hole_classes), and the
transition maximum at R is the state closed over the holes' lattice,
along their Hasse edges (_close), read at g(R).  The state is held in
slot form: the maxima of its classes' slots, of which each (class, row)
reads one (slots), plus the row's gain.  The advance fills a chunk of
current rows at a time, as a trailing axis, into a (classes + 1, chunk)
block whose last row, dead, is g of a reach that holds no hole: one take
from the slot maxima a piece of _TAKE_BLOCK entries, and the chunk's
gain (_closed_chunks).  It closes the block and reads it at g(reach(c,
d)) for every current row c and row d below (_reach), and takes the
maximum over the rows c of each class (_pair_advance).  reach is c
or-ed with masks of c and-ed with shifts of d: for a row c with key K,
it is 0 where d meets K, and otherwise reads d only through the few bits
D_c that change it (_reach_bits).  So _reach_tables holds, per row, its
reach at the 2^|D_c| subsets of D_c and one reach-0 slot, each stored
as its g: the advance reads those entries alone, maxes each into its
class's slot of the same bits, and one subset-maximum transform over
each class's slots (the bits D_g of all its rows) fills the rest, since
a row's reach grows with d.  At n = 12 it reads 0.4% of the 4^n pairs
on the free border and 1.0% on the bricked one.  The slot maxima are
the advance's result, and the next state: the sweep's ring, its shift
and its cycle test run on them, 19 570 bytes a row at n = 12 on the
free border where the (classes, rows) array took 393 120.  The state's
columns are kept in the tables' row order, so that a chunk is a run of
columns.

Every rule treats east and west alike, so the minimum's state is
mirror-symmetric: the score of (class g, row c) is that of (the class of
the reversed key, rev(c)).  It keeps the representative rows c <= rev(c)
alone, 2 080 of the 4 096 at n = 12: its state, its closure, its reads
and its blocks are half as wide.  One maximum over each class slot and
its mirror's slot supplies the other rows' reads, and a read of row
rev(c) at d is a read of row c at rev(d).  In a fresh process, cold
tables included, min 12×12 with a witness takes 0.015-0.016 s at 38 MiB
RSS on the free border and 0.028-0.030 s at 43 MiB bricked; without
one, 14×14 takes 0.09 s at 59 MiB and 0.17 s at 83 MiB, and 16×16
0.95 s at 262 MiB and 2.0 s at 455 MiB.

Past what it scores, the count of DP states it reports and the choice of
its rule, the sweep does not branch on the objective.  Each solve runs
one of three row rules, the transfer step of the transfer-matrix method
(Stanley, Enumerative Combinatorics I, section 4.7): _max_rule for the
maximum, _min_rule for the minimum, and _row_rule for a minimum of one
row, which needs no row above it and so keeps one score per row.  A rule
gives the row advance, the close-off at the virtual south row, the
witness scan's read of a kept state, and which row's shift a kept state
carries.

The forward pass carries scores alone, shifted each row so that its best
is 0; the shift is carried as a Python int.  So every rule's scores fit
in int8, because each lies within 2n of its row's best: the maximum's
since the empty row fits under every row, the minimum's slot maxima as
measured (at most n - 1 up to n = 16), and _normalize checks it on every
row.  A
witness is not tracked forward: the sweep keeps a layer of each row,
and a backward scan rebuilds the rows from the south border up, each the
argmax of the key (score << n) | rev(row) over the rows that fit the
rows below it, in one loop for both objectives (the rule's scan), which
picks once for each state of the scan that repeats.  Each layer keeps
class maxima, not the row's 2^n scores: the maximum's its closed G and
its cells, from which the scan takes the low row it tries; the
minimum's its slot maxima and their closed state, which the next
advance closes anyway and the scan reads at the row below, one gather,
as the close-off reads the last row's at the south border.

The state after row k does not depend on the final row count, so one sweep
to the largest m closes off every requested row count on the way: solve
asks a sweep for its single m, and table makes one sweep per column, and
one more for a minimum's single row.  The row DP is a max-plus linear
recurrence, so its shifted state is eventually periodic (Cohen, Dubois,
Quadrat & Viot, IEEE TAC 1985): once a row repeats an earlier one, the
sweep stops and closes off every later row count arithmetically.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import LimitError, SettleError
from .grid import Boundary, Configuration, Dims
from .rows import bit_reverse, covered_mask, full_mask, triple_mask


class Objective(Enum):
    MAX_PERMISSIBLE = "max"
    MIN_MAXIMAL = "min"


@dataclass(frozen=True)
class Limits:
    """Resource caps for a solve call.

    Column caps keep the states within memory: for the maximum solver, its
    split plan and arrays of under 2^(n/2) entries a key half, run or
    column run; for
    the minimum solver, one score per class slot, its reach tables, and a
    block of one score per (triple class, profile c <= rev(c)) for a chunk
    of the profiles at a time.  A single-row minimum keeps
    one score per row (_row_rule), so it only needs the wider max_cols cap.
    max_state_bytes caps the estimated bytes a solve or brute_force
    allocates, the cached per-width tables included: the allocations
    tracemalloc sees, not the process's RSS, to which the interpreter and
    the imports add about 30 MiB.  A solve checks its estimate without a
    witness before it sweeps, then each layer a witness keeps beyond it
    and each backward scan as the sweep reaches them, so the cap bounds
    every allocation on the way, not only the total at the end.  The
    maximum's estimate reads its split plan, so it builds the plan before
    the check, and max_state_bytes does not bound that build: at most
    about 145 MiB on the free border and 220 MiB bricked, at 32 columns
    (144.1 and 219.6 MiB traced).
    max_wall_s is checked after each row advance and each row of the scan.
    """

    max_cols: int = 28
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

    stats: "states" is the number of DP states (row profiles for the
    maximum and a single-row minimum, (row above, row) pairs for any other
    minimum) over the rows the sweep actually advanced through, and
    "transitions" n updates per state for each of those rows' row-to-row
    transition maxima, one fewer than the rows (the close-off reads the
    grouped maxima, not a transform).
    They count the DP, not arrays: the minimum holds its states' maxima
    per triple class of the row above, never one score per pair.
    A sweep advances min(m, transient + period) rows: once its shifted
    state after row transient + period repeats the one after row
    "transient", every row count m >= transient follows with
    optimum(m + period) = optimum(m) + "slope".  The three are None when
    the sweep closed off m before finding a repeat.  "state_bytes" is the
    charged peak of allocated bytes the solve was checked against: the
    estimate without a witness (_need_bytes) and, with one, the layers
    the sweep kept beyond it and the scan's pick (_sweep).  "wall_s" is
    the elapsed time, and "phases" the seconds spent in each of _PHASES,
    which sum to at most wall_s.
    """

    dims: Dims
    objective: Objective
    optimum: int
    witness: Configuration | None
    stats: dict


# Bytes a solve allocates beyond its arrays: ufunc buffers, Python objects.
_FIXED_BYTES = 1 << 20
_OBJECT_BYTES = 256  # the Python objects of one array of a table: its own, its tuple

# Every rule's scores are int8.  Each row's grouped maxima are shifted to a
# maximum of 0 (_normalize), at every row count; scores at or above
# _DEAD // 2 are live, and shifted live scores lie in [-2n, 0].  A row's
# gain, its houses for the maximum and its empty lots for the minimum,
# lies in [0, n], so unshifted live scores lie in [-2n, n], [-64, 32] at
# the uint32 limit n = 32, and a dead score plus a gain, at most -128 + n,
# stays below the live ones.
_DEAD = -128  # the score of an unreachable state
_RING = 4  # how many rows back a row's shifted maxima are looked for
_SCAN_BLOCK = 1 << 16  # the entries the witness scan tests at a time (_pick, _max_rule)
_RULE_BLOCK = 1 << 16  # the entries a row rule is evaluated on at a time
_GATHER_BLOCK = 1 << 18  # the bytes of one gather of the maximum's advance (_batches)
# _batches' cost of a gather: a numpy call about _CALL_BYTES bytes
# gathered, and a row about _ROW_BYTES beyond its own
_CALL_BYTES = 1 << 14
_ROW_BYTES = 256
_PLAN_BLOCK = 1 << 20  # the pairs _split_plan flags, and bytes _hasse ands, at a time
# The pair advance closes a chunk of current rows at a time in a
# (classes + 1, chunk) int8 block (_chunk_rows): about _BLOCK bytes,
# which stay in cache through the closure, and at least _CHUNK rows, so
# that the numpy calls a chunk makes stay few.  It reads the block about
# _READ_ROWS * 2^n table entries at a time, so the flat indices stay in
# cache too.
_BLOCK = 1 << 20
_CHUNK = 256
_READ_ROWS = 16
_TAKE_BLOCK = 1 << 16  # the class slots a take of _closed_chunks expands at a time
_PHASES = ("group", "transform", "read", "close", "scan")


def _need_bytes(objective: Objective, m: int, n: int, bricked: bool) -> int:
    """Upper bound on the bytes one solve without a witness allocates, with
    cold table caches.

    Counts the arrays alive at the DP's peak: the cached tables, the working
    arrays of one row, and the grouped maxima of the rows in the sweep's
    ring, the minimum's its slot maxima (_pair_advance).  A witness's kept
    layers past those and its backward scan are charged by the sweep as
    it goes (_sweep).
    """
    size = 1 << n
    if objective is Objective.MIN_MAXIMAL and m == 1:
        # _row_rule reads _houses alone: pc and the state (int8) a row; then
        # one _RULE_BLOCK's rows, their reach and the uint32 stages of _reach
        return _FIXED_BYTES + 2 * size + min(size, _RULE_BLOCK) * 24
    if objective is Objective.MAX_PERMISSIBLE:
        # the split plan, and no array of one entry a row: the grouped
        # maxima and the _RING rows' maxima they are compared with, and at
        # a close-off the uint32 fit test, its mask and the masked maxima;
        # G beside the rest of the advance
        groups, plan, build, g, group = _split_bytes(n, bricked)
        per_group = _RING + 7
        return _FIXED_BYTES + plan + max(build, groups * per_group + g + group)
    # the minimum reads no split plan: _houses, pc (int8) a row, built in
    # place, and its gain; the reach tables; the rule (_min_rule), row 1's
    # slot maxima, the rows' gain (int8) and rows (uint32) and the places
    # of their entries in a closed state and at d_v (intp), beside _reach's
    # uint32 stages while they are made, and its closures' objects; and
    # the slot maxima of the rows in the sweep's ring, _RING + 1 of them
    tables, made, slots, advance, read = _reach_bytes(n, bricked)
    cols = ((1 << n) + (1 << (n + 1) // 2)) // 2
    rule = slots + cols * 48 + 20 * _OBJECT_BYTES
    return (_FIXED_BYTES + size * 2 + tables + rule
            + max(made, min(m, _RING + 1) * slots + max(advance, read)))


def _reach_bytes(n: int, bricked: bool) -> tuple[int, int, int, int, int]:
    """The bytes of the cached _reach_bits and _reach_tables at width n,
    the most their builds hold beyond them, the class slots (one state's
    bytes), and the most a row advance (_pair_advance) and a read of
    _min_rule hold beyond the tables, the rule and the states they read.

    The representatives are half of the rows and of the palindromes, x |
    rev(x) for the 2^ceil(n / 2) rows x below them, and a row's mirror
    has as many own bits D_c: so they hold half of both's entries.  The
    holes' closure is charged from at most n Hasse parents a class, with
    no call of _hasse.
    """
    keys, own, seen = _reach_bits(n, bricked)
    half = np.arange(1 << (n + 1) // 2, dtype=np.uint32)
    size, groups, cols = 1 << n, len(keys), ((1 << n) + len(half)) // 2
    widths = (1 << np.arange(n + 1, dtype=np.int64)) + 1
    rows = np.bincount(np.bitwise_count(own), minlength=n + 1)
    rows += np.bincount(np.bitwise_count(own[half | bit_reverse(half, n)]), minlength=n + 1)
    rows //= 2
    held = np.bincount(np.bitwise_count(seen), minlength=n + 1)
    entries, slots = int(rows @ widths), int(held @ widths)
    bits = int(rows @ np.arange(n + 1))  # the bits of every row's D_c
    item = np.dtype(np.min_scalar_type(slots - 1)).itemsize
    edges = groups * n
    chunk = _chunk_rows(cols, groups + 1)
    # the keys, D_c a row and D_g a class; the rows in table order and
    # their mirrors (intp), the runs and the spans; the uint16 entries and
    # their scatter (intp), the slots and their mirror (intp); the g map
    # (uint16); the closure, each class's row and its Hasse children
    # (intp), and a few batches' objects
    tables = (groups * 8 + size * 4 + cols * 16 + (n + 1) * 600 + entries * (2 + 8)
              + groups * cols * item + slots * 8 + size * 2
              + (edges + 2 * groups) * 8 + (n + 1) ** 2 * _OBJECT_BYTES)
    # _reach_bits: a flag and D_g (uint32) a triple mask, a block's (bit,
    # row) pairs in the uint32 stages of _reach.  _reach_tables: a few
    # words a row while it orders the representatives (the rows' keys and
    # ids, the mirror test); then, to its end, the reversed rows (uint32),
    # a few words a representative (its class, D_c and |D_c|) and a few a
    # class and bit, beside, in turn: for each bit of a D_c, its row, place
    # and step (intp) and reach(c, {k}) in uint32 stages, then its step
    # alone beside a run's int64 table and its rows' class places; the g
    # map's take of _TAKE_BLOCK entries (intp), or _hasse of the holes, or
    # the closure's build; a block of classes' slots at every row d; and
    # the mirror classes' places and the rows' mirrors.  _hasse holds, in
    # turn, a uint16 and and a flag a class pair; the flags beside the
    # ordered pairs (intp), or beside them bit-packed both ways; those
    # beside a flag a pair and a block of and-ed rows; the pairs beside the
    # edges
    run = int((rows * widths).max())
    step = max(1, (_PLAN_BLOCK >> 4) // groups)
    pairs = sum(int(np.count_nonzero((keys & ~keys[a:a + step, None]) == 0))
                for a in range(0, groups, step)) - groups  # hole j ⊊ hole k: key k ⊊ key j
    packed = -(-groups // 8)
    hasse = max(3 * groups * groups, groups * groups + 24 * pairs + 2 * groups * packed,
                17 * pairs + 2 * groups * packed + 3 * min(_PLAN_BLOCK, pairs * packed),
                18 * pairs + 16 * edges)
    kept = size * 4 + cols * 13 + groups * (48 + 32 * n)
    made = 64 * _OBJECT_BYTES + max(
        size * 5 + min(n << n, _RULE_BLOCK >> 2) * 32,
        size * 40 + cols * (40 + n),
        kept + cols * 8 + max(bits * 56, bits * 8 + run * 16 + cols * 16),
        kept + max(min(entries, _TAKE_BLOCK) * 8, hasse, edges * 48 + groups * 40),
        kept + min(groups, max(1, _BLOCK // (size * item))) * size * item,
        kept + groups * 8 + cols * 12)
    # a row advance: the rows' reads, one a table entry, and the flat
    # indices (intp) of at most _READ_ROWS * 2^n of them; a chunk's block
    # and the intp slots of its takes (_closed_chunks), and a closure's
    # gather and its maxima (_batches); then its maxima beside the reads or
    # the mirror's maxima
    gather = 3 * min(max(_GATHER_BLOCK, 2 * chunk), groups * (n + 1) * chunk) // 2
    block = (groups + 1) * chunk + min(max(1, _TAKE_BLOCK // chunk), groups) * chunk * 8
    advance = max(entries + min(_READ_ROWS * size, entries) * 8 + block + gather,
                  slots + max(entries, slots))
    # a read of _min_rule: a close-off's maxima, a block and its gather
    # and the places of a chunk's entries (intp); or a scan row's reach,
    # built in the uint32 stages of _reach, its g (uint16), their places
    # (intp) and the reads, beside the row's first read; and the close-off
    # maxima of the rows the sweep repeats, at most _RING
    read = max(cols + block + max(gather, chunk * 8), cols * (24 + 2 + 16 + 2)) + cols * _RING
    return tables, made, slots, advance, read


@lru_cache(maxsize=8)
def _split_bytes(n: int, bricked: bool) -> tuple[int, int, int, int, int]:
    """The classes at width n, the bytes of its cached _split_plan and the
    most its build holds beyond them, the cells of the maximum's (len(lam),
    len(hv)) array G, and the most its advance (_max_rule) holds beyond G
    and the grouped maxima.

    Read off the plan itself, at every width the hard limit admits: its
    build takes work of the order of its classes (about 0.6 s free and 1.0
    s bricked at 32 columns).
    """
    h, w = n // 2, n - n // 2
    plan = _split_plan(n, bricked)
    arrays = [a for a in plan if isinstance(a, np.ndarray)]
    arrays += [a for batches in (plan.lam_closure, plan.lam_product, plan.closure, plan.product)
               for batch in batches for a in batch if isinstance(a, np.ndarray)]
    held = sum(a.nbytes + _OBJECT_BYTES for a in arrays)
    highs, runs, cells = len(plan.hv), len(plan.run_keys), len(plan.order)
    groups, cols = len(plan.keys), plan.col_key.shape[1]
    # The build holds the runs' rows, their order (intp) and a few words
    # a run, and the low halves and the column runs' starts (intp), beside
    # the largest of: the cells in class order (intp) and a flag a cell
    # beside their copy in the plan's order, and the indices (intp) of the
    # cells np.compress gathers, 17 bytes a cell; a class's place in G and
    # its high half's index (intp); either side's _cover pass, 1 + T and
    # its kept flag a (set, owner) pair, the edges and their ranks (intp),
    # a house count an item, beside a block of (set, item) pairs, their
    # and and its flag, the block's parents' maxima and one parent's, and
    # the padded parents (intp), or then the kept pairs (intp) and their
    # T; or its _hasse's strict order, a bool a pair of sets and an intp
    # pair for each pair in it and its flat indices, or it bit-packed both
    # ways, a flag a pair and a block of and-ed rows and their pairs
    build = max(cells * 17, groups * 16)
    for sets, items, owners, closure, product in (
            (plan.lam, 1 << h, cols, plan.lam_closure, plan.lam_product),
            (((1 << w) - 1) - plan.hv, 1 << w, runs, plan.closure, plan.product)):
        count = len(sets)
        children = np.concatenate([members[:, 1:].ravel() for _, members in closure]
                                  + [np.empty(0, np.intp)])
        edges, kept = len(children), sum(at.size for _, at, *_ in product)
        degree = max(1, int(np.bincount(children).max(initial=0)))  # the most Hasse parents
        block = min(count, max(1, _PLAN_BLOCK // items))
        packed = -(-count // 8)
        pairs = int(np.count_nonzero((sets[:, None] & ~sets) == 0)) - count  # the strict order
        cover = (2 * (count + 1) * owners + edges * 24 + items
                 + max(3 * min(_PLAN_BLOCK, count * items) + 2 * block * owners
                       + count * degree * 8, kept * 19))
        hasse = 16 * pairs + max(count * count + 8 * pairs,
                                 2 * count * packed + pairs + 3 * min(_PLAN_BLOCK, pairs * packed)
                                 + 16 * min(pairs, _PLAN_BLOCK // packed))
        build = max(build, cover, hasse)
    build += (10 << w) + runs * 32 + (2 << h) + cols * 8
    # The advance, beside G: a batch of G's closure; or M, a row of high
    # halves a column run, beside a batch of its product or its transposed
    # copy; then that copy beside a batch of its closure, or of its
    # product beside the cells, a column run a run; then the cells, the
    # cells of the classes of more than one in class order, and the maxima
    # of all classes before they are put in class order.  A batch gathers
    # and makes at most its members or pairs and twice its parents or
    # owners, their maxima and the rows a product folds them into
    rows = lambda batches: max([at.size + 2 * len(r) for r, at, *_ in batches], default=0)
    most, table = cols * highs, runs * cols
    advance = max(rows(plan.lam_closure) * highs,
                  most + max(rows(plan.lam_product) * highs, most, rows(plan.closure) * cols,
                             table + rows(plan.product) * cols),
                  table + cells + groups)
    return groups, held, build, len(plan.lam) * highs, advance


def _brute_bytes(objective: Objective, m: int, n: int) -> int:
    """Upper bound on the bytes brute_force allocates on an m×n grid.

    While the row rules are and-ed on: the uint8 array of one byte a
    configuration and the last row-rule table (one byte an entry, over up
    to three axes for the minimum and two for the maximum).  Beside them,
    either the next table as it is built, the uint32 stages of one
    _RULE_BLOCK of it and the uint32 rows of its other axes (of its first
    block on one axis); or a short
    pattern's line and its np.repeat temporary, at most _RULE_BLOCK bytes
    each.  Then the uint8 array and the uint8 scores, one byte a
    configuration each.
    """
    configs, size = 1 << (m * n), 1 << n
    arity = min(m, 3 if objective is Objective.MIN_MAXIMAL else 2)
    build = size ** arity + _RULE_BLOCK * 24 + (size if arity > 1 else min(size, _RULE_BLOCK)) * 4
    rules = configs + size ** arity + max(build, 2 * _RULE_BLOCK)
    return _FIXED_BYTES + max(rules, 2 * configs)


def _check_limits(objective: Objective, dims: Dims, limits: Limits) -> int:
    """Raise LimitError when a solve would pass a column or byte cap.

    Past 16 columns for a pair solve, and past 32 for every solve, no
    Limits value lifts the column cap: the reach tables
    (_reach_tables) and their map of each reach to its hole's class are
    uint16, and _split_plan's rows, bit_reverse and the int8 scores' band
    (_DEAD) hold 32 columns.  Both are checked before any table is built.

    Returns the byte estimate of the solve without a witness (_need_bytes),
    checked against the cap; what a witness keeps beyond it, the sweep
    charges as it keeps it.
    """
    m, n, bricked = dims.rows, dims.cols, dims.boundary is Boundary.BRICKED
    pairs = objective is Objective.MIN_MAXIMAL and m > 1
    cap, limit, what = ((limits.max_cols_pairs, 16, "pair-state cap") if pairs
                        else (limits.max_cols, 32, "cap"))
    if n > cap:
        raise LimitError(f"cols {n} over the configured {what} {cap}")
    if n > limit:
        raise LimitError(f"cols {n} over the hard limit {limit}, which no {what} lifts")
    return _check_bytes(_need_bytes(objective, m, n, bricked), limits)


def _check_bytes(need: int, limits: Limits) -> int:
    """Raise LimitError when the byte estimate need passes the cap; return need."""
    if need > limits.max_state_bytes:
        raise LimitError(
            f"estimated state space of {need} bytes over cap {limits.max_state_bytes}"
        )
    return need


def _out_of_memory(need: int | None) -> LimitError:
    """A MemoryError in a solve or brute_force as a LimitError that names
    its estimate need, which the byte cap admitted, or None before it."""
    return LimitError("out of memory " + ("while estimating the state space" if need is None
                                          else f"within the estimated state space of {need} bytes"))


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


class _SplitPlan(NamedTuple):
    """The classes of one width, and how the maximum's row advance and
    witness scan reach them over the two halves of a row (_split_plan)."""

    keys: np.ndarray  # the classes: the triple masks that occur, ascending
    hv: np.ndarray  # the distinct ~K_j, for the key high halves K_j ascending
    lam: np.ndarray  # the distinct key low halves λ, ascending
    at: np.ndarray  # each class's flat index into a (len(lam), len(hv)) array G
    split: int  # the runs of rows with b = 0, which come first
    # the column runs.  col_key (2, column runs) is each one's low half of
    # its keys given b = 0, 1, times 2, plus t, and col_of each low half's
    # column run (intp)
    col_key: np.ndarray
    col_of: np.ndarray
    # the (run, column run) cells, as flat indices into a (runs, column
    # runs) array (intp): the cells of the classes of one cell first, then
    # the other classes' in class order, and where each of those starts
    # after the first; and each class's place in that order, the one-cell
    # classes first
    order: np.ndarray
    class_starts: np.ndarray
    by_class: np.ndarray
    # each side's closure and product (_cover): the λ's, then the K_j's
    lam_closure: list[tuple[np.ndarray, np.ndarray]]
    lam_product: list[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]
    closure: list[tuple[np.ndarray, np.ndarray]]
    product: list[tuple[np.ndarray, np.ndarray, np.ndarray, bool]]
    # the scan's: the key of the class of a cell (run, c) is
    # (run_keys[run, t] << h) | (col_key[b, c] >> 1), with b the run's side
    # and t = col_key[b, c] & 1
    run_keys: np.ndarray  # (runs, 2): each run's high half of its keys, given t = 0, 1
    lo_desc: np.ndarray  # the columns by descending rev_h (intp)
    hi_desc: np.ndarray  # the rows by descending rev_(n - h), in hv's dtype
    run_desc: np.ndarray  # the run of each row of hi_desc (intp)


@lru_cache(maxsize=8)
def _split_plan(n: int, bricked: bool) -> _SplitPlan:
    """The classes of width n and the split plan, from its two halves.

    Triple bit j of a row reads its bits j - 1, j and j + 1 alone.  With
    h = n // 2, the high half of a state (its bits h..n - 1, a row of the
    state viewed as a (2^(n - h), 2^h) array) therefore gives the high half
    of its triple mask once t, its bit h - 1, is known, and the low half (a
    column) gives the low half once b, its bit h, is known.  Both come from
    triple_mask on rows that hold one half and that one bit of the other.

    The rows fall in runs of equal (b, high half given t = 1, high half
    given t = 0), ascending, and the columns in column runs of equal (low
    half given b = 0, low half given b = 1, t), ascending.  Each (run,
    column run) cell holds states of one triple mask, the run's high half
    at the column run's t and the column run's low half at the run's b,
    and each state lies in one cell, so the cells' masks are the classes;
    order lists the cells of the classes of one cell, then the others' by
    class.

    The rest serves the maximum's advance (_max_rule), alike on both sides
    of a row.  at places a key K_j·2^h + λ, with K_j = ~hv[j] and λ =
    lam[i], at (i, j) of a (len(lam), len(hv)) array.  Each side's family
    of key halves has its Hasse closure and the undominated pairs of its
    cover table (_cover): 872 of 3 152 (column run, λ) pairs and 1 656 of
    6 641 (run, K_j) pairs at n = 23, free.  At h = 0, t is 0 and a run's
    two high halves agree.
    """
    h, w = n // 2, n - n // 2
    top = (1 << h) >> 1  # bit h - 1; none when h = 0
    hi = np.arange(1 << w, dtype=np.uint32)
    hi1 = triple_mask((hi << h) | top, n, bricked) >> h
    hi0 = triple_mask(hi << h, n, bricked) >> h
    order, starts = _runs(((hi & 1).astype(np.int64) << (2 * w))
                          | (hi1.astype(np.int64) << w) | hi0)
    first = order[starts]
    split = int(np.count_nonzero((hi[first] & 1) == 0))
    hi1, hi0 = hi1[first], hi0[first]
    half = np.min_scalar_type((1 << w) - 1)
    rows = hi[order].astype(half)  # the rows in run order
    del hi
    lo = np.arange(1 << h, dtype=np.uint32)
    col_keys = triple_mask(lo | (np.arange(2, dtype=np.uint32)[:, None] << h), n, bricked)
    col_keys &= (1 << h) - 1
    # the column runs, each low half's, and the low halves by column run
    key = col_keys * 2 + ((lo & top) != 0)
    by_col, firsts = _runs((key[0].astype(np.int64) << 32) | key[1])
    cols = len(firsts)
    col_key = key[:, by_col[firsts]]
    col_of = np.empty(1 << h, dtype=np.intp)
    col_of[by_col] = np.repeat(np.arange(cols), _lengths(firsts, 1 << h))
    halves = by_col.astype(np.min_scalar_type((1 << h) - 1))
    del lo, col_keys, key, by_col
    # the cells' masks, (runs, column runs): each run's high half at the
    # column run's t, and the column run's low half at the run's b
    masks = np.where((col_key[0] & 1) != 0, hi1[:, None], hi0[:, None])
    masks <<= h
    masks[:split] |= col_key[0] >> 1
    masks[split:] |= col_key[1] >> 1
    # (np.unique would import numpy.ma, about 1 MiB, on a solve's first call)
    masks = masks.ravel()
    by_mask, class_starts = _runs(masks)
    keys = masks[by_mask[class_starts]]
    del masks
    # the one-cell classes' cells first, then the other classes' in class
    # order, where each of those starts there, and where each class is in
    # that order
    count = _lengths(class_starts, len(by_mask))
    multi = count > 1
    rest = np.repeat(multi, count)
    del count
    by_class = np.cumsum(multi)
    ones = len(keys) - int(by_class[-1])
    class_starts -= np.arange(len(keys))
    class_starts += by_class
    class_starts = class_starts[multi] - 1
    by_class += ones - 1
    by_class[~multi] = np.arange(ones)
    del multi
    cells = np.empty_like(by_mask)
    np.compress(rest, by_mask, out=cells[ones:])
    np.logical_not(rest, out=rest)
    np.compress(rest, by_mask, out=cells[:ones])
    del by_mask, rest
    # each class at (i, j): the K_j come ascending, as the keys do
    part = keys >> h
    js = _starts(part)
    high = part[js].astype(half)
    np.bitwise_and(keys, (1 << h) - 1, out=part)
    seen = np.bincount(part, minlength=1) > 0
    lam = np.flatnonzero(seen).astype(halves.dtype)
    at = np.take(np.cumsum(seen) - 1, part)
    del part, seen
    at *= len(high)
    at += np.repeat(np.arange(len(high)), _lengths(js, len(keys)))
    lam_closure, lam_product = _cover(lam, halves, firsts, len(high))
    del halves, firsts
    closure, product = _cover(high, rows, starts, cols)
    del rows
    run_of = np.empty(1 << w, dtype=np.intp)
    run_of[order] = np.repeat(np.arange(len(starts)), _lengths(starts, 1 << w))
    hi_desc = _axis_rows(w, 1 << w)
    return _SplitPlan(keys, (((1 << w) - 1) - high).astype(half), lam, at, split, col_key,
                      col_of, cells, class_starts, by_class, lam_closure, lam_product, closure,
                      product, np.stack([hi0, hi1], axis=1),
                      _axis_rows(h, 1 << h).astype(np.intp), hi_desc.astype(half),
                      run_of[hi_desc])


def _cover(sets: np.ndarray, items: np.ndarray, starts: np.ndarray,
           width: int) -> tuple[list, list]:
    """One side's closure and product for the maximum's advance: sets
    are its key halves S_j, distinct and ascending, and items its row
    halves, in the sets' dtype, by owner (column run or run), each owner's
    from starts on; width is the row width of the arrays the batches read.

    closure holds the family's Hasse edges (S_k ⊊ S_j with no member
    between, found by _hasse), grouped by parent, a round per popcount of
    the parents (_close).  The cover table T[owner, j] is the most houses
    of an item of the owner that misses S_j, where there is one, so T
    falls as S_j grows.  A pair (owner, j) is dominated when some S_k ⊋
    S_j has an equal T[owner, k], and then a Hasse parent of S_j on the
    way to S_k has it too; product keeps the rest, each owner's in one
    batch of owners with as many pairs (_batches): the owners, their
    pairs' j (intp), T (int8, (owners, k, 1)) and whether the batch goes
    on with owners begun before it.  Each item misses the empty set, the
    half of key 0, so each owner keeps a pair.  T and the dominance are
    found in one pass, _PLAN_BLOCK (set, item) pairs at a time, the
    largest S_j first, so that each pair's parents are done before it.
    """
    child, parent = _hasse(sets)
    # each set's Hasse parents, padded with len(sets), a row of 0s
    rank = np.arange(len(child)) - np.searchsorted(child, child)
    ups = np.full((len(sets), int(rank.max(initial=0)) + 1), len(sets))
    ups[child, rank] = parent
    # 1 + T, or 0 where no item of the owner misses S_j, a uint8 flag a
    # (set, item) pair maxed over each owner; then a pair is kept when its
    # T passes every Hasse parent's
    gain = np.bitwise_count(items) + np.uint8(1)
    most = np.zeros((len(sets) + 1, len(starts)), dtype=np.uint8)
    keep = np.empty((len(starts), len(sets)), dtype=bool)
    step = max(1, _PLAN_BLOCK // len(items))
    for a in range(len(sets) - step, -step, -step):
        z, a = a + step, max(a, 0)
        flags = ((sets[a:z, None] & items) == 0).view(np.uint8)
        np.multiply(flags, gain, out=flags)
        np.maximum.reduceat(flags, starts, axis=1, out=most[a:z])
        del flags
        up = most[ups[a:z, 0]]
        for i in range(1, ups.shape[1]):
            np.maximum(up, most[ups[a:z, i]], out=up)
        np.greater(most[a:z], up, out=keep[:, a:z].T)
    del up
    owner, col = np.nonzero(keep)
    cover = most[col, owner].astype(np.int8) - 1
    del most, keep
    product = [(owners, col[at], cover[at][..., None], more)
               for owners, at, more in _batches(owner, np.zeros_like(owner), width)]
    return _closure(sets, child, parent, width), product


def _closure(sets: np.ndarray, child: np.ndarray, parent: np.ndarray,
             width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The closure (_close) of a family of distinct sets from its Hasse
    edges (_hasse), for a table whose rows are width bytes: each round the
    parents of one popcount, whose children have less, in batches
    (_batches), a parent's members its own row, then its children's."""
    rounds = np.bitwise_count(sets)[parent]
    by = np.lexsort((parent, rounds))
    parent, child = parent[by], child[by]
    return [(parents, np.concatenate([parents[:, None], child[at]], axis=1))
            for parents, at, _ in _batches(parent, rounds[by], width, 1)]


def _hasse(high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hasse edges of a family of distinct sets, as bit masks: the
    (child, parent) index pairs with high[child] ⊊ high[parent] and no
    member between, ordered by child, then parent.

    A pair of the strict order is an edge unless some member lies above
    the child and below the parent: the bit-packed rows of the members
    above each child and below each parent are and-ed, _PLAN_BLOCK bytes
    of pairs at a time.
    """
    sub = (high[:, None] & ~high) == 0  # sub[j, k]: high[j] ⊆ high[k]
    np.fill_diagonal(sub, False)
    child, parent = np.divmod(np.flatnonzero(sub), len(high))
    above, below = np.packbits(sub, axis=1), np.packbits(sub.T, axis=1)
    del sub
    between = np.empty(len(child), dtype=bool)
    step = max(1, _PLAN_BLOCK // above.shape[1])
    for a in range(0, len(child), step):
        np.any(above[child[a:a + step]] & below[parent[a:a + step]], axis=1,
               out=between[a:a + step])
    return child[~between], parent[~between]


def _batches(owner: np.ndarray, rounds: np.ndarray, width: int,
             extra: int = 0) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """The entries of owner, where each owner's entries are contiguous, in
    batches for an (owners, k, width) gather of at most _GATHER_BLOCK bytes,
    k + extra rows an owner: per batch, owners of at most k entries each in
    one round, at, the (owners, k) positions of their entries, an owner's
    last repeated up to k, and whether the batch goes on with owners begun
    in the batch before.  An owner of more entries than a gather holds is
    split into batches of one owner.  Batches come by ascending round.

    Repeating an entry leaves a maximum as it is, so owners of nearby
    counts share batches: each round's distinct counts, ascending, are
    grouped while raising a group's counts to the next one adds rows worth
    at most _CALL_BYTES, about what one more gather's numpy calls cost (a
    row costs about _ROW_BYTES beyond its own bytes).
    """
    if not len(owner):
        return []
    segs = _starts(owner)
    count = _lengths(segs, len(owner))
    span = int(count.max()) + 1
    key = rounds[segs].astype(np.intp) * span + count
    by = np.argsort(key, kind="stable")
    firsts = _starts(key[by])
    keys, firsts = key[by[firsts]].tolist(), firsts.tolist() + [len(by)]
    groups, group, held = [], 0, 0  # the group starts at keys[group] and holds held
    for i, k in enumerate(keys):
        if held and (k // span != keys[group] // span
                     or (k - keys[i - 1]) * held * (width + _ROW_BYTES) > _CALL_BYTES):
            groups.append((firsts[group], firsts[i], keys[i - 1] % span))
            group, held = i, 0
        held += firsts[i + 1] - firsts[i]
    groups.append((firsts[group], len(by), keys[-1] % span))
    rows = max(1 + extra, _GATHER_BLOCK // width)  # the rows of a gather
    batches = []
    for g0, g1, k in groups:
        if k + extra > rows:
            for s, c in zip(segs[by[g0:g1]].tolist(), count[by[g0:g1]].tolist()):
                batches += [(owner[[s]], np.arange(s + a, s + min(a + rows - extra, c))[None],
                             a > 0) for a in range(0, c, rows - extra)]
            continue
        step = rows // (k + extra)
        for a in range(g0, g1, step):
            own = by[a:min(a + step, g1), None]
            at = segs[own] + np.minimum(np.arange(k), count[own] - 1)
            batches.append((owner[at[:, 0]], at, False))
    return batches


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of key in ascending key order, and where each run of
    equal keys starts in that order."""
    order = np.argsort(key, kind="stable")
    return order, _starts(key[order])


def _lengths(starts: np.ndarray, end: int) -> np.ndarray:
    """The lengths of the runs that start at starts, ascending from 0, and
    end at end."""
    count = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=count[:-1])
    count[-1] = end - starts[-1]
    return count


def _starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of the ascending array ordered starts."""
    new = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.flatnonzero(new)


@lru_cache(maxsize=8)
def _houses(n: int) -> np.ndarray:
    """The houses of every row of width n (int8), n less each row's gain
    for the minimum; the maximum adds houses over a row's two halves.

    Built in place by doubling: the rows from 2^b to 2^(b + 1) - 1 are
    those below 2^b with bit b set.  Read-only, as it is cached.
    """
    pc = np.zeros(1 << n, dtype=np.int8)
    for b in range(n):
        np.add(pc[:1 << b], 1, out=pc[1 << b:2 << b])
    pc.flags.writeable = False
    return pc


def _reach(c, d, n: int, bricked: bool):
    """The pair rule: reach(c, d) for the uint32 rows c over the rows d
    below, or for one pair of int rows.

    reach holds the houses of c and the empty lots of c that the east, west
    and center propositions cover; the north proposition must cover the
    rest, so a row u above c fits when triple(u) ⊇ ~reach, that is
    ~triple(u) ⊆ reach.  reach is 0 where d blocks a house of c (c ≠ 0
    there; elsewhere reach ⊇ c).
    """
    part = c | covered_mask(0, c, d, n, bricked)  # no row above: north is 0
    # key 0 fits only u = full on the bricked border, and (full, c) is
    # itself blocked for every c ≠ 0: dead from row 1 on, so blocked
    # pairs read dead
    return part * ((triple_mask(c, n, bricked) & d) == 0)


@lru_cache(maxsize=8)
def _reach_bits(n: int, bricked: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum's classes, and the bits of the row below that each
    row's reach reads, and each class's.

    reach(c, d) is c or-ed with masks of c and-ed with shifts of d, so bit
    k of d adds reach(c, {k}) to it.  Where d meets the key of c, reach is
    0; elsewhere it reads d only through D_c, the bits k outside the key
    for which reach(c, {k}) ≠ reach(c, ∅) = c.  A class g reads D_g, the
    union of its rows' D_c.  Returns the classes, the triple masks that
    occur, ascending, D_c per row and D_g per class (uint32), evaluated on
    _RULE_BLOCK >> 2 (bit, row) pairs at a time, D_g gathered per triple
    mask; the minimum reads no split plan.
    """
    size, step = 1 << n, max(1, (_RULE_BLOCK >> 2) // n)
    own = np.empty(size, dtype=np.uint32)
    seen = np.zeros(size, dtype=np.uint32)  # D_g at each triple mask
    occurs = np.zeros(size, dtype=bool)
    bit = (np.uint32(1) << np.arange(n, dtype=np.uint32))[:, None]
    for lo in range(0, size, step):
        c = np.arange(lo, min(lo + step, size), dtype=np.uint32)
        key = triple_mask(c, n, bricked)
        occurs[key] = True
        part = own[lo:lo + step]
        np.bitwise_or.reduce(np.where(_reach(c, bit, n, bricked) != c, bit, 0), axis=0, out=part)
        part &= ~key
        np.bitwise_or.at(seen, key, part)
    keys = np.flatnonzero(occurs).astype(np.uint32)
    return keys, own, seen[keys]


class _ReachTables(NamedTuple):
    """The minimum's reach tables at one width (_reach_tables).

    The rows are the representatives c <= rev(c) alone, taken in table
    order: by the size of their own bits D_c, then by class.  The state's
    columns, its rows c, are in this order too.  The class slots are laid
    out slot-major by the size B of D_g: per B, one (2^B + 1, classes)
    array, its classes by key.
    """

    order: np.ndarray  # the representative rows in table order (intp)
    mirrored: np.ndarray  # their mirrors, rev(c) at c's place (intp)
    runs: list[tuple[int, int, int, int]]  # per table width (_reach_tables)
    # per row in order, the class of the largest hole inside its reach at
    # its own slots, or the dead row, the class count, where none is (uint16)
    reach: np.ndarray
    scatter: np.ndarray  # per entry of reach, its class slot (intp)
    spans: list[tuple[int, int, int]]  # per size B of D_g: (first slot, classes, B)
    # (classes, representative rows): each row d's class slot, the rows d in
    # table order, in the smallest unsigned dtype that holds the slot count
    slots: np.ndarray
    mirror: np.ndarray  # per class slot, the mirror class's slot of its mirror (intp)
    unread: int  # the one class slot that no row d reads, nor its mirror: key 0's blocked slot
    hole: np.ndarray  # g(R) at every R (_hole_classes, uint16)
    closure: list[tuple[np.ndarray, np.ndarray]]  # the holes' (_close), by class index


@lru_cache(maxsize=8)
def _reach_tables(n: int, bricked: bool) -> _ReachTables:
    """The pair solver's reach, per row at the rows below it can see, and
    the slots of its classes.

    Only the representative rows c <= rev(c) are kept: the state is
    mirror-symmetric (_pair_advance).  The table row of a row c
    holds reach(c, s) at the 2^|D_c| subsets s of its own bits D_c
    (_reach_bits), subset s at slot s, whose bit i is the i-th bit of D_c,
    and then 0, at slot 2^|D_c|.  Each entry is stored as the block row
    _pair_advance reads for it, g(reach), the class of the largest hole
    inside reach, or the dead row where none is (hole, _hole_classes).  A
    run of rows with one |D_c| is the tuple (first row, end row, width L =
    2^|D_c| + 1, its first entry in reach).  A class g has 2^|D_g| + 1
    slots: subset s of D_g, whose bit i is the i-th bit of D_g, and the
    blocked slot 2^|D_g|, slot s of the j-th class of its span at first
    slot + s * classes + j.  scatter maps the slot s of a row of class g to
    g's slot of s, the bits of D_c placed at their ranks in D_g, and the
    row's blocked slot to g's.  Both are built by doubling, one bit of D_c
    at a time, from reach(c, ∅) = c and g's slot ∅.  slots[g, i] is d &
    D_g's slot, or the blocked one where d meets the key, for the row d =
    order[i], built by doubling over the rows d ascending, a block of
    classes at a time, and then put in table order.  mirror sends g's slot
    s to the slot of rev(s) of the mirror class g*, whose key is
    rev(key(g)) and whose D_g* is rev(D_g): s's |D_g| bits in reverse
    order, and the blocked slot to the blocked slot.  Every slot but one is
    read by a representative row d, directly or through mirror: a subset
    s of D_g misses the key, so the row s reads it, or rev(s) its mirror,
    and the full row, a palindrome, meets every key but 0.  Key 0, class 0,
    is its own mirror and meets no row: its blocked slot is unread.
    closure is the holes' (_closure), batched for a chunk's rows
    (_chunk_rows).
    """
    keys, own, seen = _reach_bits(n, bricked)
    size, groups = 1 << n, len(keys)
    c = np.arange(size, dtype=np.uint32)
    every = np.arange(n, dtype=np.uint32)
    ids = np.searchsorted(keys, triple_mask(c, n, bricked))
    # the spans, one |D_g| each, of count classes from by[j0] on, from slot
    # at on; each class's slot ∅ and the stride between its slots; and the
    # rank of each bit of D_g among them
    held = np.bitwise_count(seen).astype(np.intp)
    by = np.argsort(held, kind="stable")
    j0 = _starts(held[by])
    count, size_b = _lengths(j0, groups), held[by[j0]]
    at = np.zeros(len(j0) + 1, dtype=np.intp)
    np.cumsum(count * ((1 << size_b) + 1), out=at[1:])
    spans = list(zip(at.tolist(), count.tolist(), size_b.tolist()))
    span = np.repeat(np.arange(len(j0)), count)  # each class's, in by order
    first, stride = np.empty(groups, dtype=np.intp), np.empty(groups, dtype=np.intp)
    first[by], stride[by] = at[span] + np.arange(groups) - j0[span], count[span]
    mine = ((seen[:, None] >> every) & 1).astype(np.intp)
    rank = np.cumsum(mine, axis=1) - mine
    # the representative rows in table order: by |D_c|, then by class
    rev = _axis_rows(n, size)[::-1]  # rev(c) at c
    order = np.flatnonzero(c <= rev)
    del c
    bits = np.bitwise_count(own[order])
    by_row = np.argsort((bits.astype(np.int64) << 32) | ids[order], kind="stable")
    order, bits = order[by_row], bits[by_row]
    del by_row
    own, ids = own[order], ids[order]
    reach = np.empty(int(((1 << bits.astype(np.intp)) + 1).sum()), dtype=np.uint16)
    scatter = np.empty(len(reach), dtype=np.intp)
    # the bits k of each row's D_c, lowest first, row by row: reach(c, {k})
    # in the low 16 bits, and above them the slot k adds in D_g, so that
    # one or of both builds the table and the scatter (the slots' bits are
    # distinct, so or adds them)
    row, pos = np.divmod(np.flatnonzero((own[:, None] & (np.uint32(1) << every)) != 0), n)
    move = _reach(order[row].astype(np.uint32), np.uint32(1) << pos.astype(np.uint32), n, bricked)
    move = (1 << (rank[ids[row], pos] + 16)) | move
    # the runs, one |D_c| each, built slot by slot, so that each step is
    # one long row, and stored row by row: slot ∅ holds reach(c, ∅) = c,
    # the blocked slot reach 0 and the class's blocked slot
    bounds = _starts(bits).tolist() + [len(order)]
    blocked = (1 << held[ids]) << 16
    first_c, stride_c = first[ids, None], stride[ids, None]  # each row's class's
    runs, e, p = [], 0, 0
    for r0, r1 in zip(bounds, bounds[1:]):
        b = int(bits[r0])
        w, rows = (1 << b) + 1, r1 - r0
        table = np.empty((w, rows), dtype=np.int64)
        table[0], table[-1] = order[r0:r1], blocked[r0:r1]
        moves = move[p:p + rows * b].reshape(rows, b).T
        for i in range(b):
            np.bitwise_or(table[:1 << i], moves[i], out=table[1 << i:2 << i])
        both = table.T
        np.bitwise_and(both, 0xFFFF, out=reach[e:e + table.size].reshape(rows, w), casting="unsafe")
        to = scatter[e:e + table.size].reshape(rows, w)
        np.right_shift(both, 16, out=to)
        to *= stride_c[r0:r1]
        to += first_c[r0:r1]
        runs.append((r0, r1, w, e))
        e, p = e + table.size, p + rows * b
    del table, both, move, moves, blocked, row, pos, first_c, stride_c
    # each reach R as g(R), _TAKE_BLOCK entries a take; take reads each
    # index before its slot
    holes = (full_mask(n) ^ keys).astype(np.uint16)
    hole = _hole_classes(holes, n)
    for a in range(0, len(reach), _TAKE_BLOCK):
        hole.take(reach[a:a + _TAKE_BLOCK], out=reach[a:a + _TAKE_BLOCK], mode="clip")
    closure = _closure(holes, *_hasse(holes), _chunk_rows(len(order), groups + 1))
    # bit k of d adds 2^i to the slot when it is the i-th bit of D_g, and
    # 2^|D_g| when it is a key bit; each step clips the sum at 2^|D_g|.
    # The slots are placed as they are built, first + slot * stride, which
    # keeps the clip: each step adds step * stride and clips at the
    # blocked slot
    item = np.min_scalar_type(int(at[-1]) - 1)
    top = (1 << held)[:, None]
    step = np.where((keys[:, None] >> every) & 1, top, mine << rank)
    room = (first[:, None] + (top - step) * stride[:, None]).astype(item)
    step = (step * stride[:, None]).astype(item)
    slots = np.empty((groups, len(order)), dtype=item)
    block = min(groups, max(1, _BLOCK // (size * item.itemsize)))
    every_d = np.empty((block, size), dtype=item)
    for g in range(0, groups, block):
        part = every_d[:min(block, groups - g)]
        part[:, 0] = first[g:g + block]
        for k in range(n):
            high = part[:, 1 << k:2 << k]
            np.minimum(part[:, :1 << k], room[g:g + block, k:k + 1], out=high)
            high += step[g:g + block, k:k + 1]
        np.take(part, order, axis=1, out=slots[g:g + block], mode="clip")
    del every_d, part, high
    # each span's slots s, its subset reversed in D_g's b bits, or the
    # blocked slot 2^b, at the mirror class's place: s holds no bit at or
    # above b, so rev_b(s) is rev_n(s) shifted down by n - b
    mirror = np.empty(int(at[-1]), dtype=np.intp)
    star = first[np.searchsorted(keys, rev[keys])][by]  # in span order
    for j, (a, k, b) in zip(j0.tolist(), spans):
        s = np.full((1 << b) + 1, 1 << b)
        np.right_shift(rev[:1 << b], n - b, out=s[:-1])
        np.add(s[:, None] * k, star[j:j + k], out=mirror[a:a + s.size * k].reshape(-1, k))
    return _ReachTables(order, rev[order].astype(np.intp), runs, reach, scatter, spans,
                        slots, mirror, int(first[0] + (stride[0] << held[0])), hole, closure)


def _hole_classes(holes: np.ndarray, n: int) -> np.ndarray:
    """g(R) at every R of width n (uint16): the class of the largest hole
    inside R, or the class count, the dead row, where none is.  The holes
    are or-closed, so that is their union and their numeric maximum, and
    they descend: one subset maximum of count - g at hole g finds it."""
    count = len(holes)
    star = np.zeros(1 << n, dtype=np.uint16)
    star[holes] = count - np.arange(count)
    _subset_max_inplace(star, n)
    np.subtract(count, star, out=star)
    return star


def _chunk_rows(cols: int, rows: int) -> int:
    """The current rows of one chunk of the pair advance over cols state
    columns, whose closure runs over rows table rows: _BLOCK // rows, at
    least _CHUNK and at most cols.  The last chunk takes the rest."""
    return min(cols, max(_CHUNK, _BLOCK // rows))


def _subset_max_inplace(z: np.ndarray, n: int):
    """z[k] := max over k' ⊆ k of z[k'], along axis 0.

    The subset-maximum (zeta) transform of Björklund, Husfeldt, Kaski &
    Koivisto (STOC 2007): one pass per bit b, each z[k] with bit b set
    taking the maximum with z[k - 2^b].  Run on z[::-1], it leaves z the
    superset maximum, as k' ⊇ k exactly when ~k' ⊆ ~k.
    """
    tail = z.shape[1:]
    for b in range(n):
        view = z.reshape(-1, 2, 1 << b, *tail)
        np.maximum(view[:, 1], view[:, 0], out=view[:, 1])


def _low_row(plan: _SplitPlan, g: np.ndarray, lo: int) -> np.ndarray:
    """The maximum's low row at lo, before pc(lo), from a layer's closed G
    (_max_rule): per column j of hv, the best class of key high half K_j
    whose key low half misses lo, the maximum of G's rows whose λ misses
    lo, _SCAN_BLOCK bytes of them at a time."""
    fit = np.flatnonzero((plan.lam & lo) == 0)  # never empty: λ = 0 misses lo
    step = max(1, _SCAN_BLOCK // len(plan.hv))
    row = g[fit[:step]].max(axis=0)
    for a in range(step, len(fit), step):
        np.maximum(row, g[fit[a:a + step]].max(axis=0), out=row)
    return row


class _Clock:
    """Seconds a sweep spends per phase: lap(phase) books the time since
    the last mark or lap to phase."""

    def __init__(self):
        self.seconds = dict.fromkeys(_PHASES, 0.0)
        self.mark()

    def mark(self):
        self.t = time.perf_counter()

    def lap(self, phase: str):
        now = time.perf_counter()
        self.seconds[phase] += now - self.t
        self.t = now


def _closed_chunks(maxima: np.ndarray, n: int, bricked: bool, gain: np.ndarray,
                   into: np.ndarray | None = None):
    """The closed block of the state whose slot maxima are maxima, a chunk
    of its current rows at a time (_chunk_rows): yields (lo, hi, flat),
    flat the (classes + 1, hi - lo) block of rows lo..hi as a flat array.

    Row g of a chunk's block is filled from each current row's class slot
    (slots), _TAKE_BLOCK entries a take through one reused intp buffer,
    plus the row's gain; its last row is dead.  Then it is closed over the
    holes' lattice (_close).  The blocks go into one reused chunk buffer,
    or, where into is given, into into at (classes + 1) * lo, so that it
    holds the whole closed state.
    """
    tables = _reach_tables(n, bricked)
    groups, cols = tables.slots.shape
    chunk = _chunk_rows(cols, groups + 1)
    whole = into is not None
    if not whole:
        into = np.empty((groups + 1) * chunk, dtype=maxima.dtype)
    step = max(1, _TAKE_BLOCK // chunk)  # the classes of one take
    at = np.empty(min(step, groups) * chunk, dtype=np.intp)
    for lo in range(0, cols, chunk):
        hi = min(lo + chunk, cols)
        k = hi - lo  # the chunk's rows, the trailing axis of its block
        base = (groups + 1) * lo if whole else 0
        flat = into[base:base + (groups + 1) * k]
        block = flat.reshape(groups + 1, k)
        for g in range(0, groups, step):
            part = tables.slots[g:g + step, lo:hi]
            idx = at[:part.size].reshape(part.shape)
            idx[...] = part
            np.take(maxima, idx, out=block[g:g + len(part)], mode="clip")
        block[:-1] += gain[lo:hi]
        block[-1] = _DEAD
        _close(block, tables.closure)
        yield lo, hi, flat


def _pair_advance(maxima: np.ndarray, n: int, bricked: bool, gain: np.ndarray,
                  clock: _Clock | None = None, into: np.ndarray | None = None) -> np.ndarray:
    """The minimum's row advance, from slot maxima to slot maxima.

    The state grouped[g, c] is the best score of a state (u, c) whose row
    above u is in triple class g, and is held as its class slots' maxima:
    grouped[g, c] = maxima[slots[g, c]] + gain[c].  The next state (c, d)
    scores gain[d] plus the maximum of grouped[g, c] over the classes g
    that fit it, ~key(g) ⊆ reach(c, d), and the result is grouped by the
    class of c.  Every rule commutes with column reversal, so the state is
    mirror-symmetric: grouped[g*, rev(c)] = grouped[g, c], with g* the
    class of key rev(key(g)), and grouped holds the representative columns
    c <= rev(c) alone, in table order (_reach_tables), as is gain.  The
    current rows c are taken a chunk at a time (_closed_chunks): each
    chunk's (classes + 1, chunk) block is filled from maxima, its last row
    dead, and closed over the holes' lattice (_close): row g takes the
    maximum over the classes whose hole lies inside g's, along the Hasse
    edges alone, as a zeta transform over a lattice needs only its members
    and covering pairs (Björklund, Husfeldt, Kaski, Koivisto, Nederlof &
    Parviainen, SODA 2012).  The classes that fit a reach R are those whose
    hole lies inside R's largest, so their maximum is row g(R)
    (_hole_classes).  Each row c reads the block, read_c(s) =
    block[g(reach(c, s)), c], at the 2^|D_c| + 1 entries of its own table
    row alone, not at all 2^n rows d: a run's rows of a chunk, about
    _READ_ROWS * 2^n entries per flat take.  With into, the closed blocks
    are kept there (_closed_chunks).

    After the last chunk, every read is maxed into its class slot
    (scatter).  The other rows' reads follow by symmetry, read_rev(c)(d) =
    read_c(rev(d)): class g's slot of d holds the reads of its rows rev(c)
    once maxed with g*'s slot of rev(d), one maximum through mirror.  Then
    one in-place subset maximum over each span's first 2^B slot rows, a
    (2^B, classes) array, gives slot s ⊆ D_g the maximum of read_c(s ∩
    D_c) over the rows c of the class.  That is the maximum of read_c(s),
    by two facts.  reach(c, d) for d that miss the key is c or-ed with
    reach(c, {k}) over the bits k of d, and bits outside D_c add nothing:
    reach(c, s) = reach(c, s ∩ D_c).  And read_c is monotone in s ⊆ D_g:
    no such s meets the key, so reach(c, s) grows with s, and the closed
    block read at g(reach) grows with reach (a reach that holds no hole
    reads the dead row, and so does every reach inside it).  So of the
    slots t ⊆ s that the transform collects, a row's reads peak at s ∩
    D_c.  The blocked slots, reach 0, read the block at g(0), as a read at
    reach(c, d) = 0 does, and skip the transform.  The slots no row reads
    are set dead (unread), so that two states are equal exactly when their
    slot maxima are.  The result's expansion through slots, plus gain, is
    the same, dead entries included, as a read at every (c, d).
    """
    clock = clock or _Clock()
    tables = _reach_tables(n, bricked)
    read = np.empty(len(tables.reach), dtype=maxima.dtype)  # the reads, laid out as reach
    flat_at = np.empty(min(_READ_ROWS << n, len(read)), dtype=np.intp)  # a take's flat indices
    clock.mark()
    for lo, hi, flat in _closed_chunks(maxima, n, bricked, gain, into):
        clock.lap("transform")
        k = hi - lo
        local = np.arange(k)[:, None]
        for first, end, width, entry in tables.runs:
            step = max(1, (_READ_ROWS << n) // width)
            for a in range(max(first, lo), min(end, hi), step):
                b = min(a + step, end, hi)
                at, to = entry + (a - first) * width, entry + (b - first) * width
                # row j of the chunk reads block[reach, j]; the flat indices
                # lie below the block's size, so "clip" never clips
                idx = flat_at[:to - at].reshape(-1, width)
                np.multiply(tables.reach[at:to].reshape(-1, width), k, out=idx, dtype=np.intp)
                idx += local[a - lo:b - lo]
                np.take(flat, idx, out=read[at:to].reshape(-1, width), mode="clip")
        clock.lap("read")
    del flat_at
    # each class's slot ∅ and blocked slot take reads of all its rows, and
    # the transform lifts every other slot to at least slot ∅: the dead
    # fill is no bias
    out = np.full(len(tables.mirror), _DEAD, dtype=maxima.dtype)
    np.maximum.at(out, tables.scatter, read)
    del read
    np.maximum(out, out[tables.mirror], out=out)  # the mirror rows' reads
    for at, count, bits in tables.spans:
        _subset_max_inplace(out[at:at + (count << bits)].reshape(1 << bits, count), bits)
    out[tables.unread] = _DEAD
    clock.lap("read")
    return out


def _close(table: np.ndarray, closure: list[tuple[np.ndarray, np.ndarray]]):
    """table[j] := the maximum of table[k] over every S_k ⊆ S_j of a family
    (a side's key halves, or the holes), in place, with its closure
    (_closure): round by round, each parent takes the maximum of its row
    and its Hasse children's, which an earlier round has closed."""
    for parents, members in closure:
        table[parents] = table[members].max(axis=1)


def _product(table: np.ndarray, product: list, owners: int) -> np.ndarray:
    """One side's sparse (max, +) product (_max_rule): out[owner] is the
    maximum of T[owner, j] + table[j] over the owner's kept pairs (_cover),
    one .max(axis=1) over an (owners, k, width) gather a batch."""
    out = np.empty((owners, table.shape[1]), dtype=table.dtype)
    for rows, at, cover, more in product:
        got = table[at]
        got += cover
        best = got.max(axis=1)
        if more:
            np.maximum(best, out[rows], out=best)
        out[rows] = best
    return out


class _Rule(NamedTuple):
    """One row rule: what the sweep (_sweep) runs per row.

    A rule's scores are int8: _DEAD at unreachable states and, once a row
    is shifted (_normalize), live within 2n below 0.  A row's gain is not
    the rule's: it is the row's houses for the maximum, and its empty lots,
    n less its houses (_houses), for the minimum.
    """

    # (grouped, clock) -> (grouped, layer): the next row's grouped maxima
    # and what a witness keeps of the row, from the last row's grouped
    # maxima; grouped None builds row 1
    advance: Callable
    close: Callable  # grouped -> the maxima into the virtual south row
    # (layer, below, target) -> the row u above the rows below that fits
    # them and scores target in the kept layer, of largest rev(u), or -1
    scan: Callable
    lag: int  # the layer kept after row k carries the shift of row k - lag
    layer: int  # the bytes of one kept layer
    held: int  # the kept layers the estimate without a witness holds (_need_bytes)
    pick: int  # the bytes one scan call allocates


def _max_rule(n: int, bricked: bool, d_v: int) -> _Rule:
    """The maximum's row rule: its state is its grouped maxima, the best
    score of each triple class's rows; it holds no score per row.

    A row r admits the rows u above it with triple(u) & r == 0 and scores
    its houses, pc(hi) + pc(lo) over its two halves (_split_plan).  A key
    K_j·2^h + λ misses r exactly when K_j misses hi and λ misses lo, so
    the best of the rows of a run and a column run C, which share a class,
    is a sparse (max, +) product on each side of the row:

        cells[run, C] = max over j of (A[run, j] + M[C, j]),
        M[C, j] = max over λ of (B[C, λ] + G[λ, j]),

    with G[λ, j] the grouped maximum of key K_j·2^h + λ, dead where no
    class has it, and the cover tables (_cover) B[C, λ], the most pc(lo)
    of a low half of C that misses λ, and A[run, j], the most pc(hi) of a
    row of the run that misses K_j.  Each product reads its owners'
    undominated pairs alone, once its input is closed over its family
    (_close): G over the λ, M over the K_j.  That is exact: a kept term is
    attained, as the closed G[λ, j] is some G[λ', j] with λ' ⊆ λ and the
    low half that gives B[C, λ] misses λ' too, and a dropped pair is
    dominated by a kept one, whose closed entry is as large at an equal
    B; so too on the high side.

    So the advance scatters the classes into G (plan.at), closes it, takes
    M, transposed, closes it and takes the cells, one .max(axis=1) over a
    gather of a product's table rows a batch (_product).  The cells are
    then maxed into their classes, the classes of one cell by one gather
    and the rest by one reduceat, and put in class order.  Row 1 is the
    advance from key 0 alone, at 0: the empty north row admits every row.
    A row's layer is its closed G, shifted by the row before it, and its
    cells.

    The scan picks in three exact steps.  The target is the best score of
    the rows that fit the row r below, and the rows of a cell share a
    class, so the rows that fit and score it lie in the cells where key &
    r == 0 and the cell is the target: the runs' high halves of the keys
    and the column runs' low halves at each b are tested against r, and
    the cells that fit are compared with the target.  rev(u) =
    rev_h(lo)·2^(n - h) + rev(hi), so the pick's low half is the one of
    largest rev_h where a fitting row scores the target, and such a row
    lies in a hit cell.  The low halves of the hit column runs are tried by
    descending rev_h: at each, its low row, the maximum of G's rows whose
    λ misses lo (_low_row), and a row hi scores its houses plus the best
    entry of that row at the high halves hv ⊇ hi.  Its rows in its hit
    runs are scored by descending rev, step at a time, and the first to
    score the target is the pick.
    """
    plan = _split_plan(n, bricked)
    keys = plan.keys
    h, w = n // 2, n - n // 2
    runs, cols = len(plan.run_keys), plan.col_key.shape[1]
    ones = len(keys) - len(plan.class_starts)  # the classes of one cell
    step = max(1, _SCAN_BLOCK // len(plan.hv))  # the scan's rows a (row, high half) test
    # the scan's: the column runs a run may read if it fits at no t, at t
    # = 0 alone, or at both, and the first of its side's three rows of
    # those (3b); each low half's column run, by descending rev_h
    by_t = np.zeros((3, cols), dtype=bool)
    by_t[1] = (plan.col_key[0] & 1) == 0
    by_t[2] = True
    side_of = np.repeat([0, 3], [plan.split, runs - plan.split])
    col_desc = plan.col_of[plan.lo_desc]

    def advance(grouped, clock):
        g = np.full((len(plan.lam), len(plan.hv)), _DEAD, dtype=np.int8)
        if grouped is None:
            g[0, 0] = 0  # row 1 reads key 0, at (0, 0), alone
        else:
            g.reshape(-1)[plan.at] = grouped
        _close(g, plan.lam_closure)
        most_t = np.ascontiguousarray(_product(g, plan.lam_product, cols).T)
        _close(most_t, plan.closure)
        cells = _product(most_t, plan.product, runs)
        del most_t
        clock.lap("transform")
        # the cells maxed into their classes: the one-cell classes' taken
        # alone, the rest's reduced, then all put in class order
        flat, out = cells.reshape(-1), np.empty(len(keys), dtype=np.int8)
        flat.take(plan.order[:ones], out=out[:ones])
        if ones < len(keys):
            np.maximum.reduceat(flat.take(plan.order[ones:]), plan.class_starts, out=out[ones:])
        return out.take(plan.by_class), (g, cells)

    def scan(layer, below, target):
        g, cells = layer
        r = below[-1]
        # the (run, column run) cells that hold a fitting row of the target.
        # A cell's key is (run_keys[run, t] << h) | (col_key[b, c] >> 1),
        # with b the run's side and t its column run's col_key & 1; t = 1
        # only adds key bits, so a run that fits at t = 1 fits at t = 0.  A
        # run's columns that fit: of a t it fits at, and of a low half
        # given its b that misses r
        high = (plan.run_keys & (r >> h)) == 0
        fit = ((plan.col_key >> 1) & (r & ((1 << h) - 1))) == 0
        hit = cells == target
        hit &= (fit[:, None] & by_t).reshape(6, cols)[side_of + high.sum(axis=1)]
        # the low halves of the hit column runs by descending rev_h; at each,
        # its low row, and the rows of its hit runs by descending rev, step
        # at a time: a row scores its houses and the best entry of the low
        # row at the high halves that hold it.  The first low half where a
        # row scores the target holds the pick
        some = hit.any(axis=0)
        for at in np.flatnonzero(some[col_desc]):
            lo = int(plan.lo_desc[at])
            low = _low_row(plan, g, lo)
            rows = plan.hi_desc[hit[plan.run_desc, col_desc[at]]]
            for a in range(0, len(rows), step):
                hi = rows[a:a + step, None]
                score = np.where((plan.hv & hi) == hi, low, _DEAD).max(axis=1)
                score += np.bitwise_count(hi[:, 0]) + lo.bit_count()
                i = int(np.argmax(score == target))
                if score[i] == target:
                    return (int(hi[i, 0]) << h) | lo
        return -1

    # the close-off reads the classes the virtual south row admits
    close = lambda grouped: np.where((keys & d_v) == 0, grouped, _DEAD).max()
    # a layer is G and the cells.  A scan call holds two bools a cell, its
    # hits and their fit test, and a few words a run and a column run; then
    # a bool a column run, a bool and an intp a low half; a low row
    # (_low_row), the λ's test in their dtype, its flag and the fitting
    # rows (intp), and a block of step rows of G, its maxima and the row;
    # a bool and a high half a row, and, step rows at a time, their test
    # against hv (in hv's dtype, bool and int8) and their houses
    test = step * len(plan.hv) * (plan.hv.itemsize + 2)
    rebuild = len(plan.lam) * (plan.lam.itemsize + 9) + (step + 2) * len(plan.hv)
    return _Rule(advance, close, scan, 1, len(plan.lam) * len(plan.hv) + runs * cols, 1,
                 2 * runs * cols + runs * 30 + cols * 12 + (9 << h) + rebuild
                 + ((1 + plan.hv.itemsize) << w) + test + step * 16)


def _min_rule(n: int, bricked: bool, d_v: int, keep: bool) -> _Rule:
    """The minimum's row rule: its state is its class slots' maxima
    (_pair_advance), grouped[g, c] = maxima[slots[g, c]] + gain[c] the best
    score of a state (u, c) whose row above u is in class g.

    A row c admits the rows u above it, for the row d below it, with
    ~triple(u) ⊆ reach(c, d) (_pair_advance).  The state's columns, the
    representative rows c <= rev(c), are in table order (_reach_tables),
    as are the rows a read evaluates.  A read at d gives the
    representatives' scores: their closed block, read at g(reach(c, d))
    (hole), one gather.  One at rev(d) gives the other rows', as row rev(c)
    at d scores as row c at rev(d); the scan puts both back in row order
    before its pick, and the close-off needs one, as d_v is a palindrome.
    The close-off reads the last row's state at the virtual south row, a
    chunk at a time (_closed_chunks), and the witness scan reads each
    row's state at the row below it: so each row's scores come from its
    own state, and a kept layer carries its own row's shift.  With keep, a
    witness's, each state's closed block is kept whole: the next advance
    closes it anyway, into its kept place, and a read builds those of the
    rows no advance follows.  Only the reach tables are read: no split
    plan.
    """
    tables = _reach_tables(n, bricked)
    groups, cols = tables.slots.shape
    gain = (n - _houses(n))[tables.order]  # each row's empty lots
    rows = tables.order.astype(np.uint32)
    # each row's place in a whole closed state, chunk by chunk (_closed_chunks):
    # row g of column i at base[i] + g * width[i]
    chunk = _chunk_rows(cols, groups + 1)
    width = np.full(cols, chunk)
    width[cols - cols % chunk:] = cols % chunk
    base = np.arange(cols)
    base += base // chunk * (chunk * groups)
    south = tables.hole[_reach(rows, np.uint32(d_v), n, bricked)] * width + base
    # row 1 reads key 0, class 0, at its gain: its slots that rows read, or
    # their mirrors, hold 0
    first = np.full(len(tables.mirror), _DEAD, dtype=np.int8)
    first[tables.slots[0]] = 0
    first[tables.mirror[tables.slots[0]]] = 0
    closed = {}  # with keep, id(maxima) -> (maxima, its whole closed state)

    def block(maxima):
        """The whole closed state of maxima, built once."""
        if id(maxima) not in closed:
            whole = np.empty((groups + 1) * cols, dtype=np.int8)
            for _ in _closed_chunks(maxima, n, bricked, gain, whole):
                pass
            closed[id(maxima)] = maxima, whole
        return closed[id(maxima)][1]

    def read(maxima, d):
        """_pair_advance's read for the one row d below, gain included: for
        every representative row c, the maximum of grouped[g, c] over the
        classes g that fit (c, d), ~key(g) ⊆ reach(c, d)."""
        reach = _reach(rows, np.uint32(d), n, bricked)
        return block(maxima).take(tables.hole[reach] * width + base)

    def close(maxima):
        if keep:
            return block(maxima).take(south)
        out = np.empty(cols, dtype=np.int8)
        for lo, hi, flat in _closed_chunks(maxima, n, bricked, gain):
            np.take(flat, south[lo:hi] - (groups + 1) * lo, out=out[lo:hi])
        return out

    def advance(grouped, clock):
        if grouped is None:
            # row 1 sits under the virtual empty north row, whose triple
            # mask 0 is the least key on both borders
            maxima = first.copy()
        else:
            whole = np.empty((groups + 1) * cols, dtype=np.int8) if keep else None
            maxima = _pair_advance(grouped, n, bricked, gain, clock, whole)
            if keep:
                closed[id(grouped)] = grouped, whole
        return maxima, maxima

    def scan(layer, below, target):
        # u fits the rows (c, d) below it when ~triple(u) ⊆ reach(c, d);
        # the virtual south row needs no cover
        c = below[-1]
        reach = _reach(c, below[-2], n, bricked) if below[1:] else full_mask(n)
        scores, rev = np.empty(1 << n, dtype=np.int8), bit_reverse(c, n)
        here = read(layer, c)
        scores[tables.mirrored] = here if rev == c else read(layer, rev)
        scores[tables.order] = here
        return _pick(scores, target, lambda t: (t | reach) == full_mask(n), n, bricked)

    # a layer is its slot maxima and their closed state; a scan call: the
    # scores in row order, and the pick's block of them
    return _Rule(advance, close, scan, 0, len(first) + (groups + 1) * cols + _OBJECT_BYTES,
                 0, min(_SCAN_BLOCK, 1 << n) * 32 + (1 << n))


def _row_rule(n: int, bricked: bool, d_v: int) -> _Rule:
    """The row rule of a minimum of one row: its state is one score per row
    c, its empty lots, and dead unless reach(c, d_v) is full (_reach).

    The virtual empty north row covers nothing, so a row is maximal alone
    exactly when reach(c, d_v) is full.  The state is built _RULE_BLOCK
    rows at a time.  Its grouped maxima
    are its one maximum, so the close-off is that maximum, and the witness
    scan reads the state itself.  The kept state carries row 0's shift.
    """
    pc, full = _houses(n), full_mask(n)
    size = 1 << n

    def advance(grouped, clock):
        state = np.empty(size, dtype=np.int8)
        for lo in range(0, size, _RULE_BLOCK):
            hi = min(lo + _RULE_BLOCK, size)
            ok = _reach(np.arange(lo, hi, dtype=np.uint32), np.uint32(d_v), n, bricked) == full
            state[lo:hi] = np.where(ok, n - pc[lo:hi], _DEAD)
        return state.max(keepdims=True), state

    scan = lambda layer, below, target: _pick(layer, target, lambda t: (t & d_v) == 0, n, bricked)
    return _Rule(advance, np.max, scan, 1, size, 1, _SCAN_BLOCK * 32)


def _pick(scores: np.ndarray, target: int, fits: Callable, n: int, bricked: bool) -> int:
    """The u with scores[u] == target that fits, fits(triple(u)), of
    largest rev(u), its n bits reversed (every solver's tie-break), or -1:
    the scan of the rules that keep a score per row, _min_rule's read at
    the row below and _row_rule's state.

    Fit (a bool array from uint32 triple masks) and rev are computed for
    the candidates alone, one _SCAN_BLOCK at a time.
    """
    u, u_rev = -1, -1
    for lo in range(0, len(scores), _SCAN_BLOCK):
        cand = np.flatnonzero(scores[lo:lo + _SCAN_BLOCK] == target)
        if not cand.size:
            continue
        cand = cand.astype(np.uint32)
        cand += lo
        cand = cand[fits(triple_mask(cand, n, bricked))]
        if cand.size:
            rev = bit_reverse(cand, n)
            i = int(np.argmax(rev))
            if rev[i] > u_rev:
                u, u_rev = int(cand[i]), int(rev[i])
    return u


def _normalize(grouped: np.ndarray, n: int) -> int:
    """Shift the int8 grouped in place so that its maximum is 0; return the
    shift.

    Scores at or above _DEAD // 2 are live.  Dead scores are reset to _DEAD
    so that they do not drift; they are found before the shift, which may
    wrap them around.  A live score more than the band 2n below the maximum
    raises SettleError, with grouped left shifted: the next row could no
    longer tell it from a dead one.  One wrapped uint8 difference d = score
    - (shift - 2n), made in place, tells them apart: the scores lie in
    [-128, shift], 256 values, so d is at most 2n in the band, at least 256
    + _DEAD // 2 + 2n for a live score below it, and between for a dead one.
    The dead ones, most of a minimum's state, are reset without a masked
    write: the scores d less 2n are clipped to a limit made in place from
    the dead flag, 127 + 1 = 0x80 = _DEAD where it is set and 127 where
    not.
    """
    live = _DEAD // 2
    shift = int(grouped.max())
    if shift < live:
        raise SettleError("internal error: a row of the sweep has no live state")
    d = grouped.view(np.uint8)
    d -= np.uint8((shift - 2 * n) & 0xFF)
    if int(d.max()) >= 256 + live + 2 * n:
        raise SettleError(f"internal error: live scores spread beyond {2 * n} in one row")
    limit = np.greater(d, 2 * n).view(np.uint8)  # 1 where dead
    d -= 2 * n
    limit += 127
    np.minimum(grouped, limit.view(np.int8), out=grouped)
    return shift


def _sweep(objective: Objective, n: int, boundary: Boundary, rows: list[int],
           want_witness: bool, limits: Limits):
    """One DP sweep to rows[-1], yielding a SolveResult at each m in rows.

    rows holds distinct row counts >= 1 in increasing order.  Both
    objectives maximize a score: the houses for the maximum, the empty lots
    for the minimum.  All that differs between them is the row rule,
    chosen from rows[-1]: _max_rule for the maximum, _row_rule for a
    minimum to one row, _min_rule for any other minimum, which closes off
    row 1 too.  The maximum's states are indexed by the last row; the
    minimum's by the row above it and the last row, so that the north
    proposition can cover the last row.  The sweep carries the states'
    int8 maxima over the triple classes of their oldest row, the
    minimum's over those classes' slots, and they are its whole state: the rule closes them off at the virtual south row at
    m, and advances them to m + 1: the maximum through a sparse product
    with a cover table on each half of a row (_max_rule), and the minimum
    through a closure over its classes' complemented keys, a chunk of rows
    at a time (_pair_advance).  Neither holds a score per state.  No array
    maps a row to its class: the plan groups the maximum's rows, the
    minimum's tables list its rows by |D_c| and class, and the witness
    scan takes triple masks of the rows it reads.

    Each row's grouped maxima are shifted to a maximum of 0 (_normalize),
    the shift carried as a Python int.  The sweep is invariant under adding
    a constant to every score, so once a row's shifted maxima equal those
    of row m0, p <= _RING rows back, every later row repeats them with p
    rows' gain d added (the cyclicity of max-plus linear recurrences): the
    sweep stops advancing at row m0 + p and closes off each later m at row
    m0 + 1 + (m - m0 - 1) mod p.  With a witness, the rule's layer of each
    row is kept until then, and a backward scan rebuilds the rows from the
    virtual south row up (rule.scan), reusing the layers past m0
    periodically, and each pick once its kept row, the rows below it and
    its shifted target repeat.  Ties break toward the largest rev of each
    row, the last row first.  Every result's stats carry the seconds spent
    so far per phase (_PHASES).

    The byte cap is checked against the estimate without a witness
    (_check_limits) before the first row.  A witness charges each layer it
    keeps past the rule's held ones before the advance makes it, and a
    scan call, the rows and their picks as each scan starts, for that scan
    alone: a result's "state_bytes" is the peak charged so far.  A
    MemoryError on the way, the estimate included, ends as a LimitError
    that names the charged peak (_out_of_memory).
    """
    maximize = objective is Objective.MAX_PERMISSIBLE
    bricked = boundary is Boundary.BRICKED
    top = rows[-1]
    t0 = time.perf_counter()
    charged = None  # the charged peak, once estimated

    def houses(score: int, count: int) -> int:
        """The houses of count rows that score score, and the other way
        round: the minimum scores count * n less them."""
        return score if maximize else count * n - score

    layers: list = []  # with a witness, what the rule keeps of each row
    shifts = [0]  # true scores after row k are the shifted ones + shifts[k]
    ring: dict[int, np.ndarray] = {}  # the last rows' shifted maxima
    closed: dict[int, np.ndarray] = {}  # their close-offs, until the next advance
    cycle = None  # (m0, p, d) once found

    def repeat(k: int) -> tuple[int, int]:
        """The row, at most m0 + p, whose state row k's repeats, and the
        shift between them."""
        if cycle is None or k <= cycle[0]:
            return k, 0
        m0, p, d = cycle
        turns, j = divmod(k - m0 - 1, p)
        return m0 + 1 + j, d * turns

    def finish(m: int, advanced: int) -> SolveResult:
        row, shift = repeat(m)
        clock.mark()
        if row not in closed:
            closed[row] = rule.close(ring[row])
        clock.lap("close")
        best = int(closed[row].max())
        if best < _DEAD // 2:
            raise SettleError(f"no maximal configuration found for {m}x{n} (internal error)")
        score = best + shifts[row] + shift
        dims = Dims(m, n, boundary)
        witness, peak = None, charged
        if want_witness:
            # one scan call, and the rows' Python objects and the picks'
            # entries, 168 and at most 200 bytes a row measured
            peak = _check_bytes(charged + rule.pick + m * 512, limits)
            # Walking north from the virtual south row, a kept layer's best
            # score over the rows u that fit the rows below it is the
            # target, and the layer kept a row earlier scores the target
            # less the gain of u.  So each row is the fitting row that
            # scores the target of largest rev (rule.scan), the row a stored
            # argmax would give.  A scan reads its layer, the last two rows
            # below and its target alone, so a pick is made once for each
            # kept row, those rows and the target less the row's shift, and
            # reused when they repeat, as they do past the sweep's cycle
            below, target, picks = [d_v], score, {}
            for k in range(m, 0, -1):
                row, shift = repeat(k)
                at = target - shifts[row - rule.lag] - shift
                key = (row, *below[-2:], at)
                u = picks.get(key)
                if u is None:
                    u = picks[key] = rule.scan(layers[row - 1], below, at)
                if u < 0:
                    raise SettleError("internal error: the backward scan lost the optimum's path")
                below.append(u)
                target -= houses(u.bit_count(), 1)
                _check_wall(t0, limits)
            witness = Configuration(dims, tuple(reversed(below[1:])))
            clock.lap("scan")
        m0, p, d = cycle or (None, None, None)
        result = SolveResult(
            dims,
            objective,
            houses(score, m),
            witness,
            {
                "states": advanced * states,
                "transitions": (advanced - 1) * n * states,
                "state_bytes": peak,
                "transient": m0,
                "period": p,
                "slope": None if d is None else houses(d, p),
                "phases": dict(clock.seconds),
                "wall_s": time.perf_counter() - t0,
            },
        )
        _validate_witness(result)
        return result

    wanted = rows[::-1]  # the row counts left to close off, the next one last
    grouped = None
    try:
        charged = _check_limits(objective, Dims(top, n, boundary), limits)
        clock = _Clock()
        d_v = full_mask(n) if bricked else 0  # the virtual south row
        # the DP's states are the rows, or, past one row, the minimum's pairs (u, c)
        if maximize:
            states, rule = 1 << n, _max_rule(n, bricked, d_v)
        elif top == 1:
            states, rule = 1 << n, _row_rule(n, bricked, d_v)
        else:
            states, rule = 1 << 2 * n, _min_rule(n, bricked, d_v, want_witness)
        for m in range(1, top + 1):
            closed.clear()
            if want_witness and len(layers) >= rule.held:
                # one more layer, before the advance makes it
                charged = _check_bytes(charged + rule.layer, limits)
            clock.mark()
            grouped, layer = rule.advance(grouped, clock)
            if want_witness:
                layers.append(layer)
            del layer
            shifts.append(shifts[-1] + _normalize(grouped, n))
            ring.pop(m - _RING - 1, None)
            # at most one row matches: two would have matched each other before
            for row, seen in ring.items():
                if np.array_equal(grouped, seen):
                    cycle = (row, m - row, shifts[m] - shifts[row])
                    break
            ring[m] = grouped
            clock.lap("group")
            # once the sweep has found its cycle, at row m = m0 + p, every later
            # row count repeats one of the rows m0 + 1..m, kept in the ring
            while wanted and (wanted[-1] == m or cycle is not None):
                yield finish(wanted.pop(), m)
            if not wanted:
                return
            _check_wall(t0, limits)
    except MemoryError as exc:
        raise _out_of_memory(charged) from exc


def solve(req: SolveRequest) -> SolveResult:
    """Exact optimum of the request's objective, with witness: one sweep
    (_sweep) to its row count."""
    dims = req.dims
    return next(_sweep(req.objective, dims.cols, dims.boundary, [dims.rows],
                       req.want_witness, req.limits))


def solve_max(req: SolveRequest) -> SolveResult:
    """Exact maximum occupancy over permissible configurations, with witness."""
    if req.objective is not Objective.MAX_PERMISSIBLE:
        raise ValueError("solve_max requires the max objective")
    return solve(req)


def solve_min_maximal(req: SolveRequest) -> SolveResult:
    """Exact minimum occupancy over maximal configurations, with witness.

    DP over ordered (row above, current row) profile pairs; advancing to the
    next row requires the current row to stay unblocked and every current-row
    empty lot to be covered by one of the four propositions, where the
    north proposition folds over the row-above axis through a closure over
    the lattice of complemented triple masks, read at the largest one
    inside each pair's reach (_pair_advance).  Virtual empty/full rows
    close off the two borders.  A single row needs no row above it: its
    sweep keeps one score per row, through the same reach rule (_row_rule).
    """
    if req.objective is not Objective.MIN_MAXIMAL:
        raise ValueError("solve_min_maximal requires the min objective")
    return solve(req)


def _axis_rows(n: int, count: int) -> np.ndarray:
    """The first count (a power of two) rows of a brute_force axis
    (uint32): index j holds the row whose bit reversal is full - j, so all
    2^n of them are the rows by descending rev (the order of _split_plan's
    lo_desc and hi_desc).

    Built by doubling: row j + 2^b is row j with bit n - 1 - b flipped, for
    j below 2^b.  For the same reason row lo + j, for lo a multiple of
    count, is row j xor rev(lo).
    """
    rows = np.empty(count, dtype=np.uint32)
    rows[0] = full_mask(n)
    for b in range(count.bit_length() - 1):
        np.bitwise_xor(rows[:1 << b], np.uint32(1 << (n - 1 - b)), out=rows[1 << b:2 << b])
    return rows


def _window_ok(n: int, bricked: bool, minimize: bool, north: bool, south: bool) -> np.ndarray:
    """Whether a row keeps the row rules, over every value of its window.

    The window is the row's axis, with the axis of the row above it first
    (north, the minimum only) and that of the row below it last (south); a
    missing neighbour is the virtual row, empty to the north and the
    border's row to the south.  No house of the row may be blocked by the
    row below; for the minimum, every empty lot of the row must be covered.
    Evaluated _RULE_BLOCK entries at a time along the first axis, on axis
    rows built once (_axis_rows): every row of the axes after the first,
    and the first block's rows, which give each block's.
    """
    size = 1 << n
    k = 1 + north + south
    out = np.empty((size,) * k, dtype=bool)
    step = max(1, _RULE_BLOCK >> (n * (k - 1)))
    rows = _axis_rows(n, size if k > 1 else min(size, step))
    for lo in range(0, size, step):
        head = rows[:step] ^ np.uint32(bit_reverse(lo, n))
        axes = [a.reshape((-1,) + (1,) * (k - 1 - i))
                for i, a in enumerate([head] + [rows] * (k - 1))]
        u = axes.pop(0) if north else np.uint32(0)
        c = axes.pop(0)
        d = axes.pop(0) if south else np.uint32(full_mask(n) if bricked else 0)
        ok = (triple_mask(c, n, bricked) & d) == 0
        if minimize:
            ok = ok & ((~(c | covered_mask(u, c, d, n, bricked)) & full_mask(n)) == 0)
        out[lo:lo + step] = ok
    return out


def brute_force(req: SolveRequest) -> SolveResult:
    """Independent oracle: enumerate all 2^(mn) configurations.

    The configurations are one flat array of 2^(mn) entries, the C order
    of shape (2^n,) * m: axis k holds row k, north first.  Each row rule
    is evaluated once per value of the row and of its neighbours
    (_window_ok) and and-ed onto the adjacent axes: permissibility for the
    max objective, maximality for the min objective.  A window table of T
    entries with rest configurations of the axes after it repeats with
    period T * rest.  From _RULE_BLOCK entries on, it is and-ed through an
    (outer, T, rest) view; a shorter period is repeated across rest and
    tiled to a line of _RULE_BLOCK entries, so numpy's inner loop always
    runs long.  A configuration's score is its houses (empty lots for the
    min objective): each set bit of the flat index is an empty lot, so the
    scores are built by doubling over the mn bits, score[2^b:2^(b+1)] =
    score[:2^b] -/+ 1.  One argmax over every configuration picks the
    optimum.  No axis is maximized out before it: that would be the row
    DP's transition maximum, and the oracle would share the structure it
    is there to check.

    Ties break toward the largest bit reversal of the whole grid, which is
    the lexicographically smallest north-first "#"/"." cell string among
    the optima.  Index j on every axis holds the row with rev(row) =
    full - j, so a configuration g sits at flat index 2^(mn) - 1 - rev(g),
    and the first maximum np.argmax finds is the one of largest rev(g).

    Grids of more than 22 cells raise LimitError, as do estimates past
    limits.max_state_bytes (_brute_bytes), runs past limits.max_wall_s and
    a MemoryError within the estimate (_out_of_memory).
    stats: "states" counts the configurations, "transitions" the rows
    checked (m per configuration), "state_bytes" the estimate.
    """
    m, n = req.dims.rows, req.dims.cols
    cells = m * n
    if cells > 22:
        raise LimitError(f"brute force handles at most 22 cells, got {cells}")
    bricked = req.dims.boundary is Boundary.BRICKED
    minimize = req.objective is Objective.MIN_MAXIMAL
    need = _check_bytes(_brute_bytes(req.objective, m, n), req.limits)
    t0 = time.perf_counter()
    configs = 1 << cells
    try:
        # uint8, not bool: numpy's bool and with a broadcast operand is about
        # 30 times slower
        ok = np.ones(configs, dtype=np.uint8)
        window = table = None
        for k in range(m):
            north, south = minimize and k > 0, k < m - 1
            if (north, south) != window:
                window = north, south
                table = _window_ok(n, bricked, minimize, north, south).view(np.uint8).ravel()
            rest = 1 << (n * (m - 1 - k - south))  # the configurations of the axes after the window
            period = table.size * rest
            if period < _RULE_BLOCK:
                # a short period: and a line of _RULE_BLOCK entries that repeats it
                width = min(configs, _RULE_BLOCK)
                view = ok.reshape(-1, width)
                view &= np.tile(np.repeat(table, rest), width // period)
            else:
                view = ok.reshape(-1, table.size, rest)
                view &= table[:, None]
            _check_wall(t0, req.limits)
        del table
        # Index bit set means empty lot (rev(row) = full - j on every axis), so
        # a configuration's empty lots are the popcount of its flat index.
        score = np.empty(configs, dtype=np.uint8)  # 1 + the score, 0 where ok fails
        score[0] = 1 if minimize else 1 + cells
        step = np.add if minimize else np.subtract
        for b in range(cells):
            step(score[:1 << b], 1, out=score[1 << b:2 << b])
        score *= ok
        best = int(np.argmax(score))
        if score[best] == 0:
            raise SettleError(f"no feasible configuration found for {m}x{n} (internal error)")
        config = Configuration(req.dims, tuple(
            bit_reverse(full_mask(n) ^ int(j), n) for j in np.unravel_index(best, (1 << n,) * m)))
    except MemoryError as exc:
        raise _out_of_memory(need) from exc
    return SolveResult(
        req.dims, req.objective, config.occupancy(),
        config if req.want_witness else None,
        {"states": 1 << cells, "transitions": m << cells, "state_bytes": need,
         "wall_s": time.perf_counter() - t0},
    )


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
    and cap errors keep their per-cell messages.  A single-row cell of the
    min objective is a sweep of its own, as in solve: its row rule
    (_row_rule) is under the wider max_cols cap.  The max_wall_s cap
    counts from the start of a sweep; cells the sweep has not reached when
    it trips get its LimitError message.  "wall_s" holds each cell's
    stats["wall_s"], the seconds from the start of its sweep to its
    close-off, and None for an error cell.
    """
    limits = limits or Limits()
    rows = list(row_range)
    cols = list(col_range)
    cells: dict[tuple[int, int], int | str] = {}
    seconds: dict[tuple[int, int], float] = {}
    for n in cols:
        swept = []
        for m in sorted(set(rows)):
            try:
                Dims(m, n, boundary)
                swept.append(m)
            except ValueError as exc:
                cells[m, n] = str(exc)
        # each sweep under its own try, so a cell keeps its own solve's error
        single = objective is Objective.MIN_MAXIMAL and swept[:1] == [1]
        for run in ([swept[:1], swept[1:]] if single else [swept]):
            if not run:
                continue
            try:
                for res in _sweep(objective, n, boundary, run, False, limits):
                    cells[res.dims.rows, n] = res.optimum
                    seconds[res.dims.rows, n] = res.stats["wall_s"]
            except SettleError as exc:
                for m in run:
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
    wall_s = [[seconds.get((m, n)) for n in cols] for m in rows]
    return {
        "objective": objective.value,
        "boundary": boundary.value,
        "rows": rows,
        "cols": cols,
        "values": values,
        "wall_s": wall_s,
        "errors": errors,
    }
