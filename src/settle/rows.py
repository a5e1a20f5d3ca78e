"""Row-level bitmask primitives: the one home of the row rules.

A row of n cells is a bitmask: bit b (0-indexed, LSB first) is column b+1,
so the LSB is the westernmost cell.  Every function here works unchanged on
Python ints and on numpy integer arrays, which is what lets the grid checker,
both DP solvers and the brute-force oracle share one set of light/blocking
rules and one bit reversal.  The rules themselves are one table of cells
(BLOCKED and PROPS), which the IP export (modelgen) reads as well.

Off-grid semantics: a *term* that falls off the grid takes the boundary
value (empty when the border is open, occupied when it is bricked), while a
proposition about an off-grid *neighbor* is simply false.  The compiled
fills below implement exactly that split.

Lanes: with ``lanes=k`` the rules evaluate k rows at once on one Python int
(the SWAR bitboard technique), one lane per row at a stride of n + 2 bits:
row r sits at bits r(n+2) .. r(n+2) + n - 1, and the two bits above it are
guard bits.  The masks and fills repeat in every lane, so lane r of the
result is the ``lanes=1`` result on lane r of the inputs.  The rules shift
by at most two columns, so two clear guard bits keep every shifted term
inside its own lane.  With one, the west rule's (0, -2) term would carry
column n of lane r - 1 into column 1 of lane r, and the rule would stay
right only because its (0, -1) term is 0 there.  Two contracts make
the lanes hold:

- inputs have clear guard bits (and no bits above the last lane);
- outputs may hold junk in the guard bits, so they are read only through
  ``& full_mask(n, lanes)`` or an AND with a clean row.

With ``lanes=1`` (the default) a rule reads and returns one row, and its
result has no bits at or above n; the DPs and brute force call the rules
that way on numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class Boundary(Enum):
    """Border mode: off-grid east/south/west lots are open or bricked up."""

    FREE = "free"
    BRICKED = "bricked"


@lru_cache(maxsize=64)  # the checker asks for each (n, lanes) several times a grid
def _lane_ones(n: int, lanes: int) -> int:
    """Return the int with bit 0 of each of the lanes set (stride n + 2)."""
    stride = n + 2
    return ((1 << stride * lanes) - 1) // ((1 << stride) - 1)


def full_mask(n: int, lanes: int = 1) -> int:
    """Return the mask with all n column bits set, in every lane."""
    return ((1 << n) - 1) * _lane_ones(n, lanes)


class Prop(Enum):
    """The four reasons an empty lot cannot take a house.

    EAST/WEST/NORTH: the house on that side would lose its last source of
    light.  CENTER: a house on the lot itself would be blocked.
    """

    EAST = "east"
    WEST = "west"
    NORTH = "north"
    CENTER = "center"


@dataclass(frozen=True, eq=False)  # hashed by identity: keys of _compiled
class Rule:
    """Holds at a cell when all its cells, (row, column) offsets from it with
    south and east positive, are occupied, unless its subject (the
    neighbour it is about; None: the cell itself) lies off the grid."""

    cells: tuple[tuple[int, int], ...]
    subject: tuple[int, int] | None = None


# The blocking rule and the four propositions, the one place their cells are
# written, each in the order the IP export writes them (modelgen): unsorted.
BLOCKED = Rule(((0, 0), (0, -1), (0, 1), (1, 0)))  # a house, its W, E and S
PROPS = {
    Prop.EAST: Rule(((0, 1), (0, 2), (1, 1)), (0, 1)),
    Prop.WEST: Rule(((0, -1), (0, -2), (1, -1)), (0, -1)),
    Prop.NORTH: Rule(((-1, -1), (-1, 0), (-1, 1)), (-1, 0)),  # the triple above
    Prop.CENTER: Rule(((0, 1), (0, -1), (1, 0))),  # W, E and S: blocked if built
}
_PROP_RULES = tuple(PROPS.values())


@lru_cache(maxsize=1024)  # keyed on the width, not the row count, so any grid hits
def _compiled(rules: tuple[Rule, ...], n: int, bricked: bool) -> tuple:
    """Each rule as (row, shift, fill) terms at width n, and its cut.

    A cell's row offset picks u, c or d (row 0, 1, 2), and its column
    offset dc reads column j + dc at column j: a right shift by dc.  fill
    holds, in one lane, the columns where the cell is off the grid when the
    border is bricked; the subject's cell is never filled, so the rule is
    false where the subject is off the grid.  Only left shifts carry bits
    past column n, so a rule of left shifts alone is cut to the full mask.
    """
    full = (1 << n) - 1
    out = []
    for rule in rules:
        terms = []
        for dr, dc in rule.cells:
            off = full & ~(full >> dc if dc >= 0 else full << -dc)
            terms.append((dr + 1, dc, off if bricked and (dr, dc) != rule.subject else 0))
        out.append((tuple(terms), full if all(dc < 0 for _, dc in rule.cells) else 0))
    return tuple(out)


def rule_mask(rules: tuple[Rule, ...], u, c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where any of rules holds; u is the row above c, d the
    row below.  The one evaluator of the table."""
    rows, ones = (u, c, d), _lane_ones(n, lanes)
    out = None
    for terms, cut in _compiled(rules, n, bricked):
        mask = None
        for row, shift, fill in terms:
            t = rows[row]
            if shift > 0:
                t = t >> shift
            elif shift < 0:
                t = t << -shift
            if fill:
                t = t | fill * ones
            mask = t if mask is None else mask & t
        if cut:
            mask = mask & cut * ones
        out = mask if out is None else out | mask
    return out


def triple_mask(r, n: int, bricked: bool, lanes: int = 1):
    """Mask of houses in row r flanked by occupied east and west neighbors.

    It is the north rule read one row down.  Such a house is blocked as
    soon as its south neighbor is occupied, so a transition from row r to a
    row s below it is permissible iff ``triple_mask(r) & s == 0``.
    """
    return rule_mask((PROPS[Prop.NORTH],), r, 0, 0, n, bricked, lanes)


def covered_mask(u, c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where at least one of the four propositions holds.

    u is the row above c, d the row below.  An empty cell outside this mask
    is addable; a maximal configuration has no such cell.
    """
    return rule_mask(_PROP_RULES, u, c, d, n, bricked, lanes)


def popcount(x) -> int:
    """Count set bits of a Python int (arrays use np.bitwise_count directly)."""
    return int(x).bit_count()


def bit_reverse(x, n: int):
    """Reverse the low n bits of x, which holds no bits at or above n.

    Works on Python ints of any width (returning an int) and on uint32
    arrays (n <= 32).  Five mask-and-swap stages reverse a 32-bit word;
    wider ints are reversed one 32-bit word at a time.
    """
    if n > 32:
        return (bit_reverse(x & 0xFFFFFFFF, 32) << (n - 32)) | bit_reverse(x >> 32, n - 32)
    x = ((x >> 1) & 0x55555555) | ((x & 0x55555555) << 1)
    x = ((x >> 2) & 0x33333333) | ((x & 0x33333333) << 2)
    x = ((x >> 4) & 0x0F0F0F0F) | ((x & 0x0F0F0F0F) << 4)
    x = ((x >> 8) & 0x00FF00FF) | ((x & 0x00FF00FF) << 8)
    x = (x >> 16) | ((x & 0xFFFF) << 16)
    return x >> (32 - n)
