"""Row-level bitmask primitives: the one home of the row rules.

A row of n cells is a bitmask: bit b (0-indexed, LSB first) is column b+1,
so the LSB is the westernmost cell.  Every function here works unchanged on
Python ints and on numpy integer arrays, which is what lets the grid checker,
both DP solvers and the brute-force oracle share one set of light/blocking
rules and one bit reversal.

Off-grid semantics: a *term* that falls off the grid takes the boundary
value (empty when the border is open, occupied when it is bricked), while a
proposition about an off-grid *neighbor* is simply false.  The fill masks
below implement exactly that split.

Lanes: with ``lanes=k`` the rules evaluate k rows at once on one Python int
(the SWAR bitboard technique), one lane per row at a stride of n + 2 bits:
row r sits at bits r(n+2) .. r(n+2) + n - 1, and the two bits above it are
guard bits.  The masks and fills repeat in every lane, so lane r of the
result is the ``lanes=1`` result on lane r of the inputs.  The rules shift
by at most two columns, so two clear guard bits keep every shifted term
inside its own lane.  With one, ``prop_west_mask``'s ``c << 2`` would carry
column n of lane r - 1 into column 1 of lane r, and the rule would stay
right only because its ``c << 1`` factor is 0 there.  Two contracts make
the lanes hold:

- inputs have clear guard bits (and no bits above the last lane);
- outputs may hold junk in the guard bits, so they are read only through
  ``& full_mask(n, lanes)`` or an AND with a clean row.

With ``lanes=1`` (the default) a rule reads and returns one row, and its
result has no bits at or above n; the DPs and brute force call the rules
that way on numpy arrays.
"""
from __future__ import annotations

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


def edge_fills(n: int, bricked: bool, lanes: int = 1) -> tuple[int, int, int, int]:
    """Return (west1, east1, west2, east2) off-grid occupancy fills.

    west1/east1 stand in for the lot just west of column 1 / just east of
    column n; west2/east2 for the lots two steps out (used by the two-step
    terms of the east/west propositions).  All four are 0 for an open border,
    and each is repeated in every lane.
    """
    if not bricked:
        return 0, 0, 0, 0
    ones = _lane_ones(n, lanes)
    west2 = 2 * ones if n >= 2 else 0
    east2 = (1 << (n - 2)) * ones if n >= 2 else 0
    return ones, (1 << (n - 1)) * ones, west2, east2


def ew_both(r, n: int, bricked: bool, lanes: int = 1):
    """Mask of cells whose east AND west neighbors are occupied in row r."""
    full = full_mask(n, lanes)
    west1, east1, _, _ = edge_fills(n, bricked, lanes)
    west_of = ((r << 1) & full) | west1  # bit b: neighbor west of column b+1
    east_of = (r >> 1) | east1           # bit b: neighbor east of column b+1
    return west_of & east_of


def triple_mask(r, n: int, bricked: bool, lanes: int = 1):
    """Mask of houses in row r flanked by occupied east and west neighbors.

    Such a house is blocked as soon as its south neighbor is occupied, so
    a transition from row r to a row s below it is permissible iff
    ``triple_mask(r) & s == 0``.
    """
    return r & ew_both(r, n, bricked, lanes)


def prop_east_mask(c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where building would leave the eastern house lightless.

    c is the row itself, d the row below it.  Bit j-1 is set iff columns
    j+1, j+2 of c and column j+1 of d are all occupied (two-step term filled
    per border mode; the proposition is false where column j+1 is off-grid).
    """
    _, _, _, east2 = edge_fills(n, bricked, lanes)
    return (c >> 1) & ((c >> 2) | east2) & (d >> 1)


def prop_west_mask(c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where building would leave the western house lightless."""
    full = full_mask(n, lanes)
    _, _, west2, _ = edge_fills(n, bricked, lanes)
    return ((c << 1) & ((c << 2) | west2) & (d << 1)) & full


def prop_center_mask(c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where a new house would itself be blocked."""
    return ew_both(c, n, bricked, lanes) & d


def prop_north_mask(u, n: int, bricked: bool, lanes: int = 1):
    """Cells where building would block the house directly north (in row u)."""
    return triple_mask(u, n, bricked, lanes)


def covered_mask(u, c, d, n: int, bricked: bool, lanes: int = 1):
    """Cells of row c where at least one of the four propositions holds.

    u is the row above c, d the row below.  An empty cell outside this mask
    is addable; a maximal configuration has no such cell.
    """
    return (
        prop_east_mask(c, d, n, bricked, lanes)
        | prop_west_mask(c, d, n, bricked, lanes)
        | prop_center_mask(c, d, n, bricked, lanes)
        | prop_north_mask(u, n, bricked, lanes)
    )


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
