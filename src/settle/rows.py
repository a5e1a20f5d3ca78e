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
"""
from __future__ import annotations

from enum import Enum


class Boundary(Enum):
    """Border mode: off-grid east/south/west lots are open or bricked up."""

    FREE = "free"
    BRICKED = "bricked"


def full_mask(n: int) -> int:
    """Return the mask with all n column bits set."""
    return (1 << n) - 1


def edge_fills(n: int, bricked: bool) -> tuple[int, int, int, int]:
    """Return (west1, east1, west2, east2) off-grid occupancy fills.

    west1/east1 stand in for the lot just west of column 1 / just east of
    column n; west2/east2 for the lots two steps out (used by the two-step
    terms of the east/west propositions).  All four are 0 for an open border.
    """
    if not bricked:
        return 0, 0, 0, 0
    west2 = 2 if n >= 2 else 0
    east2 = (1 << (n - 2)) if n >= 2 else 0
    return 1, 1 << (n - 1), west2, east2


def ew_both(r, n: int, bricked: bool):
    """Mask of cells whose east AND west neighbors are occupied in row r."""
    full = full_mask(n)
    west1, east1, _, _ = edge_fills(n, bricked)
    west_of = ((r << 1) & full) | west1  # bit b: neighbor west of column b+1
    east_of = (r >> 1) | east1           # bit b: neighbor east of column b+1
    return west_of & east_of


def triple_mask(r, n: int, bricked: bool):
    """Mask of houses in row r flanked by occupied east and west neighbors.

    Such a house is blocked as soon as its south neighbor is occupied, so
    a transition from row r to a row s below it is permissible iff
    ``triple_mask(r) & s == 0``.
    """
    return r & ew_both(r, n, bricked)


def prop_east_mask(c, d, n: int, bricked: bool):
    """Cells of row c where building would leave the eastern house lightless.

    c is the row itself, d the row below it.  Bit j-1 is set iff columns
    j+1, j+2 of c and column j+1 of d are all occupied (two-step term filled
    per border mode; the proposition is false where column j+1 is off-grid).
    """
    _, _, _, east2 = edge_fills(n, bricked)
    return (c >> 1) & ((c >> 2) | east2) & (d >> 1)


def prop_west_mask(c, d, n: int, bricked: bool):
    """Cells of row c where building would leave the western house lightless."""
    full = full_mask(n)
    _, _, west2, _ = edge_fills(n, bricked)
    return ((c << 1) & ((c << 2) | west2) & (d << 1)) & full


def prop_center_mask(c, d, n: int, bricked: bool):
    """Cells of row c where a new house would itself be blocked."""
    return ew_both(c, n, bricked) & d


def prop_north_mask(u, n: int, bricked: bool):
    """Cells where building would block the house directly north (in row u)."""
    return triple_mask(u, n, bricked)


def covered_mask(u, c, d, n: int, bricked: bool):
    """Cells of row c where at least one of the four propositions holds.

    u is the row above c, d the row below.  An empty cell outside this mask
    is addable; a maximal configuration has no such cell.
    """
    return (
        prop_east_mask(c, d, n, bricked)
        | prop_west_mask(c, d, n, bricked)
        | prop_center_mask(c, d, n, bricked)
        | prop_north_mask(u, n, bricked)
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
