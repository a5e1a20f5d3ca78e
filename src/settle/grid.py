"""Grid configurations: sunlight, permissibility, maximality, propositions.

Coordinates are 1-based: (i, j) is the i-th row counted from the north and
the j-th column counted from the west.  A house is blocked when its east,
south, and west neighbors are all occupied; the northern side never matters.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rows import (
    Boundary,
    bit_reverse,
    covered_mask,
    full_mask,
    popcount,
    prop_center_mask,
    prop_east_mask,
    prop_north_mask,
    prop_west_mask,
    triple_mask,
)


def _bit_cells(i: int, mask: int) -> list[tuple[int, int]]:
    """The cells (i, j) of row i whose bits are set in mask, west first."""
    out = []
    while mask:
        low = mask & -mask
        out.append((i, low.bit_length()))
        mask ^= low
    return out


class Prop(Enum):
    """The four reasons an empty lot cannot take a house.

    EAST/WEST/NORTH: the house on that side would lose its last source of
    light.  CENTER: a house on the lot itself would be blocked.
    """

    EAST = "east"
    WEST = "west"
    NORTH = "north"
    CENTER = "center"


@dataclass(frozen=True)
class Dims:
    """Grid dimensions plus border mode."""

    rows: int
    cols: int
    boundary: Boundary = Boundary.FREE

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class Configuration:
    """An immutable occupancy assignment, one bitmask per row (north first).

    Bit b of ``row_bits[i-1]`` is column b+1 of row i; the LSB is the
    westernmost column.
    """

    dims: Dims
    row_bits: tuple[int, ...]

    def __post_init__(self):
        m, n = self.dims.rows, self.dims.cols
        if len(self.row_bits) != m:
            raise ValueError(f"expected {m} row masks, got {len(self.row_bits)}")
        full = full_mask(n)
        for k, bits in enumerate(self.row_bits):
            if bits < 0 or bits > full:
                raise ValueError(f"row {k + 1} mask {bits:#x} out of range for {n} columns")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def empty(cls, dims: Dims) -> Configuration:
        return cls(dims, (0,) * dims.rows)

    @classmethod
    def full(cls, dims: Dims) -> Configuration:
        return cls(dims, (full_mask(dims.cols),) * dims.rows)

    @classmethod
    def from_cells(cls, dims: Dims, cells) -> Configuration:
        """Build from an iterable of occupied (i, j) coordinates."""
        bits = [0] * dims.rows
        for i, j in cells:
            if not (1 <= i <= dims.rows and 1 <= j <= dims.cols):
                raise ValueError(f"cell ({i},{j}) outside {dims.rows}x{dims.cols} grid")
            bits[i - 1] |= 1 << (j - 1)
        return cls(dims, tuple(bits))

    def with_house(self, i: int, j: int) -> Configuration:
        self._check_coord(i, j)
        bits = list(self.row_bits)
        bits[i - 1] |= 1 << (j - 1)
        return Configuration(self.dims, tuple(bits))

    def without_house(self, i: int, j: int) -> Configuration:
        self._check_coord(i, j)
        bits = list(self.row_bits)
        bits[i - 1] &= ~(1 << (j - 1))
        return Configuration(self.dims, tuple(bits))

    # -- basic queries -------------------------------------------------------

    def _check_coord(self, i: int, j: int):
        if not (1 <= i <= self.dims.rows and 1 <= j <= self.dims.cols):
            raise ValueError(
                f"coordinate ({i},{j}) outside {self.dims.rows}x{self.dims.cols} grid"
            )

    def is_occupied(self, i: int, j: int) -> bool:
        self._check_coord(i, j)
        return bool(self.row_bits[i - 1] >> (j - 1) & 1)

    def cells(self) -> list[tuple[int, int]]:
        """Occupied coordinates in row-major (north-first, west-first) order."""
        return [cell for i, bits in enumerate(self.row_bits, start=1)
                for cell in _bit_cells(i, bits)]

    def _row(self, i: int) -> int:
        """Row mask for i, with virtual rows outside the grid.

        The virtual south row is full when the border is bricked, empty when
        open; the virtual north row is always empty (the northern border is
        irrelevant in both modes).
        """
        if 1 <= i <= self.dims.rows:
            return self.row_bits[i - 1]
        if i > self.dims.rows and self.dims.boundary is Boundary.BRICKED:
            return full_mask(self.dims.cols)
        return 0

    @property
    def _bricked(self) -> bool:
        return self.dims.boundary is Boundary.BRICKED

    # -- sunlight ------------------------------------------------------------

    def _blocked_mask(self, i: int) -> int:
        """Houses of row i with east, south and west all occupied."""
        return triple_mask(self._row(i), self.dims.cols, self._bricked) & self._row(i + 1)

    def is_blocked(self, i: int, j: int) -> bool:
        """True iff the house at (i, j) has east, south, and west all occupied.

        Calling on an empty lot returns False.
        """
        self._check_coord(i, j)
        return bool(self._blocked_mask(i) >> (j - 1) & 1)

    def blocked_cells(self) -> list[tuple[int, int]]:
        return [cell for i in range(1, self.dims.rows + 1)
                for cell in _bit_cells(i, self._blocked_mask(i))]

    def _windows(self):
        """(north, row, south) for every row, north first, virtual rows included."""
        south = full_mask(self.dims.cols) if self._bricked else 0
        padded = (0, *self.row_bits, south)
        return zip(padded, padded[1:], padded[2:])

    def is_permissible(self) -> bool:
        """True iff no house is blocked."""
        n, b = self.dims.cols, self._bricked
        return not any(triple_mask(c, n, b) & d for _, c, d in self._windows())

    # -- propositions and maximality ------------------------------------------

    def _prop_mask(self, which: Prop, i: int) -> int:
        n, b = self.dims.cols, self._bricked
        if which is Prop.EAST:
            return prop_east_mask(self._row(i), self._row(i + 1), n, b)
        if which is Prop.WEST:
            return prop_west_mask(self._row(i), self._row(i + 1), n, b)
        if which is Prop.CENTER:
            return prop_center_mask(self._row(i), self._row(i + 1), n, b)
        return prop_north_mask(self._row(i - 1), n, b)

    def proposition(self, which: Prop, i: int, j: int) -> bool:
        """Evaluate one proposition at (i, j).

        Off-grid terms take the border value; a proposition whose subject
        neighbor is off-grid is false.
        """
        self._check_coord(i, j)
        return bool(self._prop_mask(which, i) >> (j - 1) & 1)

    def propositions_at(self, i: int, j: int) -> dict[Prop, bool]:
        """All four propositions at (i, j), for diagnostics."""
        self._check_coord(i, j)
        return {p: bool(self._prop_mask(p, i) >> (j - 1) & 1) for p in Prop}

    def is_addable(self, i: int, j: int) -> bool:
        """True iff building on the empty lot (i, j) keeps things permissible.

        Equivalent to: none of the four propositions holds there.
        """
        self._check_coord(i, j)
        if self.is_occupied(i, j):
            raise ValueError(f"cell ({i},{j}) is already occupied")
        return bool(self._addable_mask(i) >> (j - 1) & 1)

    def _addable_mask(self, i: int) -> int:
        """Empty lots of row i where none of the four propositions holds."""
        n = self.dims.cols
        covered = covered_mask(self._row(i - 1), self._row(i), self._row(i + 1), n, self._bricked)
        return ~(self._row(i) | covered) & full_mask(n)

    def addable_cells(self) -> list[tuple[int, int]]:
        return [cell for i in range(1, self.dims.rows + 1)
                for cell in _bit_cells(i, self._addable_mask(i))]

    def is_maximal(self) -> bool:
        """True iff permissible and no empty lot is addable."""
        n, b = self.dims.cols, self._bricked
        full = full_mask(n)
        return not any(triple_mask(c, n, b) & d or ~(c | covered_mask(u, c, d, n, b)) & full
                       for u, c, d in self._windows())

    def greedy_complete(self) -> Configuration:
        """Fill every addable lot in one row-major, north-first scan.

        The input must be permissible; the result is maximal.  Propositions
        are monotone in occupancy: a lot the scan finds covered stays covered
        as later houses go up, so one scan reaches the fixpoint.
        """
        if not self.is_permissible():
            raise ValueError("cannot complete an impermissible configuration")
        m, n, b = self.dims.rows, self.dims.cols, self._bricked
        bits = list(self.row_bits)
        south_virtual = full_mask(n) if b else 0

        def row_at(k: int) -> int:
            if 1 <= k <= m:
                return bits[k - 1]
            return south_virtual if k > m else 0

        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if bits[i - 1] >> (j - 1) & 1:
                    continue
                mask = covered_mask(row_at(i - 1), row_at(i), row_at(i + 1), n, b)
                if not (mask >> (j - 1) & 1):
                    bits[i - 1] |= 1 << (j - 1)
        return Configuration(self.dims, tuple(bits))

    # -- measures and symmetries ----------------------------------------------

    def occupancy(self) -> int:
        return sum(popcount(bits) for bits in self.row_bits)

    def density(self) -> Fraction:
        return Fraction(self.occupancy(), self.dims.rows * self.dims.cols)

    def mirror_ew(self) -> Configuration:
        """Mirror east-west.  The north-south direction is not symmetric."""
        n = self.dims.cols
        mirrored = tuple(bit_reverse(bits, n) for bits in self.row_bits)
        return Configuration(self.dims, mirrored)
