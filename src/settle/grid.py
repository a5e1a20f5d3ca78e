"""Grid configurations: sunlight, permissibility, maximality, propositions.

Coordinates are 1-based: (i, j) is the i-th row counted from the north and
the j-th column counted from the west.  A house is blocked when its east,
south, and west neighbors are all occupied; the northern side never matters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .rows import (
    BLOCKED,
    PROPS,
    Boundary,
    Prop,
    Rule,
    bit_reverse,
    covered_mask,
    full_mask,
    popcount,
    rule_mask,
)


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
    westernmost column.  The checker packs the rows once into rows.py lanes
    and evaluates each rule on the whole grid in one call.
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
        return self._cells(self._lanes[1])

    @property
    def _bricked(self) -> bool:
        return self.dims.boundary is Boundary.BRICKED

    # -- whole-grid lanes ------------------------------------------------------

    @cached_property
    def _lanes(self) -> tuple[int, int, int]:
        """(north, rows, south): every row and its two neighbours, as lanes.

        ``rows`` packs row i into lane i - 1 at the rows.py stride of n + 2
        bits, so the rules evaluate the whole grid in one call.  ``north``
        and ``south`` hold in lane i - 1 the rows above and below row i,
        virtual rows included: the virtual north row is always empty (the
        northern border is irrelevant in both modes), the virtual south row
        is full when the border is bricked and empty when open.
        """
        m, n = self.dims.rows, self.dims.cols
        stride = n + 2
        rows = 0
        for bits in reversed(self.row_bits):
            rows = rows << stride | int(bits)  # int(): a numpy mask would wrap
        north = (rows & ((1 << (m - 1) * stride) - 1)) << stride  # row m is north of no row
        south = rows >> stride
        if self._bricked:
            south |= full_mask(n) << (m - 1) * stride
        return north, rows, south

    def _cells(self, mask: int) -> list[tuple[int, int]]:
        """Decode the lane bits of mask to (i, j) cells, row-major, west first."""
        stride = self.dims.cols + 2
        out = []
        while mask:
            low = mask & -mask
            i, j = divmod(low.bit_length() - 1, stride)
            out.append((i + 1, j + 1))
            mask ^= low
        return out

    def _bit(self, mask: int, i: int, j: int) -> bool:
        """Whether cell (i, j)'s bit of the lane mask is set."""
        self._check_coord(i, j)
        return bool(mask >> ((i - 1) * (self.dims.cols + 2) + j - 1) & 1)

    # -- sunlight ------------------------------------------------------------

    def _rule(self, rule: Rule) -> int:
        """Where one rule of the rows.py table holds, as lanes (BLOCKED: the
        houses with east, south and west all occupied)."""
        return rule_mask((rule,), *self._lanes, self.dims.cols, self._bricked, self.dims.rows)

    def is_blocked(self, i: int, j: int) -> bool:
        """True iff the house at (i, j) has east, south, and west all occupied.

        Calling on an empty lot returns False.
        """
        return self._bit(self._rule(BLOCKED), i, j)

    def blocked_cells(self) -> list[tuple[int, int]]:
        return self._cells(self._rule(BLOCKED))

    def is_permissible(self) -> bool:
        """True iff no house is blocked."""
        return not self._rule(BLOCKED)

    # -- propositions and maximality ------------------------------------------

    def proposition(self, which: Prop, i: int, j: int) -> bool:
        """Evaluate one proposition at (i, j).

        Off-grid terms take the border value; a proposition whose subject
        neighbor is off-grid is false.
        """
        return self._bit(self._rule(PROPS[which]), i, j)

    def propositions_at(self, i: int, j: int) -> dict[Prop, bool]:
        """All four propositions at (i, j), for diagnostics."""
        return {p: self._bit(self._rule(rule), i, j) for p, rule in PROPS.items()}

    def is_addable(self, i: int, j: int) -> bool:
        """True iff building on the empty lot (i, j) keeps things permissible.

        Equivalent to: none of the four propositions holds there.
        """
        if self.is_occupied(i, j):
            raise ValueError(f"cell ({i},{j}) is already occupied")
        return self._bit(self._addable(), i, j)

    def _addable(self) -> int:
        """Empty lots where none of the four propositions holds, as lanes."""
        north, rows, south = self._lanes
        m, n = self.dims.rows, self.dims.cols
        covered = covered_mask(north, rows, south, n, self._bricked, m)
        return ~(rows | covered) & full_mask(n, m)

    def addable_cells(self) -> list[tuple[int, int]]:
        return self._cells(self._addable())

    def is_maximal(self) -> bool:
        """True iff permissible and no empty lot is addable."""
        return not self._rule(BLOCKED) and not self._addable()

    def greedy_complete(self) -> Configuration:
        """Fill every addable lot in one row-major, north-first scan.

        The input must be permissible; the result is maximal.  Propositions
        are monotone in occupancy: a lot the scan finds covered stays covered
        as later houses go up, so the lowest addable lot of a row is always
        the next one a west-first scan would take, and one scan reaches the
        fixpoint.
        """
        if not self.is_permissible():
            raise ValueError("cannot complete an impermissible configuration")
        n, b = self.dims.cols, self._bricked
        full = full_mask(n)
        # bits[i] is row i, between the virtual north and south rows
        bits = [0, *self.row_bits, full if b else 0]
        for i in range(1, self.dims.rows + 1):
            u, c, d = bits[i - 1:i + 2]
            while addable := ~(c | covered_mask(u, c, d, n, b)) & full:
                c |= addable & -addable  # the lowest: the scan's next house
            bits[i] = c
        return Configuration(self.dims, tuple(bits[1:-1]))

    # -- measures and symmetries ----------------------------------------------

    def occupancy(self) -> int:
        return popcount(self._lanes[1])

    def density(self) -> Fraction:
        return Fraction(self.occupancy(), self.dims.rows * self.dims.cols)

    def mirror_ew(self) -> Configuration:
        """Mirror east-west.  The north-south direction is not symmetric."""
        n = self.dims.cols
        mirrored = tuple(bit_reverse(bits, n) for bits in self.row_bits)
        return Configuration(self.dims, mirrored)
