"""Named periodic patterns: generators and closed-form occupancies.

All generators work on the open (free) border and return maximal
configurations whose occupancy equals the matching closed form; each
generator raises if construction and formula ever disagree.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import SettleError
from .grid import Boundary, Configuration, Dims
from .rows import full_mask, triple_mask


class PatternKind(Enum):
    BRICK = "brick"
    COMB = "comb"
    RAKE = "rake"
    STRIPE = "stripe"
    RAKE_STRIPE = "rake-stripe"
    CHECK = "check"


class SegmentKind(Enum):
    BRICK_BLOCK = "brick"
    COMB_BLOCK = "comb"


@dataclass(frozen=True)
class Segment:
    """One column block of a side-by-side combination."""

    kind: SegmentKind
    width: int
    mirrored: bool = False


SegmentSpec = tuple[Segment, ...]


def _require_dims(m: int, n: int):
    if m < 2 or n < 2:
        raise ValueError(f"patterns are defined for m,n >= 2, got {m}x{n}")


def rake_row_count(n: int) -> int:
    """Houses per tooth row of the rake pattern, by n mod 4."""
    r = n % 4
    if r == 0:
        return n // 2
    if r == 1:
        return (n - 1) // 2 + 1
    if r == 2:
        return (n - 2) // 2 + 2
    return (n - 3) // 2 + 2


def rake_teeth(n: int) -> int:
    """Bitmask of the tooth columns of a rake row.

    Teeth come as doubles {4k+2, 4k+3}; the n mod 4 remainders are absorbed
    at the edges (a single western tooth for n ≡ 1, an extra eastern double
    for n ≡ 2).
    """
    mask = 0
    r = n % 4
    if r == 0:
        for k in range(n // 4):
            mask |= 0b11 << (4 * k + 1)
    elif r == 1:
        mask |= 1
        for k in range((n - 1) // 4):
            mask |= 0b11 << (4 * k + 2)
    elif r == 2:
        for k in range((n - 2) // 4):
            mask |= 0b11 << (4 * k + 1)
        mask |= 0b11 << (n - 2)
    else:
        for k in range((n + 1) // 4):
            mask |= 0b11 << (4 * k + 1)
    return mask


def _edges(n: int) -> int:
    return 1 | (1 << (n - 1))


def pattern_occupancy(kind: PatternKind, m: int, n: int) -> int:
    """Evaluate the closed-form occupancy of a named pattern.

    The stripe form deviates from its generic odd-m expression at n = 2 and
    n = 3, where that expression is not attainable by any configuration; in
    those two cells this returns the occupancy of the actual stripe layout
    (2m and (5m-1)/2), which the generator realizes.
    """
    _require_dims(m, n)
    if kind is PatternKind.BRICK:
        if n == 2:
            return 2 * m
        h = n // 2
        base = m * ((n + 1) // 2) + ((h + 1) // 2) * ((m + 1) // 2) + (h // 2) * (m // 2)
        bonus = 1 if (n % 4 == 0 or (n % 4 == 2 and m % 2 == 0)) else 0
        return base + bonus
    if kind is PatternKind.COMB:
        return n + (m - 1) * (n - n // 3)
    if kind is PatternKind.RAKE:
        return n + (m - 1) * rake_row_count(n)
    if kind is PatternKind.STRIPE:
        if m % 2 == 0:
            return 2 * m + (m // 2) * (n - 2)
        if n == 2:
            return 2 * m
        if n == 3:
            return (5 * m - 1) // 2
        return 2 * m + ((m - 1) // 2) * (n - 2) + rake_row_count(n)
    if kind is PatternKind.RAKE_STRIPE:
        return n + 2 + (m - 2) * rake_row_count(n)
    # check
    return (
        2 * (m - 1)
        + n
        + ((m - 1) // 2) * ((n - 1) // 2)
        + (m // 2) * ((n - 2) // 2)
    )


def _every(n: int, start: int, step: int) -> int:
    """Mask of the bits start, start + step, ... below n."""
    return sum(1 << b for b in range(start, n, step))


def _gen_brick(m: int, n: int) -> list[int]:
    if n == 2:
        return [full_mask(2)] * m
    full_cols = _every(n, 0, 2)  # odd j
    # Half columns sit at even j; their phases strictly alternate so that a
    # full column is never flanked by two simultaneous half-column houses.
    # Odd rows take every other half column from j = 2 (j = 2, 6, ...) and
    # even rows the rest, except at n % 4 == 0 and even m, where the phases
    # swap.
    odd, even = _every(n, 1, 4), _every(n, 3, 4)
    if n % 4 == 0 and m % 2 == 0:
        odd, even = even, odd
    rows = ([full_cols | odd, full_cols | even] * ((m + 1) // 2))[:m]
    if n % 2 == 0 and not (rows[m - 1] >> (n - 1) & 1):
        # The south-east corner lot is always safe to occupy and is needed
        # for maximality when column n is a half column out of phase.
        rows[m - 1] |= 1 << (n - 1)
    return rows


def _gen_comb(m: int, n: int) -> list[int]:
    cols = 0
    for j in range(1, n + 1):
        if j % 3 != 0:
            cols |= 1 << (j - 1)
    return [cols] * (m - 1) + [full_mask(n)]


def _gen_rake(m: int, n: int) -> list[int]:
    return [rake_teeth(n)] * (m - 1) + [full_mask(n)]


def _gen_rake_stripe(m: int, n: int) -> list[int]:
    return [rake_teeth(n)] * (m - 2) + [full_mask(n), _edges(n)]


def _gen_stripe(m: int, n: int) -> list[int]:
    full = full_mask(n)
    if m % 2 == 0:
        return [full if i % 2 == 1 else _edges(n) for i in range(1, m + 1)]
    if n <= 3:
        # Tooth row on top, then alternating full/edge stripes.
        rows = [rake_teeth(n)]
        rows += [full if i % 2 == 0 else _edges(n) for i in range(2, m + 1)]
        return rows
    if n <= 6:
        # Full odd stripes and edge-only even stripes already match the form.
        return [full if i % 2 == 1 else _edges(n) for i in range(1, m + 1)]
    # Tooth row on top; a notch in the southernmost full stripe pays for a
    # three-house bump in the bottom row, which carries the two extra houses
    # the closed form counts relative to the plain layout.
    x = 5 if n % 4 == 1 else 4
    rows = [rake_teeth(n)]
    for i in range(2, m):
        if i % 2 == 0:
            bits = full
            if i == m - 1:
                bits &= ~(1 << (x - 1))
            rows.append(bits)
        else:
            rows.append(_edges(n))
    rows.append(_edges(n) | (0b111 << (x - 2)))
    return rows


def _gen_check(m: int, n: int) -> list[int]:
    # West and east columns plus the south row are full; interior lots of the
    # first m-1 rows follow a checkerboard class chosen to avoid creating a
    # blocked house at (m-1, 2) when n = 3: lot (i, j) is built iff
    # (i + j) % 2 == cls, so odd rows take the bits of cls's parity.
    cls = 1 if (n == 3 and m % 2 == 1) else 0
    odd, even = (_edges(n) | _every(n, p, 2) for p in (cls, 1 - cls))
    return ([odd, even] * (m // 2))[:m - 1] + [full_mask(n)]


_GENERATORS = {
    PatternKind.BRICK: _gen_brick,
    PatternKind.COMB: _gen_comb,
    PatternKind.RAKE: _gen_rake,
    PatternKind.STRIPE: _gen_stripe,
    PatternKind.RAKE_STRIPE: _gen_rake_stripe,
    PatternKind.CHECK: _gen_check,
}


def generate_pattern(kind: PatternKind, m: int, n: int) -> Configuration:
    """Build the named pattern on an open-border m×n grid.

    The result is maximal and its occupancy equals pattern_occupancy; any
    disagreement means the construction itself is wrong, so it raises rather
    than returning a quietly suboptimal grid.
    """
    _require_dims(m, n)
    rows = _GENERATORS[kind](m, n)
    config = Configuration(Dims(m, n, Boundary.FREE), tuple(rows))
    expected = pattern_occupancy(kind, m, n)
    got = config.occupancy()
    if got != expected:
        raise SettleError(
            f"{kind.value} construction for {m}x{n} has occupancy {got}, formula says {expected}"
        )
    return config


def _compositions(total: int, parts: int, minimum: int):
    """Yield tuples of `parts` integers >= minimum summing to total."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first, *rest)


def brick_comb_best(m: int, n: int, max_segments: int = 4) -> tuple[Configuration, SegmentSpec]:
    """Search side-by-side brick/comb segmentations for the best occupancy.

    Lays segment patterns side by side (optionally mirrored east-west),
    discards impermissible juxtapositions, greedily completes the rest to
    maximal configurations, and returns the best one found together with its
    segment spec.  Ties keep the earliest candidate in enumeration order
    (fewer segments first), making the result reproducible.
    """
    _require_dims(m, n)
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    seg_gen = {
        SegmentKind.BRICK_BLOCK: PatternKind.BRICK,
        SegmentKind.COMB_BLOCK: PatternKind.COMB,
    }

    @functools.cache
    def piece(kind: SegmentKind, w: int) -> tuple[Configuration, Configuration]:
        """The segment pattern and its east-west mirror, built once per search."""
        plain = generate_pattern(seg_gen[kind], m, w)
        return plain, plain.mirror_ew()

    best: tuple[Configuration, SegmentSpec] | None = None
    best_occ = -1
    dims = Dims(m, n, Boundary.FREE)
    for count in range(1, max_segments + 1):
        if 2 * count > n:
            break
        for kinds in itertools.product(SegmentKind, repeat=count):
            for widths in _compositions(n, count, 2):
                pieces = [piece(k, w) for k, w in zip(kinds, widths)]
                for mirrors in itertools.product((False, True), repeat=count):
                    rows = [0] * m
                    shift = 0
                    for pair, w, mir in zip(pieces, widths, mirrors):
                        block = pair[mir]
                        for i in range(m):
                            rows[i] |= block.row_bits[i] << shift
                        shift += w
                    # permissible: no house blocked by the row below it
                    # (the virtual south row of the free border is empty)
                    if any(triple_mask(a, n, False) & b for a, b in zip(rows, rows[1:])):
                        continue
                    completed = Configuration(dims, tuple(rows)).greedy_complete()
                    occ = completed.occupancy()
                    if occ > best_occ:
                        spec = tuple(
                            Segment(k, w, mir)
                            for k, w, mir in zip(kinds, widths, mirrors)
                        )
                        best, best_occ = (completed, spec), occ
    if best is None:
        raise SettleError(f"no feasible segmentation found for {m}x{n}")
    return best
