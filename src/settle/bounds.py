"""Analytic occupancy bounds and structural audits of maximal configurations.

All arithmetic here is exact (integers and fractions); bounds feed solver
sanity checks where an off-by-one would be fatal.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar, Mapping

from .grid import Boundary, Configuration
from .rows import popcount


def _require_dims(m: int, n: int):
    if m < 2 or n < 2:
        raise ValueError(f"bounds are defined for m,n >= 2, got {m}x{n}")


def crude_bounds(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Counting bounds from light-sharing: mn/2 <= |C| <= 3mn/4 + (m-1)/2 + n/4."""
    _require_dims(m, n)
    lower = Fraction(m * n, 2)
    upper = Fraction(3 * m * n, 4) + Fraction(m - 1, 2) + Fraction(n, 4)
    return lower, upper


def i_lower_bound(m: int, n: int) -> int:
    """Sharp minimum occupancy of a maximal configuration."""
    _require_dims(m, n)
    if n % 4 == 0:
        return m * n // 2 + 2
    if n % 4 == 2:
        return m * (n + 2) // 2
    return m * (n + 1) // 2 + 1


def e_upper_block(m: int, n: int) -> int:
    """Upper bound on maximum occupancy by injecting empty lots into 1x4 blocks."""
    _require_dims(m, n)
    value = m * n - (n // 4) * (m - 1)
    if n % 4 == 3:
        value -= m // 2
    return value


def row_above_cap(k: int, n: int) -> int:
    """Max houses a row may hold when the row below it holds k, in width n."""
    if not 0 <= k <= n:
        raise ValueError(f"row count k={k} out of range 0..{n}")
    return n - k // 3


def _recurrence_step(n: int, prev: int, prev2: int) -> int:
    # ceil((2*prev + prev2) / 3), exactly
    return n + (2 * prev + prev2 + 2) // 3


def r_recurrence(m: int, n: int) -> int:
    """Row-recurrence upper bound on maximum occupancy (exact ceilings)."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    if m == 0:
        return 0
    prev2, prev = 0, n
    for _ in range(m - 1):
        prev2, prev = prev, _recurrence_step(n, prev, prev2)
    return prev


def seeded_recurrence(n: int, seeds: Mapping[int, int], m: int) -> int:
    """Iterate the row recurrence from caller-provided exact seed values.

    Seeds map row-counts to known upper bounds; at least two consecutive
    row-counts ≤ m must be seeded.  Iteration starts at the highest such
    pair, and any later seeded row-count overrides the recurrence there.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    start = None
    for k in sorted(seeds):
        if k + 1 <= m and k + 1 in seeds:
            start = k
    if start is None:
        if m in seeds:
            return seeds[m]
        raise ValueError(f"seeds must contain two consecutive row-counts <= m={m}")
    prev2, prev = seeds[start], seeds[start + 1]
    for i in range(start + 2, m + 1):
        value = seeds[i] if i in seeds else _recurrence_step(n, prev, prev2)
        prev2, prev = prev, value
    return prev


@dataclass(frozen=True)
class BoundsReport:
    """Every analytic bound for one grid size, with method labels."""

    rows: int
    cols: int
    crude_lower: Fraction
    crude_upper: Fraction
    i_lower: int
    e_upper_block: int
    e_upper_recurrence: int

    labels: ClassVar[Mapping[str, str]] = MappingProxyType({
        "crude_lower": "light-sharing count bound",
        "crude_upper": "light-sharing count bound",
        "i_lower": "sharp minimum-occupancy formula",
        "e_upper_block": "block-injection bound",
        "e_upper_recurrence": "row-recurrence bound",
    })

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "crude_lower": str(self.crude_lower),
            "crude_upper": str(self.crude_upper),
            "i_lower": self.i_lower,
            "e_upper_block": self.e_upper_block,
            "e_upper_recurrence": self.e_upper_recurrence,
            "labels": dict(self.labels),
        }


def bounds_report(m: int, n: int) -> BoundsReport:
    lower, upper = crude_bounds(m, n)
    return BoundsReport(
        rows=m,
        cols=n,
        crude_lower=lower,
        crude_upper=upper,
        i_lower=i_lower_bound(m, n),
        e_upper_block=e_upper_block(m, n),
        e_upper_recurrence=r_recurrence(m, n),
    )


@dataclass(frozen=True)
class AuditCheck:
    """Outcome of one structural check over all its strip depths/offsets."""

    applicable: bool
    passed: bool
    worst_slack: int | None = None
    detail: str = ""


def _prefix_counts(config: Configuration, mask: int) -> list[int]:
    """Cumulative house counts of rows 1..l restricted to the column mask."""
    total = 0
    out = []
    for bits in config.row_bits:
        total += popcount(bits & mask)
        out.append(total)
    return out


def _strip_check(config: Configuration, mask: int, per_row: int) -> tuple[int, int]:
    """Return (worst slack, depth of worst slack) for count >= per_row * depth."""
    worst, where = None, 0
    for depth, count in enumerate(_prefix_counts(config, mask), start=1):
        slack = count - per_row * depth
        if worst is None or slack < worst:
            worst, where = slack, depth
    return worst, where


def audit_structural_lemmas(config: Configuration) -> dict[str, AuditCheck]:
    """Check the structural facts every maximal open-border configuration obeys.

    - two_south_rows: the two southernmost rows hold at least n+2 houses
      (m, n >= 2);
    - border_pair_strips: the northernmost l rows of both width-2 border
      strips hold at least l houses, for every l;
    - border_triple_strips: same for width-3 border strips with 2l (n >= 3);
    - interior_quad_strips: same for width-4 strips at every offset (n >= 4).

    A failure would disprove maximality, so this doubles as an audit of
    solver witnesses and generators.
    """
    if config.dims.boundary is not Boundary.FREE:
        raise ValueError("structural audit applies to open-border configurations")
    if not config.is_maximal():
        raise ValueError("structural audit requires a maximal configuration")
    m, n = config.dims.rows, config.dims.cols
    report: dict[str, AuditCheck] = {}

    if m >= 2 and n >= 2:
        south = popcount(config.row_bits[m - 2]) + popcount(config.row_bits[m - 1])
        report["two_south_rows"] = AuditCheck(
            True, south >= n + 2, south - (n + 2), f"south rows hold {south}, need {n + 2}"
        )
    else:
        report["two_south_rows"] = AuditCheck(False, True, detail="needs m >= 2 and n >= 2")

    pair_masks = [0b11, 0b11 << (n - 2)] if n >= 2 else []
    if pair_masks:
        worst = min((_strip_check(config, mk, 1) for mk in pair_masks), key=lambda t: t[0])
        report["border_pair_strips"] = AuditCheck(
            True, worst[0] >= 0, worst[0], f"worst at depth {worst[1]}"
        )
    else:
        report["border_pair_strips"] = AuditCheck(False, True, detail="needs n >= 2")

    if n >= 3:
        triple_masks = [0b111, 0b111 << (n - 3)]
        worst = min((_strip_check(config, mk, 2) for mk in triple_masks), key=lambda t: t[0])
        report["border_triple_strips"] = AuditCheck(
            True, worst[0] >= 0, worst[0], f"worst at depth {worst[1]}"
        )
    else:
        report["border_triple_strips"] = AuditCheck(False, True, detail="needs n >= 3")

    if n >= 4:
        results = [
            _strip_check(config, 0b1111 << (t - 1), 2) for t in range(1, n - 2)
        ]
        worst = min(results, key=lambda t: t[0])
        report["interior_quad_strips"] = AuditCheck(
            True, worst[0] >= 0, worst[0], f"worst at depth {worst[1]}"
        )
    else:
        report["interior_quad_strips"] = AuditCheck(False, True, detail="needs n >= 4")

    return report


def audit_passed(report: dict[str, AuditCheck]) -> bool:
    return all(check.passed for check in report.values())
