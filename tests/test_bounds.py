"""Tests for analytic bounds, recurrences, and structural audits."""
from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from conftest import GOLDEN
from settle.bounds import (
    audit_passed,
    audit_structural_lemmas,
    bounds_report,
    crude_bounds,
    e_upper_block,
    i_lower_bound,
    r_recurrence,
    row_above_cap,
    seeded_recurrence,
)
from settle.grid import Boundary, Configuration, Dims
from settle.patterns import PatternKind, generate_pattern, pattern_occupancy
from settle.solvers import Objective, table


class TestCrudeBounds:
    def test_exact_fractions(self):
        lo, hi = crude_bounds(5, 7)
        assert lo == Fraction(35, 2)
        assert hi == Fraction(3 * 35, 4) + Fraction(4, 2) + Fraction(7, 4)

    def test_lower_below_upper(self):
        for m in range(2, 12):
            for n in range(2, 12):
                lo, hi = crude_bounds(m, n)
                assert lo < hi


class TestMinimumFormula:
    def test_matches_rake_stripe_occupancy(self):
        for m in range(2, 13):
            for n in range(2, 13):
                assert i_lower_bound(m, n) == pattern_occupancy(
                    PatternKind.RAKE_STRIPE, m, n), (m, n)

    def test_residue_branches(self):
        assert i_lower_bound(4, 8) == 18   # nm/2 + 2
        assert i_lower_bound(4, 6) == 16   # m(n+2)/2
        assert i_lower_bound(4, 7) == 17   # m(n+1)/2 + 1
        assert i_lower_bound(4, 9) == 21   # m(n+1)/2 + 1


class TestUpperBounds:
    def test_block_bound_values(self):
        assert e_upper_block(4, 8) == 32 - 2 * 3
        assert e_upper_block(5, 7) == 35 - 1 * 4 - 2

    def test_recurrence_known_column(self):
        assert [r_recurrence(m, 7) for m in range(2, 11)] == [
            12, 18, 23, 29, 34, 40, 45, 51, 56]

    def test_recurrence_base_cases(self):
        assert r_recurrence(0, 5) == 0
        assert r_recurrence(1, 5) == 5

    def test_chain_ordering(self):
        for m in range(2, 17):
            for n in range(2, 17):
                lo, hi = crude_bounds(m, n)
                assert math.ceil(lo) <= i_lower_bound(m, n)
                assert r_recurrence(m, n) <= e_upper_block(m, n) <= math.ceil(hi), (m, n)


class TestSeededRecurrence:
    def test_known_seeded_column(self):
        seeds = {3: 17, 4: 22}
        assert [seeded_recurrence(7, seeds, m) for m in range(5, 10)] == [
            28, 33, 39, 44, 50]

    def test_seed_values_returned_verbatim(self):
        assert seeded_recurrence(7, {3: 17, 4: 22}, 4) == 22

    def test_later_seed_overrides_recurrence(self):
        plain = seeded_recurrence(7, {2: 12, 3: 18}, 6)
        bumped = seeded_recurrence(7, {2: 12, 3: 18, 5: 99}, 6)
        assert bumped != plain

    def test_requires_consecutive_pair(self):
        with pytest.raises(ValueError):
            seeded_recurrence(7, {3: 17, 5: 28}, 8)
        # unless the target itself is seeded
        assert seeded_recurrence(7, {3: 17, 5: 28, 8: 44}, 8) == 44


class TestGoldenColumn:
    def test_table4_matches_recurrences_and_solver(self):
        golden = json.loads((GOLDEN / "table4.json").read_text())
        n, rows = golden["cols"], golden["rows"]
        assert golden["recurrence"] == [r_recurrence(m, n) for m in rows]
        seeds = {int(m): v for m, v in golden["seeds"].items()}
        assert golden["seeded"] == [seeded_recurrence(n, seeds, m) for m in golden["seeded_rows"]]
        exact = table(Objective.MAX_PERMISSIBLE, rows, [n])
        assert golden["exact"] == [line[0] for line in exact["values"]]


class TestRowAboveCap:
    def test_formula(self):
        assert row_above_cap(0, 9) == 9
        assert row_above_cap(3, 9) == 8
        assert row_above_cap(9, 9) == 6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            row_above_cap(-1, 5)
        with pytest.raises(ValueError):
            row_above_cap(6, 5)


class TestBoundsReport:
    def test_fields_and_labels(self):
        report = bounds_report(6, 9)
        data = report.as_dict()
        assert data["rows"] == 6 and data["cols"] == 9
        assert data["i_lower"] == 31
        assert data["e_upper_block"] == 44
        assert data["e_upper_recurrence"] == 43
        assert data["crude_upper"] == "181/4"
        assert "block-injection" in report.labels["e_upper_block"]


class TestAudits:
    def test_minimum_pattern_sits_at_zero_slack(self):
        report = audit_structural_lemmas(generate_pattern(PatternKind.RAKE_STRIPE, 7, 9))
        assert audit_passed(report)
        assert report["two_south_rows"].worst_slack == 0

    def test_all_checks_applicable_on_wide_grid(self):
        report = audit_structural_lemmas(generate_pattern(PatternKind.BRICK, 6, 8))
        assert all(chk.applicable for chk in report.values())
        assert audit_passed(report)

    def test_narrow_grid_skips_wide_strips(self):
        report = audit_structural_lemmas(generate_pattern(PatternKind.BRICK, 4, 3))
        assert not report["interior_quad_strips"].applicable
        assert audit_passed(report)

    def test_single_column_skips_south_rows(self):
        column = Configuration.full(Dims(3, 1))
        assert column.is_maximal()
        report = audit_structural_lemmas(column)
        assert not report["two_south_rows"].applicable
        assert audit_passed(report)

    def test_rejects_non_maximal_input(self):
        with pytest.raises(ValueError):
            audit_structural_lemmas(Configuration.empty(Dims(3, 3)))

    def test_rejects_bricked_input(self):
        config = generate_pattern(PatternKind.RAKE, 4, 4)
        bricked = Configuration(Dims(4, 4, Boundary.BRICKED), config.row_bits)
        with pytest.raises(ValueError):
            audit_structural_lemmas(bricked)
