"""Tests for the named pattern generators and their occupancy formulas."""
from __future__ import annotations

import hashlib

import pytest

from settle.errors import SettleError
from settle.patterns import (
    PatternKind,
    SegmentKind,
    brick_comb_best,
    generate_pattern,
    pattern_occupancy,
    rake_teeth,
)


class TestClosedForms:
    @pytest.mark.parametrize("kind", list(PatternKind))
    def test_generator_matches_formula_and_is_maximal(self, kind):
        for m in range(2, 13):
            for n in range(2, 13):
                config = generate_pattern(kind, m, n)
                assert config.occupancy() == pattern_occupancy(kind, m, n), (m, n)
                assert config.is_maximal(), (kind, m, n)

    # sha256 of repr((kind value, m, n, row masks)) for every kind and
    # m, n in 2..40, kinds in enum order, then m, then n; recorded from the
    # per-column generators the two-mask ones replaced.
    ROWS_DIGEST = "902cda0cb4ba43dc1f76e5f35f20ba0a7eecb2aa3b74e261cb6b9bf65cf97556"

    def test_generators_keep_their_rows(self):
        h = hashlib.sha256()
        for kind in PatternKind:
            for m in range(2, 41):
                for n in range(2, 41):
                    rows = generate_pattern(kind, m, n).row_bits
                    h.update(repr((kind.value, m, n, rows)).encode())
        assert h.hexdigest() == self.ROWS_DIGEST

    def test_spot_values(self):
        assert pattern_occupancy(PatternKind.RAKE, 6, 8) == 28
        assert pattern_occupancy(PatternKind.STRIPE, 6, 8) == 30
        assert pattern_occupancy(PatternKind.RAKE_STRIPE, 6, 8) == 26
        assert pattern_occupancy(PatternKind.BRICK, 4, 6) == 19
        assert pattern_occupancy(PatternKind.BRICK, 5, 10) == 38
        assert pattern_occupancy(PatternKind.BRICK, 2, 4) == 7
        assert pattern_occupancy(PatternKind.COMB, 2, 7) == 12
        assert pattern_occupancy(PatternKind.CHECK, 4, 11) == 30

    def test_stripe_narrow_grids_use_attainable_values(self):
        # the published odd-row formula overshoots what any maximal
        # configuration can hold on 2- and 3-column grids
        assert pattern_occupancy(PatternKind.STRIPE, 3, 2) == 6
        assert pattern_occupancy(PatternKind.STRIPE, 5, 2) == 10
        assert pattern_occupancy(PatternKind.STRIPE, 3, 3) == 7
        assert pattern_occupancy(PatternKind.STRIPE, 5, 3) == 12

    def test_stripe_wide_odd_grid(self):
        assert pattern_occupancy(PatternKind.STRIPE, 7, 12) == 50

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValueError):
            pattern_occupancy(PatternKind.BRICK, 1, 5)
        with pytest.raises(ValueError):
            generate_pattern(PatternKind.RAKE, 4, 1)


class TestRakeTeeth:
    def test_teeth_by_width_residue(self):
        # teeth bitmask uses bit b for column b+1
        assert rake_teeth(8) == 0b01100110      # columns 2,3,6,7
        assert rake_teeth(9) == 0b11001101      # columns 1,3,4,7,8
        assert rake_teeth(10) == 0b1101100110   # columns 2,3,6,7,9,10
        assert rake_teeth(11) == 0b11001100110  # columns 2,3,6,7,10,11

    def test_narrow_widths(self):
        assert rake_teeth(2) == 0b11
        assert rake_teeth(3) == 0b110


class TestBrickComb:
    def test_hybrid_beats_single_block_at_5x10(self):
        config1, spec1 = brick_comb_best(5, 10, 1)
        config4, spec4 = brick_comb_best(5, 10, 4)
        assert config1.occupancy() == 38
        assert len(spec1) == 1 and spec1[0].kind is SegmentKind.BRICK_BLOCK
        assert config4.occupancy() == 39
        assert sum(s.width for s in spec4) == 10
        assert config4.is_maximal()

    def test_single_segment_grid(self):
        config, spec = brick_comb_best(3, 4, 2)
        assert config.is_maximal()
        assert all(s.width >= 2 for s in spec)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            brick_comb_best(1, 6, 2)
        with pytest.raises((ValueError, SettleError)):
            brick_comb_best(4, 6, 0)
