"""Tests for the exact solvers, the oracle, and resource limits."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import max_result, min_result
from settle.errors import LimitError
from settle.grid import Boundary, Configuration, Dims
from settle.rows import bit_reverse, covered_mask
from settle.solvers import (
    Limits,
    Objective,
    SolveRequest,
    brute_force,
    solve,
    solve_max,
    solve_min_maximal,
    table,
)


class TestMaxSolver:
    def test_known_values(self):
        assert max_result(2, 2).optimum == 4
        assert max_result(4, 4).optimum == 13
        assert max_result(7, 7).optimum == 39
        assert max_result(16, 16).optimum == 193

    def test_single_row_is_full(self):
        res = max_result(1, 9)
        assert res.optimum == 9
        assert res.witness == Configuration.full(Dims(1, 9))

    def test_witness_is_maximal_with_optimal_occupancy(self):
        for m, n in [(3, 5), (5, 8), (2, 11)]:
            res = max_result(m, n)
            assert res.witness.is_maximal()
            assert res.witness.occupancy() == res.optimum

    def test_bricked_mode(self):
        res = max_result(3, 4, Boundary.BRICKED)
        ref = brute_force(SolveRequest.maximum(3, 4, Boundary.BRICKED))
        assert res.optimum == ref.optimum
        assert res.witness.is_maximal()

    def test_objective_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_max(SolveRequest.minimum(3, 3))

    def test_column_cap(self):
        with pytest.raises(LimitError):
            solve_max(SolveRequest.maximum(2, 25))

    def test_byte_cap(self):
        limits = Limits(max_state_bytes=1 << 10)
        with pytest.raises(LimitError):
            solve_max(SolveRequest.maximum(2, 10, limits=limits))

    def test_wall_cap(self):
        limits = Limits(max_wall_s=0.0)
        with pytest.raises(LimitError):
            solve_max(SolveRequest.maximum(8, 12, limits=limits))

    def test_stats_present(self):
        res = max_result(3, 6)
        assert res.stats["states"] == 3 * 64
        assert res.stats["wall_s"] >= 0


class TestMinSolver:
    def test_known_values(self):
        assert min_result(2, 2).optimum == 4
        assert min_result(4, 4).optimum == 10
        assert min_result(5, 7).optimum == 21

    def test_single_row_free_must_fill(self):
        res = min_result(1, 7)
        assert res.optimum == 7

    def test_single_row_bricked_spaces_out(self):
        res = min_result(1, 7, Boundary.BRICKED)
        ref = brute_force(SolveRequest.minimum(1, 7, Boundary.BRICKED))
        assert res.optimum == ref.optimum
        assert res.witness.is_maximal()

    def test_single_row_allows_wide_grids(self):
        assert min_result(1, 18).optimum == 18

    def test_pair_cap_only_binds_multirow_grids(self):
        with pytest.raises(LimitError):
            solve_min_maximal(SolveRequest.minimum(2, 13))

    def test_witness_is_maximal_with_optimal_occupancy(self):
        for m, n in [(3, 5), (6, 6), (2, 9)]:
            res = min_result(m, n)
            assert res.witness.is_maximal()
            assert res.witness.occupancy() == res.optimum

    def test_bricked_mode(self):
        res = min_result(3, 4, Boundary.BRICKED)
        ref = brute_force(SolveRequest.minimum(3, 4, Boundary.BRICKED))
        assert res.optimum == ref.optimum

    def test_objective_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_min_maximal(SolveRequest.maximum(3, 3))


class TestBruteForce:
    def test_cell_cap(self):
        with pytest.raises(LimitError):
            brute_force(SolveRequest.maximum(5, 5))

    def test_agrees_with_solvers_on_samples(self):
        for m, n in [(2, 3), (3, 3), (4, 4), (2, 8), (1, 12)]:
            for bnd in Boundary:
                assert brute_force(SolveRequest.maximum(m, n, bnd)).optimum == \
                    max_result(m, n, bnd).optimum, (m, n, bnd, "max")
                assert brute_force(SolveRequest.minimum(m, n, bnd)).optimum == \
                    min_result(m, n, bnd).optimum, (m, n, bnd, "min")

    def test_witness_is_lexicographically_smallest_optimum(self):
        # independent enumeration in coordinate space
        m = n = 3
        best = None
        for bits in range(1 << 9):
            rows = tuple((bits >> (3 * i)) & 0b111 for i in range(3))
            config = Configuration(Dims(m, n), rows)
            if not config.is_permissible():
                continue
            key = (-config.occupancy(),
                   "".join("#" if config.is_occupied(i, j) else "."
                           for i in range(1, 4) for j in range(1, 4)))
            if best is None or key < best[0]:
                best = (key, config)
        res = brute_force(SolveRequest.maximum(3, 3))
        assert res.witness == best[1]


class TestDispatchAndTable:
    def test_solve_dispatches_by_objective(self):
        assert solve(SolveRequest.maximum(3, 3)).optimum == max_result(3, 3).optimum
        assert solve(SolveRequest.minimum(3, 3)).optimum == min_result(3, 3).optimum

    def test_table_values_and_shape(self):
        out = table(Objective.MAX_PERMISSIBLE, range(2, 5), range(2, 7))
        assert out["rows"] == [2, 3, 4]
        assert out["values"][0] == [4, 5, 7, 9, 10]
        assert out["values"][2] == [8, 10, 13, 17, 19]
        assert out["errors"] == []

    def test_table_captures_cap_errors_per_cell(self):
        out = table(Objective.MIN_MAXIMAL, [2], [12, 13])
        assert out["values"][0][0] is not None
        assert out["values"][0][1] is None
        assert out["errors"][0]["col"] == 13


class TestRowHelpers:
    def test_bit_reverse(self):
        assert bit_reverse(0b00110, 5) == 0b01100
        assert bit_reverse(1, 12) == 1 << 11
        for n in (1, 7, 32, 33, 64, 70):
            for x in (0, 1, (1 << n) - 1, 0x5A5A5A5A5A5A5A5A5A & ((1 << n) - 1)):
                got = bit_reverse(x, n)
                assert type(got) is int
                assert got == int(format(x, f"0{n}b")[::-1], 2)

    def test_array_rules_match_int_rules(self):
        for n in range(1, 11):
            full = (1 << n) - 1
            c = np.arange(1 << n, dtype=np.uint32)
            u = (c * np.uint32(5) + np.uint32(3)) & np.uint32(full)
            d = (c * np.uint32(3) + np.uint32(1)) & np.uint32(full)
            rev = bit_reverse(c, n)
            assert rev.dtype == np.uint32
            assert rev.tolist() == [bit_reverse(x, n) for x in range(1 << n)]
            for bricked in (False, True):
                got = covered_mask(u, c, d, n, bricked)
                assert got.dtype == np.uint32
                want = [covered_mask(int(a), int(b), int(e), n, bricked)
                        for a, b, e in zip(u, c, d)]
                assert got.tolist() == want
        words = np.random.default_rng(0).integers(0, 1 << 32, 4096, dtype=np.uint32)
        words[:3] = (0, 1, 0xFFFFFFFF)
        assert bit_reverse(words, 32).tolist() == [bit_reverse(int(x), 32) for x in words]
