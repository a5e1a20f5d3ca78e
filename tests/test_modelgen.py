"""Tests for IP model construction, LP serialization, and enumeration."""
from __future__ import annotations

import pytest

from conftest import GOLDEN, max_result, min_result
from settle.errors import LimitError
from settle.grid import Configuration, Dims
from settle.modelgen import (
    MAX_CELLS,
    enumerate_model_optimum,
    export_efficient,
    export_inefficient,
    model_feasible,
    to_lp,
)


class TestEfficientModel:
    def test_variables_and_constraints(self):
        model = export_efficient(3, 4)
        assert model.sense == "Maximize"
        assert len(model.objective) == 12
        assert len(model.constraints) == 2 * 2  # i in 1..2, j in 2..3
        names = [c.name for c in model.constraints]
        assert names == ["blk_1_2", "blk_1_3", "blk_2_2", "blk_2_3"]

    def test_constraint_term_order(self):
        con = export_efficient(3, 4).constraints[0]
        assert [v for _, v in con.terms] == ["x_1_2", "x_1_1", "x_1_3", "x_2_2"]
        assert con.op == "<=" and con.rhs == 3

    def test_narrow_grids_have_no_constraints(self):
        assert export_efficient(1, 8).constraints == ()
        assert export_efficient(5, 2).constraints == ()

    def test_optimum_matches_solver(self):
        for m, n in [(2, 2), (2, 5), (3, 4), (2, 6)]:
            got = enumerate_model_optimum(export_efficient(m, n))
            assert got == max_result(m, n).optimum, (m, n)


class TestInefficientModel:
    def test_cover_for_uncoverable_cell_forces_occupation(self):
        model = export_inefficient(2, 3)
        cover = next(c for c in model.constraints if c.name == "cover_2_1")
        assert cover.terms == ((1, "x_2_1"),)
        assert cover.op == ">=" and cover.rhs == 1

    def test_aux_variables_only_where_applicable(self):
        model = export_inefficient(2, 3)
        aux = [v for v in model.binaries if not v.startswith("x_")]
        assert aux == ["pE_1_1", "pC_1_2", "pW_1_3", "pN_2_2"]

    def test_includes_permissibility_constraints(self):
        names = [c.name for c in export_inefficient(3, 4).constraints]
        assert "blk_1_2" in names

    def test_optimum_matches_solver(self):
        for m, n in [(2, 2), (2, 5), (3, 4), (2, 6)]:
            got = enumerate_model_optimum(export_inefficient(m, n))
            assert got == min_result(m, n).optimum, (m, n)


class TestLpFormat:
    def test_sections_in_order(self):
        text = to_lp(export_efficient(2, 3))
        lines = text.splitlines()
        assert lines[0] == "Maximize"
        assert "Subject To" in lines
        assert "Binaries" in lines
        assert lines[-1] == "End"
        assert text.endswith("End\n")

    def test_lines_stay_narrow(self):
        text = to_lp(export_inefficient(4, 3))
        assert all(len(line) <= 70 for line in text.splitlines())

    def test_deterministic_output_matches_golden(self):
        assert to_lp(export_efficient(3, 4)) == (GOLDEN / "efficient_3x4.lp").read_text()
        assert to_lp(export_inefficient(3, 4)) == (GOLDEN / "inefficient_3x4.lp").read_text()

    def test_enumeration_rejects_oversized_models(self):
        with pytest.raises(ValueError):
            enumerate_model_optimum(export_efficient(5, 5))


class TestFeasibleSets:
    """The models hold exactly where the checker says so, configuration by
    configuration, not only at the optimum."""

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 13) for n in range(1, 13)
                                      if m * n <= 12])
    def test_models_agree_with_the_checker(self, m, n):
        full = (1 << n) - 1
        configs = [Configuration(Dims(m, n), tuple(k >> i * n & full for i in range(m)))
                   for k in range(1 << m * n)]
        assert model_feasible(export_efficient(m, n)).tolist() == [
            c.is_permissible() for c in configs]
        assert model_feasible(export_inefficient(m, n)).tolist() == [
            c.is_maximal() for c in configs]


class TestCellCap:
    @pytest.mark.parametrize("export", [export_efficient, export_inefficient])
    @pytest.mark.parametrize("m, n", [(1, MAX_CELLS + 1), (MAX_CELLS + 1, 1), (2000, 2000)])
    def test_past_the_cap_raises_before_building(self, export, m, n):
        with pytest.raises(LimitError, match="at most"):
            export(m, n)

    def test_the_cap_itself_builds(self):
        model = export_efficient(1, MAX_CELLS)
        assert len(model.objective) == MAX_CELLS and model.constraints == ()
