"""Tests for grid text/JSON parsing and ascii/unicode/svg rendering."""
from __future__ import annotations

import json

import pytest

from conftest import GOLDEN
from settle.errors import ParseError
from settle.formats import RenderStyle, parse_grid, render, render_json, to_json_dict
from settle.grid import Boundary, Configuration, Dims


class TestParse:
    def test_full_two_by_two(self):
        config = parse_grid("##\n##")
        assert config.dims == Dims(2, 2)
        assert config.occupancy() == 4

    def test_diagonal_two_by_two(self):
        assert parse_grid("#.\n.#").occupancy() == 2

    def test_header_sets_dims_and_boundary(self):
        config = parse_grid("2 3 bricked\n#..\n..#\n")
        assert config.dims == Dims(2, 3, Boundary.BRICKED)

    def test_header_wins_over_argument(self):
        config = parse_grid("1 2 bricked\n#.\n", boundary=Boundary.FREE)
        assert config.dims.boundary is Boundary.BRICKED

    def test_boundary_argument_used_without_header(self):
        config = parse_grid("#.\n", boundary=Boundary.BRICKED)
        assert config.dims.boundary is Boundary.BRICKED

    def test_ragged_rows_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("##\n#\n")
        assert exc.value.line == 2

    def test_bad_character_rejected_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_grid("#.\n.x\n")
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_grid("3 2 free\n##\n##\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_grid("   \n\n")

    def test_internal_whitespace_tolerated(self):
        assert parse_grid("# . #\n. # .\n").occupancy() == 3

    def test_json_form(self):
        text = json.dumps({
            "rows": 2, "cols": 3, "boundary": "free",
            "cells": [[1, 0, 1], [0, 1, 0]],
        })
        config = parse_grid(text)
        assert config.cells() == [(1, 1), (1, 3), (2, 2)]

    def test_json_rejects_bad_matrix(self):
        text = json.dumps({"rows": 2, "cols": 2, "boundary": "free",
                           "cells": [[1, 0], [2, 0]]})
        with pytest.raises(ParseError):
            parse_grid(text)

    @pytest.mark.parametrize("field, value", [
        ("rows", True), ("cols", True), ("rows", 2.0), ("cols", "2"),
    ])
    def test_json_rejects_non_integer_dims(self, field, value):
        grid = {"rows": 2, "cols": 2, "boundary": "free", "cells": [[1, 0], [0, 0]]}
        grid[field] = value
        with pytest.raises(ParseError, match="rows and cols must be integers"):
            parse_grid(json.dumps(grid))

    @pytest.mark.parametrize("value", [1.0, 0.0, True, False, "1", None])
    def test_json_rejects_non_integer_cells(self, value):
        text = json.dumps({"rows": 1, "cols": 2, "boundary": "free", "cells": [[0, value]]})
        with pytest.raises(ParseError, match="cell value must be 0 or 1") as err:
            parse_grid(text)
        assert (err.value.line, err.value.column) == (1, 2)


class TestRender:
    def test_full_two_by_two_plain(self):
        assert render(Configuration.full(Dims(2, 2))) == "##\n##\n"

    def test_empty_one_by_three_plain(self):
        assert render(Configuration.empty(Dims(1, 3))) == "...\n"

    def test_header_line(self):
        text = render(Configuration.empty(Dims(1, 3, Boundary.BRICKED)), header=True)
        assert text == "1 3 bricked\n...\n"

    def test_rows_render_north_first(self):
        config = Configuration.from_cells(Dims(2, 2), [(1, 1)])
        assert render(config) == "#.\n..\n"

    def test_unicode_frame(self):
        text = render(Configuration.full(Dims(2, 2)), RenderStyle.ASCII_UNICODE)
        lines = text.splitlines()
        assert lines[0].startswith("┌") and lines[-1].startswith("└")
        assert "##" in lines[1]

    def test_svg_contains_filled_squares_and_north_arrow(self):
        config = Configuration.from_cells(Dims(2, 3), [(1, 2), (2, 2)])
        text = render(config, RenderStyle.SVG)
        assert text.startswith("<svg")
        assert text.count('fill="#444444"') == 2
        assert ">N<" in text

    def test_roundtrip_with_header(self):
        config = Configuration.from_cells(
            Dims(3, 5, Boundary.BRICKED), [(1, 1), (2, 3), (3, 5)])
        assert parse_grid(render(config, header=True)) == config

    def test_json_roundtrip(self):
        config = Configuration.from_cells(Dims(2, 4), [(1, 2), (2, 4)])
        assert parse_grid(render_json(config)) == config
        payload = to_json_dict(config)
        assert payload["cells"][0] == [0, 1, 0, 0]


class TestGoldenGrids:
    def test_fixture_files_parse_to_expected_verdicts(self):
        cases = {
            "impermissible_5x4.grid": (False, False),
            "permissible_5x4.grid": (True, False),
            "maximal_5x4.grid": (True, True),
        }
        for name, (permissible, maximal) in cases.items():
            config = parse_grid((GOLDEN / name).read_text())
            assert config.is_permissible() == permissible, name
            assert config.is_maximal() == maximal, name

    def test_pattern_grid_files_roundtrip(self):
        for name in ("rake_6x8.grid", "stripe_6x8.grid", "rake_stripe_6x8.grid",
                     "check_4x11.grid", "combo_5x10_occ39.grid"):
            text = (GOLDEN / name).read_text()
            config = parse_grid(text)
            assert render(config, header=True) == text, name
            assert config.is_maximal(), name
