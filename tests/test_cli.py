"""End-to-end CLI tests via click's runner."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import GOLDEN
import settle
from settle.cli import main
from settle.formats import parse_grid
from settle.grid import Dims
from settle.modelgen import MAX_CELLS, export_inefficient, to_lp
from settle.solvers import _PHASES, Objective, SolveRequest, solve

runner = CliRunner()


def invoke(*args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


class TestGen:
    def test_plain_pattern(self):
        res = invoke("gen", "--pattern", "rake-stripe", "--rows", "6", "--cols", "8")
        assert res.exit_code == 0
        assert parse_grid(res.output).occupancy() == 26

    def test_case_insensitive_pattern_name(self):
        res = invoke("gen", "--pattern", "BRICK", "--rows", "3", "--cols", "4")
        assert res.exit_code == 0

    def test_json_payload(self):
        res = invoke("gen", "--pattern", "comb", "--rows", "2", "--cols", "7", "--json")
        payload = json.loads(res.output)
        assert payload["schema"] == "1"
        assert payload["occupancy"] == 12
        assert len(payload["cells"]) == 2

    def test_brick_comb_reports_segments(self):
        res = invoke("gen", "--pattern", "brick-comb", "--rows", "5", "--cols", "10",
                     "--json")
        payload = json.loads(res.output)
        assert payload["occupancy"] == 39
        assert sum(s["width"] for s in payload["segments"]) == 10

    def test_header_and_output_file(self, tmp_path):
        out = tmp_path / "g.grid"
        res = invoke("gen", "--pattern", "check", "--rows", "4", "--cols", "11",
                     "--header", "-o", str(out))
        assert res.exit_code == 0
        assert out.read_text() == (GOLDEN / "check_4x11.grid").read_text()

    def test_svg_style(self):
        res = invoke("gen", "--pattern", "rake", "--rows", "2", "--cols", "4",
                     "--style", "svg")
        assert res.output.startswith("<svg")

    def test_bad_dims_exit_2(self):
        res = invoke("gen", "--pattern", "rake", "--rows", "1", "--cols", "4")
        assert res.exit_code == 2


class TestCheck:
    def test_reports_blocked_cells(self):
        res = invoke("check", str(GOLDEN / "impermissible_5x4.grid"))
        assert res.exit_code == 0
        assert "impermissible" in res.output
        assert "(2,2) (3,3)" in res.output

    def test_expect_failure_exits_1(self):
        res = invoke("check", str(GOLDEN / "impermissible_5x4.grid"),
                     "--expect", "maximal")
        assert res.exit_code == 1

    def test_expect_permissible_accepts_maximal(self):
        res = invoke("check", str(GOLDEN / "maximal_5x4.grid"),
                     "--expect", "permissible")
        assert res.exit_code == 0

    def test_stdin_dash(self):
        res = invoke("check", "-", input="#.\n.#\n")
        assert res.exit_code == 0
        assert "permissible" in res.output

    def test_json_diagnostics_agree_with_library(self):
        res = invoke("check", str(GOLDEN / "permissible_5x4.grid"), "--json")
        payload = json.loads(res.output)
        assert payload["schema"] == "1"
        assert payload["permissible"] is True and payload["maximal"] is False
        assert [1, 2] in payload["addable"]
        by_cell = {(e["row"], e["col"]): e for e in payload["empty_cells"]}
        assert by_cell[(1, 2)]["addable"] is True
        assert set(by_cell[(1, 2)]["propositions"]) == {"east", "west", "north", "center"}

    def test_parse_error_exits_2(self):
        res = invoke("check", "-", input="#x\n")
        assert res.exit_code == 2
        assert "column" in res.output or "column" in (res.stderr or "")

    def test_json_grid_of_bad_types_exits_2(self):
        # a float cell and a bool row count are parse errors, not a
        # traceback or a verdict on a grid of True rows
        for grid in ({"rows": 1, "cols": 2, "boundary": "free", "cells": [[1.0, 0]]},
                     {"rows": True, "cols": 2, "boundary": "free", "cells": [[1, 0]]}):
            res = invoke("check", "-", input=json.dumps(grid))
            assert res.exit_code == 2, grid
            assert "maximal" not in res.output, grid


class TestSolve:
    def test_text_output(self):
        res = invoke("solve", "--rows", "4", "--cols", "4")
        assert res.exit_code == 0
        assert res.output.strip().endswith("13")

    def test_min_objective_with_witness_file(self, tmp_path):
        out = tmp_path / "w.grid"
        res = invoke("solve", "--objective", "min", "--rows", "4", "--cols", "6",
                     "--witness", str(out))
        assert res.exit_code == 0
        config = parse_grid(out.read_text())
        assert config.is_maximal() and config.occupancy() == 16

    def test_json_includes_witness_and_stats(self):
        res = invoke("solve", "--rows", "3", "--cols", "5", "--json")
        payload = json.loads(res.output)
        assert payload["optimum"] == 13
        assert payload["witness"]["rows"] == 3
        assert "wall_s" in payload["stats"]

    def test_json_stats_report_the_cycle(self):
        # 3 rows end before the sweep of width 9 repeats a row; 30 rows do not
        short, long = (json.loads(invoke("solve", "--rows", str(m), "--cols", "9",
                                         "--json").output)["stats"] for m in (3, 30))
        assert (short["transient"], short["period"], short["slope"]) == (None, None, None)
        assert short["states"] == 3 * 512
        assert long["period"] >= 1 and 3 < long["transient"] + long["period"] <= 30
        assert long["states"] == (long["transient"] + long["period"]) * 512

    def test_json_stats_report_the_phases(self):
        for objective in ("max", "min"):
            res = invoke("solve", "--objective", objective, "--rows", "5", "--cols", "8",
                         "--json")
            assert res.exit_code == 0
            stats = json.loads(res.output)["stats"]
            assert set(stats["phases"]) == set(_PHASES)
            assert all(s >= 0 for s in stats["phases"].values())
            assert sum(stats["phases"].values()) <= stats["wall_s"]

    def test_json_stats_report_the_checked_byte_estimate(self):
        for objective, m, n in [("max", 3, 5), ("min", 4, 6), ("min", 1, 9)]:
            res = invoke("solve", "--objective", objective, "--rows", str(m),
                         "--cols", str(n), "--json")
            assert res.exit_code == 0
            stats = json.loads(res.output)["stats"]
            # the charged peak, as an in-process solve of the same request reports it
            inproc = solve(SolveRequest(Dims(m, n), Objective(objective)))
            assert stats["state_bytes"] == inproc.stats["state_bytes"]

    def test_no_witness_json_reports_the_witness_free_solve(self):
        for objective, m, n in [("max", 3, 5), ("min", 4, 6), ("min", 1, 9)]:
            res = invoke("solve", "--objective", objective, "--rows", str(m),
                         "--cols", str(n), "--no-witness", "--json")
            assert res.exit_code == 0
            payload = json.loads(res.output)
            assert payload["schema"] == "1" and payload["witness"] is None
            inproc = solve(SolveRequest(Dims(m, n), Objective(objective), want_witness=False))
            assert payload["optimum"] == inproc.optimum
            assert payload["stats"]["state_bytes"] == inproc.stats["state_bytes"]
            with_witness = json.loads(invoke("solve", "--objective", objective, "--rows",
                                             str(m), "--cols", str(n), "--json").output)
            assert payload["stats"]["state_bytes"] < with_witness["stats"]["state_bytes"]
        text = invoke("solve", "--rows", "4", "--cols", "4", "--no-witness")
        assert text.exit_code == 0 and text.output.strip().endswith("13")

    def test_no_witness_with_a_witness_file_exits_2(self, tmp_path):
        out = tmp_path / "w.grid"
        res = invoke("solve", "--rows", "3", "--cols", "4", "--no-witness",
                     "--witness", str(out))
        assert res.exit_code == 2
        assert "--no-witness" in res.output
        assert not out.exists()

    def test_cap_violation_exits_2(self):
        res = invoke("solve", "--rows", "3", "--cols", "30")
        assert res.exit_code == 2

    def test_env_cap_override_lowers(self):
        res = invoke("solve", "--rows", "2", "--cols", "7",
                     env={"SETTLE_MAX_COLS": "6"})
        assert res.exit_code == 2
        res2 = invoke("solve", "--rows", "2", "--cols", "6",
                      env={"SETTLE_MAX_COLS": "6"})
        assert res2.exit_code == 0

    def test_env_cap_must_be_integer(self):
        res = invoke("solve", "--rows", "2", "--cols", "3",
                     env={"SETTLE_MAX_COLS": "wide"})
        assert res.exit_code == 2

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
    def test_out_of_memory_exits_2_without_a_traceback(self):
        # a solve its byte cap admits, in a process whose address space ends
        # 24 MiB past its size after import: the MemoryError becomes a
        # LimitError that names the estimate, so the CLI exits 2
        child = "\n".join([
            "import re, resource, sys",
            "from settle.cli import main",
            "with open('/proc/self/status') as f:",
            "    size = int(re.search(r'VmSize:\\s+(\\d+) kB', f.read()).group(1)) << 10",
            "resource.setrlimit(resource.RLIMIT_AS, (size + (24 << 20),) * 2)",
            "sys.argv = ['settle', 'solve', '--objective', 'min', '--rows', '14',",
            "            '--cols', '14', '--json']",
            "main()",
        ])
        env = {**os.environ, "SETTLE_MAX_COLS": "14",
               "PYTHONPATH": str(Path(settle.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert re.fullmatch(r"error: out of memory within the estimated state space of \d+ "
                            r"bytes\n", proc.stderr), proc.stderr


class TestBounds:
    def test_text_lists_all_bounds(self):
        res = invoke("bounds", "--rows", "6", "--cols", "9")
        assert res.exit_code == 0
        for key in ("crude_lower", "i_lower", "e_upper_block",
                    "e_upper_recurrence", "crude_upper"):
            assert key in res.output

    def test_json_values(self):
        res = invoke("bounds", "--rows", "6", "--cols", "9", "--json")
        payload = json.loads(res.output)
        assert payload["i_lower"] == 31
        assert payload["e_upper_recurrence"] == 43


class TestTable:
    def test_text_block(self):
        res = invoke("table", "--rows", "2..3", "--cols", "2..4")
        lines = res.output.strip().splitlines()
        assert lines[1].split()[1:] == ["4", "5", "7"]
        assert lines[2].split()[1:] == ["6", "8", "10"]

    def test_json_matches_golden_slice(self):
        res = invoke("table", "--rows", "2..6", "--cols", "2..6", "--json")
        payload = json.loads(res.output)
        golden = json.loads((GOLDEN / "table5.json").read_text())
        assert payload["values"] == [row[:5] for row in golden["values"][:5]]

    def test_golden_comparison_passes(self):
        res = invoke("table", "--rows", "2..16", "--cols", "2..16",
                     "--golden", str(GOLDEN / "table5.json"))
        assert res.exit_code == 0

    def test_golden_mismatch_exits_1(self, tmp_path):
        golden = json.loads((GOLDEN / "table5.json").read_text())
        golden["values"][0][0] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(golden))
        res = invoke("table", "--rows", "2..16", "--cols", "2..16",
                     "--golden", str(bad))
        assert res.exit_code == 1
        assert "mismatch at (2,2)" in res.output + (res.stderr or "")

    def test_golden_compares_by_row_and_column(self, tmp_path):
        args = ("table", "--rows", "5..6", "--cols", "4..6")
        res = invoke(*args, "--golden", str(GOLDEN / "table5.json"))
        assert res.exit_code == 0
        assert "mismatch" not in res.output
        golden = json.loads((GOLDEN / "table5.json").read_text())
        golden["values"][golden["rows"].index(5)][golden["cols"].index(4)] = 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(golden))
        res = invoke(*args, "--golden", str(bad))
        assert res.exit_code == 1
        assert res.output.count("mismatch") == 1
        assert "mismatch at (5,4): got 16, expected 4" in res.output

    def test_golden_skips_cells_it_lacks(self):
        res = invoke("table", "--rows", "15..17", "--cols", "2",
                     "--golden", str(GOLDEN / "table5.json"))
        assert res.exit_code == 0

    def test_golden_of_another_shape_exits_2(self):
        res = invoke("table", "--rows", "2..4", "--cols", "7",
                     "--golden", str(GOLDEN / "table4.json"))
        assert res.exit_code == 2
        assert "is not a table" in res.output

    def test_long_column_follows_its_cycle(self):
        res = invoke("table", "--objective", "max", "--rows", "2..2000", "--cols", "16", "--json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["errors"] == []
        column = {m: line[0] for m, line in zip(payload["rows"], payload["values"])}
        stats = json.loads(invoke("solve", "--rows", "40", "--cols", "16", "--json").output)["stats"]
        m0, p, d = stats["transient"], stats["period"], stats["slope"]
        assert m0 + p <= 40
        assert all(column[m + p] == column[m] + d for m in range(max(m0, 2), 2001 - p))

    def test_json_reports_per_cell_seconds(self):
        res = invoke("table", "--objective", "min", "--rows", "1..3", "--cols", "5..7",
                     "--json", env={"SETTLE_MAX_COLS": "6"})
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert set(payload) == {"schema", "objective", "boundary", "rows", "cols",
                                "values", "wall_s", "errors"}
        # null exactly at the error cells: width 7 past the cap
        assert [[s is None for s in line] for line in payload["wall_s"]] == \
            [[False, False, True]] * 3
        assert [[v is None for v in line] for line in payload["values"]] == \
            [[False, False, True]] * 3
        assert all(s >= 0 for line in payload["wall_s"] for s in line[:2])

    def test_single_value_ranges(self):
        res = invoke("table", "--rows", "4", "--cols", "5", "--json")
        assert json.loads(res.output)["values"] == [[17]]

    def test_bad_range_exits_2(self):
        res = invoke("table", "--rows", "5..2", "--cols", "2")
        assert res.exit_code == 2


class TestExportIp:
    def test_min_model_to_file(self, tmp_path):
        out = tmp_path / "m.lp"
        res = invoke("export-ip", "--objective", "min", "--rows", "3", "--cols", "4",
                     "-o", str(out))
        assert res.exit_code == 0
        assert out.read_text() == to_lp(export_inefficient(3, 4))

    def test_max_model_matches_golden(self):
        res = invoke("export-ip", "--rows", "3", "--cols", "4")
        assert res.output == (GOLDEN / "efficient_3x4.lp").read_text()

    def test_past_the_cell_cap_exits_2(self):
        for objective in ("max", "min"):
            for rows, cols in [(1, MAX_CELLS + 1), (2000, 2000)]:
                res = invoke("export-ip", "--objective", objective,
                             "--rows", str(rows), "--cols", str(cols))
                assert res.exit_code == 2
                assert "at most" in res.output


class TestOracle:
    def test_compare_agreement(self):
        res = invoke("oracle", "--objective", "min", "--rows", "3", "--cols", "4",
                     "--compare")
        assert res.exit_code == 0
        assert "agree" in res.output

    def test_json_fields(self):
        res = invoke("oracle", "--rows", "2", "--cols", "5", "--json", "--compare")
        payload = json.loads(res.output)
        assert payload["brute"] == payload["solver"] == 9
        assert payload["agree"] is True

    def test_oversized_grid_exits_2(self):
        res = invoke("oracle", "--rows", "5", "--cols", "5")
        assert res.exit_code == 2
