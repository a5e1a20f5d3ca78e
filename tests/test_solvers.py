"""Tests for the exact solvers, the oracle, and resource limits."""
from __future__ import annotations

import hashlib
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import GOLDEN, max_result, min_result
from settle.bounds import i_lower_bound, r_recurrence
from settle.errors import LimitError, SettleError
from settle.grid import Boundary, Configuration, Dims
from settle.rows import bit_reverse, covered_mask, full_mask, triple_mask
from settle.solvers import (
    Limits,
    Objective,
    SolveRequest,
    _DEAD,
    _OBJECT_BYTES,
    _PHASES,
    _Clock,
    _SCAN_BLOCK,
    _brute_bytes,
    _check_limits,
    _close,
    _hasse,
    _hole_classes,
    _houses,
    _low_row,
    _max_rule,
    _min_rule,
    _normalize,
    _need_bytes,
    _pair_advance,
    _pick,
    _product,
    _reach,
    _reach_bits,
    _reach_bytes,
    _reach_tables,
    _split_bytes,
    _split_plan,
    _subset_max_inplace,
    _sweep,
    brute_force,
    solve,
    solve_max,
    solve_min_maximal,
    table,
)


def superset_scores(grouped, keys, n):
    """The maximum's full-width transform, a test reference: z[r] is the
    best grouped[g] whose key misses r, the rows r admits above it, as
    grouped scattered at the complemented keys and superset-transformed
    over all n bits: subset-transformed read reversed, in place."""
    z = np.full(1 << n, _DEAD, dtype=np.int8)
    z[full_mask(n) - keys] = grouped
    _subset_max_inplace(z[::-1], n)
    return z


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
        assert Limits().max_cols == 28
        with pytest.raises(LimitError, match="configured cap 28"):
            solve_max(SolveRequest.maximum(2, 29))

    def test_byte_cap(self):
        limits = Limits(max_state_bytes=1 << 10)
        with pytest.raises(LimitError):
            solve_max(SolveRequest.maximum(2, 10, limits=limits))

    def test_wall_cap(self):
        limits = Limits(max_wall_s=0.0)
        with pytest.raises(LimitError):
            solve_max(SolveRequest.maximum(8, 12, limits=limits))

    def test_wall_cap_stops_the_witness_scan(self):
        # the sweep finds its cycle within a few rows; the scan's 10^5 picks
        # take seconds uncapped, so the cap must trip inside the scan
        t0 = time.perf_counter()
        with pytest.raises(LimitError, match="wall time cap"):
            solve(SolveRequest.maximum(10**5, 3, limits=Limits(max_wall_s=0.05)))
        assert time.perf_counter() - t0 < 1



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

    def test_single_row_byte_cap(self):
        limits = Limits(max_state_bytes=1 << 10)
        with pytest.raises(LimitError):
            solve(SolveRequest.minimum(1, 20, limits=limits))

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


def naive_maximal(config: Configuration) -> bool:
    """Permissible, and a house on any empty lot makes it impermissible."""
    return config.is_permissible() and not any(
        config.with_house(i, j).is_permissible()
        for i in range(1, config.dims.rows + 1) for j in range(1, config.dims.cols + 1)
        if not config.is_occupied(i, j))


class TestBruteForce:
    def test_cell_cap(self):
        with pytest.raises(LimitError):
            brute_force(SolveRequest.maximum(5, 5))

    def test_byte_cap(self):
        limits = Limits(max_state_bytes=1 << 10)
        with pytest.raises(LimitError, match="estimated state space"):
            brute_force(SolveRequest.maximum(1, 20, limits=limits))

    def test_wall_cap(self):
        with pytest.raises(LimitError, match="wall time cap"):
            brute_force(SolveRequest.minimum(4, 4, limits=Limits(max_wall_s=0.0)))

    def test_agrees_with_solvers_on_samples(self):
        for m, n in [(2, 3), (3, 3), (4, 4), (2, 8), (1, 12)]:
            for bnd in Boundary:
                assert brute_force(SolveRequest.maximum(m, n, bnd)).optimum == \
                    max_result(m, n, bnd).optimum, (m, n, bnd, "max")
                assert brute_force(SolveRequest.minimum(m, n, bnd)).optimum == \
                    min_result(m, n, bnd).optimum, (m, n, bnd, "min")

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("m, n", [(3, 3), (2, 5), (4, 3), (1, 9)])
    def test_witness_is_lexicographically_smallest_optimum(self, m, n, objective, boundary):
        # independent enumeration in coordinate space
        dims = Dims(m, n, boundary)
        coords = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        ranked = []
        for bits in range(1 << (m * n)):
            config = Configuration.from_cells(
                dims, [cell for k, cell in enumerate(coords) if bits >> k & 1])
            if not config.is_permissible():
                continue
            text = "".join("#" if config.is_occupied(i, j) else "." for i, j in coords)
            houses = text.count("#")
            ranked.append(((-houses if objective is Objective.MAX_PERMISSIBLE else houses,
                            text), config))
        ranked.sort(key=lambda pair: pair[0])
        best = next(config for _, config in ranked
                    if objective is Objective.MAX_PERMISSIBLE or naive_maximal(config))
        assert brute_force(SolveRequest(dims, objective)).witness == best

    # sha256 of "mxn:" and the witness rows (" "-joined row masks), one line
    # per grid with 2 <= mn <= 20 in row-major (m, n) order, as the chunked
    # enumeration that packed (score, rev(g)) into one int64 gave them
    @pytest.mark.parametrize("objective, boundary, digest", [
        (Objective.MAX_PERMISSIBLE, Boundary.FREE,
         "18e2046400a8e5c642287189a2480bfad3a50bd80778a360fb9c1599ecc1f98f"),
        (Objective.MAX_PERMISSIBLE, Boundary.BRICKED,
         "3c83e46483558b16f61b03ccee112a3ff0d5a54a20132b9fb2d327b4d6b18ede"),
        (Objective.MIN_MAXIMAL, Boundary.FREE,
         "a613fb6c275fce090a19978a3617778ed2efa3424ad6b49310cf2243b09731d7"),
        (Objective.MIN_MAXIMAL, Boundary.BRICKED,
         "8b0fff089051d285c9701fb882b478b6db28cd80ff6ce55b51d05703352ba2c8"),
    ], ids=["max-free", "max-bricked", "min-free", "min-bricked"])
    def test_witnesses_keep_their_rows(self, objective, boundary, digest):
        grids = [(m, n) for m in range(1, 21) for n in range(1, 21) if 2 <= m * n <= 20]
        h = hashlib.sha256()
        for m, n in grids:
            res = brute_force(SolveRequest(Dims(m, n, boundary), objective))
            h.update(f"{m}x{n}:{' '.join(map(str, res.witness.row_bits))}\n".encode())
        assert len(grids) == 65
        assert h.hexdigest() == digest

    # the same digest over the tall strips with 21 <= mn <= 22 and n <= 3,
    # recorded on the row-axis array before it went flat
    @pytest.mark.parametrize("objective, boundary, digest", [
        (Objective.MAX_PERMISSIBLE, Boundary.FREE,
         "1816a3229912ff0022948b74008e51e8533d0e12c5b4a8e8cfa60ffbf6b05b05"),
        (Objective.MAX_PERMISSIBLE, Boundary.BRICKED,
         "57cd27324dc44aba3c9ca70ab1ab0a1a0c0699499d8ecf3947018e0197146cc2"),
        (Objective.MIN_MAXIMAL, Boundary.FREE,
         "937563d4fe0b0815feb70e6ad3576a7ae497cd64131cc0b207862ee5aa9f2f15"),
        (Objective.MIN_MAXIMAL, Boundary.BRICKED,
         "fac0195203d05f217ed68660be44550b74b0565c71800d662d728f5b27aa521a"),
    ], ids=["max-free", "max-bricked", "min-free", "min-bricked"])
    def test_tall_strip_witnesses_keep_their_rows(self, objective, boundary, digest):
        h = hashlib.sha256()
        for m, n in [(7, 3), (11, 2), (21, 1), (22, 1)]:
            req = SolveRequest(Dims(m, n, boundary), objective)
            res = brute_force(req)
            assert res.optimum == solve(req).optimum, (m, n)
            h.update(f"{m}x{n}:{' '.join(map(str, res.witness.row_bits))}\n".encode())
        assert h.hexdigest() == digest

    def test_needs_no_dp_code(self, monkeypatch):
        # the oracle is one of two independent methods: it must answer with
        # the DP's tables and sweep out of reach
        reqs = [SolveRequest(Dims(m, n, boundary), objective)
                for m, n in [(1, 7), (3, 4), (5, 2)] for boundary in Boundary
                for objective in Objective]
        want = [solve(req).optimum for req in reqs]

        def refuse(*args, **kwargs):
            raise AssertionError("brute_force reached the DP")

        for name in ("_houses", "_split_plan", "_reach_bits", "_reach_tables", "_sweep",
                     "_check_limits"):
            monkeypatch.setattr(f"settle.solvers.{name}", refuse)
        for req, optimum in zip(reqs, want):
            res = brute_force(req)
            assert res.optimum == optimum, req
            assert res.witness.is_maximal() and res.witness.occupancy() == optimum, req


class TestDispatchAndTable:
    def test_solve_dispatches_by_objective(self):
        assert solve(SolveRequest.maximum(3, 3)).optimum == max_result(3, 3).optimum
        assert solve(SolveRequest.minimum(3, 3)).optimum == min_result(3, 3).optimum

    # transitions: n updates per state for each row after the first
    @pytest.mark.parametrize("req, states, transitions", [
        (SolveRequest.maximum(3, 6), 3 * 64, 2 * 6 * 64),
        (SolveRequest.maximum(1, 9), 512, 0),
        (SolveRequest.minimum(1, 9), 512, 0),
        (SolveRequest.minimum(1, 9, Boundary.BRICKED), 512, 0),
    ], ids=["max-3x6", "max-1x9", "min-1x9", "min-1x9-bricked"])
    def test_stats_present(self, req, states, transitions):
        res = solve(req)
        assert res.stats["states"] == states
        assert res.stats["transitions"] == transitions
        assert res.stats["wall_s"] >= 0

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


def per_cell_table(objective, rows, cols, boundary):
    """table() as one independent solve per cell."""
    values, errors = [], []
    for m in rows:
        line = []
        for n in cols:
            try:
                req = SolveRequest(Dims(m, n, boundary), objective, want_witness=False)
                line.append(solve(req).optimum)
            except (LimitError, ValueError) as exc:
                line.append(None)
                errors.append({"row": m, "col": n, "error": str(exc)})
        values.append(line)
    return {"objective": objective.value, "boundary": boundary.value,
            "rows": list(rows), "cols": list(cols), "values": values, "errors": errors}


def same_result(a, b) -> bool:
    return (a.dims == b.dims and a.optimum == b.optimum and a.witness == b.witness
            and a.stats["states"] == b.stats["states"]
            and a.stats["transitions"] == b.stats["transitions"])


class TestSweep:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("objective, cols", [
        (Objective.MAX_PERMISSIBLE, [1, 3, 7, 29, 10]),
        (Objective.MIN_MAXIMAL, [1, 3, 7, 13, 6, 25]),
    ])
    def test_table_equals_per_cell_solve(self, objective, cols, boundary):
        rows = [5, 2, 5, 1, 0, 7]
        got = table(objective, rows, cols, boundary)
        # the seconds differ from run to run: only their shape is compared
        wall_s = got.pop("wall_s")
        assert got == per_cell_table(objective, rows, cols, boundary)
        assert [[s is None for s in line] for line in wall_s] == \
            [[v is None for v in line] for line in got["values"]]
        assert all(s >= 0 for line in wall_s for s in line if s is not None)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_pair_rule_closes_one_row_as_the_row_rule(self, boundary):
        # two rules for I(1, n): the pair rule closes off row 1 of a sweep
        # to two rows, the row rule the one row of a sweep to one
        for n in range(1, 11):
            pair = next(_sweep(Objective.MIN_MAXIMAL, n, boundary, [1, 2], True, Limits()))
            row = solve(SolveRequest.minimum(1, n, boundary))
            assert (pair.optimum, pair.witness) == (row.optimum, row.witness), n

    def test_single_row_min_cells_keep_the_wide_cap(self):
        out = table(Objective.MIN_MAXIMAL, [1, 2], [13])
        assert out["values"] == [[13], [None]]
        assert out["errors"] == [{"row": 2, "col": 13,
                                  "error": "cols 13 over the configured pair-state cap 12"}]

    # sha256 of every result these sweeps yield: objective, border, n, m,
    # optimum, witness rows and the stats states, transitions, transient,
    # period and slope.  Recorded from a sweep whose witness scan branched
    # on the objective and picked the minimum's last row from its close-off.
    SWEPT = {
        Boundary.FREE: "5252acf5448320ee2f701208ea50d42c40beb5988e6eca932cfabfb67da3b95b",
        Boundary.BRICKED: "a448540dc10b0aaba768a5f271efa6fb53f6fa9d1fcf411690f2ecb97a553a0c",
    }

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_sweep_witnesses_equal_separate_solves(self, boundary):
        rows = list(range(1, 9))
        pinned = hashlib.sha256()
        for n in range(1, 11):
            for objective, counts, solved in ((Objective.MAX_PERMISSIBLE, rows, max_result),
                                              (Objective.MIN_MAXIMAL, rows[1:], min_result)):
                swept = list(_sweep(objective, n, boundary, counts, True, Limits()))
                assert [r.dims.rows for r in swept] == counts
                for res in swept:
                    assert same_result(res, solved(res.dims.rows, n, boundary)), \
                        (res.dims, objective.value)
                    stats = [res.stats[k] for k in
                             ("states", "transitions", "transient", "period", "slope")]
                    pinned.update(repr((objective.value, boundary.value, n, res.dims.rows,
                                        res.optimum, res.witness.row_bits, stats)).encode())
        assert pinned.hexdigest() == self.SWEPT[boundary]

    # sha256 of the witness rows (" "-joined row masks) as a DP that stores
    # an argmax predecessor per state gives them: they pin the tie-break at
    # widths where the backward scan runs.  The minimum's digests were
    # recorded from a sweep whose int16 scores were minus its houses.  The
    # grids past 14x20 and 9x11 lie past the row where the sweep finds its
    # cycle, so their scans reuse the kept rows periodically; their digests
    # were recorded from a sweep that advanced through every row.  The
    # min 12x12 digest, at the pair cap, was recorded from a sweep that
    # held the (row above, row) scores of every pair.  The max 23x23 and
    # 24x24 digests were recorded from a sweep that grouped every state
    # with one np.maximum.at over a per-state class index and transformed
    # all of its 2^n scores in one array.  The max 28x28 digests, at the
    # default column cap, were recorded from an advance that kept a set of
    # column runs for each value of the row's bit h.  The min 12x12
    # bricked, 13x13 bricked and 14x14 free digests were recorded from a
    # sweep whose state kept every row, not one row of each mirror pair.
    @pytest.mark.parametrize("objective, m, n, boundary, optimum, digest", [
        (Objective.MAX_PERMISSIBLE, 14, 20, Boundary.FREE, 211,
         "e56ba602e23b619970c59a86605990e9ab5d439ccb9ab22712e3c6753df688c0"),
        (Objective.MAX_PERMISSIBLE, 14, 20, Boundary.BRICKED, 199,
         "b501b4e13a87d57d1f76ecff4de8471fc7704a2ced2b5c3f6d39723b4f203f03"),
        (Objective.MIN_MAXIMAL, 9, 11, Boundary.FREE, 55,
         "7ceb0c4f089919c97dd1274e2e7f77d5d1982b43f3aeadaac39a5041b17e6df8"),
        (Objective.MIN_MAXIMAL, 9, 11, Boundary.BRICKED, 48,
         "51eeb8815d7c13053661e4099cfb15b083a531e694d29cde8d3d3a8ce087a9f6"),
        (Objective.MAX_PERMISSIBLE, 60, 16, Boundary.FREE, 721,
         "1c1eacac12d3992da672bd5f3854c5196c96d0125d66679a466e0096c9a01987"),
        (Objective.MAX_PERMISSIBLE, 60, 16, Boundary.BRICKED, 687,
         "73ae2a905d0b609ce79c294541ff0d2a58774c8b82666059f51f5d4a39f7a73e"),
        (Objective.MAX_PERMISSIBLE, 40, 20, Boundary.FREE, 601,
         "7a4b5605ef410453b048239d7a010abd180b89c6e5737ddc1419f8368b3dac97"),
        (Objective.MAX_PERMISSIBLE, 40, 20, Boundary.BRICKED, 576,
         "614dc07ec2b0ebfd64b69c711063a8b8ea0b1132462be4f40cbc4e43f34cbd28"),
        (Objective.MIN_MAXIMAL, 30, 10, Boundary.FREE, 180,
         "e5967996211a6f3ea40ad1f99f5043687b3ab706bd6771663c142b16aa62787e"),
        (Objective.MIN_MAXIMAL, 30, 10, Boundary.BRICKED, 150,
         "f40a4ba5e8b56ec14992cfff6fc90bb8de3d9ec7cd0316de8f1e9b7a82e3de5c"),
        (Objective.MIN_MAXIMAL, 12, 12, Boundary.FREE, 74,
         "1de086484d78d805457b17fa273707eaf9dffa9547e5655806da99c8875e0665"),
        (Objective.MIN_MAXIMAL, 12, 12, Boundary.BRICKED, 72,
         "a8f141642e9161789054aa5afc81c01feb4fb673907c2023b4c093a19853f8b9"),
        (Objective.MIN_MAXIMAL, 13, 13, Boundary.BRICKED, 82,
         "a2a0d89dcabb7a49c239aa595342617d65ec5d52ad9f64017c4a712f7167a59b"),
        (Objective.MIN_MAXIMAL, 14, 14, Boundary.FREE, 112,
         "6b39bb3009347fe618b9961a68f7702da2b7bc6d16e4575f5a7af4838bd99444"),
        (Objective.MAX_PERMISSIBLE, 23, 23, Boundary.FREE, 403,
         "1a7b46adb13bcf8d6dc6eaf81a87b45c3fd45b4201329a4cb713451a0d7adc81"),
        (Objective.MAX_PERMISSIBLE, 24, 24, Boundary.FREE, 433,
         "90a4cf40892b6c8c0c23d5c6fc574df617c2cd363615125ec2c54440e8f8eac6"),
        (Objective.MAX_PERMISSIBLE, 23, 23, Boundary.BRICKED, 385,
         "96164786db3d19b426487d1693e1c6fca01af39730b17af39e438d3dfae548f9"),
        (Objective.MAX_PERMISSIBLE, 24, 24, Boundary.BRICKED, 415,
         "8194f3affccea621cdb639bad1035002f764289bccd01b7aa3b29d7fae6b5164"),
        (Objective.MAX_PERMISSIBLE, 28, 28, Boundary.FREE, 589,
         "065c4129d2adabc78dcd05eab88999fd6307947e4d17be6ea7d96ef59817b616"),
        (Objective.MAX_PERMISSIBLE, 28, 28, Boundary.BRICKED, 568,
         "6050588c1c43516639bc4c901904d261d6fcd6dcfba468ee0581b9ae9a8abff2"),
    ], ids=["max-free", "max-bricked", "min-free", "min-bricked",
            "max-60x16-free", "max-60x16-bricked", "max-40x20-free", "max-40x20-bricked",
            "min-30x10-free", "min-30x10-bricked", "min-12x12-free", "min-12x12-bricked",
            "min-13x13-bricked", "min-14x14-free",
            "max-23x23-free", "max-24x24-free", "max-23x23-bricked", "max-24x24-bricked",
            "max-28x28-free", "max-28x28-bricked"])
    def test_wide_witnesses_keep_their_rows(self, objective, m, n, boundary, optimum, digest):
        res = solve(SolveRequest(Dims(m, n, boundary), objective,
                                 limits=Limits(max_cols_pairs=14)))
        assert res.optimum == optimum
        rows = " ".join(map(str, res.witness.row_bits))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    @pytest.mark.parametrize("objective", list(Objective))
    def test_zero_wall_cap_marks_cells_unavailable(self, objective):
        # a single row needs no row advance, so it is solved before the cap trips
        out = table(objective, [3, 1, 2], [6, 8], limits=Limits(max_wall_s=0.0))
        assert out["values"] == [[None, None], [6, 8], [None, None]]
        assert [(e["row"], e["col"]) for e in out["errors"]] == \
            [(3, 6), (3, 8), (2, 6), (2, 8)]
        assert {e["error"] for e in out["errors"]} == {"wall time cap of 0.0s exceeded"}


class TestPeriodicSweep:
    """The sweep stops at its cycle and closes off later rows arithmetically."""

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("objective", list(Objective))
    def test_tables_equal_the_full_sweep(self, objective, boundary):
        # golden/sweep_tables.json: E for m <= 60, n <= 16 and I for m <= 40,
        # n <= 10, recorded from a sweep that advanced through every row
        golden = json.loads((GOLDEN / "sweep_tables.json").read_text())
        want = golden[objective.value][boundary.value]
        got = table(objective, want["rows"], want["cols"], boundary)
        assert got["errors"] == []
        assert got["values"] == want["values"]

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("objective, n", [
        (Objective.MAX_PERMISSIBLE, 9), (Objective.MAX_PERMISSIBLE, 16),
        (Objective.MIN_MAXIMAL, 7), (Objective.MIN_MAXIMAL, 10),
    ])
    def test_stats_report_the_cycle(self, objective, n, boundary):
        rows = list(range(2, 41))
        swept = list(_sweep(objective, n, boundary, rows, False, Limits()))
        size = 1 << (n if objective is Objective.MAX_PERMISSIBLE else 2 * n)
        found = [res for res in swept if res.stats["period"] is not None]
        assert found, "no cycle within 40 rows"
        m0, p, d = (found[0].stats[k] for k in ("transient", "period", "slope"))
        advanced = m0 + p
        assert found[0].dims.rows == max(advanced, rows[0])
        optimum = {res.dims.rows: res.optimum for res in swept}
        for res in swept:
            m = res.dims.rows
            assert res.stats["states"] == min(m, advanced) * size
            assert res.stats["transitions"] == (min(m, advanced) - 1) * n * size
            if m < advanced:
                assert res.stats["period"] is None
            else:
                assert (res.stats["transient"], res.stats["period"], res.stats["slope"]) == \
                    (m0, p, d)
            if m >= m0 and m + p in optimum:
                assert optimum[m + p] == res.optimum + d

    # the minimum's cycle (m0, p, d) at n = 2..14: on the free border it
    # proves I = i_lower_bound at every m; the bricked one has no formula.
    # Widths 13 and 14 lie past the default pair cap, and certify the int8
    # band there.
    MIN_CYCLES = {
        Boundary.FREE: ([1, 3, 3, 3, 3, 4, 5, 4, 5, 5, 5, 5, 5], [1] * 13,
                        [2, 2, 2, 3, 4, 4, 4, 5, 6, 6, 6, 7, 8]),
        Boundary.BRICKED: ([3, 3, 3, 3, 5, 3, 5, 5, 6, 5, 6, 5, 6], [1, 3] * 6 + [1],
                           [1, 4, 2, 7, 3, 10, 4, 13, 5, 16, 6, 19, 7]),
    }

    def test_long_strips(self):
        # E(m, 3) follows r_recurrence and I(m, n) follows i_lower_bound at
        # every m; the sweeps stop within a dozen rows, and the cycle each
        # one stops at covers every later m
        rows = sorted({*range(2, 200), *range(200, 10**5, 997), 10**5})
        spot = {2, 3, 57, 199, 1197, 54032, 10**5 - 1, 10**5}
        for res in _sweep(Objective.MAX_PERMISSIBLE, 3, Boundary.FREE, sorted(spot), False,
                          Limits()):
            assert res.optimum == r_recurrence(res.dims.rows, 3), res.dims
            assert res.stats["states"] <= 12 * 8
        for boundary, want in self.MIN_CYCLES.items():
            got = []
            for n in range(2, 15):
                counts = rows if boundary is Boundary.FREE else rows[:20]
                for res in _sweep(Objective.MIN_MAXIMAL, n, boundary, counts, False,
                                  Limits(max_cols_pairs=14)):
                    assert res.stats["states"] <= 12 * 4**n
                    if boundary is Boundary.FREE:
                        assert res.optimum == i_lower_bound(res.dims.rows, n), res.dims
                got.append([res.stats[k] for k in ("transient", "period", "slope")])
            assert [list(column) for column in zip(*got)] == list(want), boundary

    # sha256 of "20000x12:" and the witness rows, as the scan gave them
    # when it picked once a row
    @pytest.mark.parametrize("boundary, optimum, digest", [
        (Boundary.FREE, (3 * 12 * 20000 + 4) // 4,
         "ba27dedb2800296ac71d3da14edf98e8f7b10ad67a72a48524f5cbf084c2a6bb"),
        # criterion 08: the free E(20001, 14) less 2 * 20001 + 14 - 2
        (Boundary.BRICKED, (3 * 14 * 20001 + 6) // 4 - (2 * 20001 + 14 - 2),
         "785bb832227361a95197fd799fcdbed4bc74fa087193cbf57231729741dcf030"),
    ], ids=["free", "bricked"])
    def test_tall_strip_scan_picks_once_per_state(self, boundary, optimum, digest, monkeypatch):
        # max 20000x12 with a witness: a pick is made once for each kept
        # row, the rows below it that the scan reads and its shifted
        # target, and reused when they repeat past the sweep's cycle, so
        # the scan runs a few times, not once a row, and gives the same
        # rows
        made, calls = _max_rule, []

        def rule(n, bricked, d_v):
            inner = made(n, bricked, d_v)

            def scan(*args):
                calls.append(args)
                return inner.scan(*args)

            return inner._replace(scan=scan)

        monkeypatch.setattr("settle.solvers._max_rule", rule)
        res = solve(SolveRequest.maximum(20000, 12, boundary))
        assert 0 < len(calls) < 100
        assert res.optimum == res.witness.occupancy() == optimum
        assert res.witness.is_maximal()
        rows = " ".join(map(str, res.witness.row_bits))
        assert hashlib.sha256(f"20000x12:{rows}\n".encode()).hexdigest() == digest

    def test_growth_rate_per_row(self):
        # E grows by (3n + n mod 2)/4 houses a row on the free border; the
        # bricked rate at n is the free rate at n + 2 less 2, criterion 08's
        # identity per row.  r_recurrence's rate is exact except at
        # n = 2 (mod 4), where it is larger.
        def free_rate(n):
            return Fraction(3 * n + n % 2, 4)

        for boundary in Boundary:
            for n in range(3, 21):
                res = next(_sweep(Objective.MAX_PERMISSIBLE, n, boundary, [100], False,
                                  Limits()))
                rate = Fraction(res.stats["slope"], res.stats["period"])
                if boundary is Boundary.BRICKED:
                    assert rate == free_rate(n + 2) - 2, n
                    continue
                assert rate == free_rate(n), n
                bound = Fraction(r_recurrence(400, n) - r_recurrence(200, n), 200)
                assert bound > rate if n % 4 == 2 else bound == rate, n

    def test_normalize_shifts_and_checks_the_int8_band(self):
        # n = 5: a live score 2n below the row's best is kept, and dead
        # scores drifted by a row's gain go back to -128, although the
        # shift wraps them around first; a live score out of the band
        # raises rather than pass for dead later
        grouped = np.array([5, 3, 5 - 10, -128 + 5, -128], dtype=np.int8)
        assert _normalize(grouped, 5) == 5
        assert grouped.dtype == np.int8
        assert grouped.tolist() == [0, -2, -10, -128, -128]
        with pytest.raises(SettleError):
            _normalize(np.array([4, 4 - 11], dtype=np.int8), 5)
        with pytest.raises(SettleError):
            _normalize(np.array([-128, -128 + 5], dtype=np.int8), 5)

    def test_normalize_matches_the_naive_band(self):
        # against the band read score by score, in Python ints, on random
        # (rows, columns) states: live scores within 2n of the best, dead
        # ones drifted up to n above -128, a best up to n that wraps the
        # dead ones around when shifted, and, in some states, one live
        # score past the band, or no live score at all
        def naive(values, n):
            best = max(values)
            if best < _DEAD // 2:
                return "no live state"
            if any(best + _DEAD // 2 <= v < best - 2 * n for v in values):
                return "spread"
            return best, [v - best if v >= best - 2 * n else _DEAD for v in values]

        rng = np.random.default_rng(11)
        seen = set()
        for trial in range(600):
            n = int(rng.integers(1, 33))
            best = int(rng.integers(-2 * n, n + 1))
            state = rng.integers(best - 2 * n, best + 1, (3, 17))
            dead = rng.random(state.shape) < 0.4
            state[dead] = rng.integers(_DEAD, _DEAD + n + 1, np.count_nonzero(dead))
            state.flat[0] = best
            kind = trial % 3
            if kind == 1 and 2 * n < -(_DEAD // 2):  # a live score past the band
                state.flat[int(rng.integers(1, state.size))] = best - int(
                    rng.integers(2 * n + 1, -(_DEAD // 2) + 1))
            elif kind == 2:  # no live score
                state[:] = rng.integers(_DEAD, _DEAD // 2, state.shape)
            grouped = state.astype(np.int8)
            want = naive(state.ravel().tolist(), n)
            if isinstance(want, str):
                with pytest.raises(SettleError, match=want):
                    _normalize(grouped, n)
                seen.add(want)
                continue
            assert _normalize(grouped, n) == want[0], (trial, n)
            assert grouped.ravel().tolist() == want[1], (trial, n)
            seen.add("shifted")
        assert seen == {"shifted", "spread", "no live state"}

    def test_int8_scores_hold_every_max_width(self):
        # up to the uint32 limit, for both objectives: a row's gain, its
        # houses for the maximum or its empty lots for the minimum, lies in
        # [0, n], so unshifted live scores lie in [-2n, n], and a dead score
        # plus a gain stays below the live ones
        info = np.iinfo(np.int8)
        assert _DEAD == info.min
        for n in range(1, 33):
            houses = np.array([0, n], dtype=np.int8)  # the empty row and the full one
            for gain in (houses, n - houses):
                assert gain.dtype == np.int8 and sorted(gain.tolist()) == [0, n], n
            assert info.min <= -2 * n and n <= info.max, n
            assert _DEAD + n < _DEAD // 2 <= -2 * n, n


class TestScoreWidth:
    """Long three-column sweeps, where r_recurrence and i_lower_bound are exact.

    The optima pass the int16 range; the scores the sweep carries do not.
    """

    def test_int16_holds_up_to_its_bound(self):
        res = next(_sweep(Objective.MAX_PERMISSIBLE, 3, Boundary.FREE, [5461], False, Limits()))
        assert res.optimum == r_recurrence(5461, 3)
        res = next(_sweep(Objective.MIN_MAXIMAL, 3, Boundary.FREE, [5461], False, Limits()))
        assert res.optimum == i_lower_bound(5461, 3)

    def test_max_past_int16(self):
        m = 13108
        res = next(_sweep(Objective.MAX_PERMISSIBLE, 3, Boundary.FREE, [m], True, Limits()))
        assert res.optimum > 32767
        assert res.optimum == r_recurrence(m, 3)
        assert res.witness.is_maximal() and res.witness.occupancy() == res.optimum

    def test_bricked_max_past_int16(self):
        # criterion 08's identity: free E(m + 1, 5) = bricked E(m, 3) + 2(m + 1) + 3
        m = 16384
        walled = next(_sweep(Objective.MAX_PERMISSIBLE, 3, Boundary.BRICKED, [m], True, Limits()))
        assert walled.optimum > 32767
        assert walled.witness.is_maximal() and walled.witness.occupancy() == walled.optimum
        free = next(_sweep(Objective.MAX_PERMISSIBLE, 5, Boundary.FREE, [m + 1], False, Limits()))
        assert free.optimum == walled.optimum + 2 * (m + 1) + 3

    def test_min_past_int16(self):
        m = 16384
        res = next(_sweep(Objective.MIN_MAXIMAL, 3, Boundary.FREE, [m], True, Limits()))
        assert res.optimum > 32767
        assert res.optimum == i_lower_bound(m, 3)
        assert res.witness.is_maximal() and res.witness.occupancy() == res.optimum


class TestStateBytes:
    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("objective, m, n", [
        (Objective.MAX_PERMISSIBLE, 2, 4),
        (Objective.MAX_PERMISSIBLE, 9, 14),
        (Objective.MAX_PERMISSIBLE, 3, 18),
        (Objective.MAX_PERMISSIBLE, 2, 20),
        (Objective.MAX_PERMISSIBLE, 8, 22),
        (Objective.MAX_PERMISSIBLE, 20, 12),
        (Objective.MAX_PERMISSIBLE, 200, 12),
        (Objective.MAX_PERMISSIBLE, 40, 20),
        # past the default column cap, where the maximum's peak once passed
        # its estimate
        (Objective.MAX_PERMISSIBLE, 2, 26),
        (Objective.MAX_PERMISSIBLE, 26, 26),
        # at the default column cap, 28, where the witness scan once held a
        # copy of the run maxima beside their fit test
        (Objective.MAX_PERMISSIBLE, 8, 28),
        # past the default column cap, where the estimate once bounded the
        # classes by 2^n; at 8 rows the sweep's ring is full
        (Objective.MAX_PERMISSIBLE, 8, 29),
        (Objective.MIN_MAXIMAL, 1, 18),
        (Objective.MIN_MAXIMAL, 1, 22),
        (Objective.MIN_MAXIMAL, 3, 3),
        (Objective.MIN_MAXIMAL, 6, 8),
        (Objective.MIN_MAXIMAL, 3, 10),
        (Objective.MIN_MAXIMAL, 50, 8),
        (Objective.MIN_MAXIMAL, 5, 12),
        (Objective.MIN_MAXIMAL, 30, 12),
        # past the default pair cap, where the reach tables (8.5 MiB free,
        # 16 MiB bricked) outweigh the state
        (Objective.MIN_MAXIMAL, 3, 13),
        (Objective.MIN_MAXIMAL, 2, 14),
    ])
    @pytest.mark.parametrize("witness", [False, True])
    def test_traced_peak_within_estimate(self, objective, m, n, boundary, witness):
        limits = Limits(max_cols=max(n, Limits().max_cols),
                        max_cols_pairs=max(n, Limits().max_cols_pairs))
        req = SolveRequest(Dims(m, n, boundary), objective, want_witness=witness, limits=limits)
        _split_plan.cache_clear()
        _houses.cache_clear()
        _reach_bits.cache_clear()
        _reach_tables.cache_clear()
        tracemalloc.start()
        try:
            res = solve(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bricked = boundary is Boundary.BRICKED
        charges = self.charges(res, bricked) if witness else 0
        assert res.stats["state_bytes"] == _need_bytes(objective, m, n, bricked) + charges
        assert peak <= res.stats["state_bytes"]
        if witness and peak >= 4 << 20:
            # the charged layers are the ones the sweep keeps, m0 + p of them
            assert res.stats["state_bytes"] <= 1.5 * peak

    @staticmethod
    def charges(res, bricked):
        """What a witness solve charges beyond _need_bytes: each layer it
        keeps past the ones the estimate holds, and one scan call.  The
        maximum keeps each row's closed G and its (run, column run)
        cells, the last row's in the estimate as its advance's arrays, and
        its scan call holds two bools per cell, a few arrays of a word a
        run, a column run, a low half or one low half's rows, one low row
        with its test of the λ and a block of G's rows, and one block of
        their (row, high half) test.  The minimum keeps its slot maxima
        and their whole closed state, a score per class and representative
        row and a dead row, none of them in the estimate (the ring holds
        the slot maxima alone), and a single-row minimum its one state;
        both pick over one
        _SCAN_BLOCK, the minimum over at most its 2^n rows, and the
        minimum's pick reads two reads put back in row order, a byte a
        row.  Each row charges 512 bytes, its Python objects and its pick's
        memo entry."""
        m, n = res.dims.rows, res.dims.cols
        h, pick = n // 2, _SCAN_BLOCK * 32
        if res.objective is Objective.MAX_PERMISSIBLE:
            plan = _split_plan(n, bricked)
            runs, cols, size = len(plan.run_keys), plan.col_key.shape[1], plan.hv.itemsize
            layer, held, states = len(plan.lam) * len(plan.hv) + runs * cols, 1, 1 << n
            step = max(1, _SCAN_BLOCK // len(plan.hv))
            rebuild = len(plan.lam) * (plan.lam.itemsize + 9) + (step + 2) * len(plan.hv)
            pick = (2 * runs * cols + runs * 30 + cols * 12 + (9 << h) + ((1 + size) << (n - h))
                    + rebuild + step * len(plan.hv) * (size + 2) + step * 16)
        elif m == 1:
            layer, held, states = 1 << n, 1, 1 << n
        else:
            tables = _reach_tables(n, bricked)
            groups, rows = tables.slots.shape  # the classes, the representative rows
            layer, held, states = len(tables.mirror) + (groups + 1) * rows + _OBJECT_BYTES, 0, 4**n
            pick = min(_SCAN_BLOCK, 1 << n) * 32 + (1 << n)
        kept = res.stats["states"] // states
        return max(kept - held, 0) * layer + pick + m * 512

    @pytest.mark.parametrize("bricked", [False, True])
    @pytest.mark.parametrize("n", [20, 24, 26, 28])
    def test_plan_build_within_its_estimate(self, n, bricked):
        # the build term bounds a cold _split_plan by itself, beside the
        # plan it keeps, apart from the advance's term that _need_bytes
        # takes the larger of
        _split_plan.cache_clear()
        tracemalloc.start()
        try:
            _split_plan(n, bricked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, held, build, _, _ = _split_bytes(n, bricked)
        assert peak <= held + build

    @pytest.mark.parametrize("bricked", [False, True])
    def test_reach_tables_build_within_its_estimate(self, bricked):
        # the build term bounds cold _reach_bits and _reach_tables builds by
        # themselves, beside the tables they keep
        for n in range(2, 15):
            _reach_bits.cache_clear()
            _reach_tables.cache_clear()
            tracemalloc.start()
            try:
                _reach_tables(n, bricked)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tables, made = _reach_bytes(n, bricked)[:2]
            assert peak <= tables + made, (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_advance_and_reads_within_their_terms(self, bricked, monkeypatch):
        # with warm tables and a rule, one row advance holds at most its
        # term beside the state it reads; a close-off and one row of the
        # witness scan, its two reads of a kept closed state and the
        # scores they fill, hold at most the read term and the scores
        monkeypatch.setattr("settle.solvers._pick", lambda *args: -1)
        rng = np.random.default_rng(13)
        for n in range(10, 14):
            tables = _reach_tables(n, bricked)
            _, _, slots, advance, read = _reach_bytes(n, bricked)
            maxima = TestPairAdvance.state(n, bricked, rng)
            gain = (n - _houses(n))[tables.order]
            d_v = full_mask(n) if bricked else 0
            rules = [_min_rule(n, bricked, d_v, keep) for keep in (False, True)]
            rules[1].close(maxima)  # the kept closed state, a layer
            for run, term in [(lambda: _pair_advance(maxima, n, bricked, gain), advance),
                              (lambda: rules[0].close(maxima), read),
                              (lambda: rules[1].scan(maxima, [d_v, 5], 0), read + (1 << n))]:
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= term, (n, bricked, term)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_default_limits_admit_28_columns(self, boundary):
        # the default column cap is 28: a witness solve at 28 columns runs
        # under Limits() as they stand, within its charged peak and the
        # default byte cap
        req = SolveRequest.maximum(4, 28, boundary)
        assert req.limits == Limits() and Limits().max_cols == 28
        _split_plan.cache_clear()
        _houses.cache_clear()
        tracemalloc.start()
        try:
            res = solve(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.witness.occupancy() == res.optimum
        assert res.stats["state_bytes"] == (_need_bytes(Objective.MAX_PERMISSIBLE, 4, 28,
                                                         boundary is Boundary.BRICKED)
                                            + self.charges(res, boundary is Boundary.BRICKED))
        assert peak <= res.stats["state_bytes"] <= Limits().max_state_bytes

    @pytest.mark.parametrize("witness", [False, True])
    def test_single_row_min_builds_no_split_plan(self, witness):
        # _row_rule reads _houses alone: neither its estimate nor the
        # solve builds the split plan
        req = SolveRequest.minimum(1, 24, Boundary.BRICKED, want_witness=witness)
        _split_plan.cache_clear()
        _houses.cache_clear()
        tracemalloc.start()
        try:
            res = solve(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _split_plan.cache_info().currsize == 0
        charges = self.charges(res, True) if witness else 0
        assert res.stats["state_bytes"] == _need_bytes(Objective.MIN_MAXIMAL, 1, 24, True) + charges
        assert peak <= res.stats["state_bytes"]

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_pair_min_builds_no_split_plan(self, boundary):
        # the minimum reads its own classes and reach tables: neither its
        # estimate nor its sweep, close-off or witness scan builds the
        # maximum's plan (cover table, Hasse closure, batches, scan rows)
        _split_plan.cache_clear()
        for m, n in [(2, 3), (7, 8), (12, 12)]:
            res = solve(SolveRequest.minimum(m, n, boundary))
            assert res.witness.occupancy() == res.optimum
            swept = table(Objective.MIN_MAXIMAL, [m], [n], boundary)
            assert swept["values"] == [[res.optimum]]
        assert _split_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_a_cap_at_the_charged_peak_admits_one_sweep(self, boundary, monkeypatch):
        # the sweep charges the layers its witness keeps, m0 + p of the m
        # rows, as it keeps them: no second sweep finds the cycle first
        m, n = 60, 12
        peak = solve(SolveRequest.maximum(m, n, boundary)).stats["state_bytes"]
        sweeps = []

        def counted(*args):
            sweeps.append(args)
            return _sweep(*args)

        monkeypatch.setattr("settle.solvers._sweep", counted)
        res = solve(SolveRequest.maximum(m, n, boundary, limits=Limits(max_state_bytes=peak)))
        assert len(sweeps) == 1
        assert res.witness == max_result(m, n, boundary).witness
        assert res.stats["state_bytes"] == peak

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_a_cap_below_the_charged_peak_refuses_the_witness(self, boundary):
        # refused at the charge that passes the cap, before its allocation:
        # one byte under the charged peak, the scan's pick; one byte under
        # two layers past the estimate, the third layer kept (of the seven
        # or eight, the grouped maxima and the cells, 22 KiB free, 34 KiB
        # bricked; the estimate holds the first)
        m, n = 40, 20
        bricked = boundary is Boundary.BRICKED
        need = _need_bytes(Objective.MAX_PERMISSIBLE, m, n, bricked)
        plan = _split_plan(n, bricked)
        layer = len(plan.keys) + len(plan.run_keys) * plan.col_key.shape[1]
        peak = solve(SolveRequest.maximum(m, n, boundary)).stats["state_bytes"]
        for cap in (peak - 1, need + 2 * layer - 1):
            _split_plan.cache_clear()
            _houses.cache_clear()
            tracemalloc.start()
            try:
                with pytest.raises(LimitError, match="estimated state space"):
                    solve(SolveRequest.maximum(m, n, boundary,
                                               limits=Limits(max_state_bytes=cap)))
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert traced <= cap

    def test_estimate_before_the_sweep_does_not_grow_with_the_rows(self):
        # a witness's layers are charged as the sweep keeps them, so the
        # estimate checked first counts no layer a row
        dims = [Dims(m, 24) for m in (2, 10**6)]
        first, last = (_check_limits(Objective.MAX_PERMISSIBLE, d, Limits()) for d in dims)
        assert first == last

    def test_pair_state_holds_no_pair_array(self):
        # the minimum's state is one score per (class, row), so its estimate
        # at the pair cap is a fraction of one int8 score per row pair
        for boundary in Boundary:
            need = _need_bytes(Objective.MIN_MAXIMAL, 12, 12, boundary is Boundary.BRICKED)
            charged = solve(SolveRequest.minimum(12, 12, boundary)).stats["state_bytes"]
            assert need < charged <= 128 << 20

    def test_wide_pair_solve_is_refused_by_its_estimate(self):
        # a raised pair cap leaves the byte cap to refuse the reach tables
        # (at 16 columns, the widest a pair solve admits; 231 MiB on the
        # free border, under the default cap, so the cap is set at 128 MiB),
        # and the estimate itself allocates nothing of the width's size
        limits = Limits(max_cols=40, max_cols_pairs=40, max_state_bytes=1 << 27)
        tracemalloc.start()
        try:
            with pytest.raises(LimitError, match="estimated state space"):
                solve(SolveRequest.minimum(2, 16, limits=limits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_memory_error_becomes_a_limit_error_that_names_the_estimate(self, monkeypatch):
        # a solve, a table cell and brute_force whose allocation fails end
        # as a LimitError, a cap violation, not a MemoryError
        def fail(*args):
            raise MemoryError

        need = _need_bytes(Objective.MIN_MAXIMAL, 4, 5, False)
        monkeypatch.setattr("settle.solvers._normalize", fail)
        with pytest.raises(LimitError, match=f"out of memory within the estimated state "
                                             f"space of {need} bytes"):
            solve(SolveRequest.minimum(4, 5, want_witness=False))
        swept = table(Objective.MIN_MAXIMAL, [4], [5])
        assert swept["values"] == [[None]]
        assert swept["errors"][0]["error"].startswith("out of memory within the estimated")
        monkeypatch.setattr("settle.solvers._window_ok", fail)
        need = _brute_bytes(Objective.MAX_PERMISSIBLE, 3, 4)
        with pytest.raises(LimitError, match=f"space of {need} bytes"):
            brute_force(SolveRequest.maximum(3, 4))
        monkeypatch.setattr("settle.solvers._reach_bits", fail)
        with pytest.raises(LimitError, match="out of memory while estimating"):
            solve(SolveRequest.minimum(4, 5))

    @pytest.mark.parametrize("objective, m, n", [
        (Objective.MIN_MAXIMAL, 2, 17),  # reach and _min_rule's fit keys are uint16
        (Objective.MAX_PERMISSIBLE, 2, 33),  # hi << h wraps in _split_plan's uint32 rows
        (Objective.MIN_MAXIMAL, 1, 33),
    ])
    def test_no_limits_lift_the_hard_width_limits(self, objective, m, n):
        # refused before any table is built, whatever the caps: never solved
        limits = Limits(max_cols=40, max_cols_pairs=40, max_state_bytes=1 << 62)
        for boundary in Boundary:
            _split_plan.cache_clear()
            with pytest.raises(LimitError, match="hard limit"):
                _check_limits(objective, Dims(m, n, boundary), limits)
            assert _split_plan.cache_info().currsize == 0
        # the widest admitted grids are estimated, not refused
        assert _check_limits(objective, Dims(m, n - 1), limits) > 0

    @pytest.mark.parametrize("bricked", [False, True])
    def test_single_row_min_counts_the_pick_only_with_a_witness(self, bricked):
        # the pick reads the kept state itself: a witness adds its block
        # of candidates, not a 2^n score copy
        boundary = Boundary.BRICKED if bricked else Boundary.FREE
        for n in (22, 24):
            with_pick, without = (solve(SolveRequest.minimum(1, n, boundary, want_witness=w))
                                  .stats["state_bytes"] for w in (True, False))
            assert 0 < with_pick - without < 1 << n, (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_tables_hold_the_triple_classes_and_houses(self, bricked):
        for n in range(1, 17):
            states = np.arange(1 << n, dtype=np.uint32)
            keys = _split_plan(n, bricked).keys
            assert np.array_equal(keys, np.unique(triple_mask(states, n, bricked))), (n, bricked)
            # the minimum's own classes, built without the split plan
            assert np.array_equal(_reach_bits(n, bricked)[0], keys), (n, bricked)
            assert np.array_equal(_houses(n), np.bitwise_count(states)), (n, bricked)

    def test_plan_classes_pass_uint16_on_the_bricked_border(self):
        # 92 736 classes at n = 24, past a uint16 class index: the class
        # that order, class_starts and by_class give each (run, column run)
        # cell is the triple mask of a state of the cell, and every cell
        # has one
        n, h = 24, 12
        plan = _split_plan(n, True)
        groups, runs, cols = len(plan.keys), len(plan.run_keys), plan.col_key.shape[1]
        assert groups == 92736
        place = np.empty(groups, dtype=np.intp)  # the class at each place of by_class
        place[plan.by_class] = np.arange(groups)
        ones = groups - len(plan.class_starts)
        count = np.diff(plan.class_starts, append=len(plan.order) - ones)
        cls = np.full(runs * cols, -1)
        cls[plan.order] = np.concatenate([place[:ones], np.repeat(place[ones:], count)])
        assert len(plan.order) == runs * cols and np.all(cls >= 0)
        # a row of each run and a low half of each column run
        some = np.empty(runs, dtype=np.uint32)
        some[plan.run_desc] = plan.hi_desc
        low = np.empty(cols, dtype=np.uint32)
        low[plan.col_of] = np.arange(1 << h)
        first = (some[:, None] << h) | low
        assert np.array_equal(plan.keys[cls.reshape(runs, cols)], triple_mask(first, n, True))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_wide_max_holds_under_1_byte_a_state(self, boundary):
        # with cold caches: no array of one entry a row, neither houses nor
        # a state nor a per-state class index (0.42 free, 0.58 bricked)
        m, n = 2, 22
        _split_plan.cache_clear()
        _houses.cache_clear()
        tracemalloc.start()
        try:
            solve(SolveRequest.maximum(m, n, boundary, want_witness=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << n

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("m, n", [(1, 22), (2, 11), (11, 2), (22, 1)])
    def test_brute_force_peak_within_estimate(self, m, n, objective):
        req = SolveRequest(Dims(m, n), objective)
        tracemalloc.start()
        try:
            res = brute_force(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.stats["state_bytes"] == _brute_bytes(objective, m, n)
        assert peak <= res.stats["state_bytes"]


class TestPairRule:
    """The facts the pair solver's one reach table rests on."""

    def test_only_the_bricked_full_row_has_a_full_triple(self):
        for n in range(1, 17):
            states = np.arange(1 << n, dtype=np.uint32)
            for bricked in (False, True):
                full = np.flatnonzero(triple_mask(states, n, bricked) == full_mask(n))
                assert full.tolist() == ([full_mask(n)] if bricked else []), (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_reach_is_zero_on_exactly_the_blocked_pairs(self, bricked):
        for n in range(1, 11):
            states = np.arange(1 << n, dtype=np.uint32)
            c, d = states[:, None], states[None, :]
            reach = _reach(c, d, n, bricked)
            blocked = (triple_mask(c, n, bricked) & d) != 0
            assert np.array_equal((reach == 0) & (c != 0), blocked), n

    @pytest.mark.parametrize("bricked", [False, True])
    def test_own_bits_read_every_pair(self, bricked):
        # the two facts the advance's subset maximum over class slots rests
        # on: for d that miss the key of c, reach(c, d) = reach(c, d ∩ D_c);
        # and reach(c, s) ⊆ reach(c, s ∪ {k}) for s ∪ {k} ⊆ D_g
        for n in range(1, 11):
            keys, own, seen = _reach_bits(n, bricked)
            states = np.arange(1 << n, dtype=np.uint32)
            key = triple_mask(states, n, bricked)
            held = seen[np.searchsorted(keys, key)]
            assert ((own & ~held) == 0).all() and ((held & key) == 0).all(), (n, bricked)
            c, d = states[:, None], states[None, :]
            reach = _reach(c, d, n, bricked)
            miss = (key[:, None] & d) == 0
            own_d = reach[c, d & own[:, None]]
            assert np.array_equal(reach[miss], own_d[miss]), (n, bricked)
            inside = (d & ~held[:, None]) == 0  # the s ⊆ D_g
            for k in range(n):
                bit = np.uint32(1 << k)
                grown = inside & ((held[:, None] & bit) != 0) & ((d & bit) == 0)
                more = reach[c, d | bit]
                assert ((reach & ~more)[grown] == 0).all(), (n, bricked, k)

    @staticmethod
    def largest_holes(keys, n):
        """g(R) at every R, a test reference: the class of the numerically
        largest hole, full ^ key, inside R, or len(keys) where none is."""
        holes = (full_mask(n) ^ keys).astype(np.int64)
        inside = (holes[None, :] & ~np.arange(1 << n)[:, None]) == 0
        best = np.where(inside, holes, -1).max(axis=1)
        return np.where(best >= 0, np.searchsorted(-holes, -best), len(keys))

    def test_classes_are_and_closed_and_reach_reads_the_largest_hole(self):
        # the premise of the minimum's closure (_hole_classes), n = 1..16:
        # the and of two classes is a class, so the holes, full ^ key, are
        # or-closed and the holes inside any R have one largest member,
        # their union.  Up to n = 12, g(R) is that member's class, or the
        # dead row where no hole fits: on the free border, exactly the R
        # that lack bit 0 or bit n - 1
        for n in range(1, 17):
            for bricked in (False, True):
                keys = _reach_bits(n, bricked)[0]
                meets = np.unique(keys[:, None] & keys)
                assert np.array_equal(meets, keys), (n, bricked)
                if n > 12:
                    continue
                holes = (full_mask(n) ^ keys).astype(np.uint16)
                largest = _hole_classes(holes, n)
                assert largest.dtype == np.uint16, (n, bricked)
                assert np.array_equal(largest, self.largest_holes(keys, n)), (n, bricked)
                edges = full_mask(n) & (1 | (1 << (n - 1)))
                states = np.arange(1 << n)
                dead = (states & edges) != edges if not bricked else np.zeros(1 << n, bool)
                assert np.array_equal(largest == len(keys), dead), (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_no_class_has_more_than_n_hasse_parents(self, bricked):
        # the closure's bound in the estimate (_reach_bytes): at most n
        # Hasse parents and n Hasse children a hole, n = 1..16, so at most
        # n classes x n edges and n + 1 members a parent in the closure
        for n in range(1, 17):
            holes = (full_mask(n) ^ _reach_bits(n, bricked)[0]).astype(np.uint16)
            child, parent = _hasse(holes)
            assert np.bincount(child, minlength=1).max() <= n, (n, bricked)
            assert np.bincount(parent, minlength=1).max() <= n, (n, bricked)
            assert len(child) <= len(holes) * n, (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_rules_commute_with_reversal(self, bricked):
        # the premise of the minimum's half state (_pair_advance): the rules
        # treat east and west alike, so the triple mask, reach and the
        # cover of reversed rows are the reversed ones, and the classes, and
        # their D_g, come in mirror pairs.  A rule edit that breaks the
        # symmetry fails here, not as a wrong optimum
        for n in range(1, 10):
            states = np.arange(1 << n, dtype=np.uint32)
            rev = bit_reverse(states, n)
            assert np.array_equal(triple_mask(rev, n, bricked),
                                  bit_reverse(triple_mask(states, n, bricked), n)), n
            reach = _reach(states[:, None], states[None, :], n, bricked)
            assert np.array_equal(_reach(rev[:, None], rev[None, :], n, bricked),
                                  bit_reverse(reach, n)), n
            keys, _, seen = _reach_bits(n, bricked)
            star = np.searchsorted(keys, bit_reverse(keys, n))
            assert np.array_equal(keys[star], bit_reverse(keys, n)), n
            assert np.array_equal(seen[star], bit_reverse(seen, n)), n
        for n in range(1, 7):
            states = np.arange(1 << n, dtype=np.uint32)
            rev = bit_reverse(states, n)
            u, c, d = states[:, None, None], states[None, :, None], states[None, None, :]
            cover = covered_mask(u, c, d, n, bricked)
            assert np.array_equal(covered_mask(rev[u], rev[c], rev[d], n, bricked),
                                  bit_reverse(cover, n)), n

    @staticmethod
    def packed(d, bits, n):
        """The slot of the rows d in a table over the bits: bit i of the
        slot is the i-th of the bits, read in d."""
        out = np.zeros(np.broadcast(d, bits).shape, dtype=np.intp)
        for k in range(n):
            below = np.bitwise_count(bits & ((1 << k) - 1)).astype(np.intp)
            has = ((bits >> k) & 1 == 1) & ((d >> k) & 1 == 1)
            out += np.where(has, 1 << below, 0)
        return out

    @staticmethod
    def places(tables, seen):
        """Each class's slot ∅ and the stride between its slots, from the
        spans: slot-major, one (2^B + 1, classes) array per size B of D_g,
        its classes by key, the spans one after another from slot 0."""
        held = np.bitwise_count(seen).astype(np.intp)
        first, stride = np.full(len(seen), -1), np.full(len(seen), -1)
        end = 0
        for at, count, b in tables.spans:
            assert at == end
            members = np.flatnonzero(held == b)
            assert len(members) == count
            first[members], stride[members] = at + np.arange(count), count
            end = at + (count << b) + count
        assert end == len(tables.mirror) and (first >= 0).all()
        return first, stride

    @pytest.mark.parametrize("bricked", [False, True])
    def test_class_tables_hold_reach_at_every_pair(self, bricked):
        # the entry a row c reads at its own slot of d (d ∩ D_c, its bit i
        # the i-th bit of D_c, or the blocked slot where d meets the key)
        # is g(reach(c, d)), the class of the largest hole inside reach,
        # or the dead row, the class count, where none is, blocked pairs
        # included; scatter sends it to the class slot of d ∩
        # D_c, or to the class's blocked slot, which slots holds at d's
        # place in table order.  The rows are the representatives c <=
        # rev(c), and mirror sends each class slot to the mirror class's
        # slot of its reversed subset; unread lists the slots that neither
        # slots nor their mirror's reach
        for n in range(1, 11):
            tables = _reach_tables(n, bricked)
            keys, own, seen = _reach_bits(n, bricked)
            first, stride = self.places(tables, seen)
            largest = self.largest_holes(keys, n)
            assert tables.reach.dtype == np.uint16, (n, bricked)
            assert np.array_equal(tables.hole, largest), (n, bricked)
            states = np.arange(1 << n, dtype=np.uint32)
            reps = states[states <= bit_reverse(states, n)]
            assert np.array_equal(np.sort(tables.order), reps), (n, bricked)
            assert np.array_equal(tables.mirrored, bit_reverse(tables.order.astype(np.uint32), n))
            # the runs follow one another over every row and entry
            firsts = [run[0] for run in tables.runs]
            assert firsts[0] == 0 and [run[1] for run in tables.runs] == firsts[1:] + [len(reps)]
            assert tables.runs[0][3] == 0
            for (first_row, end, width, entry), nxt in zip(tables.runs, tables.runs[1:]):
                assert nxt[3] == entry + (end - first_row) * width, (n, bricked)
            blocked_slot = 1 << np.bitwise_count(seen).astype(np.intp)
            for first_row, end, width, entry in tables.runs:
                c = tables.order[first_row:end].astype(np.uint32)
                cls = np.searchsorted(keys, triple_mask(c, n, bricked))
                assert ((1 << np.bitwise_count(own[c]).astype(int)) + 1 == width).all()
                blocked = (triple_mask(c, n, bricked)[:, None] & states) != 0
                slot = self.packed(states, own[c][:, None], n)
                slot[blocked] = width - 1
                at = entry + np.arange(len(c))[:, None] * width + slot
                reach = _reach(c[:, None], states[None, :], n, bricked)
                assert np.array_equal(tables.reach[at], largest[reach]), (n, bricked, width)
                slot = self.packed(states & own[c][:, None], seen[cls][:, None], n)
                slot[blocked] = blocked_slot[cls][:, None].repeat(1 << n, axis=1)[blocked]
                want = first[cls][:, None] + slot * stride[cls][:, None]
                assert np.array_equal(tables.scatter[at], want), (n, bricked, width)
            d = tables.order.astype(np.uint32)
            slot = self.packed(d, seen[:, None], n)
            meets = (keys[:, None] & d) != 0
            slot[meets] = np.broadcast_to(blocked_slot[:, None], slot.shape)[meets]
            assert tables.slots.dtype == np.min_scalar_type(len(tables.mirror) - 1), (n, bricked)
            assert np.array_equal(tables.slots, first[:, None] + slot * stride[:, None]), \
                (n, bricked)
            star = np.searchsorted(keys, bit_reverse(keys, n))
            assert np.array_equal(keys[star], bit_reverse(keys, n)), (n, bricked)
            for g in range(len(keys)):
                b = int(blocked_slot[g]).bit_length() - 1
                subsets = np.arange(1 << b, dtype=np.uint32)
                mirrored = bit_reverse(subsets, b) if b else subsets
                got = tables.mirror[first[g] + np.arange((1 << b) + 1) * stride[g]]
                want = first[star[g]] + np.append(mirrored, 1 << b) * stride[g]
                assert np.array_equal(got, want), (n, bricked, g)
            # one slot is unread, key 0's blocked slot
            read = np.zeros(len(tables.mirror), dtype=bool)
            read[tables.slots] = True
            read[tables.mirror[tables.slots]] = True
            assert keys[0] == 0, (n, bricked)
            assert np.flatnonzero(~read).tolist() == [tables.unread], (n, bricked)
            assert tables.unread == first[0] + blocked_slot[0] * stride[0], (n, bricked)


class TestPairAdvance:
    """The minimum's slot-form row advance and its reads against the
    pair-array DP, its states' columns and its gain in table order."""

    @staticmethod
    def reference(grouped, n, bricked, gain):
        # every (u, c) pair's score is the best class of u that fits the
        # rows below, z[reach(c, d), c]; then grouped by the class of c
        keys = _split_plan(n, bricked).keys
        size = 1 << n
        states = np.arange(size, dtype=np.uint32)
        reach = _reach(states[:, None], states[None, :], n, bricked)
        ids = np.searchsorted(keys, triple_mask(np.arange(size, dtype=np.uint32), n, bricked))
        scatter = full_mask(n) - keys
        masks = np.arange(size)
        z = np.full((size, size), _DEAD, dtype=np.int8)
        for g, key in enumerate(scatter.tolist()):
            within = (masks & key) == key  # the masks that hold this class's key
            z[within] = np.maximum(z[within], grouped[g])
        score = z[reach, np.arange(size)[:, None]] + gain
        return np.stack([score[ids == g].max(axis=0) for g in range(len(keys))])

    @staticmethod
    def state(n, bricked, rng):
        """Random slot maxima as the sweep makes them: live in [-2n, 0],
        mirror-symmetric, and dead at the unread slots."""
        tables = _reach_tables(n, bricked)
        maxima = rng.integers(-2 * n, 1, len(tables.mirror)).astype(np.int8)
        maxima[rng.random(maxima.shape) < 0.3] = _DEAD
        np.maximum(maxima, maxima[tables.mirror], out=maxima)
        maxima[tables.unread] = _DEAD
        return maxima

    @staticmethod
    def expand(maxima, n, bricked, gain):
        """The whole (classes, 2^n) state of slot maxima: each
        representative row's class slots plus its gain, and each other
        row's by symmetry, grouped[g*, rev(c)] = grouped[g, c]."""
        tables = _reach_tables(n, bricked)
        keys = _reach_bits(n, bricked)[0]
        star = np.searchsorted(keys, bit_reverse(keys, n))
        half = maxima[tables.slots] + gain[tables.order]
        grouped = np.empty((len(keys), 1 << n), dtype=np.int8)
        grouped[star[:, None], tables.mirrored] = half
        grouped[:, tables.order] = half
        return grouped

    CHUNKS = pytest.mark.parametrize("chunk", [None, 8], ids=["one-chunk", "chunks-of-8"])

    @staticmethod
    def chunks(chunk, monkeypatch):
        if chunk is not None:
            # classes that span chunks, read a few rows at a time, and a
            # last chunk of fewer rows where the representatives do not
            # fill one (20 of them at n = 5)
            monkeypatch.setattr("settle.solvers._BLOCK", 0)
            monkeypatch.setattr("settle.solvers._CHUNK", chunk)
            monkeypatch.setattr("settle.solvers._READ_ROWS", chunk // 4)
            monkeypatch.setattr("settle.solvers._TAKE_BLOCK", 3 * chunk)

    @CHUNKS
    @pytest.mark.parametrize("bricked", [False, True])
    def test_matches_the_pair_array(self, bricked, chunk, monkeypatch):
        self.chunks(chunk, monkeypatch)
        rng = np.random.default_rng(9)
        for n in range(1, 11):
            tables = _reach_tables(n, bricked)
            gain = n - np.bitwise_count(np.arange(1 << n)).astype(np.int8)
            # one input at 9 and 10, where most (class, D_c) pairs appear
            for _ in range(3 if n < 9 else 1):
                maxima = self.state(n, bricked, rng)
                out = _pair_advance(maxima, n, bricked, gain[tables.order])
                # the result is in slot form: symmetric, and dead where unread
                assert np.array_equal(out, out[tables.mirror]), (n, bricked)
                assert out[tables.unread] == _DEAD, (n, bricked)
                # whole arrays, dead entries included
                got = self.expand(out, n, bricked, gain)
                want = self.reference(self.expand(maxima, n, bricked, gain), n, bricked, gain)
                assert np.array_equal(got, want), (n, bricked)

    @CHUNKS
    @pytest.mark.parametrize("bricked", [False, True])
    def test_reads_gather_the_masked_maximum(self, bricked, chunk, monkeypatch):
        # the witness scan's read of a kept state at every row d below, one
        # gather from its closed state at g(reach(c, d)), and the close-off
        # at the virtual south row, chunk by chunk, against the maximum of
        # the whole state over the classes that fit, ~key(g) ⊆ reach(u, d),
        # for every row u
        self.chunks(chunk, monkeypatch)
        scores = []
        monkeypatch.setattr("settle.solvers._pick", lambda got, *args: scores.append(got) or -1)
        rng = np.random.default_rng(10)
        for n in range(1, 9):
            tables = _reach_tables(n, bricked)
            holes = (full_mask(n) ^ _reach_bits(n, bricked)[0]).astype(np.int64)
            gain = n - np.bitwise_count(np.arange(1 << n)).astype(np.int8)
            maxima = self.state(n, bricked, rng)
            grouped = self.expand(maxima, n, bricked, gain)
            states = np.arange(1 << n, dtype=np.uint32)
            d_v = full_mask(n) if bricked else 0
            rule = _min_rule(n, bricked, d_v, keep=True)
            for d in range(1 << n):
                reach = _reach(states, np.uint32(d), n, bricked).astype(np.int64)
                fit = (holes[:, None] & ~reach) == 0
                want = np.where(fit, grouped, _DEAD).max(axis=0)
                assert rule.scan(maxima, [d_v, d], 0) == -1
                assert np.array_equal(scores.pop(), want), (n, bricked, d)
                if d == d_v:
                    for keep in (False, True):
                        got = _min_rule(n, bricked, d_v, keep).close(maxima)
                        assert np.array_equal(got, want[tables.order]), (n, bricked, keep)


class TestSubsetMax:
    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_matches_the_naive_subset_maximum(self, dtype):
        # a 1-D z, with no tail axis, at every width up to 10
        rng = np.random.default_rng(3)
        info = np.iinfo(dtype)
        for n in range(11):
            keys = np.arange(1 << n)
            z = rng.integers(info.min, info.max, 1 << n, endpoint=True).astype(dtype)
            want = [z[(keys & k) == keys].max() for k in range(1 << n)]
            _subset_max_inplace(z, n)
            assert z.tolist() == want, (n, dtype)

    def test_matches_the_naive_superset_maximum(self):
        # a tail axis of three columns, each transformed on its own; the
        # subset transform of the reversed array, in place through the
        # reversed view, is the superset transform
        rng = np.random.default_rng(4)
        for n in range(11):
            keys = np.arange(1 << n)
            z = rng.integers(-128, 127, (1 << n, 3), endpoint=True).astype(np.int8)
            want = np.stack([z[(keys & k) == k].max(axis=0) for k in range(1 << n)])
            _subset_max_inplace(z[::-1], n)
            assert np.array_equal(z, want), n


class TestSplitRow:
    """The maximum's row advance over the two halves of a row."""

    @pytest.mark.parametrize("bricked", [False, True])
    def test_product_matches_the_full_scores(self, bricked):
        # every width up to 21: the advance's (run, column run) cells and
        # grouped maxima against the full-width superset transform plus
        # each row's houses, maxed into cells and classes by np.maximum.at.
        # grouped holds dead entries, and row 1 (grouped None) scores
        # houses alone
        rng = np.random.default_rng(5)
        for n in range(1, 22):
            plan = _split_plan(n, bricked)
            h, w = n // 2, n - n // 2
            rows = np.arange(1 << n, dtype=np.uint32)
            ids = np.searchsorted(plan.keys, triple_mask(rows, n, bricked))
            run_of = np.empty(1 << w, dtype=np.intp)
            run_of[plan.hi_desc] = plan.run_desc
            run = run_of[rows >> h]
            col = plan.col_of[rows & ((1 << h) - 1)]
            grouped = rng.integers(-2 * n, 0, len(plan.keys), endpoint=True).astype(np.int8)
            grouped[rng.random(len(plan.keys)) < 0.3] = _DEAD
            rule = _max_rule(n, bricked, 0)
            for last in (None, grouped):
                scores = _houses(n).copy()
                if last is not None:
                    scores = superset_scores(last, plan.keys, n) + _houses(n)
                want = np.full(len(plan.keys), _DEAD, dtype=np.int8)
                np.maximum.at(want, ids, scores)
                cells = np.full((len(plan.run_keys), plan.col_key.shape[1]), _DEAD, dtype=np.int8)
                np.maximum.at(cells, (run, col), scores)
                got, (_, got_cells) = rule.advance(last, _Clock())
                assert np.array_equal(got_cells, cells), (n, bricked)
                assert np.array_equal(got, want), (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_small_gathers_give_the_same_advance(self, bricked, monkeypatch):
        # a gather of four rows splits the closure's parents and the
        # product's runs over several batches, each a fold into the rows
        # begun before it, and no padding (_batches) leaves one gather per
        # length: the cells and the grouped maxima are those of the default
        # gathers, dead entries included
        rng = np.random.default_rng(10)
        try:
            for n in range(1, 21):
                plan = _split_plan(n, bricked)
                grouped = rng.integers(-2 * n, 0, len(plan.keys), endpoint=True).astype(np.int8)
                grouped[rng.random(len(plan.keys)) < 0.3] = _DEAD
                rule = _max_rule(n, bricked, 0)
                want, (_, want_cells) = rule.advance(grouped, _Clock())
                _split_plan.cache_clear()
                monkeypatch.setattr("settle.solvers._GATHER_BLOCK", 4 * plan.col_key.shape[1])
                monkeypatch.setattr("settle.solvers._CALL_BYTES", 0)
                got, (_, cells) = _max_rule(n, bricked, 0).advance(grouped, _Clock())
                assert np.array_equal(cells, want_cells), (n, bricked)
                assert np.array_equal(got, want), (n, bricked)
                _split_plan.cache_clear()
                monkeypatch.undo()
        finally:
            _split_plan.cache_clear()

    @staticmethod
    def kept_pairs(product):
        """Each owner's kept pairs {j: T} from one side's product batches;
        each owner begins in one batch, and a batch that goes on with
        owners adds to owners begun before it."""
        kept = {}
        for rows, cols, cover, more in product:
            assert cols.shape == cover.shape[:2] == (len(rows), cols.shape[1])
            for r, js, a in zip(rows.tolist(), cols.tolist(), cover[:, :, 0].tolist()):
                assert (r in kept) == more, r
                pairs = kept.setdefault(r, {})
                pairs.update(zip(js, a))
        return kept

    @pytest.mark.parametrize("bricked", [False, True])
    def test_every_run_is_covered(self, bricked):
        # the product's premise: every row's high half misses K = 0, the key
        # high half of the empty row's class, so each run keeps a pair, and
        # its best A is its most houses.  For n <= 16, against each run's
        # full pair set, built from its rows: every kept pair is a pair
        # with its A and undominated, and every dropped pair is dominated
        # by a kept pair of the run with a strict superset key and an equal A
        for n in range(1, 27):
            plan = _split_plan(n, bricked)
            w = n - n // 2
            full = (1 << w) - 1
            assert plan.keys[0] == 0 and plan.hv[0] == full, (n, bricked)
            rows = np.zeros((len(plan.run_keys), 1 << w), dtype=bool)
            rows[plan.run_desc, plan.hi_desc] = True
            kept = self.kept_pairs(plan.product)
            assert sorted(kept) == list(range(len(rows))), (n, bricked)
            most = [int(np.bitwise_count(np.flatnonzero(r)).max()) for r in rows]
            assert [max(kept[r].values()) for r in range(len(rows))] == most, (n, bricked)
            if n > 16:
                continue
            keys = full - plan.hv.astype(np.int64)  # K_j
            hi = np.arange(1 << w)
            misses = (hi[:, None] & keys) == 0
            above = ((keys[:, None] & ~keys) == 0) & (keys[:, None] != keys)  # K_j ⊊ K_k
            for r, row in enumerate(rows):
                fits = misses[row]
                pairs = {j: int(np.bitwise_count(hi[row][fits[:, j]]).max())
                         for j in np.flatnonzero(fits.any(axis=0)).tolist()}
                assert set(kept[r]) <= set(pairs), (n, bricked, r)
                for j, a in pairs.items():
                    equal = [k for k in np.flatnonzero(above[j]).tolist() if pairs.get(k) == a]
                    if j in kept[r]:
                        assert kept[r][j] == a and not equal, (n, bricked, r, j)
                    else:
                        assert set(equal) & set(kept[r]), (n, bricked, r, j)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_every_dropped_column_pair_has_a_kept_hasse_parent(self, bricked):
        # the low product's premise, n = 1..16: the closure's edges are the
        # Hasse edges of the key low halves λ, and against each column
        # run's full cover table B[C, λ], the most pc(lo) of its low halves
        # lo that miss λ, every kept pair carries its B and passes every
        # Hasse parent's, and every dropped pair has a Hasse parent with an
        # equal B whose pair is kept, or dropped and matched the same way
        for n in range(1, 17):
            plan = _split_plan(n, bricked)
            lam, cols = plan.lam.astype(np.int64), plan.col_key.shape[1]
            lo = np.arange(1 << (n // 2))
            within = (lam[:, None] & ~lam) == 0  # within[i, k]: λ_i ⊆ λ_k
            above = within & ~np.eye(len(lam), dtype=bool)
            hasse = above & ~((above.astype(np.int64) @ above.astype(np.int64)) > 0)
            parents = np.zeros_like(hasse)
            for heads, members in plan.lam_closure:
                parents[members[:, 1:], heads[:, None]] = True
            assert np.array_equal(parents, hasse), (n, bricked)
            houses = np.bitwise_count(lo).astype(int)[:, None]
            table = np.full((cols, len(lam)), -1)  # -1 where no low half misses λ
            np.maximum.at(table, plan.col_of, np.where((lo[:, None] & lam) == 0, houses, -1))
            kept = self.kept_pairs(plan.lam_product)
            assert sorted(kept) == list(range(cols)), (n, bricked)
            for c, row in enumerate(table.tolist()):
                matched = set(kept[c])
                for i in range(len(lam) - 1, -1, -1):  # a λ's parents come after it
                    ups = np.flatnonzero(hasse[i]).tolist()
                    if i in kept[c]:
                        assert kept[c][i] == row[i] >= 0, (n, bricked, c, i)
                        assert all(row[k] < row[i] for k in ups), (n, bricked, c, i)
                    elif row[i] >= 0:
                        assert any(row[k] == row[i] and k in matched for k in ups), \
                            (n, bricked, c, i)
                        matched.add(i)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_closure_takes_every_subset_key(self, bricked):
        # both closures' rounds: on random int8 rows with dead entries, row
        # j becomes the maximum of the rows j' whose key half is a subset
        # of j's, against a dense reference over the family's order, for
        # the key high halves K_j and the key low halves λ
        rng = np.random.default_rng(8)
        for n in range(1, 25):
            plan = _split_plan(n, bricked)
            w = n - n // 2
            for sets, closure in ((((1 << w) - 1) - plan.hv.astype(np.int64), plan.closure),
                                  (plan.lam.astype(np.int64), plan.lam_closure)):
                rows = rng.integers(-2 * n, 0, (len(sets), 1 << (n // 2)), endpoint=True)
                rows = rows.astype(np.int8)
                rows[rng.random(rows.shape) < 0.3] = _DEAD
                within = (sets[:, None] & ~sets) == 0  # within[j', j]: S_j' ⊆ S_j
                want = np.stack([rows[within[:, j]].max(axis=0) for j in range(len(sets))])
                _close(rows, closure)
                assert np.array_equal(rows, want), (n, bricked)

    @pytest.mark.parametrize("bricked", [False, True])
    def test_column_runs_hold_both_sides_keys(self, bricked):
        # n = 1..24: each low half's column run holds its key given b, times
        # 2, plus t, for b = 0 and b = 1, and there is one column run a
        # distinct pair of those
        for n in range(1, 25):
            h = n // 2
            lo = np.arange(1 << h, dtype=np.uint32)
            key = triple_mask(lo | (np.arange(2, dtype=np.uint32)[:, None] << h), n, bricked)
            key = (key & ((1 << h) - 1)) * 2 + ((lo & ((1 << h) >> 1)) != 0)
            plan = _split_plan(n, bricked)
            assert np.array_equal(plan.col_key[:, plan.col_of], key), (n, bricked)
            assert plan.col_key.shape[1] == len(set(zip(*key.tolist()))), (n, bricked)

    def test_g_holds_each_class_once_in_its_estimate_term(self):
        # G is (len(lam), len(hv)): each class at its own cell, the row of
        # its key low half and the column of its key high half, and the
        # estimate's G term (_split_bytes) is its cells.  From n = 8 on the
        # free border and n = 4 on the bricked one it is smaller than a
        # dense array of the 2^h low halves' rows, 2^h' of them over the
        # bits the keys leave open (h' = h - 1 on the free border)
        for n in range(1, 25):
            for bricked in (False, True):
                plan = _split_plan(n, bricked)
                h, w = n // 2, n - n // 2
                i, j = np.divmod(plan.at, len(plan.hv))
                assert len(np.unique(plan.at)) == len(plan.keys), (n, bricked)
                key = ((((1 << w) - 1) - plan.hv[j].astype(np.int64)) << h) | plan.lam[i]
                assert np.array_equal(key, plan.keys), (n, bricked)
                term = _split_bytes(n, bricked)[3]
                assert term == len(plan.lam) * len(plan.hv), (n, bricked)
                dense = len(plan.hv) << max(h - (not bricked), 0)
                assert term < dense if n >= (4 if bricked else 8) else term == dense, (n, bricked)

    def test_plan_class_counts_are_fibonacci(self):
        # the classes that _split_plan finds, counted: on the free border
        # within 1/2 of F(n + 2)/2, on the bricked border exactly 2 F(n)
        fib = [0, 1]
        while len(fib) < 27:
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 25):
            assert abs(2 * len(_split_plan(n, False).keys) - fib[n + 2]) <= 1, n
            assert len(_split_plan(n, True).keys) == 2 * fib[n], n

    @pytest.mark.parametrize("bricked", [False, True])
    def test_transform_matches_the_naive_maximum(self, bricked, monkeypatch):
        # n = 1..12, against the naive low row, low[lo, j] the best class
        # whose key high half is K_j = ~hv[j] and whose key low half misses
        # lo: the scan's low rows (_low_row), read from the closed G of the
        # advance's layer, also two rows of G at a time, so that the λ
        # that miss lo span blocks; and M, the low product of that G, at
        # each column run C the best pc(lo) + low[lo, j] over its low
        # halves lo; and the test reference superset_scores: z[r] is the
        # best class whose key misses r, the rows r admits above it
        rng = np.random.default_rng(6)
        for n in range(1, 13):
            plan = _split_plan(n, bricked)
            keys, h, w = plan.keys, n // 2, n - n // 2
            grouped = rng.integers(-2 * n, 0, len(keys), endpoint=True).astype(np.int8)
            grouped[rng.random(len(keys)) < 0.3] = -128
            high = ((1 << w) - 1) - plan.hv.astype(np.int64)
            want = [[grouped[((keys >> h) == k) & ((keys & lo) == 0)].max(initial=-128)
                     for k in high.tolist()] for lo in range(1 << h)]
            most = np.full((plan.col_key.shape[1], len(high)), -128 - 1)
            for lo, row in enumerate(want):
                c = plan.col_of[lo]
                most[c] = np.maximum(most[c], np.array(row) + lo.bit_count())
            _, (g, _) = _max_rule(n, bricked, 0).advance(grouped, _Clock())
            assert _product(g, plan.lam_product, len(most)).tolist() == most.tolist(), (n, bricked)
            for block in (_SCAN_BLOCK, 2 * len(high)):
                monkeypatch.setattr("settle.solvers._SCAN_BLOCK", block)
                rows = [_low_row(plan, g, lo).tolist() for lo in range(1 << h)]
                assert rows == want, (n, bricked, block)
            monkeypatch.undo()
            want = [grouped[(keys & r) == 0].max(initial=-128) for r in range(1 << n)]
            assert superset_scores(grouped, keys, n).tolist() == want, (n, bricked)


    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_scan_picks_as_the_full_scores(self, boundary, monkeypatch):
        # every scan call of max witnesses, n = 1..16 and m on both sides of
        # the cycle's transient m0, against _pick on the kept layer's full
        # int8 scores, rebuilt from the grouped maxima of the row before it;
        # at each call also below the empty and full rows and a random one,
        # at the best score that fits them
        bricked = boundary is Boundary.BRICKED
        rng = np.random.default_rng(7)
        made = _max_rule
        seen = {"calls": 0, "lows": 0}

        def rule(n, bricked, d_v):
            inner = made(n, bricked, d_v)
            h = n // 2
            full = {}  # id(layer) -> (layer, its scores)
            rows = np.arange(1 << n, dtype=np.uint32)
            keys = triple_mask(rows, n, bricked)

            def advance(grouped, clock):
                scores = _houses(n).copy()
                if grouped is not None:
                    scores = superset_scores(grouped, _split_plan(n, bricked).keys, n) + _houses(n)
                grouped, layer = inner.advance(grouped, clock)
                full[id(layer)] = layer, scores
                return grouped, layer

            def check(layer, scores, r, target):
                u = inner.scan(layer, [d_v, r], target)
                fits = lambda t: (t & r) == 0
                assert u == _pick(scores, target, fits, n, bricked), (n, bricked, r, target)
                tied = rows[(scores == target) & fits(keys)]
                seen["lows"] = max(seen["lows"], len(np.unique(tied & ((1 << h) - 1))))
                seen["calls"] += 1
                return u

            def scan(layer, below, target):
                scores = full[id(layer)][1]
                for r in (0, full_mask(n), int(rng.integers(1 << n))):
                    check(layer, scores, r, int(scores[(keys & r) == 0].max()))
                return check(layer, scores, below[-1], target)

            return inner._replace(advance=advance, scan=scan)

        monkeypatch.setattr("settle.solvers._max_rule", rule)
        for n in range(1, 17):
            plain = next(_sweep(Objective.MAX_PERMISSIBLE, n, boundary, [60], False, Limits()))
            m0, p = plain.stats["transient"], plain.stats["period"]
            rows = sorted({1, 2, max(1, m0 - 1), m0, m0 + 1, m0 + p, m0 + p + 1, 2 * (m0 + p),
                           3 * (m0 + p) + 1})
            for res in _sweep(Objective.MAX_PERMISSIBLE, n, boundary, rows, True, Limits()):
                assert res.witness.occupancy() == res.optimum
        # the target ties across many low halves somewhere
        assert seen["calls"] > 2000 and seen["lows"] >= 16, seen


class TestPhases:
    @pytest.mark.parametrize("req", [
        SolveRequest.maximum(6, 9), SolveRequest.minimum(6, 9, Boundary.BRICKED),
        SolveRequest.minimum(1, 9), SolveRequest.minimum(40, 7, want_witness=False),
    ], ids=["max", "min", "min-1-row", "min-cycle"])
    def test_phases_account_for_the_wall_time(self, req):
        stats = solve(req).stats
        assert set(stats["phases"]) == set(_PHASES)
        assert all(s >= 0 for s in stats["phases"].values())
        assert sum(stats["phases"].values()) <= stats["wall_s"]


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
