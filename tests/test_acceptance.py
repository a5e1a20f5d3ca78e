"""Acceptance gate: the ten contract criteria, one test (one line) each."""

from __future__ import annotations

import json
import time
from fractions import Fraction

from click.testing import CliRunner
from conftest import GOLDEN, max_result, min_result

from settle import (
    Boundary,
    Configuration,
    Dims,
    PatternKind,
    SolveRequest,
    audit_passed,
    audit_structural_lemmas,
    brick_comb_best,
    brute_force,
    crude_bounds,
    e_upper_block,
    enumerate_model_optimum,
    export_efficient,
    export_inefficient,
    generate_pattern,
    i_lower_bound,
    pattern_occupancy,
    r_recurrence,
    row_above_cap,
    seeded_recurrence,
    to_lp,
)
from settle.cli import main
from settle.solvers import Limits, Objective, _sweep


def test_criterion_01_full_table_of_maxima_is_reproduced_exactly():
    """225 exact maxima over 2..16 x 2..16, byte-equal to the golden table, < 60 s."""
    golden = json.loads((GOLDEN / "table5.json").read_text())
    start = time.perf_counter()
    res = CliRunner().invoke(
        main,
        ["table", "--objective", "max", "--rows", "2..16", "--cols", "2..16",
         "--golden", str(GOLDEN / "table5.json"), "--json"],
    )
    elapsed = time.perf_counter() - start
    assert res.exit_code == 0, res.output
    got = json.loads(res.output)
    assert got["values"] == golden["values"]
    flat = [v for line in got["values"] for v in line]
    assert len(flat) == 225 and None not in flat
    assert got["values"][0][0] == 4 and got["values"][14][14] == 193
    assert elapsed < 60.0, f"table took {elapsed:.1f}s"


def test_criterion_02_recurrence_column_and_seeded_values_match_solver():
    """Plain recurrence column is frozen; the seeded variant equals the solver."""
    assert [r_recurrence(m, 7) for m in range(2, 11)] == [
        12, 18, 23, 29, 34, 40, 45, 51, 56,
    ]
    seeds = {3: 17, 4: 22}
    for m in range(5, 17):
        assert seeded_recurrence(7, seeds, m) == max_result(m, 7).optimum, f"m={m}"


def test_criterion_03_minimum_solver_meets_lower_bound_and_pattern():
    """Exact minima equal the analytic lower bound and the rake-stripe count, < 5 min."""
    start = time.perf_counter()
    for m in range(2, 11):
        for n in range(2, 11):
            exact = min_result(m, n).optimum
            assert exact == i_lower_bound(m, n), f"({m},{n})"
            assert exact == pattern_occupancy(PatternKind.RAKE_STRIPE, m, n), f"({m},{n})"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"minimum sweep took {elapsed:.1f}s"


def test_criterion_04_brute_force_oracle_agrees_with_both_solvers():
    """Independent enumeration matches both solvers on every grid with mn <= 20."""
    pairs = [(m, n) for m in range(1, 21) for n in range(1, 21) if m * n <= 20]
    assert len(pairs) == 66
    checked = 0
    for boundary in (Boundary.FREE, Boundary.BRICKED):
        for m, n in pairs:
            req_max = SolveRequest.maximum(m, n, boundary, want_witness=False)
            assert brute_force(req_max).optimum == max_result(m, n, boundary).optimum, (
                f"max {m}x{n} {boundary.value}"
            )
            req_min = SolveRequest.minimum(m, n, boundary, want_witness=False)
            assert brute_force(req_min).optimum == min_result(m, n, boundary).optimum, (
                f"min {m}x{n} {boundary.value}"
            )
            checked += 2
    assert checked == 264


def test_criterion_05_every_pattern_matches_its_closed_form_and_is_maximal():
    """All six generators agree with their formulas on 2..40 and the spot values hold."""
    for kind in PatternKind:
        for m in range(2, 41):
            for n in range(2, 41):
                config = generate_pattern(kind, m, n)
                assert config.occupancy() == pattern_occupancy(kind, m, n), (
                    f"{kind.value} ({m},{n})"
                )
                assert config.is_maximal(), f"{kind.value} ({m},{n})"
    assert pattern_occupancy(PatternKind.RAKE, 6, 8) == 28
    assert pattern_occupancy(PatternKind.STRIPE, 6, 8) == 30
    assert pattern_occupancy(PatternKind.RAKE_STRIPE, 6, 8) == 26
    best, _ = brick_comb_best(5, 10, 4)
    assert best.occupancy() == 39


def test_criterion_06_bound_sandwich_holds_everywhere():
    """ceil(mn/2) <= I <= E <= recurrence <= block bound <= crude upper on 2..16."""
    for m in range(2, 17):
        for n in range(2, 17):
            maximum = max_result(m, n).optimum
            minimum = min_result(m, n).optimum if n <= 10 else i_lower_bound(m, n)
            upper = crude_bounds(m, n)[1]
            chain = (
                (m * n + 1) // 2,
                minimum,
                maximum,
                r_recurrence(m, n),
                e_upper_block(m, n),
            )
            assert all(a <= b for a, b in zip(chain, chain[1:])), f"({m},{n}): {chain}"
            assert Fraction(chain[-1]) <= upper, f"({m},{n})"


def test_criterion_07_structural_audits_pass_and_strip_cap_is_exhaustive():
    """Audits hold on all generator outputs and solver witnesses; strip cap on all 2xn."""
    for kind in PatternKind:
        for m in range(2, 13):
            for n in range(2, 13):
                report = audit_structural_lemmas(generate_pattern(kind, m, n))
                assert audit_passed(report), f"{kind.value} ({m},{n}): {report}"
    # one min sweep per width closes off a witness at every m in 2..12
    minima = {(res.dims.rows, n): res
              for n in range(2, 13)
              for res in _sweep(Objective.MIN_MAXIMAL, n, Boundary.FREE, list(range(2, 13)), True,
                                Limits())}
    for m in range(2, 13):
        for n in range(2, 13):
            for res in (max_result(m, n), minima[m, n]):
                report = audit_structural_lemmas(res.witness)
                assert audit_passed(report), f"{res.objective.value} ({m},{n}): {report}"
    for n in range(2, 9):
        for top in range(1 << n):
            for bottom in range(1 << n):
                config = Configuration(Dims(2, n), (top, bottom))
                if not config.is_permissible():
                    continue
                cap = row_above_cap(bottom.bit_count(), n)
                assert top.bit_count() <= cap, f"n={n} top={top:b} bottom={bottom:b}"


def test_criterion_08_walled_border_identity_links_the_two_boundary_modes():
    """Free-border maxima equal shrunken walled-border maxima plus 2m + n - 2."""
    for m in range(3, 9):
        for n in range(4, 11):
            free = max_result(m, n).optimum
            walled = max_result(m - 1, n - 2, Boundary.BRICKED).optimum
            assert free == walled + 2 * m + n - 2, f"({m},{n})"


def test_criterion_09_ip_models_round_trip_through_enumeration_and_goldens():
    """Enumerated model optima equal solver outputs on mn <= 12; goldens byte-identical."""
    pairs = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    for m, n in pairs:
        assert enumerate_model_optimum(export_efficient(m, n)) == max_result(m, n).optimum, (
            f"max {m}x{n}"
        )
        assert enumerate_model_optimum(export_inefficient(m, n)) == min_result(m, n).optimum, (
            f"min {m}x{n}"
        )
    assert to_lp(export_efficient(3, 4)) == (GOLDEN / "efficient_3x4.lp").read_text()
    assert to_lp(export_inefficient(3, 4)) == (GOLDEN / "inefficient_3x4.lp").read_text()


def test_criterion_10_large_pattern_densities_approach_their_limits():
    """Densities at 100x100 sit within 0.02 of 3/4, 2/3, and 1/2 respectively."""
    targets = {
        PatternKind.BRICK: Fraction(3, 4),
        PatternKind.COMB: Fraction(2, 3),
        PatternKind.RAKE: Fraction(1, 2),
        PatternKind.STRIPE: Fraction(1, 2),
        PatternKind.CHECK: Fraction(1, 2),
    }
    for kind, target in targets.items():
        gap = abs(generate_pattern(kind, 100, 100).density() - target)
        assert gap <= Fraction(2, 100), f"{kind.value}: off by {float(gap):.4f}"
