"""Property-based checks against naive coordinate-space reference evaluators."""

from __future__ import annotations

import random
from functools import lru_cache, partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from settle import (
    Boundary,
    Configuration,
    Dims,
    PatternKind,
    Prop,
    SolveRequest,
    generate_pattern,
    parse_grid,
    pattern_occupancy,
    render,
    solve_max,
)
from settle import rows as R

# ---------------------------------------------------------------------------
# Reference semantics, written in plain coordinate space with no bit tricks.
# ---------------------------------------------------------------------------


def _occ(config: Configuration, i: int, j: int) -> bool:
    """Occupancy of (i, j); off-grid cells take the border value."""
    m, n = config.dims.rows, config.dims.cols
    if 1 <= i <= m and 1 <= j <= n:
        return config.is_occupied(i, j)
    return config.dims.boundary is Boundary.BRICKED


def ref_blocked(config: Configuration, i: int, j: int) -> bool:
    """A house is blocked when its east, south, and west sides are all built."""
    return (
        config.is_occupied(i, j)
        and _occ(config, i, j + 1)
        and _occ(config, i + 1, j)
        and _occ(config, i, j - 1)
    )


def ref_blocked_cells(config: Configuration) -> list[tuple[int, int]]:
    m, n = config.dims.rows, config.dims.cols
    return [
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
        if ref_blocked(config, i, j)
    ]


def ref_proposition(config: Configuration, which: Prop, i: int, j: int) -> bool:
    """Would building on (i, j) block the named neighbor (or the lot itself)?"""
    m, n = config.dims.rows, config.dims.cols
    if which is Prop.EAST:
        if j + 1 > n:
            return False
        terms = [(i, j + 1), (i, j + 2), (i + 1, j + 1)]
    elif which is Prop.WEST:
        if j - 1 < 1:
            return False
        terms = [(i, j - 1), (i, j - 2), (i + 1, j - 1)]
    elif which is Prop.NORTH:
        if i - 1 < 1:
            return False
        terms = [(i - 1, j - 1), (i - 1, j), (i - 1, j + 1)]
    else:
        terms = [(i, j + 1), (i, j - 1), (i + 1, j)]
    return all(_occ(config, a, b) for a, b in terms)


def ref_addable(config: Configuration, i: int, j: int) -> bool:
    return not config.is_occupied(i, j) and not any(
        ref_proposition(config, w, i, j) for w in Prop
    )


def ref_addable_cells(config: Configuration) -> list[tuple[int, int]]:
    m, n = config.dims.rows, config.dims.cols
    return [
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
        if ref_addable(config, i, j)
    ]


def ref_maximal(config: Configuration) -> bool:
    return not ref_blocked_cells(config) and not ref_addable_cells(config)


def ref_complete(config: Configuration) -> Configuration:
    """Drop the blocked houses, then build on each addable lot, row-major.

    Dropping a blocked house blocks no other, and a lot found covered stays
    covered as houses go up, so the result is maximal.
    """
    for i, j in ref_blocked_cells(config):
        config = config.without_house(i, j)
    m, n = config.dims.rows, config.dims.cols
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if ref_addable(config, i, j):
                config = config.with_house(i, j)
    return config


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def configurations(draw, max_rows: int = 6, max_cols: int = 7) -> Configuration:
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    boundary = draw(st.sampled_from([Boundary.FREE, Boundary.BRICKED]))
    bits = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=m, max_size=m))
    cells = [
        (i + 1, b + 1) for i, row in enumerate(bits) for b in range(n) if row >> b & 1
    ]
    return Configuration.from_cells(Dims(m, n, boundary), cells)


@lru_cache(maxsize=None)
def _best_occupancy(m: int, n: int) -> int:
    return solve_max(SolveRequest.maximum(m, n, want_witness=False)).optimum


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------


class TestBlockedReference:
    @given(configurations())
    def test_blocked_cells_match_reference(self, config):
        assert config.blocked_cells() == ref_blocked_cells(config)

    @given(configurations())
    def test_permissible_iff_no_blocked_house(self, config):
        assert config.is_permissible() == (not ref_blocked_cells(config))


class TestPropositionReference:
    @given(configurations())
    def test_all_four_propositions_match_reference(self, config):
        m, n = config.dims.rows, config.dims.cols
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                expected = {w: ref_proposition(config, w, i, j) for w in Prop}
                assert config.propositions_at(i, j) == expected, f"at ({i},{j})"

    @given(configurations())
    def test_addable_iff_no_proposition_holds(self, config):
        expected = ref_addable_cells(config)
        assert config.addable_cells() == expected
        for i, j in expected:
            assert config.is_addable(i, j)

    @given(configurations())
    def test_maximal_matches_reference(self, config):
        assert config.is_maximal() == ref_maximal(config)


def _random_config(rng: random.Random, dims: Dims, density: float) -> Configuration:
    cells = [
        (i, j)
        for i in range(1, dims.rows + 1)
        for j in range(1, dims.cols + 1)
        if rng.random() < density
    ]
    return Configuration.from_cells(dims, cells)


class TestWideGrids:
    """The checker on grids the 6x7 strategy never reaches.

    The checker packs a grid's rows into one int at a stride of n + 2 bits,
    so these widths put lanes across 64-bit word boundaries (n = 31..33,
    62..65), and the narrowest (n = 1, 2, 3) have edge fills that vanish or
    overlap; heights go up to 40, on both borders.  Each grid is tried
    random, completed to a maximal grid by the reference, and with one house
    of that grid removed, which greedy completion must then restore as the
    reference does.
    """

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 62, 63, 64, 65])
    def test_checker_matches_reference(self, n, boundary):
        rng = random.Random(n)
        for m in (1, 2, 3, 40):
            dims = Dims(m, n, boundary)
            full = ref_complete(_random_config(rng, dims, 0.7))
            assert ref_maximal(full)
            cells = full.cells()
            opened = full.without_house(*cells[len(cells) // 2]) if cells else full
            for config in (_random_config(rng, dims, 0.5), full, opened):
                blocked = ref_blocked_cells(config)
                assert config.blocked_cells() == blocked
                assert config.is_permissible() == (not blocked)
                assert config.addable_cells() == ref_addable_cells(config)
                assert config.is_maximal() == ref_maximal(config)
            assert opened.greedy_complete() == ref_complete(opened)


def _pack(rows: list[int], n: int) -> int:
    return sum(r << k * (n + 2) for k, r in enumerate(rows))


class TestLanes:
    """Every row rule on k packed rows equals, lane by lane, the rule on
    each row alone."""

    # every rule of the table, blocking included, then the names derived
    # from it; each reads (u, c, d): the row above, the row, the row below
    TABLE = [("BLOCKED", R.BLOCKED)] + [(p.name, rule) for p, rule in R.PROPS.items()]
    RULES = [(name, partial(R.rule_mask, (rule,))) for name, rule in TABLE] + [
        ("triple_mask", lambda u, c, d, *rest, **kw: R.triple_mask(c, *rest, **kw)),
        ("covered_mask", R.covered_mask),
    ]

    @pytest.mark.parametrize("name, rule", RULES, ids=[name for name, _ in RULES])
    @given(data=st.data(), n=st.integers(1, 70), k=st.integers(1, 6), bricked=st.booleans())
    def test_lanes_match_single_rows(self, name, rule, data, n, k, bricked):
        row = st.integers(0, (1 << n) - 1)
        rows = [data.draw(st.lists(row, min_size=k, max_size=k)) for _ in "ucd"]
        full, stride = R.full_mask(n), n + 2
        packed = rule(*(_pack(r, n) for r in rows), n, bricked, lanes=k)
        for lane in range(k):
            single = rule(*(r[lane] for r in rows), n, bricked)
            assert single <= full, (name, lane)
            assert packed >> lane * stride & full == single, (name, lane)


class TestGreedyClosure:
    @given(configurations())
    def test_closure_is_a_maximal_superset(self, config):
        assume(config.is_permissible())
        closed = config.greedy_complete()
        assert closed.dims == config.dims
        assert set(closed.cells()) >= set(config.cells())
        assert closed.is_maximal()
        assert ref_maximal(closed)

    @given(configurations())
    def test_closure_is_idempotent(self, config):
        assume(config.is_permissible())
        closed = config.greedy_complete()
        assert closed.greedy_complete() == closed


class TestMirrorSymmetry:
    @given(configurations())
    def test_mirror_is_an_involution(self, config):
        assert config.mirror_ew().mirror_ew() == config

    @given(configurations())
    def test_mirror_preserves_structure(self, config):
        n = config.dims.cols
        mirrored = config.mirror_ew()
        assert mirrored.occupancy() == config.occupancy()
        assert mirrored.is_permissible() == config.is_permissible()
        assert mirrored.is_maximal() == config.is_maximal()
        flipped = sorted((i, n + 1 - j) for i, j in config.blocked_cells())
        assert sorted(mirrored.blocked_cells()) == flipped


class TestRoundTrip:
    @settings(max_examples=1000, deadline=None)
    @given(configurations())
    def test_render_parse_round_trip(self, config):
        with_header = render(config, header=True)
        assert parse_grid(with_header) == config
        bare = render(config)
        assert parse_grid(bare, boundary=config.dims.boundary) == config


class TestPatternDominance:
    @settings(deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.sampled_from(list(PatternKind)),
    )
    def test_named_patterns_never_beat_the_exact_optimum(self, m, n, kind):
        try:
            occ = pattern_occupancy(kind, m, n)
        except ValueError:
            return
        assert generate_pattern(kind, m, n).occupancy() == occ
        assert occ <= _best_occupancy(m, n)
