"""Tile alphabet construction: geometry, inclusion-exclusion
coefficients, weight tags, and the frozen dump format."""

from __future__ import annotations

import pytest

from latinrect.poly import RING_2ROW, RING_3ROW
from latinrect.tiles import (
    UNIT_WEIGHT,
    ShiftSpec,
    Tile,
    dump_tiles,
    enumerate_tiles,
    ring_for,
    singleton_weight,
    tile_coefficient,
)
from witnesses import mirrored, tile_monomial, weight_exponents


class TestShiftSpec:
    def test_two_rows(self):
        spec = ShiftSpec.two_rows({1, 0})
        assert spec.rows == 2
        assert spec.s12 == frozenset({0, 1})
        assert spec.pair_set(0, 1) == frozenset({0, 1})

    def test_three_rows(self):
        spec = ShiftSpec.three_rows({0}, {-2, 2}, set())
        assert spec.rows == 3
        assert spec.pair_set(0, 2) == frozenset({-2, 2})
        assert spec.pair_set(1, 2) == frozenset()

    def test_bad_row_count(self):
        with pytest.raises(ValueError):
            ShiftSpec(rows=4)

    def test_two_row_spec_rejects_extra_sets(self):
        with pytest.raises(ValueError):
            ShiftSpec(rows=2, s12=frozenset({0}), s13=frozenset({1}))

    def test_mirrored(self):
        spec = ShiftSpec.three_rows({0, 1}, {-2}, {1})
        mir = mirrored(spec)
        assert mir.s12 == frozenset({0, -1})
        assert mir.s13 == frozenset({2})
        assert mir.s23 == frozenset({-1})
        assert mirrored(mir) == spec

    def test_describe_is_deterministic(self):
        a = ShiftSpec.two_rows({1, 0, -2})
        b = ShiftSpec.two_rows({-2, 0, 1})
        assert a.describe() == b.describe()


class TestTileGeometry:
    def test_scan_order_validated(self):
        with pytest.raises(ValueError):
            Tile(cells=((1, 1), (0, 0)), coefficient=-1, weight=UNIT_WEIGHT)
        t = Tile(cells=((0, 1), (1, 0)), coefficient=-1, weight=UNIT_WEIGHT)
        assert t.width == 2
        assert t.anchor_row == 1

    def test_min_dx_zero_enforced(self):
        with pytest.raises(ValueError):
            Tile(cells=((1, 0), (2, 1)), coefficient=-1, weight=UNIT_WEIGHT)

    def test_one_cell_per_row(self):
        with pytest.raises(ValueError):
            Tile(cells=((0, 0), (1, 0)), coefficient=-1, weight=UNIT_WEIGHT)


class TestCoefficients:
    def test_single_edge(self):
        spec = ShiftSpec.two_rows({0})
        assert tile_coefficient(((0, 0), (0, 1)), spec) == -1

    def test_two_edge_path(self):
        # cells (0,0),(0,1),(1,2): edges 0-1 (shift 0) and 1-2 (shift 1)
        # exist, the 0-2 edge (shift 1 in s13) does not
        spec = ShiftSpec.three_rows({0}, {-1}, {1})
        assert tile_coefficient(((0, 0), (0, 1), (1, 2)), spec) == 1

    def test_triangle(self):
        spec = ShiftSpec.three_rows({0}, {0}, {0})
        assert tile_coefficient(((0, 0), (0, 1), (0, 2)), spec) == 2

    def test_disconnected_cells_zero(self):
        spec = ShiftSpec.three_rows({0}, set(), {0})
        # no edge set connects rows 0 and 2 through these cells
        assert tile_coefficient(((0, 0), (1, 2)), spec) == 0


class TestWeights:
    def test_singletons(self):
        assert singleton_weight(0, 2) == UNIT_WEIGHT
        assert singleton_weight(1, 2) == "x"
        assert singleton_weight(0, 3) == UNIT_WEIGHT
        assert singleton_weight(1, 3) == "x2"
        assert singleton_weight(2, 3) == "x3"

    def test_weight_exponents(self):
        assert weight_exponents(UNIT_WEIGHT, RING_2ROW) == (0,)
        assert weight_exponents("x", RING_2ROW) == (1,)
        assert weight_exponents("x23", RING_3ROW) == (0, 0, 0, 1)

    def test_ring_for(self):
        assert ring_for(2) is RING_2ROW
        assert ring_for(3) is RING_3ROW


class TestEnumerate2Row:
    def test_fixed_point_alphabet(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({0}))
        assert dump_tiles(tiles) == (
            "(0,0) coeff=+1 weight=1\n"
            "(0,1) coeff=+1 weight=x\n"
            "(0,0)+(0,1) coeff=-1 weight=1"
        )

    def test_menage_alphabet(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({0, 1}))
        assert dump_tiles(tiles) == (
            "(0,0) coeff=+1 weight=1\n"
            "(0,1) coeff=+1 weight=x\n"
            "(0,0)+(0,1) coeff=-1 weight=1\n"
            "(0,0)+(1,1) coeff=-1 weight=1"
        )

    def test_negative_shift_anchors_on_row_one(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({-1}))
        multi = [t for t in tiles if len(t.cells) == 2]
        assert len(multi) == 1
        assert multi[0].cells == ((0, 1), (1, 0))
        assert multi[0].coefficient == -1

    def test_tile_count_matches_shift_count(self):
        for shifts in ({0}, {0, 1}, {-1, 2}, {-3, -1, 0, 2}):
            tiles = enumerate_tiles(ShiftSpec.two_rows(shifts))
            # two singletons plus one domino per shift
            assert len(tiles) == 2 + len(shifts)


class TestEnumerate3Row:
    def test_latin_alphabet(self):
        tiles = enumerate_tiles(ShiftSpec.three_rows({0}, {0}, {0}))
        assert dump_tiles(tiles) == (
            "(0,0) coeff=+1 weight=1\n"
            "(0,1) coeff=+1 weight=x2\n"
            "(0,2) coeff=+1 weight=x3\n"
            "(0,0)+(0,1) coeff=-1 weight=x1\n"
            "(0,0)+(0,2) coeff=-1 weight=x1\n"
            "(0,1)+(0,2) coeff=-1 weight=x23\n"
            "(0,0)+(0,1)+(0,2) coeff=+2 weight=x1"
        )

    def test_multicell_weights(self):
        tiles = enumerate_tiles(ShiftSpec.three_rows({0, 1}, {0}, {1}))
        by_cells = {t.cells: t for t in tiles}
        # rows 1+2 only: x23; any multi-cell touching row 0: x1
        assert by_cells[((0, 1), (1, 2))].weight == "x23"
        assert by_cells[((0, 0), (0, 1))].weight == "x1"
        triples = [t for t in tiles if len(t.cells) == 3]
        assert triples and all(t.weight == "x1" for t in triples)

    def test_zero_coefficient_tiles_dropped(self):
        spec = ShiftSpec.three_rows({0}, set(), {0})
        tiles = enumerate_tiles(spec)
        # the only 3-cell candidate is a 2-edge path through row 1
        triples = [t for t in tiles if len(t.cells) == 3]
        assert triples == [
            Tile(cells=((0, 0), (0, 1), (0, 2)), coefficient=1, weight="x1")
        ]

    def test_empty_spec_only_singletons(self):
        tiles = enumerate_tiles(ShiftSpec.three_rows(set(), set(), set()))
        assert [t.weight for t in tiles] == [UNIT_WEIGHT, "x2", "x3"]
        assert all(t.coefficient == 1 for t in tiles)

    def test_mirror_spec_same_tile_multiset(self):
        spec = ShiftSpec.three_rows({0, 1}, {-2, 1}, {-1})
        mir = mirrored(spec)
        sig = sorted((len(t.cells), t.coefficient, t.weight) for t in enumerate_tiles(spec))
        sig_m = sorted((len(t.cells), t.coefficient, t.weight) for t in enumerate_tiles(mir))
        assert sig == sig_m


class TestMonomials:
    def test_tile_monomial_includes_coefficient(self):
        tiles = enumerate_tiles(ShiftSpec.three_rows({0}, {0}, {0}))
        ring = ring_for(3)
        by_cells = {t.cells: tile_monomial(t, ring) for t in tiles}
        assert by_cells[((0, 0), (0, 1), (0, 2))] == 2 * ring.var("x1")
        assert by_cells[((0, 1), (0, 2))] == -ring.var("x23")
        assert by_cells[((0, 0),)] == ring.one()

    def test_build_edges_cells(self):
        # the {-2} spec's one edge joins (0,0) in row 0 to (-2,1) in
        # row 1; its tile is that edge re-anchored on the row-1 cell
        tiles = enumerate_tiles(ShiftSpec.two_rows({-2}))
        multi = [t for t in tiles if len(t.cells) == 2]
        assert len(multi) == 1
        assert multi[0].cells == ((0, 1), (2, 0))
        assert multi[0].coefficient == -1
