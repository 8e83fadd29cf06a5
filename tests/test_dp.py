"""The sweep engine against its independent mirrors: cell-by-cell
profile replay, brute-force weighted tiling sums, and the closed-form
kernel.  Symbolic equality here pins the whole pipeline before any
umbral evaluation happens."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import pytest

import latinrect.dp as dpmod
from latinrect.dp import (
    SeriesTable,
    BoardShape,
    kernel2,
    rectangle,
    trapezoid3,
    weight_series,
)
from latinrect.oracle import weighted_tiling_sum
from latinrect.poly import RING_2ROW, RING_KERNEL, WeightPolynomial
from latinrect.tiles import ShiftSpec, Tile, enumerate_tiles, ring_for, tile_monomial

X = RING_2ROW.var("x")


@dataclass(frozen=True)
class DPProfile:
    """Sweep state: covered-ahead mask plus the row phase in the column."""

    mask: int
    phase: int


def profile_successors(
    profile: DPProfile,
    tiles: Sequence[Tile],
    board: BoardShape,
    column: int,
    n: int | None = None,
) -> list[tuple[DPProfile, Tile | None]]:
    """Single-cell step of the sweep, in plain objects: the reference
    the replays below check the engine against.  n=None means an
    unbounded board (every cell in-board).  The engine's column tables
    fold k of these steps."""
    k = board.rows
    r = profile.phase
    nxt = (r + 1) % k
    in_board = True if n is None else column < board.row_length(r, n)
    if not in_board:
        if profile.mask & 1:
            return []
        return [(DPProfile(profile.mask >> 1, nxt), None)]
    if profile.mask & 1:
        return [(DPProfile(profile.mask >> 1, nxt), None)]
    out: list[tuple[DPProfile, Tile | None]] = []
    for tile in tiles:
        if tile.anchor_row != r:
            continue
        bits = 0
        for dx, row in tile.cells:
            bits |= 1 << (dx * k + row - r)
        if profile.mask & bits == 0:
            out.append((DPProfile((profile.mask | bits) >> 1, nxt), tile))
    return out


def replay_series(spec: ShiftSpec, n: int) -> WeightPolynomial:
    """P_n recomputed one profile step at a time via profile_successors."""
    tiles = enumerate_tiles(spec)
    board = rectangle(spec.rows) if spec.rows in (2, 3) else None
    ring = ring_for(spec.rows)
    dist: dict[DPProfile, WeightPolynomial] = {DPProfile(0, 0): ring.one()}
    for col in range(n):
        for _phase in range(board.rows):
            ndist: dict[DPProfile, WeightPolynomial] = {}
            for prof, acc in dist.items():
                for nxt, tile in profile_successors(prof, tiles, board, col, n):
                    add = acc if tile is None else acc * tile_monomial(tile, ring)
                    ndist[nxt] = ndist.get(nxt, ring.zero()) + add
            dist = {p: v for p, v in ndist.items() if not v.is_zero()}
    return dist.get(DPProfile(0, 0), ring.zero())


def replay_trapezoid(n: int) -> WeightPolynomial:
    spec = ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1})
    tiles = enumerate_tiles(spec)
    board = trapezoid3()
    ring = ring_for(3)
    dist: dict[DPProfile, WeightPolynomial] = {DPProfile(0, 0): ring.one()}
    for col in range(n):
        for _phase in range(board.rows):
            ndist: dict[DPProfile, WeightPolynomial] = {}
            for prof, acc in dist.items():
                for nxt, tile in profile_successors(prof, tiles, board, col, n):
                    add = acc if tile is None else acc * tile_monomial(tile, ring)
                    ndist[nxt] = ndist.get(nxt, ring.zero()) + add
            dist = {p: v for p, v in ndist.items() if not v.is_zero()}
    return dist.get(DPProfile(0, 0), ring.zero())


class TestBoardShape:
    def test_rectangle(self):
        b = rectangle(2)
        assert b.row_lengths(5) == (5, 5)
        assert b.min_n == 0
        assert b.blocked_flags(0) == (False, False)
        assert b.blocked_flags(4) == (False, False)

    def test_trapezoid(self):
        b = trapezoid3()
        assert b.min_n == 3
        assert b.row_lengths(6) == (6, 5, 4)
        # mirrored board: the short rows miss a fixed prefix at any n
        assert b.blocked_flags(0) == (False, True, True)
        assert b.blocked_flags(1) == (False, False, True)
        assert b.blocked_flags(2) == (False, False, False)
        assert b.blocked_flags(9) == (False, False, False)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BoardShape(kind="cylinder", rows=2)


class TestSeriesTable:
    def test_indexing(self):
        spec = ShiftSpec.two_rows({0})
        table = weight_series(enumerate_tiles(spec), rectangle(2), 4)
        assert table.first_n == 0 and table.last_n == 4
        assert table.poly(0).is_one()
        with pytest.raises(IndexError):
            table.poly(5)
        assert [n for n, _ in table] == [0, 1, 2, 3, 4]


class TestUnpack:
    def test_fast_unpack_matches_validating_constructor(self, monkeypatch):
        """unpack skips WeightPolynomial's per-term check; every packed
        snapshot of a 2-row, 3-row and mirrored trapezoid sweep must
        still give the polynomial the checking constructor builds."""
        real = dpmod._Sweep.unpack
        seen = []

        def checked(self, packed):
            fast = real(self, packed)
            nv = self.ring.nvars
            lane = (1 << dpmod.PACK_BITS) - 1
            terms = {
                tuple((m >> (dpmod.PACK_BITS * i)) & lane for i in range(nv)): c
                for m, c in packed.items()
            }
            slow = WeightPolynomial(self.ring, terms)
            assert fast == slow and hash(fast) == hash(slow)
            assert fast.terms() == slow.terms()
            assert all(c != 0 for _, c in fast.terms())
            seen.append(self.ring.nvars)
            return fast

        monkeypatch.setattr(dpmod._Sweep, "unpack", checked)
        cases = [
            (ShiftSpec.two_rows({-2, 0, 1}), rectangle(2), 9),
            (ShiftSpec.three_rows({0, 1}, {0}, {-1}), rectangle(3), 5),
            (ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1}), trapezoid3(), 6),
            (ShiftSpec.three_rows({1, 2}, {-1}, {0, 2}), trapezoid3(), 5),
        ]
        for spec, board, n_max in cases:
            weight_series(enumerate_tiles(spec), board, n_max)
        assert seen.count(1) == 9 and seen.count(4) == 5 + 4 + 3


class TestTwoRowSweep:
    def test_fixed_points_closed_form(self):
        table = weight_series(enumerate_tiles(ShiftSpec.two_rows({0})), rectangle(2), 8)
        for n in range(9):
            assert table.poly(n) == (X - 1) ** n

    def test_menage_polynomial(self):
        table = weight_series(enumerate_tiles(ShiftSpec.two_rows({0, 1})), rectangle(2), 3)
        assert table.poly(2).canonical_str() == "x^2 - 3*x + 1"

    def test_replay_agrees(self):
        for shifts in ({0, 1}, {-1, 2}, {-2, 0, 1}):
            spec = ShiftSpec.two_rows(shifts)
            table = weight_series(enumerate_tiles(spec), rectangle(2), 5)
            for n in range(6):
                assert table.poly(n) == replay_series(spec, n)

    def test_random_specs_vs_brute_force(self):
        rng = random.Random(5151)
        ring = ring_for(2)
        for _ in range(8):
            shifts = {s for s in range(-3, 4) if rng.random() < 0.4} or {0}
            spec = ShiftSpec.two_rows(shifts)
            tiles = enumerate_tiles(spec)
            table = weight_series(tiles, rectangle(2), 5)
            for n in range(6):
                assert table.poly(n) == weighted_tiling_sum(tiles, [n, n], ring)


class TestThreeRowSweep:
    def test_latin_p1_frozen(self):
        spec = ShiftSpec.three_rows({0}, {0}, {0})
        table = weight_series(enumerate_tiles(spec), rectangle(3), 1)
        assert table.poly(1).canonical_str() == \
            "-x1*x2 - x1*x3 + 2*x1 + x2*x3 - x23"

    def test_random_specs_vs_brute_force(self):
        rng = random.Random(909)
        ring = ring_for(3)
        for _ in range(4):
            sets = [{s for s in range(-2, 3) if rng.random() < 0.35} for _ in range(3)]
            spec = ShiftSpec.three_rows(*sets)
            tiles = enumerate_tiles(spec)
            table = weight_series(tiles, rectangle(3), 4)
            for n in range(5):
                assert table.poly(n) == weighted_tiling_sum(tiles, [n] * 3, ring)

    def test_replay_agrees(self):
        spec = ShiftSpec.three_rows({0, 1}, {0}, {-1})
        table = weight_series(enumerate_tiles(spec), rectangle(3), 3)
        for n in range(4):
            assert table.poly(n) == replay_series(spec, n)


class TestTrapezoidSweep:
    SPEC = ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1})

    def test_vs_brute_force(self):
        # random asymmetric specs too: a wrong reflection of the tiles
        # is invisible on a left-right symmetric alphabet
        rng = random.Random(3131)
        cases = [(self.SPEC, 6)]
        while len(cases) < 7:
            sets = [{s for s in range(-2, 3) if rng.random() < 0.35} for _ in range(3)]
            spec = ShiftSpec.three_rows(*sets)
            if spec != spec.mirrored():
                cases.append((spec, 5))
        ring = ring_for(3)
        for spec, n_max in cases:
            tiles = enumerate_tiles(spec)
            table = weight_series(tiles, trapezoid3(), n_max)
            for n in range(3, n_max + 1):
                assert table.poly(n) == weighted_tiling_sum(tiles, [n, n - 1, n - 2], ring)

    def test_replay_agrees(self):
        tiles = enumerate_tiles(self.SPEC)
        table = weight_series(tiles, trapezoid3(), 5)
        for n in range(3, 6):
            assert table.poly(n) == replay_trapezoid(n)

    def test_below_min_n_rejected(self):
        tiles = enumerate_tiles(self.SPEC)
        with pytest.raises(ValueError):
            weight_series(tiles, trapezoid3(), 2)


class TestKernel:
    def test_fixed_points_closed_form(self):
        assert kernel2({0}).canonical_str() == "(1) / (1 + (-x + 1)*X)"

    def test_series_matches_sweep(self):
        for shifts in ({0}, {0, 1}, {-1, 2}, {0, 1, -2}):
            kern = kernel2(shifts)
            table = weight_series(
                enumerate_tiles(ShiftSpec.two_rows(shifts)), rectangle(2), 12
            )
            for n, p in enumerate(kern.series(12)):
                assert p == table.poly(n)

    def test_normalized(self):
        assert kernel2({0, 1}).normalized
        assert kernel2({-1, 2}).normalized

    def test_empty_shift_set(self):
        # no forbidden shifts: P_n = x^n, kernel 1/(1 - x X)
        kern = kernel2(set())
        assert kern.canonical_str() == "(1) / (1 + (-x)*X)"


class TestGuards:
    def test_packed_lane_overflow(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({0}))
        with pytest.raises(ValueError):
            weight_series(tiles, rectangle(2), 1 << 16)
