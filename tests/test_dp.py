"""The sweep engine against its independent mirrors: cell-by-cell
profile replay, brute-force weighted tiling sums, and the closed-form
kernel.  Symbolic equality here pins the whole pipeline before any
umbral evaluation happens."""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import pytest

import latinrect.dp as dpmod
from latinrect.dp import (
    SeriesTable,
    BoardShape,
    balanced_digits,
    kernel2,
    rectangle,
    trapezoid3,
    weight_series,
    weight_snapshots,
)
from latinrect.poly import RING_2ROW, RING_KERNEL, WeightPolynomial
from latinrect.sequences import TRAPEZOID_SPEC
from latinrect.tiles import (
    UNIT_WEIGHT,
    ShiftSpec,
    Tile,
    enumerate_tiles,
    ring_for,
)
from latinrect.umbra import umbral_eval_3row, umbral_eval_trapezoid
from witnesses import mirrored, tile_monomial, weighted_tiling_sum

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
    in_board = True if n is None else column < board.row_lengths(n)[r]
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


def replay_series(spec: ShiftSpec, board: BoardShape, n: int) -> WeightPolynomial:
    """P_n recomputed one profile step at a time via profile_successors."""
    tiles = enumerate_tiles(spec)
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


LANE_BITS = 16


class ReferenceSweep:
    """The sweep with one dict entry per monomial, 16 bits per
    variable in the key: the reference the packed engine is checked
    against.  Same profiles and column tables, plain exponents."""

    def __init__(self, tiles: Sequence[Tile], board: BoardShape):
        self.k = board.rows
        self.ring = ring_for(board.rows)
        self.ops_by_row: list[list[tuple[int, int, int]]] = [[] for _ in range(self.k)]
        for t in tiles:
            bits = 0
            for dx, row in t.cells:
                bits |= 1 << (dx * self.k + row - t.anchor_row)
            delta = 0
            if t.weight != UNIT_WEIGHT:
                delta = 1 << (LANE_BITS * self.ring.index(t.weight))
            self.ops_by_row[t.anchor_row].append((bits, delta, t.coefficient))
        self._tables: dict[tuple[int, tuple[bool, ...]], list[tuple[int, int, int]]] = {}

    def column_table(self, mask0: int, blocked: tuple[bool, ...]) -> list[tuple[int, int, int]]:
        key = (mask0, blocked)
        if key in self._tables:
            return self._tables[key]
        acc: dict[tuple[int, int], int] = {}
        stack = [(0, mask0, 0, 1)]
        while stack:
            r, mask, delta, coeff = stack.pop()
            if r == self.k:
                acc[mask, delta] = acc.get((mask, delta), 0) + coeff
            elif blocked[r]:
                if not mask & 1:
                    stack.append((r + 1, mask >> 1, delta, coeff))
            elif mask & 1:
                stack.append((r + 1, mask >> 1, delta, coeff))
            else:
                for bits, d, c in self.ops_by_row[r]:
                    if mask & bits == 0:
                        stack.append((r + 1, (mask | bits) >> 1, delta + d, coeff * c))
        table = [(m, d, c) for (m, d), c in acc.items() if c != 0]
        self._tables[key] = table
        return table

    def advance(
        self, dist: dict[int, dict[int, int]], blocked: tuple[bool, ...]
    ) -> dict[int, dict[int, int]]:
        ndist: dict[int, dict[int, int]] = {}
        for mask, poly in dist.items():
            for m2, delta, cf in self.column_table(mask, blocked):
                tgt = ndist.setdefault(m2, {})
                for mono, v in poly.items():
                    tgt[mono + delta] = tgt.get(mono + delta, 0) + cf * v
        return {
            m: live
            for m, bucket in ndist.items()
            if (live := {mono: v for mono, v in bucket.items() if v})
        }

    def unpack(self, packed: dict[int, int]) -> WeightPolynomial:
        lane = (1 << LANE_BITS) - 1
        return WeightPolynomial(self.ring, {
            tuple((mono >> (LANE_BITS * i)) & lane for i in range(self.ring.nvars)): c
            for mono, c in packed.items()
        })


def reference_snapshots(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> Iterator[tuple[int, WeightPolynomial]]:
    """weight_snapshots through ReferenceSweep, mirrored boards alike."""
    if any(board.blocked_flags(0)):
        tiles = [
            Tile(tuple(sorted((t.width - 1 - dx, r) for dx, r in t.cells)),
                 t.coefficient, t.weight)
            for t in tiles
        ]
    sweep = ReferenceSweep(tiles, board)
    dist = {0: {0: 1}}
    if board.min_n == 0:
        yield 0, sweep.ring.one()
    for n in range(1, n_max + 1):
        dist = sweep.advance(dist, board.blocked_flags(n - 1))
        if n >= board.min_n:
            yield n, sweep.unpack(dist.get(0, {}))


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
            rectangle(4)


class TestSeriesTable:
    def test_indexing(self):
        spec = ShiftSpec.two_rows({0})
        table = weight_series(enumerate_tiles(spec), rectangle(2), 4)
        assert table.first_n == 0 and table.last_n == 4
        assert table.poly(0).is_one()
        with pytest.raises(IndexError):
            table.poly(5)
        assert [table.poly(n) for n in range(5)] == list(table.polys)


def slot_digits(v: int, bits: int) -> list[int]:
    """Every balanced digit of v, lowest slot first, one at a time."""
    out = []
    while v:
        d = v & ((1 << bits) - 1)
        if d >= 1 << (bits - 1):
            d -= 1 << bits
        out.append(d)
        v = (v - d) >> bits
    return out


def class_layout_applies(tiles: Sequence[Tile]) -> bool:
    """Whether a 3-row alphabet can index its slots by tile classes:
    each tile adds p = [x1] - k1 >= 0 and q = [x1] - k2 >= 0, k_r being
    its row-r cells that its weight does not name, and each x1 tile has
    a row-0 cell, so a1 <= n bounds p = a1 - k1 and q = a1 - k2."""
    for t in tiles:
        rows = [r for _, r in t.cells]
        x1 = t.weight == "x1"
        k1 = rows.count(1) - (t.weight in ("x2", "x23"))
        k2 = rows.count(2) - (t.weight in ("x3", "x23"))
        if x1 - k1 < 0 or x1 - k2 < 0 or (x1 and 0 not in rows):
            return False
    return True


def unit_weight(tiles: Sequence[Tile]) -> list[Tile]:
    return [Tile(t.cells, 1, UNIT_WEIGHT) for t in tiles]


class TestUnpack:
    def test_fast_unpack_matches_validating_constructor(self, monkeypatch):
        """unpack finds the nonzero slots in bulk before WeightPolynomial
        checks the terms; decoding every slot one by one into the
        checking constructor must give the same polynomial for each
        snapshot of a 2-row, 3-row and mirrored trapezoid sweep, in the
        slot layout the tiles call for."""
        real = dpmod._Sweep.unpack
        seen = []
        by_class = False

        def checked(self, packed, row_lengths):
            fast = real(self, packed, row_lengths)
            if self.k == 2:
                terms = {(x,): c for x, c in enumerate(packed, packed.first)}
            else:
                assert self.class_layout == by_class
                _, cells1, cells2 = row_lengths
                terms = {}
                for key, v in enumerate(packed, packed.first):
                    a1, a23 = divmod(key, self.stride)
                    for slot, c in enumerate(slot_digits(v, self.bits)):
                        q, p = divmod(slot, self.stride)
                        k1, k2 = (a1 - p, a1 - q) if by_class else (p, q)
                        terms[a1, cells1 - a23 - k1, cells2 - a23 - k2, a23] = c
            slow = WeightPolynomial(self.ring, terms)
            assert fast == slow
            assert fast.terms() == slow.terms()
            assert all(c != 0 for _, c in fast.terms())
            seen.append(self.ring.nvars)
            return fast

        monkeypatch.setattr(dpmod._Sweep, "unpack", checked)
        cases = [
            (enumerate_tiles(ShiftSpec.two_rows({-2, 0, 1})), rectangle(2), 9),
            (enumerate_tiles(ShiftSpec.three_rows({0, 1}, {0}, {-1})), rectangle(3), 5),
            (enumerate_tiles(ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1})), trapezoid3(), 6),
            (enumerate_tiles(ShiftSpec.three_rows({1, 2}, {-1}, {0, 2})), trapezoid3(), 5),
            # a unit-weight alphabet falls back to incidence slots
            (unit_weight(enumerate_tiles(ShiftSpec.three_rows({0, 1}, {0}, {-1}))),
             rectangle(3), 4),
        ]
        for tiles, board, n_max in cases:
            by_class = board.rows == 3 and class_layout_applies(tiles)
            weight_series(tiles, board, n_max)
        # P_0 of a rectangle is unpacked from the sweep's start run too
        assert seen.count(1) == 10 and seen.count(4) == 6 + 4 + 3 + 5


class TestPureStep:
    """advance depends on its arguments only, and zero coefficients it
    leaves behind are dropped at unpack."""

    CASES = [
        (ShiftSpec.two_rows({-2, 0, 1}), rectangle(2), 8),
        (ShiftSpec.three_rows({0, 1}, {0}, {-1}), rectangle(3), 6),
        (ShiftSpec.three_rows({1, 2}, {-1}, {0, 2}), trapezoid3(), 6),
    ]

    @pytest.mark.parametrize("spec,board,n_max", CASES)
    def test_zero_coefficients_dropped(self, spec, board, n_max, monkeypatch):
        tiles = enumerate_tiles(spec)
        want = list(weight_snapshots(tiles, board, n_max))
        real = dpmod._Sweep.advance

        def with_zeros(self, dist, blocked, **kw):
            ndist = real(self, dist, blocked, **kw)
            for run in ndist.values():
                run.insert(0, 0)
                run.first -= 1
                run.append(0)
            return ndist

        monkeypatch.setattr(dpmod._Sweep, "advance", with_zeros)
        got = list(weight_snapshots(tiles, board, n_max))
        assert got == want
        assert all(c != 0 for _, p in got for _, c in p.terms())

    @pytest.mark.parametrize("spec,board,n_max", CASES)
    def test_extra_step_changes_nothing(self, spec, board, n_max, monkeypatch):
        tiles = enumerate_tiles(spec)
        want = list(weight_snapshots(tiles, board, n_max))
        real = dpmod._Sweep.advance

        def twice(self, dist, blocked, **kw):
            real(self, {m: dpmod._Run(p, p.first) for m, p in dist.items()}, blocked, **kw)
            return real(self, dist, blocked, **kw)

        monkeypatch.setattr(dpmod._Sweep, "advance", twice)
        assert list(weight_snapshots(tiles, board, n_max)) == want


def random_three_row_specs(seed: int, count: int) -> list[ShiftSpec]:
    rng = random.Random(seed)
    return [
        ShiftSpec.three_rows(
            *({s for s in range(-2, 3) if rng.random() < 0.35} for _ in range(3))
        )
        for _ in range(count)
    ]


class TestPackedSweep:
    """The run-based engine of both ring sizes, packed slots on three
    rows, against ReferenceSweep, snapshot by snapshot."""

    @staticmethod
    def check(spec: ShiftSpec, board: BoardShape, n_max: int, tiles=None) -> None:
        tiles = enumerate_tiles(spec) if tiles is None else tiles
        got = list(weight_snapshots(tiles, board, n_max))
        want = list(reference_snapshots(tiles, board, n_max))
        assert [n for n, _ in got] == [n for n, _ in want]
        for (n, p), (_, q) in zip(got, want):
            assert p == q, (spec.describe(), board, n)

    def test_random_specs(self):
        for spec in random_three_row_specs(2024, 20):
            self.check(spec, rectangle(3), 6)
            self.check(spec, trapezoid3(), 7)

    def test_dense_spec_to_8(self):
        self.check(ShiftSpec.three_rows({0, 2}, {-2, 1}, {0, -1}), rectangle(3), 8)
        self.check(ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1}), trapezoid3(), 8)

    def test_super_latin(self):
        self.check(ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}), rectangle(3), 10)

    def test_latin(self):
        self.check(ShiftSpec.three_rows({0}, {0}, {0}), rectangle(3), 25)

    def test_free_board(self):
        free = ShiftSpec.three_rows(set(), set(), set())
        self.check(free, rectangle(3), 30)
        self.check(free, trapezoid3(), 30)
        x2, x3 = (ring_for(3).var(v) for v in ("x2", "x3"))
        for n, p in weight_snapshots(enumerate_tiles(free), trapezoid3(), 12):
            assert p == x2 ** (n - 1) * x3 ** (n - 2)

    def test_two_row_random_shifts(self):
        rng = random.Random(1212)
        for _ in range(20):
            shifts = {s for s in range(-3, 4) if rng.random() < 0.4}
            self.check(ShiftSpec.two_rows(shifts), rectangle(2), 12)

    @pytest.mark.parametrize("shifts", [{5}, {-4, 3}], ids=["5", "-4,3"])
    def test_two_row_sparse_wide_shifts(self, shifts):
        self.check(ShiftSpec.two_rows(shifts), rectangle(2), 12)

    def test_other_weight_tags(self):
        """Exact cover recovers x2 and x3 for any tags on tiles that
        touch the rows they name, not only the tiles.py convention."""
        rng = random.Random(4242)
        for spec in random_three_row_specs(99, 8):
            tiles = []
            for t in enumerate_tiles(spec):
                rows = {r for _, r in t.cells}
                tags = [UNIT_WEIGHT, "x1"]
                tags += ["x2"] * (1 in rows) + ["x3"] * (2 in rows)
                tags += ["x23"] * (rows >= {1, 2})
                tiles.append(Tile(t.cells, t.coefficient, rng.choice(tags)))
            self.check(spec, rectangle(3), 5, tiles)
            self.check(spec, trapezoid3(), 6, tiles)

    def test_weight_on_a_missing_row_rejected(self):
        for tile in (Tile(((0, 0),), 1, "x2"), Tile(((0, 0), (1, 1)), -1, "x3"),
                     Tile(((0, 0), (0, 2)), -1, "x23")):
            with pytest.raises(ValueError, match="names a row"):
                list(weight_snapshots([tile], rectangle(3), 2))


def built_sweeps(monkeypatch) -> list:
    """Every _Sweep built from now on, in order."""
    built = []
    real = dpmod._Sweep.__init__

    def record(self, *args, **kw):
        real(self, *args, **kw)
        built.append(self)

    monkeypatch.setattr(dpmod._Sweep, "__init__", record)
    return built


def retagged(tiles: Sequence[Tile], cells: tuple, weight: str) -> list[Tile]:
    """The alphabet with the tile on these cells carrying this weight."""
    assert any(t.cells == cells for t in tiles)
    return [Tile(t.cells, t.coefficient, weight) if t.cells == cells else t for t in tiles]


#: (cells, weight) of the one tile hand_tagged retags
HAND_TAGGED = [
    (((0, 0), (0, 1)), UNIT_WEIGHT),  # p = -1
    (((0, 2),), "x1"),                # an x1 tile without a row-0 cell
]
HAND_TAGGED_IDS = ["unit-01", "x1-on-row-2"]


def hand_tagged(cells: tuple, weight: str) -> tuple[ShiftSpec, list[Tile]]:
    """A spec and its alphabet with the tile on these cells retagged,
    which takes the incidence layout."""
    spec = ShiftSpec.three_rows({0, 1}, {0, -1}, {0})
    tiles = retagged(enumerate_tiles(spec), cells, weight)
    # x1 on the row-0 singletons as well: with an x1 row-2
    # singleton, p then reaches 2n, past the stride
    return spec, retagged(tiles, ((0, 0),), "x1")


class TestSlotLayout:
    """The 3-row slots count tile classes whenever the alphabet allows,
    and fall back to row incidences otherwise."""

    def test_tiles_alphabet_selects_class_layout(self, monkeypatch):
        built = built_sweeps(monkeypatch)
        specs = random_three_row_specs(2024, 20)
        for spec in specs:
            tiles = enumerate_tiles(spec)
            assert class_layout_applies(tiles)
            list(weight_snapshots(tiles, rectangle(3), 4))
            list(weight_snapshots(tiles, trapezoid3(), 4))  # mirrored tiles
        assert len(built) == 2 * len(specs)
        assert all(s.class_layout for s in built)

    @pytest.mark.parametrize("cells,weight", HAND_TAGGED, ids=HAND_TAGGED_IDS)
    def test_hand_tagged_alphabet_falls_back(self, cells, weight, monkeypatch):
        built = built_sweeps(monkeypatch)
        spec, tiles = hand_tagged(cells, weight)
        assert not class_layout_applies(tiles)
        TestPackedSweep.check(spec, rectangle(3), 7, tiles)
        TestPackedSweep.check(spec, trapezoid3(), 7, tiles)
        assert len(built) == 2 and not any(s.class_layout for s in built)

    @pytest.mark.parametrize("spec,board,n_max", [
        (ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}), rectangle(3), 10),
        (TRAPEZOID_SPEC, trapezoid3(), 12),
    ], ids=["super-latin", "trapezoid"])
    def test_class_counts_stay_within_n(self, spec, board, n_max, monkeypatch):
        """p, q <= n at snapshot n: the stride n_max + 1 keeps every
        slot a snapshot reads apart from its neighbours."""
        real = dpmod._Sweep.unpack
        checked = []

        def bounded(self, packed, row_lengths):
            assert self.class_layout
            n = row_lengths[0]
            slots = [s for v in packed
                     for s, c in enumerate(slot_digits(v, self.bits)) if c]
            assert slots
            for slot in slots:
                q, p = divmod(slot, self.stride)
                assert 0 <= p <= n and 0 <= q <= n, (n, p, q)
            checked.append(n)
            return real(self, packed, row_lengths)

        monkeypatch.setattr(dpmod._Sweep, "unpack", bounded)
        list(weight_snapshots(enumerate_tiles(spec), board, n_max))
        assert checked == list(range(board.min_n, n_max + 1))


class TestExponentRows:
    """Snapshot.key_groups hands out monomial exponents in both slot
    layouts: its rows flatten to the reference P_n term for term, and
    the 3-row operators read them as they read that P_n."""

    @staticmethod
    def check(tiles, board: BoardShape, n_max: int) -> None:
        snaps = dpmod.packed_snapshots(tiles, board, n_max)
        for (n, snap), (_, want) in zip(snaps, reference_snapshots(tiles, board, n_max)):
            terms = {}
            for a1, a23, rows in snap.key_groups():
                for a3, a2, cs in rows:
                    assert cs[0] and cs[-1], (n, a1, a23, a3, a2)
                    for x2, c in enumerate(cs, a2):
                        if c:
                            assert (a1, x2, a3, a23) not in terms
                            terms[a1, x2, a3, a23] = c
            assert sorted(terms.items(), reverse=True) == want.terms(), (board, n)
            for evaluate in (umbral_eval_3row, umbral_eval_trapezoid):
                assert evaluate(snap, n) == evaluate(want, n), (board, n, evaluate)

    def test_random_specs_both_boards(self, monkeypatch):
        built = built_sweeps(monkeypatch)
        for spec in random_three_row_specs(2468, 10):
            tiles = enumerate_tiles(spec)
            self.check(tiles, rectangle(3), 6)
            self.check(tiles, trapezoid3(), 7)
        assert len(built) == 20 and all(s.class_layout for s in built)

    @pytest.mark.parametrize("cells,weight", HAND_TAGGED, ids=HAND_TAGGED_IDS)
    def test_incidence_layout(self, cells, weight, monkeypatch):
        built = built_sweeps(monkeypatch)
        _, tiles = hand_tagged(cells, weight)
        self.check(tiles, rectangle(3), 7)
        self.check(tiles, trapezoid3(), 7)
        assert len(built) == 2 and not any(s.class_layout for s in built)


class TestSlotBound:
    """B covers each snapshot coefficient with a bit to spare for the
    sign, on the boards and specs the sweep actually ran."""

    @staticmethod
    def bounded(monkeypatch) -> list[int]:
        """Patches unpack to check each snapshot against B; the term
        count of each snapshot checked."""
        real = dpmod._Sweep.unpack
        checked = []

        def bounded(self, packed, row_lengths):
            p = real(self, packed, row_lengths)
            assert self.bits % 8 == 0
            assert all(abs(c).bit_length() < self.bits for _, c in p.terms())
            checked.append(len(p))
            return p

        monkeypatch.setattr(dpmod._Sweep, "unpack", bounded)
        return checked

    def test_slot_width_exceeds_every_coefficient(self, monkeypatch):
        checked = self.bounded(monkeypatch)
        for spec in random_three_row_specs(77, 12):
            weight_series(enumerate_tiles(spec), rectangle(3), 6)
            weight_series(enumerate_tiles(spec), trapezoid3(), 6)
        super_latin = ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1})
        weight_series(enumerate_tiles(super_latin), rectangle(3), 9)
        assert len(checked) == 12 * (7 + 4) + 10 and sum(checked) > 0

    @pytest.mark.parametrize("shifts,n_max", [({0, 1}, 200), ({-2, 0, 3}, 60), ({7}, 40)],
                             ids=["0,1", "-2,0,3", "7"])
    def test_two_row_slot_width(self, shifts, n_max, monkeypatch):
        """Two rows never shift by B, but the plan proves it all the same."""
        checked = self.bounded(monkeypatch)
        weight_series(enumerate_tiles(ShiftSpec.two_rows(shifts)), rectangle(2), n_max)
        assert len(checked) == n_max + 1 and sum(checked) > 0


class TestLiveProfiles:
    """packed_snapshots keeps at each boundary only the profiles that
    are empty or can still drain to the empty profile by n_max, and each
    run it keeps is the run of a sweep that keeps every target."""

    @staticmethod
    def columns(tiles, board, n_max, monkeypatch) -> list:
        """(sweep, blocked, kept profiles) for each column packed_snapshots
        advances over."""
        real = dpmod._Sweep.advance
        seen = []

        def recorded(self, dist, blocked, **kw):
            ndist = real(self, dist, blocked, **kw)
            seen.append((self, blocked, ndist))
            return ndist

        monkeypatch.setattr(dpmod._Sweep, "advance", recorded)
        for _ in dpmod.packed_snapshots(tiles, board, n_max):
            pass
        monkeypatch.setattr(dpmod._Sweep, "advance", real)
        assert len(seen) == n_max
        return seen

    def check(self, tiles, board, n_max, monkeypatch) -> list[tuple[int, int]]:
        """Checks the kept profiles of one sweep against a sweep that
        keeps every target; (kept, reached) profile counts per boundary."""
        columns = self.columns(tiles, board, n_max, monkeypatch)
        sweep = columns[0][0]
        drains: dict[tuple[int, int], bool] = {}

        def can_drain(mask: int, c: int) -> bool:
            if (mask, c) not in drains:
                drains[mask, c] = mask == 0 or c < n_max and any(
                    can_drain(m2, c + 1)
                    for m2, *_ in sweep.column_table(mask, board.blocked_flags(c)))
            return drains[mask, c]

        full = {0: dpmod._Run([1])}
        kept_before = {0}
        counts = []
        for c, (_, blocked, kept) in enumerate(columns, 1):
            reached_before = set(full)
            every = {m2 for mask in full for m2, *_ in sweep.column_table(mask, blocked)}
            full = sweep.advance(full, blocked, live=every)
            for mask, run in kept.items():
                assert can_drain(mask, c), (mask, c)
                assert run.first == full[mask].first and run == full[mask], (mask, c)
            for mask in reached_before - kept_before:
                targets = {m2 for m2, *_ in sweep.column_table(mask, blocked)}
                assert targets.isdisjoint(kept), (mask, c - 1)
            kept_before = set(kept)
            counts.append((len(kept), len(full)))
        return counts

    def test_random_specs_both_boards(self, monkeypatch):
        pruned = 0
        for spec in random_three_row_specs(3141, 10):
            tiles = enumerate_tiles(spec)
            for board, n_max in ((rectangle(3), 6), (trapezoid3(), 7)):
                counts = self.check(tiles, board, n_max, monkeypatch)
                pruned += sum(k < r for k, r in counts)
        assert pruned

    def test_random_two_row_sets(self, monkeypatch):
        rng = random.Random(2718)
        for _ in range(10):
            shifts = {s for s in range(-3, 4) if rng.random() < 0.4}
            self.check(enumerate_tiles(ShiftSpec.two_rows(shifts)), rectangle(2), 10,
                       monkeypatch)

    def test_prune_is_not_vacuous(self, monkeypatch):
        super_latin = ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1})
        counts = self.check(enumerate_tiles(super_latin), rectangle(3), 7, monkeypatch)
        kept, reached = counts[-2]
        assert kept < reached
        assert counts[-1] == (1, reached)

    def test_interior_empty_profile_kept(self, monkeypatch):
        """With these tags the one-column tilings of an empty column
        cancel, so the empty profile after column 4 has no table row to
        the empty profile after column 5.  P_4 is read there all the
        same, so the empty profile is kept at every boundary."""
        tiles = enumerate_tiles(ShiftSpec.three_rows(set(), {0, 2}, set()))
        for cells, weight in ((((0, 1),), "x1"), (((0, 2),), UNIT_WEIGHT),
                              (((0, 0), (0, 2)), UNIT_WEIGHT), (((0, 0), (2, 2)), "x1")):
            tiles = retagged(tiles, cells, weight)
        x1 = ring_for(3).var("x1")
        empty_rows = dpmod._Sweep(tiles, rectangle(3), 5).column_table(0, (False,) * 3)
        assert 0 not in {m for m, *_ in empty_rows}
        series = weight_series(tiles, rectangle(3), 5)
        assert series.poly(4) == x1 ** 6
        assert list(series.polys) == [p for _, p in reference_snapshots(tiles, rectangle(3), 5)]
        self.check(tiles, rectangle(3), 5, monkeypatch)


def planned_signs(sweep) -> dict[int, int]:
    """s(m) for every profile the plan of sweep reached, checked to be a
    diagonal change of basis: each table the plan walked equals the
    same table built afresh, unplanned, row for row, with cf times
    s(source) * s(target), one sign per profile and s(0) = +1.  A sweep
    planned for no column would not do: on three rows its key deltas
    depend on n_max."""
    plain = copy.copy(sweep)
    plain._tables = {}
    sign = {0: 1}
    # the plan walks a table only after one that reaches its source
    for (mask, blocked), table in sweep._tables.items():
        rows = plain.column_table(mask, blocked)
        assert [r[:3] for r in table] == [r[:3] for r in rows], (mask, blocked)
        for (m2, _, _, cf), (*_, cf0) in zip(table, rows):
            assert abs(cf) == abs(cf0), (mask, m2, blocked)
            s = sign[mask] * (cf // cf0)
            assert sign.setdefault(m2, s) == s, (mask, m2, blocked)
    return sign


class TestProfileSigns:
    """The plan stores each row of a table as cf * s(source) *
    s(target), so each profile's run holds s(profile) times its
    polynomial; the empty profile's sign is +1, and the plan picks the
    signs so that a target's first row can be a store: cf = 1 with sd =
    0 in the planned table."""

    @pytest.mark.parametrize(
        "shifts",
        [{0, 1}, {-2, 0, 3}, {7}, {5}, {-1, 0, 1}, {0, 1, 2, 3, 4}, {-3, -1, 2}, {1, 5}],
        ids=["0,1", "-2,0,3", "7", "5", "-1,0,1", "0,1,2,3,4", "-3,-1,2", "1,5"])
    def test_every_kept_target_has_a_store_row(self, shifts, monkeypatch):
        tiles = enumerate_tiles(ShiftSpec.two_rows(shifts))
        columns = TestLiveProfiles.columns(tiles, rectangle(2), 40, monkeypatch)
        sweep = columns[0][0]
        sources = {0}
        for c, (_, blocked, kept) in enumerate(columns, 1):
            for m2 in kept:
                assert any(t == m2 and sd == 0 and cf == 1
                           for mask in sources
                           for t, _, sd, cf in sweep.column_table(mask, blocked)), (m2, c)
            sources = set(kept)
        assert -1 in planned_signs(sweep).values()
        # the program keeps the store first, a plain row or a +1, dd = 0 reuse
        firsts = first_writes(columns)
        assert len(firsts) == sum(len(kept) for *_, kept in columns)
        assert all(sd == 0 and cf == 1 for _, _, (_, _, sd, cf, _) in firsts)

    def test_snapshots_match_reference(self, monkeypatch):
        """On random 2-row sets and 3-row specs on both boards, with
        negative signs in most sweeps and the empty profile's always +1."""
        built = built_sweeps(monkeypatch)
        for spec in random_three_row_specs(1729, 8):
            TestPackedSweep.check(spec, rectangle(3), 6)
            TestPackedSweep.check(spec, trapezoid3(), 7)
        rng = random.Random(1729)
        for _ in range(8):
            shifts = {s for s in range(-3, 4) if rng.random() < 0.4}
            TestPackedSweep.check(ShiftSpec.two_rows(shifts), rectangle(2), 12)
        assert len(built) == 24
        assert sum(-1 in planned_signs(s).values() for s in built) >= 16

    def test_planned_tables_change_basis_diagonally(self):
        """The plan signs every table it walks exactly once, by one sign
        per profile, on 3-row specs on both boards and 2-row sets, past
        the sizes a reference sweep can check."""
        negative = 0
        for spec in random_three_row_specs(577, 20):
            tiles = enumerate_tiles(spec)
            for board in (rectangle(3), trapezoid3()):
                negative += -1 in planned_signs(dpmod._Sweep(tiles, board, 12)).values()
        rng = random.Random(577)
        for _ in range(20):
            tiles = enumerate_tiles(ShiftSpec.two_rows(
                {s for s in range(-3, 4) if rng.random() < 0.4}))
            negative += -1 in planned_signs(dpmod._Sweep(tiles, rectangle(2), 40)).values()
        assert negative >= 50


def first_writes(columns) -> list[tuple[int, int, tuple]]:
    """(column, target, first op) for every target that each column of
    TestLiveProfiles.columns builds, replaying its table set's program
    over the profiles kept before it: a target whose base is not kept,
    or that has none, takes all its rows, and the first op whose source
    is present writes first.  Checks that the replay builds exactly the
    kept profiles."""
    sweep = columns[0][0]
    sources: set[int] = {0}
    out = []
    for c, (_, blocked, kept) in enumerate(columns, 1):
        built: set[int] = set()
        for m2, base, ops, rows in sweep._programs[blocked]:
            if m2 not in sweep.live[c]:
                continue
            present = [op for op in (ops if base in sweep.live[c] else rows)
                       if op[0] in (built if op[4] else sources)]
            if present:
                built.add(m2)
                out.append((c, m2, present[0]))
        assert built == set(kept), c
        sources = built
    return out


class TestColumnPrograms:
    """Each table set's program, planned once with the tables: a target
    built from an earlier one, moved, plus its other rows, gives the
    run the target's own rows give."""

    def test_menage_builds_p_from_q(self):
        sweep = dpmod._Sweep(enumerate_tiles(ShiftSpec.two_rows({0, 1})), rectangle(2), 10)
        (q, _, q_ops, _), (p, base, p_ops, _) = sweep._programs[False, False]
        assert (p, q, base) == (0, 2, 2)
        assert q_ops == [(0, 1, 0, 1, False), (2, 0, 0, -1, False)]  # Q' = xP - Q
        assert p_ops == [(2, 0, 0, 1, True), (0, 0, 0, -1, False)]  # P' = Q' - P

    def test_super_latin_reuses_most_targets(self, monkeypatch):
        super_latin = ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1})
        columns = TestLiveProfiles.columns(
            enumerate_tiles(super_latin), rectangle(3), 10, monkeypatch)
        sweep = columns[0][0]
        reused = unkept = 0
        for c, (_, blocked, kept) in enumerate(columns, 1):
            for m2, base, _, _ in sweep._programs[blocked]:
                if m2 in kept and base is not None:
                    reused += base in sweep.live[c]
                    unkept += base not in sweep.live[c]
        assert reused >= 400
        assert unkept  # some targets fall back to all their rows
        first_writes(columns)

    def test_reuse_moves_and_signs(self):
        """The trapezoid's programs move bases by a slot offset and
        negate some, and rectangles of both ring sizes have one table
        set, the trapezoid three."""
        moves = set()
        for spec, board, sets in ((TRAPEZOID_SPEC, trapezoid3(), 3),
                                  (ShiftSpec.two_rows({-2, 0, 3}), rectangle(2), 1)):
            sweep = dpmod._Sweep(enumerate_tiles(spec), board, 17)
            assert len(sweep._programs) == sets
            for program in sweep._programs.values():
                moves |= {(dd > 0, e) for ops in (entry[2] for entry in program)
                          for _, _, dd, e, made in ops if made}
        assert {(False, 1), (False, -1), (True, 1)} <= moves

    def test_planned_once_per_table_set(self, monkeypatch):
        calls = []
        real = dpmod._program
        monkeypatch.setattr(dpmod, "_program", lambda rows: calls.append(rows) or real(rows))
        super_latin = ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1})
        for spec, board in ((super_latin, rectangle(3)), (TRAPEZOID_SPEC, trapezoid3()),
                            (ShiftSpec.two_rows({0, 1}), rectangle(2))):
            calls.clear()
            sweep = dpmod._Sweep(enumerate_tiles(spec), board, 12)
            sets = {board.blocked_flags(c) for c in range(12)}
            assert len(calls) == len(sets) and set(sweep._programs) == sets
            dist = {0: dpmod._Run([1])}
            for n in range(1, 13):
                dist = sweep.advance(dist, board.blocked_flags(n - 1), live=sweep.live[n])
            assert len(calls) == len(sets) and 0 in dist


PRIME = 2 ** 61 - 1


def fingerprint(tiles: Sequence[Tile], board: BoardShape, n_max: int) -> int:
    """Checks every packed snapshot of a sweep against a residue sweep
    mod 2^61 - 1, and returns how many snapshots it compared.

    The residue sweep keeps one residue per profile, every profile
    reached, and applies the sweep's planned table rows one by one,
    with no program, packing or runs: row (m2, kd, sd, cf) adds cf *
    z^kd * w^sd times its source's residue.  So the empty profile holds
    sum c z^key w^slot over its packed terms (its sign is +1), which is
    P_n at a point.  On two rows the key is the x exponent: x = z.  On
    three the key is a23 + S*a1 and the slot p + S*q, and exact cover
    gives a_r = cells_r - a23 - a1 + (p or q) in the class layout,
    cells_r - a23 - (p or q) in the incidence layout: with e = 1 or -1
    for the two, x2 = w^e, x3 = w^(e*S), x23 = z*x2*x3 and x1 = z^S, times
    x2*x3 in the class layout, give the residue times x2^cells1
    x3^cells2.  The packed side evaluates each P_n from dense_run or
    key_groups, monomial by monomial, at that point."""
    rng = random.Random(PRIME)
    z, w = rng.randrange(2, PRIME), rng.randrange(2, PRIME)
    residues = {0: 1}
    column = compared = 0
    for n, snapshot in dpmod.packed_snapshots(tiles, board, n_max):
        sweep = snapshot._sweep
        while column < n:
            nxt: dict[int, int] = {}
            for mask, r in residues.items():
                for m2, kd, sd, cf in sweep._tables[mask, board.blocked_flags(column)]:
                    step = cf * pow(z, kd, PRIME) * pow(w, sd, PRIME) * r
                    nxt[m2] = (nxt.get(m2, 0) + step) % PRIME
            residues = nxt
            column += 1
        want = residues.get(0, 0)
        if board.rows == 2:
            first, values = snapshot.dense_run()
            got = sum(v * pow(z, first + i, PRIME) for i, v in enumerate(values))
        else:
            x2 = pow(w, 1 if sweep.class_layout else -1, PRIME)
            x3 = pow(x2, sweep.stride, PRIME)
            x23 = z * x2 * x3 % PRIME
            x1 = pow(z, sweep.stride, PRIME) * (x2 * x3 if sweep.class_layout else 1)
            _, cells1, cells2 = board.row_lengths(n)
            want = want * pow(x2, cells1, PRIME) * pow(x3, cells2, PRIME)
            got = 0
            for a1, a23, rows in snapshot.key_groups():
                for a3, a2, cs in rows:
                    run = 0
                    for c in reversed(cs):
                        run = (run * x2 + c) % PRIME
                    got += (run * pow(x2, a2, PRIME) * pow(x3, a3, PRIME)
                            * pow(x1, a1, PRIME) * pow(x23, a23, PRIME))
        assert (got - want) % PRIME == 0, n
        compared += 1
    return compared


class TestFingerprint:
    """Every packed P_n against the residue sweep over the same planned
    rows, at sizes far past brute force and the reference sweep: it
    checks the programs, packing, runs and signs at every n."""

    def test_random_specs(self):
        for spec in random_three_row_specs(2024, 20):
            assert fingerprint(enumerate_tiles(spec), rectangle(3), 6) == 7
            assert fingerprint(enumerate_tiles(spec), trapezoid3(), 7) == 5

    @pytest.mark.parametrize("cells,weight", HAND_TAGGED, ids=HAND_TAGGED_IDS)
    def test_incidence_layout(self, cells, weight):
        _, tiles = hand_tagged(cells, weight)
        assert fingerprint(tiles, rectangle(3), 10) == 11

    def test_super_latin_to_14(self):
        super_latin = ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1})
        assert fingerprint(enumerate_tiles(super_latin), rectangle(3), 14) == 15

    def test_trapezoid_to_24(self):
        assert fingerprint(enumerate_tiles(TRAPEZOID_SPEC), trapezoid3(), 24) == 22

    def test_two_rows_to_300(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({-2, 0, 3}))
        assert fingerprint(tiles, rectangle(2), 300) == 301


class TestBalancedDigits:
    @staticmethod
    def pack(digits: dict[int, int], bits: int) -> int:
        return sum(d << (bits * s) for s, d in digits.items())

    def decode(self, digits: dict[int, int], bits: int) -> dict[int, int]:
        """The nonzero digits, the same from rows of every width; each
        row starts and ends at a nonzero digit inside its width, rows
        come in strictly increasing order, and no slot is reported
        twice."""
        v = self.pack(digits, bits)
        found = []
        for width in (1, 3, 64):
            got, rows, nonzero = {}, [], 0
            for r, i, ds in balanced_digits(v, bits, width):
                assert ds[0] and ds[-1] and 0 <= i and i + len(ds) <= width
                got.update((r * width + i + j, d) for j, d in enumerate(ds) if d)
                rows.append(r)
                nonzero += sum(1 for d in ds if d)
            assert all(a < b for a, b in zip(rows, rows[1:]))
            assert nonzero == len(got)
            found.append(got)
        assert found[0] == found[1] == found[2]
        return found[0]

    def test_zero(self):
        for bits in (8, 16, 120):
            for width in (1, 3, 64):
                assert list(balanced_digits(0, bits, width)) == []

    def test_negative_digit_below_zero_slots(self):
        for bits in (8, 24):
            for digits in ({0: -3}, {2: -1}, {0: 5, 1: -7, 4: 1}, {1: -1, 6: 2}):
                assert self.decode(digits, bits) == digits

    def test_negative_top_digit(self):
        for bits in (8, 32):
            for digits in ({0: 9, 3: -2}, {0: -1, 1: -1, 2: -1}, {5: -(1 << (bits - 1)) + 1}):
                assert self.decode(digits, bits) == digits

    def test_extreme_digits(self):
        for bits in (8, 16, 56):
            top = (1 << (bits - 1)) - 1
            for digits in ({0: top, 1: -top}, {0: -top, 1: top, 2: -top}, {3: top}):
                assert self.decode(digits, bits) == digits

    def test_random_round_trip(self):
        rng = random.Random(8080)
        for _ in range(200):
            bits = rng.choice((8, 16, 48, 112))
            top = (1 << (bits - 1)) - 1
            digits = {
                s: rng.choice((-1, 1)) * rng.randint(1, top)
                for s in range(rng.randrange(1, 60))
                if rng.random() < 0.3
            }
            assert self.decode(digits, bits) == digits


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
                assert table.poly(n) == replay_series(spec, rectangle(2), n)

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
            assert table.poly(n) == replay_series(spec, rectangle(3), n)


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
            if spec != mirrored(spec):
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
            assert table.poly(n) == replay_series(self.SPEC, trapezoid3(), n)

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
        assert kernel2({0, 1}).den[0].is_one()
        assert kernel2({-1, 2}).den[0].is_one()

    def test_empty_shift_set(self):
        # no forbidden shifts: P_n = x^n, kernel 1/(1 - x X)
        kern = kernel2(set())
        assert kern.canonical_str() == "(1) / (1 + (-x)*X)"


class TestLongBoards:
    def test_two_row_sweep_past_16_bits(self):
        # nothing in the packed layout limits the board length
        tiles = enumerate_tiles(ShiftSpec.two_rows({0}))
        long = weight_snapshots(tiles, rectangle(2), 1 << 16)
        short = weight_snapshots(tiles, rectangle(2), 3)
        assert [next(long) for _ in range(3)] == [next(short) for _ in range(3)]
