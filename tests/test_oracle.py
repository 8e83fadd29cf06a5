"""Brute-force oracles against frozen small values and against each
other.  The frozen numbers here are the reference points the engine is
later judged by, so they come from direct enumeration only: the
counting oracles are checked against witness enumerators that build
every object they count."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from latinrect import oracle
from latinrect.oracle import (
    OracleLimitError,
    count_generalized_perms,
    count_generalized_perms_banded,
    count_glr3,
    count_latin3_cycle_type,
    count_latin_triangle,
    count_tilings,
    count_trapezoid3,
)
from latinrect.tiles import ShiftSpec, enumerate_tiles, ring_for
from witnesses import (
    I_MINUS_PI,
    PI_MINUS_I,
    format_rows,
    iter_generalized_perms,
    iter_glr3,
    iter_latin_triangles,
    iter_trapezoid3,
    weighted_tiling_sum,
)

DERANGEMENTS = [0, 1, 2, 9, 44, 265, 1854, 14833, 133496]
MENAGE = [0, 0, 1, 3, 16, 96, 675, 5413, 48800, 488592]


class TestTwoRows:
    def test_derangements(self):
        for n, want in enumerate(DERANGEMENTS, start=1):
            assert count_generalized_perms({0}, n) == want

    def test_menage(self):
        for n, want in enumerate(MENAGE[:8], start=1):
            assert count_generalized_perms({0, 1}, n) == want

    def test_empty_shift_set(self):
        assert count_generalized_perms(set(), 4) == 24

    def test_wide_set_zero_until_n8(self):
        wide = set(range(-3, 4))
        for n in range(1, 8):
            assert count_generalized_perms(wide, n) == 0
        assert count_generalized_perms(wide, 8) == 1
        assert count_generalized_perms(wide, 9) == 16

    def test_iterated_perms_avoid_shifts(self):
        for pi in iter_generalized_perms({0, 1}, 6):
            assert sorted(pi) == [1, 2, 3, 4, 5, 6]
            assert all(i - v not in (0, 1) for i, v in enumerate(pi, start=1))

    def test_conventions_mirror_counts(self):
        # the other sign convention is the mirrored set -S
        for shifts in ({1}, {0, 2}, {-1, 1, 2}):
            for n in range(1, 7):
                a = count_generalized_perms(shifts, n)
                b = count_generalized_perms({-s for s in shifts}, n)
                assert a == b

    def test_conventions_differ_in_witnesses(self):
        a = set(iter_generalized_perms({1}, 4, I_MINUS_PI))
        b = set(iter_generalized_perms({1}, 4, PI_MINUS_I))
        assert a != b and len(a) == len(b)

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            count_generalized_perms({0}, oracle.MAX_N_TWO_ROWS + 1)

    def test_negative_n_rejected(self):
        for count in (count_generalized_perms, count_generalized_perms_banded):
            with pytest.raises(ValueError, match="negative board size"):
                count({0}, -1)


class TestBandedRoute:
    def test_matches_backtracking(self):
        for shifts in ({0}, {0, 1}, {-1, 1}, {-2, 0, 3}, set()):
            for n in range(0, 9):
                if n >= 1:
                    assert count_generalized_perms_banded(shifts, n) == \
                        count_generalized_perms(shifts, n)

    def test_reaches_past_backtracking_cap(self):
        # alternating-sum formula for derangements as a third route
        import math

        for n in (15, 20):
            want = sum((-1) ** k * math.factorial(n) // math.factorial(k)
                       for k in range(n + 1))
            assert count_generalized_perms_banded({0}, n) == want


class TestThreeRows:
    def test_latin_rectangles(self):
        for n, want in enumerate([0, 0, 2, 24, 552, 21280], start=1):
            assert count_glr3({0}, {0}, {0}, n) == want

    def test_empty_sets_square_factorial(self):
        import math

        for n in range(1, 6):
            assert count_glr3(set(), set(), set(), n) == math.factorial(n) ** 2

    def test_cycle_type_route_agrees(self):
        for n in range(1, 7):
            assert count_latin3_cycle_type(n) == count_glr3({0}, {0}, {0}, n)

    def test_cycle_type_route_at_the_edges(self):
        # the empty rectangle is one reduced rectangle: one empty middle row
        assert count_latin3_cycle_type(0) == 1
        with pytest.raises(ValueError, match="negative board size"):
            count_latin3_cycle_type(-1)

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            count_glr3({0}, {0}, {0}, oracle.MAX_N_THREE_ROWS + 1)


class TestTrapezoid:
    def test_frozen_prefix(self):
        for n, want in enumerate([1, 6, 68, 1670, 67295], start=3):
            assert count_trapezoid3(n) == want

    def test_iter_matches_count(self):
        for n in range(3, 8):
            assert sum(1 for _ in iter_trapezoid3(n)) == count_trapezoid3(n)

    def test_rows_have_trapezoid_shape(self):
        for rows in iter_trapezoid3(4):
            assert [len(r) for r in rows] == [4, 3, 2]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            count_trapezoid3(2)


class TestTriangle:
    def test_frozen_prefix(self):
        for n, want in enumerate([1, 0, 4, 236], start=3):
            assert count_latin_triangle(n) == want

    def test_exact_n5_set(self):
        got = {format_rows(t) for t in iter_latin_triangles(5)}
        assert got == {
            "1 2 3 4 5/3 4 5 1/5 1 2/2 3/4",
            "1 2 3 4 5/4 1 5 2/5 3 1/2 4/3",
            "1 2 3 4 5/4 5 1 2/2 3 4/5 1/3",
            "1 2 3 4 5/5 1 2 3/4 5 1/3 4/2",
        }

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            count_latin_triangle(oracle.MAX_N_TRIANGLE + 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="triangles start at n=1"):
            count_latin_triangle(0)


class TestTilingEnumeration:
    def test_hand_counts(self):
        t0 = enumerate_tiles(ShiftSpec.two_rows({0}))
        t01 = enumerate_tiles(ShiftSpec.two_rows({0, 1}))
        # per column: both singletons or the domino
        assert count_tilings(t0, [2, 2]) == 4
        assert count_tilings(t0, [3, 3]) == 8
        # the skew domino fits once on two columns
        assert count_tilings(t01, [2, 2]) == 5

    def test_weighted_sum_fixed_points(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({0}))
        ring = ring_for(2)
        x = ring.var("x")
        for n in range(0, 5):
            assert weighted_tiling_sum(tiles, [n, n], ring) == (x - 1) ** n

    def test_empty_board(self):
        tiles = enumerate_tiles(ShiftSpec.two_rows({0}))
        assert count_tilings(tiles, [0, 0]) == 1

    def test_format_rows(self):
        assert format_rows([[1, 2], [3]]) == "1 2/3"


def _random_shifts(rng: random.Random, lo: int, hi: int, most: int) -> set[int]:
    return {rng.randint(lo, hi) for _ in range(rng.randint(1, most))}


class TestCountersAgainstWitnesses:
    """Each counter against a route that builds every object it counts,
    or against a second counting method."""

    def test_two_row_both_conventions(self):
        rng = random.Random(61)
        for _ in range(12):
            shifts = _random_shifts(rng, -3, 3, 4)
            for n in range(1, 9):
                # pi(i) - i avoiding S is i - pi(i) avoiding -S
                for convention, signed in ((I_MINUS_PI, shifts),
                                           (PI_MINUS_I, {-s for s in shifts})):
                    want = sum(1 for _ in iter_generalized_perms(shifts, n, convention))
                    assert count_generalized_perms(signed, n) == want, \
                        (shifts, n, convention)

    def test_two_row_against_rook_polynomial(self):
        rng = random.Random(62)
        for _ in range(20):
            shifts = _random_shifts(rng, -4, 4, 5)
            for n in range(1, oracle.MAX_N_TWO_ROWS + 1):
                assert count_generalized_perms(shifts, n) == \
                    count_generalized_perms_banded(shifts, n), (shifts, n)

    def test_glr3_random_specs(self):
        # negative s23 shifts are the ones that need the top-row lookahead
        rng = random.Random(63)
        for _ in range(10):
            sets = [_random_shifts(rng, -2, 2, 3) for _ in range(3)]
            for n in range(1, 7):
                want = sum(1 for _ in iter_glr3(*sets, n))
                assert count_glr3(*sets, n) == want, (sets, n)

    def test_glr3_lookahead_past_the_middle_row(self):
        # lookahead 2 at n <= 2: every top cell waits for the last middle cell
        for sets in (({0}, set(), {-2}), ({1}, {0}, {-2, -1}), (set(), {2}, {-2, 2})):
            for n in range(1, 6):
                want = sum(1 for _ in iter_glr3(*sets, n))
                assert count_glr3(*sets, n) == want, (sets, n)

    def test_latin_rectangles_n8(self):
        assert count_glr3({0}, {0}, {0}, 8) == count_latin3_cycle_type(8) == 70299264

    def test_trapezoid_n9_published(self):
        # the n=9 term of the fifteen published trapezoid counts
        assert count_trapezoid3(9) == 285667270

    def test_triangles(self):
        for n in range(1, 7):
            assert count_latin_triangle(n) == sum(1 for _ in iter_latin_triangles(n))


class TestPackedPermanent:
    """The last-row DP packs one count per used-value set into an int;
    these drive it directly through _count_injective."""

    def test_full_rows_fill_the_widest_fields(self):
        # n!/(n-c)! prefixes of length c: n! at c = n is the largest field
        # sum the width has to hold
        n = oracle.MAX_N_TWO_ROWS
        full = (1 << n + 1) - 2
        for c in range(n + 1):
            want = math.factorial(n) // math.factorial(n - c)
            assert oracle._count_injective(n, [full] * c) == want, c

    def test_a_row_with_no_value_gives_zero(self):
        full = (1 << 5) - 2
        assert oracle._count_injective(4, [full, 0, full]) == 0
        assert oracle._count_injective(4, [0]) == 0

    def test_no_values_one_empty_assignment(self):
        assert oracle._count_injective(0, []) == 1

    def test_random_masks_against_permutations(self):
        rng = random.Random(64)
        for n in range(1, 8):
            for _ in range(6):
                allowed = [rng.getrandbits(n) << 1 for _ in range(rng.randint(1, n))]
                want = sum(all(am >> v & 1 for am, v in zip(allowed, perm))
                           for perm in itertools.permutations(range(1, n + 1), len(allowed)))
                assert oracle._count_injective(n, allowed) == want, (n, allowed)
