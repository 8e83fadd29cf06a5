"""Umbral operators: hand-computed monomial images, linearity, and
agreement with direct injection counting on tiny boards."""

from __future__ import annotations

import math
import random

import pytest

import latinrect.umbra as umbra
from latinrect.dp import Snapshot, _Run, _Sweep, rectangle
from latinrect.poly import RING_2ROW, RING_3ROW
from latinrect.tiles import ShiftSpec, enumerate_tiles
from latinrect.umbra import (
    UmbralKind,
    factorial_table,
    umbral_eval,
    umbral_eval_2row,
    umbral_eval_3row,
    umbral_eval_trapezoid,
)

X = RING_2ROW.var("x")
X1, X2, X3, X23 = (RING_3ROW.var(v) for v in ("x1", "x2", "x3", "x23"))


def rand_poly(ring, rng, deg=3, terms=5):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(deg + 1) for _ in ring.variables)
        out = out + ring.poly({exps: rng.randrange(-9, 10)})
    return out


class TestHelpers:
    def test_factorial_table(self):
        assert factorial_table(5) == (1, 1, 2, 6, 24, 120)

    def test_factorial_table_grows_and_slices(self):
        # one shared table: a small request after a large one is a prefix
        assert factorial_table(40) == tuple(math.factorial(i) for i in range(41))
        assert factorial_table(3) == (1, 1, 2, 6)
        assert factorial_table(0) == (1,)
        with pytest.raises(ValueError):
            factorial_table(-1)


class TestTwoRow:
    def test_monomials_to_factorials(self):
        for k in range(6):
            assert umbral_eval_2row(X**k) == math.factorial(k)

    def test_derangement_polynomial(self):
        # (x-1)^n evaluates to the n-th derangement number
        for n, want in enumerate([1, 0, 1, 2, 9, 44, 265], start=0):
            assert umbral_eval_2row((X - 1) ** n) == want

    def test_wrong_ring_rejected(self):
        with pytest.raises(Exception):
            umbral_eval_2row(X1)


class TestThreeRow:
    def test_monomial_images(self):
        # x1^a1 x2^a2 x3^a3 x23^a23 -> C(n-a1, a23) a23! a2! a3!
        assert umbral_eval_3row(RING_3ROW.one(), 4) == 1
        assert umbral_eval_3row(X2**3, 4) == 6
        assert umbral_eval_3row(X3**2 * X2, 4) == 2
        assert umbral_eval_3row(X23, 2) == 2
        assert umbral_eval_3row(X1 * X23, 2) == 1
        assert umbral_eval_3row(X1**2 * X23, 2) == 0
        assert umbral_eval_3row(X23**2, 4) == 12  # C(4,2) * 2!

    def test_free_board_total(self):
        # empty spec: P_n = (x2 x3)^n, rows 1 and 2 each a free permutation
        for n in range(5):
            assert umbral_eval_3row((X2 * X3) ** n, n) == math.factorial(n) ** 2

    def test_n_independent_except_x1_x23(self):
        # only the C(n-a1, a23) factor sees n
        assert umbral_eval_3row(X2**2 * X3, 4) == umbral_eval_3row(X2**2 * X3, 9)
        assert umbral_eval_3row(X1 * X23, 4) != umbral_eval_3row(X1 * X23, 9)

    def test_exponent_past_n_rejected(self):
        # x2 and x3 count free row cells, so no exponent exceeds n
        for op in (umbral_eval_3row, umbral_eval_trapezoid):
            for p in (X2**5, X3**3, X1 * X2 * X3**4 + X2):
                with pytest.raises(ValueError, match="exponents up to n"):
                    op(p, 2)
        # exponents equal to n are still in the domain
        assert umbral_eval_3row(X2**2 * X3**2, 2) == 2 * 2
        assert umbral_eval_trapezoid(X2**2 * X3**2, 2) == 6 * 12  # 3!/1! * 4!/2!


class TestHorner:
    """The 2-row operator's product tree, fed WeightPolynomials that
    start at x^0, against the plain sum of c_k * k!."""

    @staticmethod
    def plain(p):
        return sum(c * math.factorial(k) for (k,), c in p.terms())

    def test_zero_and_constants(self):
        assert umbral_eval_2row(RING_2ROW.zero()) == 0
        for c in (1, -1, 7, -(1 << 300)):
            assert umbral_eval_2row(RING_2ROW.const(c)) == c

    def test_missing_degrees(self):
        for exps in ({5: 3}, {0: 2, 7: -1}, {1: 1, 4: 9, 9: -5}, {30: 1, 2: 4}):
            p = RING_2ROW.poly({(k,): c for k, c in exps.items()})
            assert umbral_eval_2row(p) == self.plain(p)

    def test_random_big_coefficients(self):
        rng = random.Random(6047)
        for _ in range(20):
            deg = rng.randrange(1, 120)
            terms = {}
            for k in range(deg + 1):
                if rng.random() < 0.7:
                    bits = rng.randrange(200, 700)
                    terms[(k,)] = rng.choice((1, -1)) * rng.getrandbits(bits)
            p = RING_2ROW.poly(terms)
            assert umbral_eval_2row(p) == self.plain(p)


class TestTwoRowSnapshot:
    """The 2-row operator on a dp.Snapshot, the form run_family passes:
    runs that start at x^first, against the plain sum of c_k * k!."""

    SWEEP = _Sweep(enumerate_tiles(ShiftSpec.two_rows(set())), rectangle(2), 0)

    def count(self, first: int, cs: list[int]) -> int:
        return umbral_eval_2row(Snapshot(self.SWEEP, _Run(cs, first), (0, 0)))

    @staticmethod
    def plain(first: int, cs: list[int]) -> int:
        fact, total = math.factorial(first), 0
        for k, c in enumerate(cs, first):
            total += c * fact
            fact *= k + 1
        return total

    def test_runs_against_plain_sum(self):
        rng = random.Random(3001)
        lengths = {0, 1, 2, 3, 1100}
        lengths |= {(1 << j) + d for j in range(1, 11) for d in (-1, 0, 1)}
        # interleaved, so the shared product table is read after it grew
        cases = [(first, n) for first in (0, 1, 5, 37) for n in sorted(lengths)]
        rng.shuffle(cases)
        for first, n in cases:
            cs = [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 400))
                  for _ in range(n)]
            assert self.count(first, cs) == self.plain(first, cs), (first, n)

    def test_table_is_shared_by_every_first(self):
        """The product table is indexed by absolute k: a run that starts
        at x^first reads the levels a run from x^0 built, and only a run
        reaching past the table's capacity grows it."""
        self.count(0, [1] * 1100)
        table = umbra._lefts
        cap = 1 << len(table)
        for first in (1, 5, 37, 600):
            for n in (1, 2, 300, cap - first):
                cs = [k - n // 2 for k in range(n)]
                assert self.count(first, cs) == self.plain(first, cs)
                assert umbra._lefts is table
        self.count(cap, [1])
        assert len(umbra._lefts) == len(table) + 1


class TestThreeRowShortfalls:
    """The shared 3-row loop against each operator's closed form,
    written out separately here."""

    def test_random_polys(self):
        rng = random.Random(414)
        f = math.factorial
        for _ in range(40):
            p = rand_poly(RING_3ROW, rng, deg=4, terms=6)
            n = rng.randrange(4, 9)  # no exponent past n, the operators' domain
            rect = trap = 0
            for (a1, a2, a3, a23), c in p.terms():
                ways = math.comb(n - a1, a23) * f(a23) if a23 <= n - a1 else 0
                rect += c * ways * f(a2) * f(a3)
                trap += c * ways * f(a2 + 1) * f(a3 + 2) // 2
            assert umbral_eval_3row(p, n) == rect
            assert umbral_eval_trapezoid(p, n) == trap


class TestTrapezoid:
    def test_monomial_images(self):
        # x3^a3 picks up (a3+2)!/2!: row 2 is two cells shorter
        assert umbral_eval_trapezoid(X3, 5) == 3
        assert umbral_eval_trapezoid(X3**2, 5) == 12
        assert umbral_eval_trapezoid(X2, 5) == 2
        assert umbral_eval_trapezoid(RING_3ROW.one(), 5) == 1
        assert umbral_eval_trapezoid(X1 * X23, 3) == 2  # C(2,1) * 1!

    def test_reduces_to_3row_shape(self):
        # with no x2/x3/x23 content the two operators coincide
        assert umbral_eval_trapezoid(X1**2, 7) == umbral_eval_3row(X1**2, 7)


class TestLinearity:
    @pytest.mark.parametrize("kind,n", [
        (UmbralKind.TWO_ROW, 0),
        (UmbralKind.THREE_ROW_RECTANGLE, 5),
        (UmbralKind.THREE_ROW_TRAPEZOID, 6),
    ])
    def test_additive_and_scalar(self, kind, n):
        ring = RING_2ROW if kind is UmbralKind.TWO_ROW else RING_3ROW
        rng = random.Random(hash(kind.value) & 0xFFFF)
        for _ in range(20):
            p = rand_poly(ring, rng)
            q = rand_poly(ring, rng)
            c = rng.randrange(-6, 7)
            assert umbral_eval(kind, p + q, n) == \
                umbral_eval(kind, p, n) + umbral_eval(kind, q, n)
            assert umbral_eval(kind, c * p, n) == c * umbral_eval(kind, p, n)

    def test_dispatcher_matches_direct(self):
        p = (X - 1) ** 4
        assert umbral_eval(UmbralKind.TWO_ROW, p, 4) == umbral_eval_2row(p)
        q = X2 * X3 - X23
        assert umbral_eval(UmbralKind.THREE_ROW_RECTANGLE, q, 3) == \
            umbral_eval_3row(q, 3)
        assert umbral_eval(UmbralKind.THREE_ROW_TRAPEZOID, q, 3) == \
            umbral_eval_trapezoid(q, 3)
