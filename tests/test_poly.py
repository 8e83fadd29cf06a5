"""Ring arithmetic, the fraction-free solver with its keyed exact
division, and rational kernels.  Solver results are checked against an
independent Fraction-based elimination on randomized integer systems,
and against cofactor expansion on randomized polynomial ones.  A
kernel's denominator must have the constant 1 as its part free of the
series variable; every other one is refused."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from latinrect import poly
from latinrect.poly import (
    RING_2ROW,
    RING_3ROW,
    RING_KERNEL,
    PolynomialDivisionError,
    PolyRing,
    RationalKernel,
    RingMismatchError,
    SingularSystemError,
    WeightPolynomial,
    bareiss_determinant,
    solve_linear_system,
)

X = RING_2ROW.var("x")
X_K, BIG_X = RING_KERNEL.var("x"), RING_KERNEL.var("X")


def rand_poly(ring: PolyRing, rng: random.Random, deg: int = 3, terms: int = 4):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(deg + 1) for _ in ring.variables)
        out = out + ring.poly({exps: rng.randrange(-9, 10)})
    return out


class TestRing:
    def test_variables_frozen_and_indexed(self):
        assert RING_3ROW.variables == ("x1", "x2", "x3", "x23")
        assert RING_3ROW.index("x23") == 3
        with pytest.raises(RingMismatchError):
            RING_3ROW.index("y")

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            PolyRing(("x", "x"))

    def test_empty_variable_name_rejected(self):
        with pytest.raises(ValueError, match="bad variable names"):
            PolyRing(("x", ""))

    def test_bad_exponent_vectors_rejected(self):
        for exps in ((-1,), (1, 0), ()):
            with pytest.raises(ValueError, match="bad exponent vector"):
                WeightPolynomial(RING_2ROW, {exps: 1})

    def test_constructors(self):
        assert RING_2ROW.zero().is_zero()
        assert RING_2ROW.one().is_one()
        assert RING_2ROW.const(0).is_zero()
        assert RING_2ROW.const(7).constant_term() == 7
        assert RING_2ROW.var("x").degree("x") == 1

    def test_cross_ring_operations_rejected(self):
        with pytest.raises(RingMismatchError):
            RING_2ROW.var("x") + RING_3ROW.var("x1")


class TestArithmetic:
    def test_binomial_square(self):
        assert (X + 1) ** 2 == X**2 + 2 * X + 1
        assert (X - 1) * (X + 1) == X**2 - 1

    def test_int_mixing(self):
        assert 1 + X == X + 1
        assert 2 - X == -(X - 2)
        assert 3 * X == X * 3

    def test_zero_terms_dropped(self):
        p = X - X
        assert p.is_zero() and len(p) == 0

    def test_truth_is_having_a_term(self):
        assert not RING_2ROW.zero()
        assert RING_2ROW.var("x")
        assert RING_2ROW.const(-1)

    def test_ring_axioms_randomized(self):
        rng = random.Random(20260816)
        for _ in range(40):
            a = rand_poly(RING_3ROW, rng)
            b = rand_poly(RING_3ROW, rng)
            c = rand_poly(RING_3ROW, rng)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (b + c) == (a + b) + c

    def test_pow(self):
        assert X**0 == RING_2ROW.one()
        assert (X - 1) ** 3 == X**3 - 3 * X**2 + 3 * X - 1
        with pytest.raises(ValueError):
            X ** (-1)

    def test_unhashable(self):
        # equal to a plain int, so no hash can agree with ==
        assert RING_2ROW.const(3) == 3
        with pytest.raises(TypeError):
            {RING_2ROW.const(3), 3}


class TestCanonicalStr:
    def test_descending_lex(self):
        assert (X**2 - 3 * X + 1).canonical_str() == "x^2 - 3*x + 1"
        assert RING_2ROW.zero().canonical_str() == "0"
        assert RING_2ROW.const(-5).canonical_str() == "-5"

    def test_multivariate(self):
        r = RING_3ROW
        p = r.var("x2") * r.var("x3") - r.var("x23") + 2 * r.var("x1")
        assert p.canonical_str() == "2*x1 + x2*x3 - x23"


def divide_keys(num: WeightPolynomial, den: WeightPolynomial, bound: int) -> WeightPolynomial:
    """num / den by _divide_keys, on keys encoded as bareiss_determinant
    encodes them: stride 2*bound + 1, and at least one digit per key."""
    stride = 2 * bound + 1
    quot = poly._divide_keys(poly._encode(num, stride), poly._encode(den, stride),
                             stride, bound, max(num.ring.nvars, 1))
    return poly._decode(quot, num.ring, stride)


class TestExactDivide:
    """The exact division that every Bareiss step runs on encoded keys."""

    @pytest.mark.parametrize("ring", [RING_2ROW, RING_3ROW, RING_KERNEL],
                             ids=["2row", "3row", "kernel"])
    def test_product_roundtrip_randomized(self, ring):
        rng = random.Random(977)
        for _ in range(30):
            a = rand_poly(ring, rng)
            b = rand_poly(ring, rng)
            if b.is_zero():
                continue
            assert divide_keys(a * b, b, 3) == a  # rand_poly's degree bound is 3

    @pytest.mark.parametrize("num, den", [
        (X + 1, X),                     # a term below den's lowest key
        (RING_KERNEL.one(), BIG_X**4),  # negative key -20 whose digits (0, 1) fit
        (BIG_X, X_K),                   # X / x borrows across coordinates
        (X_K**4, X_K),                  # the quotient x^3 is above the bound
        (3 * X_K, 2 * X_K),             # a coefficient remainder
    ], ids=["negative-key", "negative-key-wraps", "borrow", "coordinate-above", "coefficient"])
    def test_non_divisible_raises(self, num, den):
        with pytest.raises(PolynomialDivisionError):
            divide_keys(num, den, 2)

    def test_ring_of_constants(self):
        consts = PolyRing(())
        assert divide_keys(consts.const(6), consts.const(-3), 0) == consts.const(-2)
        with pytest.raises(PolynomialDivisionError):
            divide_keys(consts.const(7), consts.const(2), 0)


def frac_solve(rows: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """Reference Gaussian elimination over Q; None if singular."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


class TestSolver:
    def test_determinant_vs_fractions(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            mat = [[RING_2ROW.const(v) for v in row] for row in rows]
            zeros = [RING_2ROW.zero()] * n
            det = bareiss_determinant(mat, zeros)[1].constant_term()
            ref = frac_det(rows)
            assert det == ref

    def test_solver_vs_fractions(self):
        rng = random.Random(31337)
        solved = 0
        while solved < 40:
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randrange(-5, 6) for _ in range(n)]
            ref = frac_solve(rows, rhs)
            vec = [RING_2ROW.const(v) for v in rhs]
            if ref is None:
                for i in range(n):
                    with pytest.raises(SingularSystemError):
                        solve_linear_system(const_matrix(swap_columns(rows, i)), vec)
                continue
            for i, want in enumerate(ref):
                # unknown i is unknown 0 once columns 0 and i trade places
                swapped = swap_columns(rows, i)
                num, den = solve_linear_system(const_matrix(swapped), vec)
                got = Fraction(num.constant_term(), den.constant_term())
                assert got == want
                # the exact Cramer pair, not just its ratio
                replaced = [[b] + row[1:] for row, b in zip(swapped, rhs)]
                assert (num.constant_term(), den.constant_term()) == \
                    (frac_det(replaced), frac_det(swapped))
            solved += 1

    def test_polynomial_system(self):
        # [[x, 1], [1, x]] u = [1, 0]  =>  u0 = x/(x^2-1), u1 = -1/(x^2-1)
        mat = [[X, RING_2ROW.one()], [RING_2ROW.one(), X]]
        rhs = [RING_2ROW.one(), RING_2ROW.zero()]
        (n0, d0), (n1, d1) = (solve_linear_system(m, rhs) for m in (mat, swap_columns(mat, 1)))
        assert n0 * (X**2 - 1) == X * d0
        assert n1 * (X**2 - 1) == -d1

    def test_components_subset(self):
        mat = [[RING_2ROW.const(2), RING_2ROW.const(0)],
               [RING_2ROW.const(0), RING_2ROW.const(4)]]
        rhs = [RING_2ROW.const(6), RING_2ROW.const(8)]
        num, den = solve_linear_system(swap_columns(mat, 1), rhs)
        assert num.constant_term() * 1 == 2 * den.constant_term()

    def test_ring_of_constants(self):
        consts = PolyRing(())
        c = consts.const
        assert bareiss_determinant([[c(2)]], [c(4)]) == (c(4), c(2))
        # [[2, 1], [1, 3]] with rhs (1, 2): det 5, and 3 with rhs as last column
        assert bareiss_determinant([[c(2), c(1)], [c(1), c(3)]], [c(1), c(2)]) == (c(3), c(5))

    @pytest.mark.parametrize("ring", [RING_KERNEL, RING_3ROW], ids=["kernel", "3row"])
    def test_polynomial_determinants_vs_cofactors(self, ring):
        rng = random.Random(2718)
        for _ in range(40):
            n = rng.randrange(1, 6)
            mat = [[sparse_poly(ring, rng) for _ in range(n)] for _ in range(n)]
            rhs = [sparse_poly(ring, rng) for _ in range(n)]
            num, det = bareiss_determinant(mat, rhs)
            assert det == cofactor_det(mat)
            assert num == cofactor_det([[*row[:-1], b] for row, b in zip(mat, rhs)])

    @pytest.mark.parametrize("num, den", [
        (X_K + 1, X_K),                         # a term below den's lowest key
        (3 * X_K, 2 * X_K),                     # a one-term coefficient remainder
        (BIG_X, X_K),                           # X / x borrows across coordinates
        (X_K**2 + 1, X_K + 1),                  # remainder 2 after the quotient x - 1
        (X_K**2 + 2 * X_K + 2, 2 * X_K + 2),    # a coefficient remainder, several terms
    ], ids=["negative-key", "coefficient", "borrow", "remainder", "multi-coefficient"])
    def test_key_division_refuses_inexact(self, num, den):
        bound = 2  # every coordinate of a quotient, 4 of a dividend
        stride = 2 * bound + 1
        with pytest.raises(PolynomialDivisionError):
            poly._divide_keys(poly._encode(num, stride), poly._encode(den, stride),
                              stride, bound, RING_KERNEL.nvars)

    def test_key_division_of_products(self):
        rng = random.Random(1618)
        for _ in range(40):
            a = sparse_poly(RING_KERNEL, rng, zero_odds=0)
            b = sparse_poly(RING_KERNEL, rng, zero_odds=0)
            if b.is_zero():
                continue
            stride = 2 * 3 + 1  # sparse_poly's degree bound is 3
            quot = poly._divide_keys(poly._encode(a * b, stride), poly._encode(b, stride),
                                     stride, 3, RING_KERNEL.nvars)
            assert poly._decode(quot, RING_KERNEL, stride) == a


def sparse_poly(ring: PolyRing, rng: random.Random, zero_odds: float = 0.4):
    """Zero with probability zero_odds, else up to three terms of
    degree at most 3 with coefficients in -9..9."""
    if rng.random() < zero_odds:
        return ring.zero()
    return rand_poly(ring, rng, deg=3, terms=rng.randrange(1, 4))


def cofactor_det(rows: list[list[WeightPolynomial]]) -> WeightPolynomial:
    """Laplace expansion along the first row, in polynomial arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        term = top * cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def swap_columns(rows: list[list], i: int) -> list[list]:
    out = [list(row) for row in rows]
    for row in out:
        row[0], row[i] = row[i], row[0]
    return out


def const_matrix(rows: list[list[int]]) -> list[list[WeightPolynomial]]:
    return [[RING_2ROW.const(v) for v in row] for row in rows]


def frac_det(rows: list[list[int]]) -> int:
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


class TestRationalKernel:
    def geometric(self) -> RationalKernel:
        # 1 / (1 - (x-1) X): series coefficient n is (x-1)^n
        one = RING_2ROW.one()
        return RationalKernel(RING_2ROW, "X", (one,), (one, -(X - 1)))

    def test_series_geometric(self):
        ser = self.geometric().series(6)
        for n, p in enumerate(ser):
            assert p == (X - 1) ** n

    def test_normalized(self):
        assert self.geometric().den[0].is_one()

    def test_eq_by_cross_multiplication(self):
        # (1 + X) / ((1 + X)(1 - (x-1) X)), stored apart from the geometric kernel
        one = RING_2ROW.one()
        scaled = RationalKernel(RING_2ROW, "X", (one, one), (one, 2 - X, -(X - 1)))
        assert scaled.den != self.geometric().den
        assert scaled == self.geometric()

    def test_unhashable(self):
        # equal as rational functions but stored apart, so no hash can
        # agree with ==: 1/(1-X) == (1+X)/(1-X^2)
        one, zero = RING_2ROW.one(), RING_2ROW.zero()
        k = RationalKernel(RING_2ROW, "X", (one,), (one, -one))
        other = RationalKernel(RING_2ROW, "X", (one, one), (one, zero, -one))
        assert k == other
        with pytest.raises(TypeError):
            hash(k)

    def test_order_and_str(self):
        k = self.geometric()
        assert k.order() == (0, 1)
        assert k.canonical_str() == "(1) / (1 + (-x + 1)*X)"

    def test_bivariate_roundtrip(self):
        k = self.geometric()
        num, den = k.to_bivariate()
        assert RationalKernel.from_bivariate(num, den, "X") == k

    def test_series_divides_by_non_unit_constant_term(self):
        # (1+x) / ((1+x) - (1+x) X) is refused, not divided down to 1/(1-X)
        one, onex = RING_2ROW.one(), RING_2ROW.one() + X
        with pytest.raises(ValueError, match="constant term 1"):
            RationalKernel(RING_2ROW, "X", (onex,), (onex, -onex))
        assert RationalKernel(RING_2ROW, "X", (one,), (one, -one)).series(6) == [one] * 7

    def test_series_refuses_inexact_constant_term(self):
        # 1 / ((1+x) - X) has no polynomial series; it is refused on construction
        one = RING_2ROW.one()
        with pytest.raises(ValueError, match="constant term 1"):
            RationalKernel(RING_2ROW, "X", (one,), (one + X, -one))

    @pytest.mark.parametrize("den0", [
        RING_2ROW.const(2),
        RING_2ROW.const(-1),
        RING_2ROW.zero(),
    ], ids=["two", "minus-one", "zero"])
    def test_constant_term_other_than_one_refused(self, den0):
        one = RING_2ROW.one()
        with pytest.raises(ValueError, match="constant term 1"):
            RationalKernel(RING_2ROW, "X", (one,), (den0, -one))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalKernel(RING_2ROW, "X", (RING_2ROW.one(),), ())
