"""Long prefixes against a recurrence guessed from their start.

For a fixed number of rows these counts are P-recursive in n: they
satisfy sum over i <= r, j <= d of c_ij * n^j * a(n + i) = 0.  The c_ij
are fitted modulo the prime 2^61 - 1 on a prefix, the guess-and-check
of Kauers and Paule, *The Concrete Tetrahedron*, ch. 7, and every
fitted recurrence must then hold on all later terms.  This checks the
sweep and the umbral step far past the brute-force oracle and the
b-file fixtures; a bug present from n = 1 is the oracle's to catch.
"""

from __future__ import annotations

from operator import mul

from latinrect.sequences import gen_der_seq, glr3_seq

P = (1 << 61) - 1


def equations(terms: list[int], order: int, degree: int) -> list[list[int]]:
    """One row per n whose a(n) .. a(n + order) are all in terms, a(1)
    being terms[0]: the values n^j * a(n + i) mod P, j fastest."""
    rows = []
    for n in range(1, len(terms) - order + 1):
        rows.append([pow(n, j, P) * terms[n - 1 + i] % P
                     for i in range(order + 1) for j in range(degree + 1)])
    return rows


def kernel_mod_p(rows: list[list[int]], width: int) -> list[list[int]]:
    """A basis of the vectors x with rows . x = 0 mod P."""
    rows = [r[:] for r in rows]
    pivots = []
    for col in range(width):
        at = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        top = len(pivots)
        rows[top], rows[at] = rows[at], rows[top]
        inv = pow(rows[top][col], P - 2, P)
        rows[top] = [v * inv % P for v in rows[top]]
        for i, r in enumerate(rows):
            if i != top and r[col]:
                f = r[col]
                rows[i] = [(a - f * b) % P for a, b in zip(r, rows[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        x = [0] * width
        x[free] = 1
        for i, col in enumerate(pivots):
            x[col] = -rows[i][free] % P
        basis.append(x)
    return basis


def broken_equations(terms: list[int], fit: int, order: int, degree: int) -> int:
    """The recurrences of this order and degree that hold on terms[:fit],
    checked on every later equation: how many (vector, n) pairs fail.
    Asserts that the prefix leaves at least one recurrence and more
    equations than unknowns."""
    width = (order + 1) * (degree + 1)
    fitted = equations(terms[:fit], order, degree)
    assert len(fitted) > width
    basis = kernel_mod_p(fitted, width)
    assert basis, "no recurrence of this order and degree fits the prefix"
    later = equations(terms, order, degree)[len(fitted):]
    assert later
    return sum(sum(map(mul, row, x)) % P != 0 for x in basis for row in later)


def off_by_one(terms: list[int], n: int) -> list[int]:
    return [t + (i + 1 == n) for i, t in enumerate(terms)]


class TestRecurrence:
    def test_menage_to_120(self):
        """gen-der {0,1}: order 3, degree 1, fitted on the 30 terms of
        the b000271 fixture and checked through n = 120."""
        terms = gen_der_seq({0, 1}, 120).terms
        assert broken_equations(terms, 30, 3, 1) == 0
        assert broken_equations(off_by_one(terms, 116), 30, 3, 1) > 0

    def test_latin_three_rows(self):
        """Latin {0}^3: order 6, degree 4 (35 unknowns), fitted on 45
        terms and checked on every later one, through n = 56."""
        terms = glr3_seq({0}, {0}, {0}, 56).terms
        assert broken_equations(terms, 45, 6, 4) == 0
        assert broken_equations(off_by_one(terms, 54), 45, 6, 4) > 0
