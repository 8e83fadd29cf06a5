"""Umbral evaluation: weight polynomials to integer counts.

The sweep engine produces, for each board, a polynomial in the tile
weight variables.  Counting objects means replacing each monomial by
the number of ways to decorate the corresponding tiling with symbols,
which is a linear operation with a closed form per board family:

  two rows          x^k            ->  k!
  three-row n-board x1^a1 x2^a2 x3^a3 x23^a23
                                   ->  C(n-a1, a23) * a23! * a2! * a3!
  trapezoid n-board (rows n, n-1, n-2)
                                   ->  C(n-a1, a23) * a23! * (a2+1)! * (a3+2)!/2!

In the two-row case x counts free bottom-row cells; k of them take
the remaining k labels in any order; the sum of c_k * k! is taken in
Horner form c_0 + 1*(c_1 + 2*(c_2 + ...)), big times small integers
only.  In the three-row rectangle a1 counts labels committed by tiles
touching row 0, a23 counts tiles pairing rows 1 and 2 (their shared
label is chosen among the n-a1 uncommitted ones, in order, hence the
binomial times a23!), and the a2 free row-1 cells and a3 free row-2
cells take their leftover labels independently.  The trapezoid rows
1 and 2 are short by one and two cells, which leaves one and two
extra labels: the falling factorials (a2+1)!/1! and (a3+2)!/2!
replace a2! and a3!, so both three-row operators are one loop over
the row shortfalls (0, 0) or (1, 2).  That derivation is spelled out
in docs/trapezoid_operator.md.
"""

from __future__ import annotations

import enum
import math

from .poly import RING_2ROW, RING_3ROW, RingMismatchError, WeightPolynomial


class UmbralKind(enum.Enum):
    TWO_ROW = "two-row"
    THREE_ROW_RECTANGLE = "three-row-rectangle"
    THREE_ROW_TRAPEZOID = "three-row-trapezoid"


_factorials: tuple[int, ...] = (1,)


def factorial_table(n_max: int) -> tuple[int, ...]:
    """0!..n_max!, sliced from one table that grows on demand."""
    global _factorials
    if n_max < 0:
        raise ValueError(f"negative factorial table size {n_max}")
    table = _factorials
    if len(table) <= n_max:
        grown = list(table)
        for i in range(len(table), n_max + 1):
            grown.append(grown[-1] * i)
        # rebound whole, so a reader never sees a partly grown table
        _factorials = table = tuple(grown)
    return table[: n_max + 1]


def umbral_eval_2row(p: WeightPolynomial) -> int:
    if p.ring != RING_2ROW:
        raise RingMismatchError(f"expected ring {RING_2ROW.variables!r}")
    coeff = p._terms
    acc = 0
    for k in range(p.degree("x"), 0, -1):
        acc = (acc + coeff.get((k,), 0)) * k
    return acc + coeff.get((0,), 0)


def _umbral_eval_3(p: WeightPolynomial, n: int, s2: int, s3: int) -> int:
    """The 3-row operator on a board whose rows 1 and 2 are s2 and s3
    cells short of n; its domain is x2 and x3 exponents at most n."""
    if p.ring != RING_3ROW:
        raise RingMismatchError(f"expected ring {RING_3ROW.variables!r}")
    fact = factorial_table(max(n + s3, 0))
    total = 0
    for (a1, a2, a3, a23), c in p._terms.items():
        if a2 > n or a3 > n:
            raise ValueError(
                f"the 3-row operator at n={n} takes x2 and x3 exponents up to n,"
                f" got x2^{a2}*x3^{a3}"
            )
        if a23 > n - a1:
            continue
        total += (
            c
            * math.comb(n - a1, a23)
            * fact[a23]
            * (fact[a2 + s2] // fact[s2])
            * (fact[a3 + s3] // fact[s3])
        )
    return total


def umbral_eval_3row(p: WeightPolynomial, n: int) -> int:
    return _umbral_eval_3(p, n, 0, 0)


def umbral_eval_trapezoid(p: WeightPolynomial, n: int) -> int:
    return _umbral_eval_3(p, n, 1, 2)


def umbral_eval(kind: UmbralKind, p: WeightPolynomial, n: int) -> int:
    if kind is UmbralKind.TWO_ROW:
        return umbral_eval_2row(p)
    if kind is UmbralKind.THREE_ROW_RECTANGLE:
        return umbral_eval_3row(p, n)
    if kind is UmbralKind.THREE_ROW_TRAPEZOID:
        return umbral_eval_trapezoid(p, n)
    raise ValueError(f"unknown umbral kind {kind!r}")
