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
the remaining k labels in any order.  In the three-row rectangle a1
counts labels committed by tiles touching row 0, a23 counts tiles
pairing rows 1 and 2 (their shared label is chosen among the n-a1
uncommitted ones, in order, hence the binomial times a23!), and the
a2 free row-1 cells and a3 free row-2 cells take their leftover
labels independently.  The trapezoid rows 1 and 2 are short by one
and two cells, which leaves one and two extra labels: the falling
factorials (a2+1)!/1! and (a3+2)!/2! replace a2! and a3!.  That
derivation is spelled out in docs/trapezoid_operator.md.

Each operator is one evaluator, which reads P_n either as a
WeightPolynomial or straight from the sweep's dp.Snapshot, the form
run_family passes, so no term dict is built between sweep and count.
On two rows the snapshot is a dense run of coefficients c_first,
c_first+1, ..., and the sum of c_k * k! is taken in Horner form
first! * (c_first + (first+1)*(c_first+1 + (first+2)*(...))), big
times small integers only.  On three rows both operators are one
formula in m = n - a1 - a23 and the row shortfalls (s2, s3), (0, 0)
on rectangles and (1, 2) on trapezoids: with a2 + s2 = m + p and
a3 + s3 = m + q, the term c * x1^a1 x2^a2 x3^a3 x23^a23 counts

  c * (n-a1)!/m! * (m+p)! * (m+q)!/(s2! * s3!),  or 0 when m < 0.

A snapshot hands over its terms grouped by key (a1, a23) and then by
q-row, with p and q its tile-class counts, so the sum of c * (m+p)!
over a q-row is taken first and multiplied by (m+q)! once, and a key
with m < 0 is skipped before its value is decoded.  A WeightPolynomial
goes through the same loop as one q-row per term.
"""

from __future__ import annotations

import enum
import math
from operator import mul
from typing import TYPE_CHECKING

from .poly import RING_2ROW, RING_3ROW, RingMismatchError, WeightPolynomial

if TYPE_CHECKING:
    from .dp import Snapshot


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


def umbral_eval_2row(p: WeightPolynomial | Snapshot) -> int:
    """Sum of c_k * k! over p's terms c_k * x^k, in Horner form down
    p's dense run of coefficients."""
    if isinstance(p, WeightPolynomial):
        if p.ring != RING_2ROW:
            raise RingMismatchError(f"expected ring {RING_2ROW.variables!r}")
        first, values = 0, [p._terms.get((k,), 0) for k in range(p.degree("x") + 1)]
    else:
        first, values = p.dense_run()
    if not values:
        return 0
    # c_first + (first+1)*(c_first+1 + (first+2)*(...)), times first!
    acc = 0
    for k, c in zip(range(first + len(values) - 1, first, -1), reversed(values)):
        acc = (acc + c) * k
    return (acc + values[0]) * math.factorial(first)


def _key_groups(p: WeightPolynomial, n: int, s2: int, s3: int) -> list:
    """p's terms as the key groups of a 3-row snapshot, one q-row of
    one term each; the operator's domain is x2 and x3 exponents at
    most n."""
    if p.ring != RING_3ROW:
        raise RingMismatchError(f"expected ring {RING_3ROW.variables!r}")
    groups = []
    for (a1, a2, a3, a23), c in p._terms.items():
        if a2 > n or a3 > n:
            raise ValueError(
                f"the 3-row operator at n={n} takes x2 and x3 exponents up to n,"
                f" got x2^{a2}*x3^{a3}"
            )
        m = n - a1 - a23
        groups.append((a1, a23, [(a3 + s3 - m, a2 + s2 - m, [c])]))
    return groups


def _umbral_eval_3(source: WeightPolynomial | Snapshot, n: int, s2: int, s3: int) -> int:
    """The 3-row operator on a board whose rows 1 and 2 are s2 and s3
    cells short of n."""
    if isinstance(source, WeightPolynomial):
        groups = _key_groups(source, n, s2, s3)
    else:
        groups = source.key_groups()
    fact = factorial_table(n + max(s2, s3))
    total = 0
    for a1, a23, rows in groups:
        m = n - a1 - a23
        if m < 0:
            continue  # C(n - a1, a23) = 0, and rows is never decoded
        acc = 0
        for q, p, cs in rows:
            acc += sum(map(mul, cs, fact[m + p:m + p + len(cs)])) * fact[m + q]
        total += acc * math.perm(n - a1, a23)
    return total // (fact[s2] * fact[s3])


def umbral_eval_3row(p: WeightPolynomial | Snapshot, n: int) -> int:
    return _umbral_eval_3(p, n, 0, 0)


def umbral_eval_trapezoid(p: WeightPolynomial | Snapshot, n: int) -> int:
    return _umbral_eval_3(p, n, 1, 2)


def umbral_eval(kind: UmbralKind, p: WeightPolynomial | Snapshot, n: int) -> int:
    if kind is UmbralKind.TWO_ROW:
        return umbral_eval_2row(p)
    if kind is UmbralKind.THREE_ROW_RECTANGLE:
        return umbral_eval_3row(p, n)
    if kind is UmbralKind.THREE_ROW_TRAPEZOID:
        return umbral_eval_trapezoid(p, n)
    raise ValueError(f"unknown umbral kind {kind!r}")
