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
c_first+1, ..., padded with zeros to start at x^0, and the sum of
c_k * k! is taken by binary splitting (Haible and Papanikolaou, ANTS
1998).  A block of slots starting at a holds the sum of c_k * k!/a!
over its slots k, and level l merges neighbouring blocks of h = 2^l
slots as left + right * (a+h)!/a!.  Those products depend only on the
position, so one table serves every run; it grows on demand like the
factorial table.  On three rows both operators are one
formula in the row shortfalls (s2, s3), (0, 0) on rectangles and
(1, 2) on trapezoids: the term c * x1^a1 x2^a2 x3^a3 x23^a23 counts

  c * (n-a1)!/(n-a1-a23)! * (a2+s2)! * (a3+s3)!/(s2! * s3!),

or 0 when a1 + a23 > n.  A snapshot hands over its terms grouped by
key (a1, a23) and then by x3 exponent, as runs of consecutive x2
exponents, so the sum of c * (a2+s2)! over a run is taken first and
multiplied by (a3+s3)! once, and a key with a1 + a23 > n is skipped
before its value is decoded.  A WeightPolynomial goes through the
same loop as one run per term.
"""

from __future__ import annotations

import enum
import math
from operator import add, mul
from typing import TYPE_CHECKING, Iterator

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


#: _lefts[l][j] = (a + 2^l)!/a! at a = j * 2^(l+1): the product of k
#: over the left half of the j-th pair the tree merges at level l
_lefts: tuple[list[int], ...] = ()


def _left_products(size: int) -> tuple[list[int], ...]:
    """Every level of _lefts, grown first if its 2^len(_lefts) slots
    cannot hold slots 0..size-1, to the next power of two."""
    global _lefts
    if size > 1 << len(_lefts):
        cap = 1 << (size - 1).bit_length()
        blocks = list(range(1, cap + 1))  # (k + 1)!/k! for the block at k
        lefts = []
        while len(blocks) > 1:
            lefts.append(blocks[0::2])
            blocks = list(map(mul, blocks[0::2], blocks[1::2]))
        # rebound whole, so a reader never sees a partly grown table
        _lefts = tuple(lefts)
    return _lefts


def umbral_eval_2row(p: WeightPolynomial | Snapshot) -> int:
    """Sum of c_k * k! over p's terms c_k * x^k, by a product tree over
    p's dense run of coefficients, padded to start at x^0."""
    if isinstance(p, WeightPolynomial):
        if p.ring != RING_2ROW:
            raise RingMismatchError(f"expected ring {RING_2ROW.variables!r}")
        first, values = 0, [p._terms.get((k,), 0) for k in range(p.degree("x") + 1)]
    else:
        first, values = p.dense_run()
    if not values:
        return 0
    v = [0] * first
    v += values
    # level l: block j holds sum of c_k * k!/a! over its slots k >= a = j*2^l
    for left in _left_products(len(v)):
        if len(v) == 1:
            break
        tail = v[-1:] if len(v) % 2 else []  # a left block with no right one
        v = list(map(add, v[0::2], map(mul, left, v[1::2])))
        v += tail
    return v[0]


def _key_groups(p: WeightPolynomial, n: int) -> Iterator[tuple[int, int, list]]:
    """p's terms as the key groups of a 3-row snapshot, one run of one
    term each; the operator's domain is x2 and x3 exponents at most n."""
    if p.ring != RING_3ROW:
        raise RingMismatchError(f"expected ring {RING_3ROW.variables!r}")
    for (a1, a2, a3, a23), c in p._terms.items():
        if a2 > n or a3 > n:
            raise ValueError(
                f"the 3-row operator at n={n} takes x2 and x3 exponents up to n,"
                f" got x2^{a2}*x3^{a3}"
            )
        yield a1, a23, [(a3, a2, [c])]


def _umbral_eval_3(source: WeightPolynomial | Snapshot, n: int, s2: int, s3: int) -> int:
    """The 3-row operator on a board whose rows 1 and 2 are s2 and s3
    cells short of n."""
    if isinstance(source, WeightPolynomial):
        groups = _key_groups(source, n)
    else:
        groups = source.key_groups()
    fact = factorial_table(n + max(s2, s3))
    total = 0
    for a1, a23, rows in groups:
        if a1 + a23 > n:
            continue  # C(n - a1, a23) = 0, and rows is never decoded
        acc = 0
        for a3, a2, cs in rows:
            acc += sum(map(mul, cs, fact[a2 + s2:a2 + s2 + len(cs)])) * fact[a3 + s3]
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
