"""Witness enumerators: every counted object built and yielded one at
a time.  The package oracles only count; these list the objects, so
tests can check a witness's shape, compare witness sets, and cross-check
each counter against a route that builds what it counts.  The weighted
tiling sum at the end is the brute-force mirror of one engine value.

Both sign conventions for a single permutation row appear in the
literature: "i - pi(i) is never in S", the package's, and "pi(i) - i is
never in S", which is the package's rule for the mirrored set -S.  The
enumerator takes either, so tests can see that the two witness sets
differ while their counts agree."""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Sequence

from latinrect.oracle import (
    MAX_N_TRAPEZOID,
    MAX_N_TRIANGLE,
    MAX_N_TWO_ROWS,
    _guard,
    iter_tilings,
)
from latinrect.poly import PolyRing, WeightPolynomial
from latinrect.tiles import UNIT_WEIGHT, ShiftSpec, Tile

I_MINUS_PI = "i-minus-pi"
PI_MINUS_I = "pi-minus-i"


def iter_generalized_perms(
    shifts: Iterable[int], n: int, convention: str = I_MINUS_PI
) -> Iterator[tuple[int, ...]]:
    _guard(n, MAX_N_TWO_ROWS, "two-row")
    sign = {I_MINUS_PI: 1, PI_MINUS_I: -1}[convention]
    signed = {sign * s for s in shifts}
    banned = [{m - s for s in signed} for m in range(n + 1)]
    pi = [0] * (n + 1)

    def go(m: int, used: int) -> Iterator[tuple[int, ...]]:
        if m > n:
            yield tuple(pi[1:])
            return
        for v in range(1, n + 1):
            if used >> v & 1 or v in banned[m]:
                continue
            pi[m] = v
            yield from go(m + 1, used | 1 << v)

    yield from go(1, 0)


def iter_glr3(
    s12: Iterable[int], s13: Iterable[int], s23: Iterable[int], n: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reduced 3-row arrays as (middle row, top row).  Each top cell is
    checked against the bad-event rule directly: top value v at m
    clashes with the identity when v == m - s for s in s13, and with the
    middle row when v == middle[m - s] for s in s23."""
    s13, s23 = frozenset(s13), frozenset(s23)
    for middle in iter_generalized_perms(s12, n):
        mid = (0, *middle)
        top = [0] * (n + 1)

        def go(m: int, used: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
            if m > n:
                yield middle, tuple(top[1:])
                return
            for v in range(1, n + 1):
                if used >> v & 1:
                    continue
                if any(1 <= m - s <= n and v == m - s for s in s13):
                    continue
                if any(1 <= m - s <= n and v == mid[m - s] for s in s23):
                    continue
                top[m] = v
                yield from go(m + 1, used | 1 << v)

        yield from go(1, 0)


def _iter_trap_row1(n: int) -> Iterator[list[int]]:
    row = [0] * n

    def go(m: int, used: int) -> Iterator[list[int]]:
        if m > n - 1:
            yield row
            return
        for v in range(1, n + 1):
            if used >> v & 1 or v == m or v == m + 1:
                continue
            row[m] = v
            yield from go(m + 1, used | 1 << v)

    yield from go(1, 0)


def iter_trapezoid3(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    _guard(n, MAX_N_TRAPEZOID, "trapezoid")
    if n < 3:
        raise ValueError(f"trapezoids start at n=3, got {n}")
    identity = tuple(range(1, n + 1))
    for row1 in _iter_trap_row1(n):
        fixed1 = tuple(row1[1:])
        row2 = [0] * (n - 1)

        def go(m: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if m > n - 2:
                yield (identity, fixed1, tuple(row2[1:]))
                return
            for v in range(1, n + 1):
                if used >> v & 1 or v in (m, m + 2, row1[m], row1[m + 1]):
                    continue
                row2[m] = v
                yield from go(m + 1, used | 1 << v)

        yield from go(1, 0)


def iter_latin_triangles(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rows of lengths n, n-1, ..., 1 over symbols 1..n, bottom row the
    identity; the cell at (row r, position m) differs from the row r-d
    entries at positions m and m+d for every d, and rows are injective.
    Both referenced positions always exist: row r-d has length n-r+d."""
    _guard(n, MAX_N_TRIANGLE, "triangle")
    if n < 1:
        raise ValueError(f"triangles start at n=1, got {n}")
    rows: list[list[int]] = [list(range(1, n + 1))]

    def fill(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == n:
            yield tuple(tuple(row) for row in rows)
            return
        length = n - r
        row = [0] * length
        rows.append(row)

        def go(m: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if m == length:
                yield from fill(r + 1)
                return
            for v in range(1, n + 1):
                if used >> v & 1:
                    continue
                if any(rows[r - d][m] == v or rows[r - d][m + d] == v for d in range(1, r + 1)):
                    continue
                row[m] = v
                yield from go(m + 1, used | 1 << v)

        yield from go(0, 0)
        rows.pop()

    yield from fill(1)


def format_rows(rows: Iterable[Iterable[int]]) -> str:
    """One-line text form of a counted object: rows joined by '/'."""
    return "/".join(" ".join(str(v) for v in row) for row in rows)


def weighted_tiling_sum(
    tiles: Sequence, row_lengths: Sequence[int], ring
) -> WeightPolynomial:
    """Sum over all tilings of the product of tile coefficients and
    weight variables; the brute-force mirror of one engine value."""
    zero = (0,) * ring.nvars
    acc: dict[tuple[int, ...], int] = {}
    for tiling in iter_tilings(tiles, row_lengths):
        coeff = 1
        exps = list(zero)
        for tile, _ in tiling:
            coeff *= tile.coefficient
            for i, e in enumerate(weight_exponents(tile.weight, ring)):
                exps[i] += e
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
    return WeightPolynomial(ring, acc)


def weight_exponents(tag: str, ring: PolyRing) -> tuple[int, ...]:
    if tag == UNIT_WEIGHT:
        return (0,) * ring.nvars
    exps = [0] * ring.nvars
    exps[ring.index(tag)] = 1
    return tuple(exps)


def tile_monomial(tile: Tile, ring: PolyRing) -> WeightPolynomial:
    return WeightPolynomial(ring, {weight_exponents(tile.weight, ring): tile.coefficient})


def mirrored(spec: ShiftSpec) -> ShiftSpec:
    """The same shift sets negated; boards mirror left-right."""
    return ShiftSpec(
        rows=spec.rows,
        s12=frozenset(-s for s in spec.s12),
        s13=frozenset(-s for s in spec.s13),
        s23=frozenset(-s for s in spec.s23),
    )


def images(spec: ShiftSpec) -> list[ShiftSpec]:
    """The twelve images of a 3-row spec, repeats included: each of the
    six row orders, then its mirror.  Every constraint compares two
    rows in one column, so moving row tau(k) to row k and re-reducing
    keeps the count; the new sets are s'_kl = s_tau(k)tau(l), where
    s_lk = -s_kl.  The identity order comes first."""

    def pair(k: int, l: int) -> frozenset[int]:
        return spec.pair_set(k, l) if k < l else frozenset(-s for s in spec.pair_set(l, k))

    out = []
    for t in permutations(range(3)):
        image = ShiftSpec.three_rows(pair(t[0], t[1]), pair(t[0], t[2]), pair(t[1], t[2]))
        out += [image, mirrored(image)]
    return out
