"""Independent reference counters for every object family.

Everything here is classical: forbidden-value sets, rook polynomials
and permanents of 0/1 allowed-value matrices.  The row counters
count without building what they count.  They backtrack the middle
rows of an array and count the last row by a subset DP for the
permanent (Ryser, Combinatorial Mathematics, 1963), or by a popcount
where the last row is one cell.  The DP is carried down the
backtracking and stepped as soon as a last-row cell's bans are fixed,
so every middle row with a common prefix shares its completions.  No tilings, no generating functions, no shared logic
with the fast engine; only the tiling oracles at the end read tile
weights.  The engine is trusted only because it agrees with these
counters on every instance the test suite throws at both.

Conventions.  Arrays are reduced: row 0 is the identity 1..n.  For a
shift s between rows r < r' the bad events are row_r[j] == row_rp[j+s]
with both positions on the board.  Against the identity row this
forbids value m-s in cell m of the lower row; against a filled upper
row it forbids the value upper[m-s].  For a single permutation row
the rule collapses to "i - pi(i) is never in S"; the opposite sign
convention ("pi(i) - i never in S") is exposed behind a flag because
both appear in the literature and mirror symmetry makes their counts,
but not their witness sets, agree.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

MAX_N_TWO_ROWS = 11
MAX_N_THREE_ROWS = 8
MAX_N_TRAPEZOID = 10
MAX_N_TRIANGLE = 8

I_MINUS_PI = "i-minus-pi"
PI_MINUS_I = "pi-minus-i"


class OracleLimitError(ValueError):
    """The requested size is beyond honest brute-force reach."""


def _guard(n: int, cap: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"negative board size {n}")
    if n > cap:
        raise OracleLimitError(f"{what} oracle is capped at n={cap}, asked for n={n}")


def _forbidden_values(n: int, shifts: frozenset[int], convention: str) -> list[frozenset[int]]:
    """forbidden[m] = banned values for position m, 1-based positions."""
    if convention == I_MINUS_PI:
        banned = [frozenset(m - s for s in shifts if 1 <= m - s <= n) for m in range(n + 1)]
    elif convention == PI_MINUS_I:
        banned = [frozenset(m + s for s in shifts if 1 <= m + s <= n) for m in range(n + 1)]
    else:
        raise ValueError(f"unknown convention {convention!r}")
    banned[0] = frozenset()
    return banned


# -- the shared counting step ------------------------------------------


def _step(dp: dict[int, int], allowed: int) -> dict[int, int]:
    """One position of a subset DP for the permanent of a 0/1 matrix
    (Ryser 1963): dp maps the set of values used so far, as a bitmask,
    to the number of injective prefixes using exactly that set; each
    prefix is extended by every unused value in `allowed`."""
    ndp: dict[int, int] = {}
    for used, ways in dp.items():
        free = allowed & ~used
        while free:
            bit = free & -free
            free ^= bit
            key = used | bit
            ndp[key] = ndp.get(key, 0) + ways
    return ndp


def _count_injective(allowed: Sequence[int]) -> int:
    """Number of injective value assignments, allowed[i] a bitmask."""
    dp = {0: 1}
    for am in allowed:
        dp = _step(dp, am)
        if not dp:
            return 0
    return sum(dp.values())


def _mask(values: Iterable[int]) -> int:
    out = 0
    for v in values:
        out |= 1 << v
    return out


# -- two rows: generalized derangements ---------------------------------


def count_generalized_perms(
    shifts: Iterable[int], n: int, convention: str = I_MINUS_PI
) -> int:
    """Permutations avoiding the shift set: the permanent of the
    allowed-value matrix."""
    _guard(n, MAX_N_TWO_ROWS, "two-row")
    banned = _forbidden_values(n, frozenset(shifts), convention)
    full = (1 << (n + 1)) - 2
    return _count_injective([full & ~_mask(banned[m]) for m in range(1, n + 1)])


def count_generalized_perms_banded(
    shifts: Iterable[int], n: int, convention: str = I_MINUS_PI
) -> int:
    """Rook-polynomial count: r_k non-attacking rooks on the banded
    forbidden board, then sum (-1)^k r_k (n-k)!.

    Polynomial in n for a fixed shift set, so it reaches depths the
    permanent's 2^n subsets cannot; used to build long reference
    prefixes.
    """
    if n < 0:
        raise ValueError(f"negative board size {n}")
    shifts = frozenset(shifts)
    if convention == PI_MINUS_I:
        shifts = frozenset(-s for s in shifts)
    elif convention != I_MINUS_PI:
        raise ValueError(f"unknown convention {convention!r}")
    if not shifts or n == 0:
        return math.factorial(n)
    smax, smin = max(shifts), min(shifts)
    width = smax - smin + 1
    # bit b of a mask stands for board row (i - smax + b) while column i
    # is being processed; the banned cell for shift s is always bit smax-s
    dp: dict[int, dict[int, int]] = {0: {0: 1}}
    for i in range(1, n + 1):
        ndp: dict[int, dict[int, int]] = {}
        for mask, byk in dp.items():
            tgt = ndp.setdefault(mask >> 1, {})
            for k, ways in byk.items():
                tgt[k] = tgt.get(k, 0) + ways
            for s in shifts:
                if not 1 <= i - s <= n:
                    continue
                b = smax - s
                if mask >> b & 1:
                    continue
                tgt = ndp.setdefault((mask | 1 << b) >> 1, {})
                for k, ways in byk.items():
                    tgt[k + 1] = tgt.get(k + 1, 0) + ways
        dp = ndp
    rook = [0] * (n + 1)
    for byk in dp.values():
        for k, ways in byk.items():
            rook[k] += ways
    return sum((-1) ** k * rook[k] * math.factorial(n - k) for k in range(n + 1))


# -- three rows: generalized Latin rectangles ---------------------------


def count_glr3(
    s12: Iterable[int], s13: Iterable[int], s23: Iterable[int], n: int
) -> int:
    """Reduced 3-row count on the n x 3 rectangle."""
    _guard(n, MAX_N_THREE_ROWS, "three-row")
    return _count_3rows(n, n, n, s12, s13, s23)


def _count_3rows(
    n: int, len1: int, len2: int,
    s12: Iterable[int], s13: Iterable[int], s23: Iterable[int],
) -> int:
    """Reduced 3-row arrays whose middle and top rows have lengths len1
    and len2 <= n, all rows over 1..n: backtrack the middle row and
    carry the top row's subset DP along it.  Top cell m is banned the
    middle entries at m - s for s in s23, so it is fixed once the
    middle row is filled through m + lookahead; it is stepped right
    then, every middle row with that prefix shares the result, and an
    empty DP ends the branch."""
    s23 = frozenset(s23)
    banned1 = _forbidden_values(n, frozenset(s12), I_MINUS_PI)
    banned2 = _forbidden_values(n, frozenset(s13), I_MINUS_PI)
    full = (1 << (n + 1)) - 2
    allowed1 = [0] + [full & ~_mask(banned1[m]) for m in range(1, len1 + 1)]
    base = [0] + [full & ~_mask(banned2[m]) for m in range(1, len2 + 1)]
    lookahead = max(0, -min(s23, default=0))
    row1 = [0] * (len1 + 1)  # middle row as value bits

    def top(m: int) -> int:
        bad = 0
        for s in s23:
            if 1 <= m - s <= len1:
                bad |= row1[m - s]
        return base[m] & ~bad

    def go(k: int, used: int, dp: dict[int, int]) -> int:
        if k > len1:
            return sum(dp.values())
        total = 0
        free = allowed1[k] & ~used
        while free:
            bit = free & -free
            free ^= bit
            row1[k] = bit
            nxt = dp
            # the top cells whose bans this middle cell completes
            last = len2 if k == len1 else min(k - lookahead, len2)
            for m in range(max(1, k - lookahead), last + 1):
                nxt = _step(nxt, top(m))
                if not nxt:
                    break
            if nxt:
                total += go(k + 1, used | bit, nxt)
        return total

    return go(1, 0, {0: 1})


def count_latin3_cycle_type(n: int) -> int:
    """Reduced 3 x n Latin rectangles by a second, structural route:
    group middle rows (derangements) by cycle type, then multiply the
    class size by the permanent counting compatible top rows.  The
    permanent only depends on the cycle type because relabeling
    symbols permutes the ban matrix without changing it."""
    if n < 0:
        raise ValueError(f"negative board size {n}")
    if n == 0:
        return 1
    total = 0
    for parts in _partitions_min2(n):
        rep = _cycle_rep(parts, n)
        class_size = math.factorial(n)
        for length, mult in itertools.groupby(parts):
            m = len(list(mult))
            class_size //= length**m * math.factorial(m)
        full = (1 << (n + 1)) - 2
        allowed = [full & ~(1 << m) & ~(1 << rep[m]) for m in range(1, n + 1)]
        total += class_size * _count_injective(allowed)
    return total


def _partitions_min2(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts >= 2, parts non-increasing."""

    def go(rest: int, cap: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield tuple(acc)
            return
        for p in range(min(rest, cap), 1, -1):
            if rest - p == 1:
                continue
            acc.append(p)
            yield from go(rest - p, p, acc)
            acc.pop()

    yield from go(n, n, [])


def _cycle_rep(parts: Sequence[int], n: int) -> list[int]:
    """A canonical permutation (1-based list) with the given cycle type."""
    rep = [0] * (n + 1)
    start = 1
    for p in parts:
        for i in range(start, start + p - 1):
            rep[i] = i + 1
        rep[start + p - 1] = start
        start += p
    return rep


# -- trapezoids and triangles -------------------------------------------


def count_trapezoid3(n: int) -> int:
    """Rows of lengths n, n-1, n-2 over symbols 1..n; row 0 is the
    identity; middle cell m avoids {m, m+1}, top cell m avoids
    {m, m+2} and the middle entries at m and m+1; rows injective.
    These are the three-row bans for s12 = {0, -1}, s13 = {0, -2} and
    s23 = {0, -1}, every referenced position on the board."""
    _guard(n, MAX_N_TRAPEZOID, "trapezoid")
    if n < 3:
        raise ValueError(f"trapezoids start at n=3, got {n}")
    return _count_3rows(n, n - 1, n - 2, {0, -1}, {0, -2}, {0, -1})


def count_latin_triangle(n: int) -> int:
    """Rows of lengths n, n-1, ..., 1 over symbols 1..n, bottom row the
    identity; the cell at (row r, position m) differs from the row r-d
    entries at positions m and m+d for every d, and rows are injective.
    Both referenced positions always exist: row r-d has length n-r+d.
    Backtracks every row but the last, with one ban mask per cell, and
    counts the last row's one cell by the popcount of its allowed
    values."""
    _guard(n, MAX_N_TRIANGLE, "triangle")
    if n < 1:
        raise ValueError(f"triangles start at n=1, got {n}")
    full = (1 << (n + 1)) - 2
    # rows of value bits, bottom row the identity
    rows: list[list[int]] = [[1 << v for v in range(1, n + 1)]]

    def allowed(r: int, m: int) -> int:
        bad = 0
        for d in range(1, r + 1):
            below = rows[r - d]
            bad |= below[m] | below[m + d]
        return full & ~bad

    def fill(r: int) -> int:
        if r == n:
            return 1
        if r == n - 1:
            return allowed(r, 0).bit_count()
        length = n - r
        row = [0] * length
        rows.append(row)

        def go(m: int, used: int) -> int:
            if m == length:
                return fill(r + 1)
            total = 0
            free = allowed(r, m) & ~used
            while free:
                bit = free & -free
                free ^= bit
                row[m] = bit
                total += go(m + 1, used | bit)
            return total

        total = go(0, 0)
        rows.pop()
        return total

    return fill(1)


# -- brute-force tiling enumeration -------------------------------------


def iter_tilings(
    tiles: Sequence, row_lengths: Sequence[int]
) -> Iterator[tuple[tuple[object, int], ...]]:
    """All exact covers of the board by translated tiles, as tuples of
    (tile, column offset).  Recursion on the first uncovered cell in
    column-major order; independent of the sweep engine."""
    k = len(row_lengths)
    width = max(row_lengths, default=0)
    scan = [(c, r) for c in range(width) for r in range(k) if c < row_lengths[r]]
    covered: set[tuple[int, int]] = set()
    placed: list[tuple[object, int]] = []

    def go(at: int) -> Iterator[tuple[tuple[object, int], ...]]:
        while at < len(scan) and scan[at] in covered:
            at += 1
        if at == len(scan):
            yield tuple(placed)
            return
        c0, r0 = scan[at]
        for tile in tiles:
            for dx, r in tile.cells:
                if r != r0:
                    continue
                off = c0 - dx
                spots = [(off + d, rr) for d, rr in tile.cells]
                if any(
                    cc < 0 or rr >= k or cc >= row_lengths[rr] or (cc, rr) in covered
                    for cc, rr in spots
                ):
                    continue
                covered.update(spots)
                placed.append((tile, off))
                yield from go(at)
                placed.pop()
                covered.difference_update(spots)

    yield from go(0)


def count_tilings(tiles: Sequence, row_lengths: Sequence[int]) -> int:
    return sum(1 for _ in iter_tilings(tiles, row_lengths))


def weighted_tiling_sum(tiles: Sequence, row_lengths: Sequence[int], ring):
    """Sum over all tilings of the product of tile coefficients and
    weight variables; the brute-force mirror of one engine value."""
    from .tiles import weight_exponents

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
    from .poly import WeightPolynomial

    return WeightPolynomial(ring, acc)
