"""Independent reference counters for every object family.

Every family here is one problem: reduced arrays of k rows over the
symbols 1..n, given by the row lengths and the pairwise bans between
rows.  Row 0 is the identity 1..n, every row is injective, and for
rows a < b a shift s in bans[a, b] bans cell m of row b from holding
the row-a entry at position m - s, when that position is on row a.
The bad events for a shift s are row_a[j] == row_b[j + s].

- Generalized derangements: two rows of length n, one ban set S, so
  i - pi(i) is never in S.
- Generalized Latin rectangles: three rows of length n, bans s12, s13
  and s23.
- Latin triangles: rows of lengths n, n-1, ..., 1, and {0, a - b}
  between rows a < b: a cell differs from the entries of every lower
  row at its own position and d places to the right, d rows down.
- Latin trapezoids: the first three rows of a triangle, so lengths
  n, n-1, n-2 under the same bans.

One counter does them all, without building what it counts.  It
backtracks the middle rows and counts the last row by a subset DP for
the permanent (Ryser, Combinatorial Mathematics, 1963).  The DP is
carried down the row before the last and stepped as soon as a
last-row cell's bans are fixed, so every middle row with a common
prefix shares its completions.

Rows 1..k-1 may be counted in any order, so the longest goes last,
to the DP, and the others are backtracked shortest first, ties in
index order.  On a triangle that counts row 1 (n-1 cells) by the DP,
not the one-cell top row: `count_latin_triangle(7)` takes about a
quarter of the time of index order.  Rectangles keep their order.

The DP state is one int of 2^n fields, each (n!).bit_length() + 1
bits wide, and field i counts the prefixes whose set of used values
is i (value v is bit v - 1 of i).  A step takes, for each allowed
value v, the fields whose set lacks v and adds them, shifted up, to
the fields of that set plus v: one mask and one shift per value.
Every field and the sum of all of them count injective prefixes over
n values, at most n!, which is below 2^width - 1.  So no field carries
into the next, and the count at the end, the sum of the fields, is
the state modulo 2^width - 1.

No tilings, no generating functions, no shared logic with the fast
engine, which is trusted only because it agrees with these counters
on every instance the test suite throws at both.  The exact-cover
enumerator at the end is the one place that handles tiles: it covers
a board with them by plain recursion.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

MAX_N_TWO_ROWS = 11
MAX_N_THREE_ROWS = 8
MAX_N_TRAPEZOID = 10
MAX_N_TRIANGLE = 7


class OracleLimitError(ValueError):
    """The requested size is beyond honest brute-force reach."""


class OracleMismatchError(RuntimeError):
    """Engine and oracle disagree; carries enough context to debug."""

    def __init__(self, message: str, diagnostics: str):
        super().__init__(message + "\n" + diagnostics)
        self.diagnostics = diagnostics


def _guard(n: int, cap: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"negative board size {n}")
    if n > cap:
        raise OracleLimitError(f"{what} oracle is capped at n={cap}, asked for n={n}")


# -- the shared counter -------------------------------------------------


def _packing(n: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """The layout of a packed subset DP over the values 1..n: the
    modulus 2^width - 1 that sums the fields, and for each value's bit
    (bit v for value v) the mask of the fields whose set lacks v and
    the shift that adds v to their set."""
    width = math.factorial(n).bit_length() + 1
    moves = {}
    for v in range(1, n + 1):
        # the low `half` fields of every block of 2 * half lack v
        half = span = 1 << v - 1
        keep = (1 << half * width) - 1
        while span < 1 << n - 1:
            span *= 2
            keep |= keep << span * width
        moves[1 << v] = (keep, half * width)
    return (1 << width) - 1, moves


def _step(state: int, allowed: int, moves: Mapping[int, tuple[int, int]]) -> int:
    """One position of a subset DP for the permanent of a 0/1 matrix
    (Ryser 1963): every prefix is extended by each unused value in
    `allowed`, which moves its count from the field of its set to the
    field of that set plus the value."""
    out = 0
    for bit, (keep, shift) in moves.items():
        if allowed & bit:
            out += (state & keep) << shift
    return out


def _count_injective(n: int, allowed: Sequence[int]) -> int:
    """Number of injective assignments of values 1..n, allowed[i] a
    bitmask with bit v for value v."""
    fold, moves = _packing(n)
    state = 1
    for am in allowed:
        state = _step(state, am, moves)
    return state % fold


def _count_rows(
    n: int, lengths: Sequence[int], bans: Mapping[tuple[int, int], Iterable[int]]
) -> int:
    """Reduced arrays with the given row lengths over 1..n, where each
    s in bans[a, b] bans row-b cell m from the row-a entry at m - s.
    Rows 1..k-1 are relabeled shortest first (swapping rows a < b turns
    s in bans[a, b] into -s in bans[b, a]); rows 1..k-2 are backtracked
    and the last, longest row is counted by the DP.  Last-row cell m
    reads the row before it up to m + lookahead; it is stepped once
    that row is filled that far, every middle row with that prefix
    shares the result, and a zero state ends the branch."""
    k = len(lengths)
    if k == 1:
        return 1
    order = [0] + sorted(range(1, k), key=lambda r: lengths[r])
    bans = {(i, j): frozenset(bans.get((a, b), ())) if a < b
            else frozenset(-s for s in bans.get((b, a), ()))
            for j, b in enumerate(order) for i, a in enumerate(order[:j])}
    lengths = [lengths[r] for r in order]
    full = (1 << (n + 1)) - 2
    # rows of value bits at 1-based positions, row 0 the identity
    rows = [[1 << v for v in range(n + 1)]] + [[0] * (size + 1) for size in lengths[1:]]
    # per cell: the values the identity bans, and the filled cells it reads
    base: list[list[int]] = [[]]
    refs: list[list[tuple[tuple[list[int], int], ...]]] = [[]]
    for b in range(1, k):
        base.append([0] * (lengths[b] + 1))
        refs.append([()] * (lengths[b] + 1))
        for m in range(1, lengths[b] + 1):
            on = {(a, m - s) for a in range(b) for s in bans.get((a, b), ())
                  if 1 <= m - s <= lengths[a]}
            base[b][m] = full & ~sum(1 << p for a, p in on if a == 0)
            refs[b][m] = tuple((rows[a], p) for a, p in on if a)

    def allowed(b: int, m: int) -> int:
        bad = 0
        for row, p in refs[b][m]:
            bad |= row[p]
        return base[b][m] & ~bad

    last, mid = k - 1, k - 2
    if mid == 0:
        return _count_injective(n, [base[last][m] for m in range(1, lengths[last] + 1)])
    # due[m]: the last-row cells whose bans middle-row cell m completes
    lookahead = max(0, -min(bans.get((mid, last), ()), default=0))
    due = [range(max(1, m - lookahead), min(m - lookahead, lengths[last]) + 1)
           for m in range(lengths[mid])]
    due.append(range(max(1, lengths[mid] - lookahead), lengths[last] + 1))
    fold, moves = _packing(n)

    def go(r: int, m: int, used: int, state: int) -> int:
        if m > lengths[r]:
            return state % fold if r == mid else go(r + 1, 1, 0, state)
        total = 0
        row = rows[r]
        cells = due[m] if r == mid else ()
        free = allowed(r, m) & ~used
        while free:
            bit = free & -free
            free ^= bit
            row[m] = bit
            nxt = state
            for c in cells:
                nxt = _step(nxt, allowed(last, c), moves)
                if not nxt:
                    break
            if nxt:
                total += go(r, m + 1, used | bit, nxt)
        return total

    return go(1, 1, 0, 1)


def _triangle_bans(k: int) -> dict[tuple[int, int], set[int]]:
    """Cell m of row b avoids the row-a entries at m and m + (b - a)."""
    return {(a, b): {0, a - b} for b in range(k) for a in range(b)}


# -- the families --------------------------------------------------------


def count_generalized_perms(shifts: Iterable[int], n: int) -> int:
    """Permutations pi of 1..n with i - pi(i) never in the shift set:
    the permanent of the allowed-value matrix."""
    _guard(n, MAX_N_TWO_ROWS, "two-row")
    return _count_rows(n, (n, n), {(0, 1): shifts})


def count_generalized_perms_banded(shifts: Iterable[int], n: int) -> int:
    """Rook-polynomial count: r_k non-attacking rooks on the banded
    forbidden board, then sum (-1)^k r_k (n-k)!.

    Polynomial in n for a fixed shift set, so it reaches depths the
    permanent's 2^n subsets cannot; used to build long reference
    prefixes.
    """
    if n < 0:
        raise ValueError(f"negative board size {n}")
    shifts = frozenset(shifts)
    if not shifts or n == 0:
        return math.factorial(n)
    smax = max(shifts)
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


def count_glr3(
    s12: Iterable[int], s13: Iterable[int], s23: Iterable[int], n: int
) -> int:
    """Reduced 3-row count on the n x 3 rectangle."""
    _guard(n, MAX_N_THREE_ROWS, "three-row")
    return _count_rows(n, (n, n, n), {(0, 1): s12, (0, 2): s13, (1, 2): s23})


def count_latin3_cycle_type(n: int) -> int:
    """Reduced 3 x n Latin rectangles by a second, structural route:
    group middle rows (derangements) by cycle type, then multiply the
    class size by the permanent counting compatible top rows.  The
    permanent only depends on the cycle type because relabeling
    symbols permutes the ban matrix without changing it."""
    if n < 0:
        raise ValueError(f"negative board size {n}")
    total = 0
    for parts in _partitions_min2(n):
        rep = _cycle_rep(parts, n)
        class_size = math.factorial(n)
        for length, mult in itertools.groupby(parts):
            m = len(list(mult))
            class_size //= length**m * math.factorial(m)
        full = (1 << (n + 1)) - 2
        allowed = [full & ~(1 << m) & ~(1 << rep[m]) for m in range(1, n + 1)]
        total += class_size * _count_injective(n, allowed)
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
    """Rows of lengths n, n-1, n-2 over symbols 1..n: the first three
    rows of a Latin triangle.  Middle cell m avoids {m, m+1}, top cell
    m avoids {m, m+2} and the middle entries at m and m+1."""
    _guard(n, MAX_N_TRAPEZOID, "trapezoid")
    if n < 3:
        raise ValueError(f"trapezoids start at n=3, got {n}")
    return _count_rows(n, (n, n - 1, n - 2), _triangle_bans(3))


def count_latin_triangle(n: int) -> int:
    """Rows of lengths n, n-1, ..., 1 over symbols 1..n, bottom row the
    identity; the cell at (row r, position m) differs from the row r-d
    entries at positions m and m+d for every d, and rows are injective.
    Both referenced positions always exist: row r-d has length n-r+d."""
    _guard(n, MAX_N_TRIANGLE, "triangle")
    if n < 1:
        raise ValueError(f"triangles start at n=1, got {n}")
    return _count_rows(n, range(n, 0, -1), _triangle_bans(n))


# -- brute-force tiling enumeration -------------------------------------


def iter_tilings(
    tiles: Sequence, row_lengths: Sequence[int]
) -> Iterator[tuple[tuple[object, int], ...]]:
    """All exact covers of the board by translated tiles, as tuples of
    (tile, column offset).  Recursion on the first uncovered cell in
    column-major order, trying every placement whose first cell it is;
    independent of the sweep engine."""
    width = max(row_lengths, default=0)
    scan = {(c, r): i for i, (c, r) in enumerate(
        (c, r) for c in range(width) for r in range(len(row_lengths)) if c < row_lengths[r])}
    # starts[i]: the on-board placements whose first cell is scan cell i,
    # as (covered cells bitmask, tile, offset)
    starts: list[list[tuple[int, object, int]]] = [[] for _ in scan]
    for tile in tiles:
        for off in {c - dx for dx, _ in tile.cells for c in range(width)}:
            spots = [(off + dx, r) for dx, r in tile.cells]
            if all(spot in scan for spot in spots):
                ids = [scan[spot] for spot in spots]
                starts[min(ids)].append((sum(1 << i for i in ids), tile, off))
    full = (1 << len(scan)) - 1
    placed: list[tuple[object, int]] = []

    def go(covered: int) -> Iterator[tuple[tuple[object, int], ...]]:
        if covered == full:
            yield tuple(placed)
            return
        at = (~covered & (covered + 1)).bit_length() - 1
        for cells, tile, off in starts[at]:
            if not cells & covered:
                placed.append((tile, off))
                yield from go(covered | cells)
                placed.pop()

    yield from go(0)


def count_tilings(tiles: Sequence, row_lengths: Sequence[int]) -> int:
    return sum(1 for _ in iter_tilings(tiles, row_lengths))
