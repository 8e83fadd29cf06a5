"""Column sweep over weighted tilings and the 2-row rational kernel.

The board is scanned cell by cell in column-major order (column, then
row).  A state is the *profile*: bit j says the cell j scan-steps
ahead of the current one is already covered by a previously placed
tile.  A free cell must be covered right now by a tile whose scan-
minimal cell lands on it; any tile covering it placed later would
have been anchored earlier, so the enumeration sees every tiling
exactly once.  Tiles never translate vertically, so only tiles whose
anchor row matches the current row are candidates, and with maximal
tile width w the profile fits in w*rows bits.

Out-of-board cells must stay uncovered: states that covered one die
when the scan reaches the cell.  The snapshot after column c-1 reads
the empty profile, which is exactly "no tile pokes into column c or
beyond", so a single sweep yields every P_n at once.  Boards with
short rows (trapezoids) are swept as their mirror image: reflected
left-right, a short row's missing cells become a blocked prefix that
does not depend on n, and board n+1 is again board n plus one full
column on the right.

weight_snapshots yields the snapshots one at a time: a caller that
turns each P_n into a count and drops it holds one column's profiles
and one unpacked P_n, however long the run.

Inside the sweep a monomial lives in a single integer, 16 bits per
variable, so multiplying by a tile weight is one add; exponents are
unpacked into tuples only when a snapshot is taken.

The same column-transition table, read symbolically, gives the 2-row
transfer system (I - X*T) G = e_empty over Z[x][[X]]; solving it
fraction-free yields the rational kernel whose series expansion must
reproduce the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .poly import (
    RING_KERNEL,
    PolyRing,
    RationalKernel,
    WeightPolynomial,
    solve_linear_system,
)
from .tiles import ShiftSpec, Tile, UNIT_WEIGHT, enumerate_tiles, ring_for

PACK_BITS = 16

RECTANGLE = "rectangle"
TRAPEZOID3 = "trapezoid3"


@dataclass(frozen=True)
class BoardShape:
    """Row count plus the rule giving each row's length at size n."""

    kind: str
    rows: int

    def __post_init__(self) -> None:
        if self.kind not in (RECTANGLE, TRAPEZOID3):
            raise ValueError(f"unknown board kind {self.kind!r}")
        if self.kind == TRAPEZOID3 and self.rows != 3:
            raise ValueError("trapezoid boards have exactly 3 rows")
        if self.kind == RECTANGLE and self.rows not in (2, 3):
            raise ValueError(f"rectangle boards have 2 or 3 rows, got {self.rows}")

    @property
    def min_n(self) -> int:
        return 3 if self.kind == TRAPEZOID3 else 0

    def shortfall(self, r: int) -> int:
        """How many cells row r is shorter than the board width n."""
        if not 0 <= r < self.rows:
            raise ValueError(f"row {r} out of range")
        return r if self.kind == TRAPEZOID3 else 0

    def row_length(self, r: int, n: int) -> int:
        return n - self.shortfall(r)

    def row_lengths(self, n: int) -> tuple[int, ...]:
        return tuple(self.row_length(r, n) for r in range(self.rows))

    def blocked_flags(self, column: int) -> tuple[bool, ...]:
        """Rows without a cell in this column of the mirrored board,
        where each short row is missing a prefix, not a suffix."""
        return tuple(column < self.shortfall(r) for r in range(self.rows))


def rectangle(rows: int) -> BoardShape:
    return BoardShape(RECTANGLE, rows)


def trapezoid3() -> BoardShape:
    return BoardShape(TRAPEZOID3, 3)


@dataclass(frozen=True)
class SeriesTable:
    """Weight polynomials P_n for n = first_n .. first_n+len-1."""

    ring: PolyRing
    first_n: int
    polys: tuple[WeightPolynomial, ...]

    def poly(self, n: int) -> WeightPolynomial:
        i = n - self.first_n
        if not 0 <= i < len(self.polys):
            raise IndexError(f"P_{n} not in table ({self.first_n}..{self.last_n})")
        return self.polys[i]

    @property
    def last_n(self) -> int:
        return self.first_n + len(self.polys) - 1

    def __iter__(self) -> Iterator[tuple[int, WeightPolynomial]]:
        for i, p in enumerate(self.polys):
            yield self.first_n + i, p


class _Sweep:
    """Shared machinery: packed tile ops and cached column tables."""

    def __init__(self, tiles: Sequence[Tile], board: BoardShape):
        self.k = board.rows
        self.ring = ring_for(board.rows)
        ops: list[list[tuple[int, int, int]]] = [[] for _ in range(self.k)]
        for t in tiles:
            bits = 0
            for dx, row in t.cells:
                bits |= 1 << (dx * self.k + row - t.anchor_row)
            if t.weight == UNIT_WEIGHT:
                delta = 0
            else:
                delta = 1 << (PACK_BITS * self.ring.index(t.weight))
            ops[t.anchor_row].append((bits, delta, t.coefficient))
        self.ops_by_row = ops
        self._tables: dict[tuple[int, tuple[bool, ...]], list[tuple[int, int, int]]] = {}

    def column_table(
        self, mask0: int, blocked: tuple[bool, ...]
    ) -> list[tuple[int, int, int]]:
        key = (mask0, blocked)
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        acc: dict[tuple[int, int], int] = {}
        stack = [(0, mask0, 0, 1)]
        while stack:
            r, mask, delta, coeff = stack.pop()
            if r == self.k:
                kk = (mask, delta)
                acc[kk] = acc.get(kk, 0) + coeff
                continue
            if blocked[r]:
                if not mask & 1:
                    stack.append((r + 1, mask >> 1, delta, coeff))
                continue
            if mask & 1:
                stack.append((r + 1, mask >> 1, delta, coeff))
                continue
            for bits, d, c in self.ops_by_row[r]:
                if mask & bits == 0:
                    stack.append((r + 1, (mask | bits) >> 1, delta + d, coeff * c))
        table = [(m, d, c) for (m, d), c in acc.items() if c != 0]
        self._tables[key] = table
        return table

    def advance(
        self,
        dist: dict[int, dict[int, int]],
        blocked: tuple[bool, ...],
        empty_only: bool = False,
    ) -> dict[int, dict[int, int]]:
        """One column; with empty_only, only the empty profile is kept."""
        ndist: dict[int, dict[int, int]] = {}
        for mask, poly in dist.items():
            for m2, delta, cf in self.column_table(mask, blocked):
                if m2 and empty_only:
                    continue
                tgt = ndist.get(m2)
                if tgt is None:
                    tgt = ndist[m2] = {}
                get = tgt.get
                if cf == 1:
                    for mono, v in poly.items():
                        key = mono + delta
                        tgt[key] = get(key, 0) + v
                else:
                    for mono, v in poly.items():
                        key = mono + delta
                        tgt[key] = get(key, 0) + cf * v
        for m2 in list(ndist):
            bucket = ndist[m2]
            dead = [kk for kk, vv in bucket.items() if vv == 0]
            for kk in dead:
                del bucket[kk]
            if not bucket:
                del ndist[m2]
        return ndist

    def unpack(self, packed: dict[int, int]) -> WeightPolynomial:
        """Exponent tuples for packed keys; advance drops zeros and the
        lanes are masked, so the terms need no re-validation."""
        nv = self.ring.nvars
        if nv == 1:
            terms = {(mono,): c for mono, c in packed.items()}
        else:
            lane = (1 << PACK_BITS) - 1
            shifts = range(0, PACK_BITS * nv, PACK_BITS)
            terms = {
                tuple((mono >> s) & lane for s in shifts): c
                for mono, c in packed.items()
            }
        return WeightPolynomial.trusted(self.ring, terms)


def weight_snapshots(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> Iterator[tuple[int, WeightPolynomial]]:
    """(n, P_n) for every board size from board.min_n up to n_max, from
    one sweep, each yielded as its column boundary is reached.

    A board with short rows is swept mirrored: its blocked cells then
    form a fixed prefix, so the snapshot after column n-1 is P_n for
    every n, exactly as on a rectangle.  Each tile is reflected too
    (dx -> width-1-dx, cells back in scan order, same coefficient and
    weight), which maps the tilings of the board one-to-one onto those
    of its mirror image with the same weights.
    """
    if n_max * board.rows >= 1 << PACK_BITS:
        raise ValueError(f"n_max={n_max} overflows the packed exponent lanes")
    if n_max < board.min_n:
        raise ValueError(f"{board.kind} series starts at n={board.min_n}")
    if any(board.blocked_flags(0)):
        tiles = [
            Tile(tuple(sorted((t.width - 1 - dx, r) for dx, r in t.cells)),
                 t.coefficient, t.weight)
            for t in tiles
        ]
    sweep = _Sweep(tiles, board)
    dist: dict[int, dict[int, int]] = {0: {0: 1}}
    if board.min_n == 0:
        yield 0, sweep.ring.one()
    for n in range(1, n_max + 1):
        # nothing reads the profiles the last column leaves behind
        dist = sweep.advance(dist, board.blocked_flags(n - 1), empty_only=n == n_max)
        if n >= board.min_n:
            yield n, sweep.unpack(dist.get(0, {}))


def weight_series(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> SeriesTable:
    """All of weight_snapshots in one table, every P_n alive at once;
    a caller that uses each P_n once should iterate the snapshots."""
    polys = tuple(p for _, p in weight_snapshots(tiles, board, n_max))
    return SeriesTable(ring=ring_for(board.rows), first_n=board.min_n, polys=polys)


def kernel2(shifts: Iterable[int]) -> RationalKernel:
    """Rational kernel G(x, X) = sum_n P_n(x) X^n for a 2-row spec.

    States are the reachable column-boundary profiles; the transfer
    polynomial T[i][j] collects coefficient*x^weight over transitions.
    G solves (I - X*T) G = e_empty, taken fraction-free."""
    spec = ShiftSpec.two_rows(shifts)
    tiles = enumerate_tiles(spec)
    board = rectangle(2)
    sweep = _Sweep(tiles, board)
    open_col = (False,) * board.rows
    order = [0]
    index = {0: 0}
    edges: list[list[tuple[int, int, int]]] = []
    at = 0
    while at < len(order):
        mask = order[at]
        row: list[tuple[int, int, int]] = []
        for m2, delta, cf in sweep.column_table(mask, open_col):
            if m2 not in index:
                index[m2] = len(order)
                order.append(m2)
            row.append((index[m2], delta, cf))
        edges.append(row)
        at += 1
    nstates = len(order)
    ring = RING_KERNEL
    zero = ring.zero()
    amat = [[zero for _ in range(nstates)] for _ in range(nstates)]
    for i in range(nstates):
        amat[i][i] = ring.one()
        for j, delta, cf in edges[i]:
            # exponent lane 0 is the x degree; X carries the column count
            amat[i][j] = amat[i][j] - WeightPolynomial(ring, {(delta, 1): cf})
    rhs = [ring.one() if i == 0 else zero for i in range(nstates)]
    num, den = solve_linear_system(amat, rhs, components=(0,))[0]
    return RationalKernel.from_bivariate(num, den, "X")
