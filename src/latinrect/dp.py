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
beyond", so a single sweep yields every P_n at once.  A board is its
row shortfalls: row r has n - shortfalls[r] cells.  Boards with short
rows (trapezoids) are swept as their mirror image: reflected
left-right, row r's missing cells become a blocked prefix of
shortfalls[r] columns that does not depend on n, and board n+1 is
again board n plus one full column on the right.

packed_snapshots yields the snapshots one at a time, each P_n still
the run the sweep left at the empty profile (a Snapshot), so a caller
that turns each P_n into a count and drops it holds one column's
profiles and one run, however long the run.  The umbral operators
count a Snapshot in place; only weight_snapshots, the --dump-series
table and the oracle-mismatch report unpack it into a
WeightPolynomial.

Each profile holds its polynomial as a dense run: a list of the
integer values at consecutive integer keys, starting at the run's
first key, zeros included.  In the 2-row ring the key is the x
exponent and the value the coefficient.  The 3-row sweep keeps the
exponents a1 and a23 of x1^a1 x2^a2 x3^a3 x23^a23, but in place of a2
and a3 it counts tile incidences: k_r is the number of row-r cells
(r = 1, 2) covered by tiles weighted neither x23 nor x2 (row 1) or x3
(row 2).  For the tiles.py alphabet:
  - a multi-cell tile touching row 0 adds 1 to a1, and 1 to k_r for
    each row r in {1, 2} it touches;
  - a tile on rows {1, 2} adds 1 to a23;
  - singletons add nothing.
At a snapshot the profile is empty and every in-board cell is covered
exactly once, so a_r = (length of row r at n) - a23 - k_r, the row
lengths being board.row_lengths(n), which each Snapshot carries.
That holds for any tiles whose x2, x3 and x23 weights sit on
tiles with a cell on the rows they name, which _Sweep checks.

The slots do not index (k1, k2) itself: for the tiles.py alphabet
k_r <= a1, so most of that square would stay zero.  Each tile adds
instead p = [weight is x1] - (its k1) and q = [weight is x1] - (its
k2), so that k1 = a1 - p and k2 = a1 - q on every term; for the
tiles.py alphabet p counts the two-cell tiles on rows 0 and 2, and q
those on rows 0 and 1.  This class layout is taken when every tile
has p >= 0 and q >= 0 and every x1 tile has a row-0 cell: then the x1
tiles sit on distinct row-0 cells, and 0 <= p, q <= a1 <= n on every
term of snapshot n.  Any other alphabet (hand-tagged ones, unit
weights among them) keeps the incidence layout p = k1, q = k2, where
k1, k2 <= n by exact cover.  Only key_groups turns slots into
exponents; every other reader sees monomials.

Key and value pack their pairs by one rule, with stride S = n_max+1:
the key is a23 + S*a1, and the value packs every (p, q) of that key
into one integer (Kronecker substitution): sum of c * 2^(B*(p +
S*q)), with signed digits c.  A column table row is then a key delta
kd, a slot delta sd and a coefficient cf.  In either layout a23 <= n
and p <= n on every term of snapshot n <= n_max, so S keeps them
apart; neither decreases along the sweep, so a profile where either
passes n_max mid-sweep never reaches a snapshot, nor do the terms
aliased in it.  a1 counts tiles, any of which may carry x1, so it is
the top coordinate, unbounded.

advance runs a column as the program of its table set, the column's
blocked flags; the plan walk builds each program once, from every row
it signed with those flags.  A program takes the targets fewest rows
first, and a target may start from an earlier one, its base, whose
rows, moved by a key offset dk and a slot offset dd >= 0 and
multiplied by a sign e, are among its own: the target is then e times
the base's finished run shifted by dd*B bits, dk keys up, plus its
other rows.  On menage {0,1} the column is P' = xP - P - Q and
Q' = xP - Q, so P' is built as Q' - P.  A source missing from a column
drops its rows from a target and its base alike, so one program serves
every column of its set, and a target whose base is not kept applies
all its rows.  Sharing partial sums between the outputs of a fixed
linear map is common-subexpression elimination (Paar, ISIT 1997).

For each kept target advance takes the key span over the ops whose
source is present and allocates the run once.  Applying an op then
adds cf * (v << sd*B), for each value v of the source run, into the
target's slice moved up by kd: one C-level slice update (a map over
the slice) in place of one Python step per monomial.  Each profile m
carries a sign s(m) that the plan walk fixes: +1 for the empty
profile, and for every newly reached profile the sign that makes its
first reaching row positive.  The walk stores each row of a table it
meets as cf * s(source) * s(target), once, so a profile's run holds
s(m) times its polynomial and advance applies the rows as stored.
Snapshots read only the empty profile, whose sign is +1, and |cf|,
hence B, is unchanged, so no P_n changes.  The first op applied to a
target finds it all zeros and stores its values without the add, and
each program puts first the plain stores, a row whose signed cf is 1
and whose sd is 0 or a reuse with e = +1 and dd = 0: such a store
copies references to the source's ints and does no arithmetic.  A
base is only taken where it leaves a target that has a plain-store
row a plain store.  On the 2-row sets {0,1} and {-2,0,3} every kept
target has one, so a slot of a column costs the stores plus one add
or subtract per further op.

packed_snapshots keeps at boundary c only the profiles in live[c]:
{0} at n_max, and before that each profile reached at c that is empty
(P_c is read there, whether or not a row leads on to empty) or has a
table row into live[c + 1].  Every reached predecessor of a live
profile is live, so each kept run gets every row that reaches it, as
in a sweep that keeps every target, and every P_n is unchanged: the
prune skips only runs no snapshot reads, most of them near the end
(super-Latin keeps 62, then 8 of its 203 profiles).

The slot width B is a proven bound on both ring sizes, and only the
3-row packing reads it: on two rows every slot delta is 0, so advance
never shifts by B.  A coefficient of profile m after c columns is a
sum, over paths of column-table rows from the empty profile, of the
products of their cf, so its absolute value is at most beta_c(m),
where beta_0 is 1 at the empty profile and
beta_{c+1}(m2) = sum of |cf| * beta_c(m) over table rows m -> m2.
With 2^(B-1) > max beta over all columns and profiles, every digit
satisfies |c| < 2^(B-1), and such signed digits are unique for a
given integer.  So B is one sign bit over the bit length of that
maximum, rounded up to whole bytes.  Only the empty profile of a
3-row snapshot is ever decoded, by key_groups, which both the count
and unpack read.  Each nonzero key gives (a1, a23) and its value's
q-rows: adding 2^(B-1) to every slot and xor-ing it back turns the
signed digits into B-bit two's complement, bytes.translate, find and
rfind locate in C the nonzero span of each q-row of S slots, and that
span comes out as one int, cut into its digits by shifts.  So Python
never touches the zero slots outside those spans: 74-80% of the
snapshot slots of super-Latin N=14, trapezoid N=30 and Latin {0}^3
N=40, whose spans hold no zero at all.  Each q-row comes out as the
x2 coefficients at one x3 exponent, lowest a2 first (reversed in the
incidence layout, where a2 falls as the slot rises), which unpack and
the count read as they come.

advance is a pure column step.  A run holds zeros at the keys no term
reaches (30% of the slots at the widest column of a super-Latin N=10
sweep, almost none on two rows) and where coefficients cancel; the
decoding skips them once per snapshot.

The same column-transition table, read symbolically, gives the 2-row
transfer system (I - X*T) G = e_empty over Z[x][[X]]; solving it
fraction-free yields the rational kernel whose series expansion must
reproduce the sweep.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, lshift, mul, sub
from typing import Container, Iterable, Iterator, Sequence

from .frozen import Frozen
from .poly import (
    RING_KERNEL,
    RationalKernel,
    RingMismatchError,
    WeightPolynomial,
    solve_linear_system,
)
from .tiles import ShiftSpec, Tile, UNIT_WEIGHT, enumerate_tiles, ring_for

class BoardShape(Frozen):
    """Row r has n - shortfalls[r] cells at board size n; the series
    starts at n = min_n (0 by default)."""

    __slots__ = ("shortfalls", "min_n")
    _defaults = {"min_n": 0}

    @property
    def rows(self) -> int:
        return len(self.shortfalls)

    def row_lengths(self, n: int) -> tuple[int, ...]:
        return tuple(n - s for s in self.shortfalls)

    def blocked_flags(self, column: int) -> tuple[bool, ...]:
        """Rows without a cell in this column of the mirrored board,
        where each short row is missing a prefix, not a suffix."""
        return tuple(column < s for s in self.shortfalls)


def rectangle(rows: int) -> BoardShape:
    if rows not in (2, 3):
        raise ValueError(f"rectangle boards have 2 or 3 rows, got {rows}")
    return BoardShape((0,) * rows)


def trapezoid3() -> BoardShape:
    return BoardShape((0, 1, 2), min_n=3)


class SeriesTable(Frozen):
    """Weight polynomials P_n for n = first_n .. first_n+len-1."""

    __slots__ = ("first_n", "polys")

    def poly(self, n: int) -> WeightPolynomial:
        i = n - self.first_n
        if not 0 <= i < len(self.polys):
            raise IndexError(f"P_{n} not in table ({self.first_n}..{self.last_n})")
        return self.polys[i]

    @property
    def last_n(self) -> int:
        return self.first_n + len(self.polys) - 1


class _Run(list):
    """A profile's polynomial: the values at keys first, first + 1, ...,
    zeros included."""

    __slots__ = ("first",)

    def __init__(self, values: Iterable[int] = (), first: int = 0):
        super().__init__(values)
        self.first = first


#: (source, key delta, slot delta, signed cf): a planned table row
_TableRow = tuple[int, int, int, int]
#: a _TableRow and whether its source is a target built earlier in the
#: column (a reuse) rather than a profile of the column before
_Op = tuple[int, int, int, int, bool]
#: (target, base or None, ops, rows): a target's step in its program
_Entry = tuple[int, "int | None", list[_Op], list[_Op]]


def _store_first(ops: list[_Op]) -> list[_Op]:
    """ops with the plain stores, cf = 1 and no shift, first."""
    return [op for op in ops if op[3] == 1 and op[2] == 0] + [
        op for op in ops if op[3] != 1 or op[2] != 0]


def _program(rows: dict[int, list[_TableRow]]) -> list[_Entry]:
    """The column program of one table set (see the module docstring),
    rows mapping each target to every signed row into it.  Target A's
    base B, with a key offset dk, a slot offset dd >= 0 and a sign e,
    has its rows (s, kd, sd, cf), moved to (s, kd + dk, sd + dd,
    e * cf), among A's; A's ops are then the reuse (B, dk, dd, e) and
    A's other rows.  The base is the one with the most rows, from two
    up, among those that leave A a plain store where A has a plain-store
    row.  Each candidate B is found through one row of its own, its
    anchor, from the source with the fewest rows in the set: a B inside
    A has its anchor's image among A's rows, and that row fixes the
    move."""
    program: list[_Entry] = []
    load: dict[int, int] = {}
    for own in rows.values():
        for mask, *_ in own:
            load[mask] = load.get(mask, 0) + 1
    # (source, |cf|) -> (target, rows, kd, sd, cf) of each placed target's anchor row
    anchors: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    placed: dict[int, set[_TableRow]] = {}
    for m2 in sorted(rows, key=lambda m: len(rows[m])):
        own = rows[m2]
        mine = placed[m2] = set(own)
        stores = [row for row in own if row[2] == 0 and row[3] == 1]
        move, rank = None, (1, False)
        for mask, kd, sd, cf in own:
            for b, size, kb, sb, cb in anchors.get((mask, abs(cf)), ()):
                if size < rank[0] or sb > sd:
                    continue
                dk, dd, e = kd - kb, sd - sb, cf // cb
                plain = e == 1 and dd == 0
                if (size, plain) > rank and all(
                        (s, k + dk, d + dd, e * c) in mine for s, k, d, c in rows[b]) and (
                        plain or not stores or any(
                            (s, k - dk, -dd, e) not in placed[b] for s, k, _, _ in stores)):
                    move, rank = (b, dk, dd, e), (size, plain)
        full = _store_first([(*row, False) for row in own])
        if move is None:
            program.append((m2, None, full, full))
        else:
            b, dk, dd, e = move
            moved = {(s, k + dk, d + dd, e * c) for s, k, d, c in rows[b]}
            ops = [(*move, True)] + [(*row, False) for row in own if row not in moved]
            program.append((m2, b, _store_first(ops), full))
        if len(own) > 1:
            mask, kd, sd, cf = min(own, key=lambda row: load[row[0]])
            anchors.setdefault((mask, abs(cf)), []).append((m2, len(own), kd, sd, cf))
    return program


#: (a3, a2, cs): the coefficients of x2^a2, x2^(a2 + 1), ... at x3^a3
_Row = tuple[int, int, list[int]]
#: (a1, a23, rows): a key of a 3-row run and its exponent rows
_KeyGroup = tuple[int, int, Iterator[_Row]]


class _Sweep:
    """Shared machinery: tile ops, cached column tables and, for three
    rows, the slot layout and slot width of the packed coefficients,
    planned for boards up to n_max (0 for kernel2, which reads tables)."""

    def __init__(self, tiles: Sequence[Tile], board: BoardShape, n_max: int):
        self.k = board.rows
        self.ring = ring_for(board.rows)
        self.stride = n_max + 1
        # (anchor row, bits, key delta, (k1, k2), (p, q), coefficient) per tile
        found: list[tuple[int, int, int, tuple[int, int], tuple[int, int], int]] = []
        self.class_layout = self.k == 3
        for t in tiles:
            bits = 0
            for dx, row in t.cells:
                bits |= 1 << (dx * self.k + row - t.anchor_row)
            if t.weight != UNIT_WEIGHT:
                self.ring.index(t.weight)  # an unknown tag raises
            kd = {"x": 1, "x1": self.stride, "x23": 1}.get(t.weight, 0)
            inc = cls = (0, 0)
            if self.k == 3:
                rows = [row for _, row in t.cells]
                k1 = rows.count(1) - (t.weight in ("x2", "x23"))
                k2 = rows.count(2) - (t.weight in ("x3", "x23"))
                if k1 < 0 or k2 < 0:
                    raise ValueError(f"weight {t.weight} names a row tile {t.cells} misses")
                x1 = t.weight == "x1"
                inc, cls = (k1, k2), (x1 - k1, x1 - k2)
                if min(cls) < 0 or (x1 and 0 not in rows):
                    self.class_layout = False
            found.append((t.anchor_row, bits, kd, inc, cls, t.coefficient))
        ops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(self.k)]
        for row, bits, kd, inc, cls, cf in found:
            p, q = cls if self.class_layout else inc
            ops[row].append((bits, kd, p + self.stride * q, cf))
        self.ops_by_row = ops
        self._tables: dict[tuple[int, tuple[bool, ...]], list[tuple[int, int, int, int]]] = {}
        self.bits, self.live, self._programs = self._plan(board, n_max)

    def _plan(
        self, board: BoardShape, n_max: int
    ) -> tuple[int, list[frozenset[int]], dict[tuple[bool, ...], list[_Entry]]]:
        """The slot width B, live[c] for every boundary c and the column
        program of every table set, from one walk over the column tables
        on either ring size: forwards for B, then back through the
        target sets it kept for live.  The first time the walk meets a
        table it fixes the sign s(m2) of each newly reached target and
        stores each row's cf as cf * s(mask) * s(m2).  Each table set's
        program is planned once, from every signed row the walk met with
        those blocked flags (_program)."""
        bound = {0: 1}
        sign = {0: 1}
        top = 1
        targets: dict[tuple[int, tuple[bool, ...]], frozenset[int]] = {}
        # blocked flags -> target -> every signed row into it
        rows: dict[tuple[bool, ...], dict[int, list[_TableRow]]] = {}
        walked = []
        for column in range(n_max):
            blocked = board.blocked_flags(column)
            into = rows.setdefault(blocked, {})
            nxt: dict[int, int] = {}
            for mask, b in bound.items():
                table = self.column_table(mask, blocked)
                if (mask, blocked) not in targets:
                    targets[mask, blocked] = frozenset(m2 for m2, *_ in table)
                    # a profile's first reaching row comes out positive
                    sm = sign[mask]
                    table[:] = [(m2, kd, sd, cf * sm * sign.setdefault(m2, sm if cf > 0 else -sm))
                                for m2, kd, sd, cf in table]
                    for m2, kd, sd, cf in table:
                        into.setdefault(m2, []).append((mask, kd, sd, cf))
                for m2, _, _, cf in table:
                    nxt[m2] = nxt.get(m2, 0) + abs(cf) * b
            walked.append([(m, targets[m, blocked]) for m in bound])
            bound = nxt
            top = max(top, max(bound.values(), default=0))
        live = [frozenset({0})]
        for column in reversed(walked):
            live.append(frozenset([0, *(m for m, out in column if not live[-1].isdisjoint(out))]))
        programs = {blocked: _program(into) for blocked, into in rows.items()}
        # a sign bit, then whole bytes so unpack can slice the digits
        return -(-(top.bit_length() + 1) // 8) * 8, live[::-1], programs

    def column_table(
        self, mask0: int, blocked: tuple[bool, ...]
    ) -> list[tuple[int, int, int, int]]:
        """(next profile, key delta, slot delta, coefficient) rows,
        cached; once the plan has walked a table, each coefficient is
        cf * s(mask0) * s(next profile)."""
        key = (mask0, blocked)
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        acc: dict[tuple[int, int, int], int] = {}
        stack = [(0, mask0, 0, 0, 1)]
        while stack:
            r, mask, kd, sd, coeff = stack.pop()
            if r == self.k:
                kk = (mask, kd, sd)
                acc[kk] = acc.get(kk, 0) + coeff
                continue
            if blocked[r]:
                if not mask & 1:
                    stack.append((r + 1, mask >> 1, kd, sd, coeff))
                continue
            if mask & 1:
                stack.append((r + 1, mask >> 1, kd, sd, coeff))
                continue
            for bits, k, s, c in self.ops_by_row[r]:
                if mask & bits == 0:
                    stack.append((r + 1, (mask | bits) >> 1, kd + k, sd + s, coeff * c))
        table = [(m, k, s, c) for (m, k, s), c in acc.items() if c != 0]
        self._tables[key] = table
        return table

    def advance(
        self,
        dist: dict[int, _Run],
        blocked: tuple[bool, ...],
        *,
        live: Container[int],
    ) -> dict[int, _Run]:
        """One column, run as the program of its table set; only the
        target profiles in live are kept.  A target whose base is kept
        starts from the base's finished run, moved; any other applies
        all its rows.  The ops a source in dist or a built base provides
        are found, the target's run is allocated once over their key
        span, and the first of them stores into its zeros: a plain
        store, with no arithmetic, wherever the program has one, since
        it puts those first."""
        bits = self.bits
        ndist: dict[int, _Run] = {}
        for m2, base, ops, rows in self._programs[blocked]:
            if m2 not in live:
                continue
            if base not in live:
                ops = rows
            found = [(run, run.first + kd, sd, cf) for mask, kd, sd, cf, made in ops
                     if (run := (ndist if made else dist).get(mask)) is not None]
            if not found:
                continue
            lo = min(at for _, at, _, _ in found)
            hi = max(at + len(run) for run, at, _, _ in found)
            tgt = ndist[m2] = _Run(repeat(0, hi - lo), lo)
            for i, (run, at, sd, cf) in enumerate(found):
                a = at - lo
                b = a + len(run)
                src = map(lshift, run, repeat(sd * bits)) if sd else run
                if not i:
                    tgt[a:b] = src if cf == 1 else map(mul, src, repeat(cf))
                elif cf == 1:
                    tgt[a:b] = map(add, tgt[a:b], src)
                elif cf == -1:
                    tgt[a:b] = map(sub, tgt[a:b], src)
                else:
                    tgt[a:b] = map(add, tgt[a:b], map(mul, src, repeat(cf)))
        return ndist

    def unpack(
        self, packed: _Run, row_lengths: tuple[int, ...]
    ) -> WeightPolynomial:
        """The polynomial of a snapshot's empty profile on a board whose
        rows have these lengths.  WeightPolynomial drops the zero
        coefficients and checks every exponent, which exact cover keeps
        non-negative."""
        if self.k == 2:
            terms = {(x,): c for x, c in enumerate(packed, packed.first)}
            return WeightPolynomial(self.ring, terms)
        terms = {}
        for a1, a23, rows in self.key_groups(packed, row_lengths):
            for a3, a2, cs in rows:
                for x2, c in enumerate(cs, a2):
                    terms[a1, x2, a3, a23] = c
        return WeightPolynomial(self.ring, terms)

    def key_groups(self, packed: _Run, row_lengths: tuple[int, ...]) -> Iterator[_KeyGroup]:
        """(a1, a23, rows) for each nonzero key of a 3-row run on a
        board whose rows have these lengths.  rows decodes the key's
        value only when iterated: (a3, a2, cs) for each x3 exponent a3
        with a nonzero coefficient, cs being the coefficients of x2^a2,
        x2^(a2 + 1), ... through the last nonzero one."""
        _, cells1, cells2 = row_lengths
        for key, v in enumerate(packed, packed.first):
            if v:
                a1, a23 = divmod(key, self.stride)
                yield a1, a23, self._exponent_rows(v, a1, cells1 - a23, cells2 - a23)

    def _exponent_rows(self, v: int, a1: int, free2: int, free3: int) -> Iterator[_Row]:
        """v's q-rows as exponent rows a_r = free_r - k_r, free_r being
        cells_r - a23 and k_r a1 - slot (class layout) or slot (incidence)."""
        if self.class_layout:
            for q, p, cs in balanced_digits(v, self.bits, self.stride):
                yield free3 - a1 + q, free2 - a1 + p, cs
        else:
            for q, p, cs in balanced_digits(v, self.bits, self.stride):
                yield free3 - q, free2 - p - len(cs) + 1, cs[::-1]


class Snapshot:
    """P_n at one column boundary, still the run of the empty profile
    the sweep left there; len() is its slot count.  A count reads it in
    place: dense_run() gives a 2-row snapshot's x coefficients and
    key_groups() a 3-row one's exponent rows, as _Sweep.key_groups
    describes.  poly() unpacks it into a WeightPolynomial."""

    __slots__ = ("_sweep", "_run", "_row_lengths")

    def __init__(self, sweep: _Sweep, run: _Run, row_lengths: tuple[int, ...]):
        self._sweep, self._run, self._row_lengths = sweep, run, row_lengths

    def __len__(self) -> int:
        return len(self._run)

    def poly(self) -> WeightPolynomial:
        return self._sweep.unpack(self._run, self._row_lengths)

    def _check_rows(self, k: int) -> None:
        if self._sweep.k != k:
            raise RingMismatchError(f"a {self._sweep.k}-row snapshot read as {k} rows")

    def dense_run(self) -> tuple[int, list[int]]:
        """(first, values): the coefficient of x^(first + i) is values[i]."""
        self._check_rows(2)
        return self._run.first, self._run

    def key_groups(self) -> Iterator[_KeyGroup]:
        self._check_rows(3)
        return self._sweep.key_groups(self._run, self._row_lengths)


_NONZERO = bytes([0] + [1] * 255)


def balanced_digits(v: int, bits: int, width: int) -> Iterator[tuple[int, int, list[int]]]:
    """The digits d_s of v = sum_s d_s * 2^(bits*s), where |d_s| <
    2^(bits-1) and bits is a multiple of 8, cut into rows of width
    slots: (r, i, ds) for each row r that holds a nonzero digit, ds
    being d_s at s = r*width + i, r*width + i + 1, ... through the row's
    last nonzero digit.  The bulk work is done by C-level int and bytes
    operations, which skip the zero slots outside those spans."""
    step = bits // 8
    slots = abs(v).bit_length() // bits + 1
    half = int.from_bytes((bytes(step - 1) + b"\x80") * slots, "little")
    # slot by slot, v + half holds d_s + 2^(bits-1) in [1, 2^bits); the
    # xor turns it into d_s in two's complement, zero exactly when d_s is
    biased = v + half
    raw = biased.to_bytes(step * slots, "little")
    seen = (biased ^ half).to_bytes(step * slots, "little").translate(_NONZERO)
    mask, top = (1 << bits) - 1, 1 << (bits - 1)
    span = width * step
    at = seen.find(1)
    while at >= 0:
        r, i = divmod(at, span)
        end = r * span + span
        start = at - at % step
        last = seen.rfind(1, at, end)
        stop = last - last % step + step
        row = int.from_bytes(raw[start:stop], "little")
        shifts = range(0, 8 * (stop - start), bits)
        yield r, i // step, [(row >> s & mask) - top for s in shifts]
        at = seen.find(1, end)


def packed_snapshots(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> Iterator[tuple[int, Snapshot]]:
    """(n, P_n) for every board size from board.min_n up to n_max, from
    one sweep, each yielded as its column boundary is reached, P_n as a
    Snapshot.

    A board with short rows is swept mirrored: its blocked cells then
    form a fixed prefix, so the snapshot after column n-1 is P_n for
    every n, exactly as on a rectangle.  Each tile is reflected too
    (dx -> width-1-dx, cells back in scan order, same coefficient and
    weight), which maps the tilings of the board one-to-one onto those
    of its mirror image with the same weights.
    """
    if n_max < board.min_n:
        raise ValueError(f"this board's series starts at n={board.min_n}")
    if any(board.shortfalls):
        tiles = [
            Tile(tuple(sorted((t.width - 1 - dx, r) for dx, r in t.cells)),
                 t.coefficient, t.weight)
            for t in tiles
        ]
    sweep = _Sweep(tiles, board, n_max)
    dist = {0: _Run([1])}
    if board.min_n == 0:
        yield 0, Snapshot(sweep, _Run([1]), board.row_lengths(0))
    for n in range(1, n_max + 1):
        dist = sweep.advance(dist, board.blocked_flags(n - 1), live=sweep.live[n])
        if n >= board.min_n:
            yield n, Snapshot(sweep, dist.get(0, _Run()), board.row_lengths(n))


def weight_snapshots(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> Iterator[tuple[int, WeightPolynomial]]:
    """packed_snapshots with each P_n unpacked: a caller that uses each
    P_n once and drops it holds one column's profiles and one P_n,
    however long the run."""
    for n, snapshot in packed_snapshots(tiles, board, n_max):
        yield n, snapshot.poly()


def weight_series(
    tiles: Sequence[Tile], board: BoardShape, n_max: int
) -> SeriesTable:
    """All of weight_snapshots in one table, every P_n alive at once;
    a caller that uses each P_n once should iterate the snapshots."""
    polys = tuple(p for _, p in weight_snapshots(tiles, board, n_max))
    return SeriesTable(first_n=board.min_n, polys=polys)


#: widest 2-row shift set kernel2 takes, in columns with column 0
#: counted: span w has up to 2^(w-1) transfer states, 128 at w = 8
MAX_KERNEL_SPAN = 8


class KernelSpanError(ValueError):
    """A shift set too wide for kernel2 to finish."""


def kernel2(shifts: Iterable[int]) -> RationalKernel:
    """Rational kernel G(x, X) = sum_n P_n(x) X^n for a 2-row spec.

    States are the reachable column-boundary profiles; the transfer
    polynomial T[i][j] collects coefficient*x^weight over transitions.
    G solves (I - X*T) G = e_empty, taken fraction-free.  A shift set
    spanning more than MAX_KERNEL_SPAN columns, counting column 0 (the
    unshifted cell), raises KernelSpanError before any work."""
    shifts = frozenset(shifts)
    columns = shifts | {0}
    span = max(columns) - min(columns) + 1
    if span > MAX_KERNEL_SPAN:
        raise KernelSpanError(
            f"kernel shift sets span at most {MAX_KERNEL_SPAN} columns, 0 included; "
            f"{sorted(shifts)} spans {span}"
        )
    sweep = _Sweep(enumerate_tiles(ShiftSpec.two_rows(shifts)), rectangle(2), 0)
    open_col = (False, False)
    # row i of I - X*T, found as its state is: {j: {(x degree, X degree): c}}
    order = [0]
    index = {0: 0}
    rows: list[dict[int, dict[tuple[int, int], int]]] = []
    for i, mask in enumerate(order):  # order grows as states are found
        row = {i: {(0, 0): 1}}
        for m2, delta, _, cf in sweep.column_table(mask, open_col):
            if m2 not in index:
                index[m2] = len(order)
                order.append(m2)
            row.setdefault(index[m2], {})[delta, 1] = -cf  # one table row per (m2, delta)
        rows.append(row)
    amat = [[WeightPolynomial(RING_KERNEL, row.get(j, {})) for j in range(len(order))]
            for row in rows]
    rhs = [RING_KERNEL.one()] + [RING_KERNEL.zero()] * (len(order) - 1)
    num, den = solve_linear_system(amat, rhs)
    return RationalKernel.from_bivariate(num, den, "X")
