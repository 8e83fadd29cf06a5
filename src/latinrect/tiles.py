"""Shift specifications and the tile alphabet they induce.

A shift specification lists, for each ordered pair of rows (r, r')
with r < r', the set of forbidden offsets s: the bad events are
"row r position j holds the same symbol as row r' position j+s".
Each bad event is drawn as an edge between the two cells involved.
Inclusion-exclusion over sets of bad events then factors through the
connected components of the union of their edges, and a component is
a *tile*: a set of at most one cell per row, defined up to horizontal
translation, carrying an integer coefficient and one weight variable.

The coefficient of a tile with cell set T is the signed count of the
connected edge subsets that span T, each subset weighted (-1)^#edges.
A tile has at most three cells, one per row, so that count depends
only on how many cells and edges it has, and the table _COEFFICIENTS
is the implementation: a singleton gives 1, a lone edge -1, a
two-edge path on three cells +1, and three cells with all three
edges present 3*(+1) + (-1)^3 = +2.  Anything else is disconnected
and gives 0.

Weights by row support, with k rows in play:
  k=2: row-0 singleton -> 1, row-1 singleton -> x, any 2-cell -> 1.
  k=3: row-0 singleton -> 1, row-1 -> x2, row-2 -> x3, a multi-cell
       tile on rows {1,2} -> x23, and any multi-cell tile touching
       row 0 -> x1.
The row-0 singleton must stay weightless: the x1 exponent counts the
cells of row 0 that are *committed* by a bad event, which is what the
umbral operators consume downstream.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .frozen import Frozen
from .poly import RING_2ROW, RING_3ROW, PolyRing

UNIT_WEIGHT = "1"


class ShiftSpec(Frozen):
    """Forbidden shift sets for 2 or 3 rows, each empty by default."""

    __slots__ = ("rows", "s12", "s13", "s23")
    _defaults = dict.fromkeys(("s12", "s13", "s23"), frozenset())

    def _validate(self) -> None:
        if self.rows not in (2, 3):
            raise ValueError(f"rows must be 2 or 3, got {self.rows}")
        if self.rows == 2 and (self.s13 or self.s23):
            raise ValueError("a 2-row spec admits only the s12 shift set")
        for name in ("s12", "s13", "s23"):
            val = getattr(self, name)
            if not isinstance(val, frozenset):
                object.__setattr__(self, name, frozenset(val))

    @classmethod
    def two_rows(cls, s12: Iterable[int]) -> "ShiftSpec":
        return cls(rows=2, s12=frozenset(s12))

    @classmethod
    def three_rows(
        cls, s12: Iterable[int], s13: Iterable[int], s23: Iterable[int]
    ) -> "ShiftSpec":
        return cls(rows=3, s12=frozenset(s12), s13=frozenset(s13), s23=frozenset(s23))

    def pair_set(self, r: int, rp: int) -> frozenset[int]:
        if not 0 <= r < rp < self.rows:
            raise ValueError(f"bad row pair ({r}, {rp}) for {self.rows} rows")
        if (r, rp) == (0, 1):
            return self.s12
        if (r, rp) == (0, 2):
            return self.s13
        return self.s23

    def describe(self) -> str:
        def fmt(s: frozenset[int]) -> str:
            return "{" + ",".join(str(v) for v in sorted(s)) + "}"

        if self.rows == 2:
            return f"S={fmt(self.s12)}"
        return f"S12={fmt(self.s12)} S13={fmt(self.s13)} S23={fmt(self.s23)}"


class Tile(Frozen):
    """A connected component shape: cells (dx, row), translated so the
    smallest dx is 0 and sorted in column-major scan order.  cells[0]
    is therefore the cell the sweep anchors the tile at."""

    __slots__ = ("cells", "coefficient", "weight")

    def _validate(self) -> None:
        if not self.cells:
            raise ValueError("empty tile")
        if min(dx for dx, _ in self.cells) != 0:
            raise ValueError(f"tile not left-normalized: {self.cells!r}")
        rows = [r for _, r in self.cells]
        if len(set(rows)) != len(rows):
            raise ValueError(f"tile with two cells on one row: {self.cells!r}")
        if tuple(sorted(self.cells)) != self.cells:
            raise ValueError(f"tile cells not in scan order: {self.cells!r}")
        if self.coefficient == 0:
            raise ValueError("tile with zero coefficient")

    @property
    def width(self) -> int:
        return max(dx for dx, _ in self.cells) + 1

    @property
    def anchor_row(self) -> int:
        return self.cells[0][1]

    def describe(self) -> str:
        body = "+".join(f"({dx},{r})" for dx, r in self.cells)
        return f"{body} coeff={self.coefficient:+d} weight={self.weight}"


def _available_edges(
    cells: tuple[tuple[int, int], ...], spec: ShiftSpec
) -> list[tuple[int, int]]:
    """Indices (i, j) of cell pairs joined by a bad-event edge."""
    out = []
    for i, j in itertools.combinations(range(len(cells)), 2):
        (d1, r1), (d2, r2) = cells[i], cells[j]
        if r1 > r2:
            (d1, r1), (d2, r2) = (d2, r2), (d1, r1)
        if d2 - d1 in spec.pair_set(r1, r2):
            out.append((i, j))
    return out


#: tile coefficient by (cells, edges among them); see the module docstring
_COEFFICIENTS = {(1, 0): 1, (2, 1): -1, (3, 2): 1, (3, 3): 2}


def tile_coefficient(cells: tuple[tuple[int, int], ...], spec: ShiftSpec) -> int:
    """Signed count of connected spanning edge subsets of the cell set."""
    return _COEFFICIENTS.get((len(cells), len(_available_edges(cells, spec))), 0)


def singleton_weight(row: int, rows: int) -> str:
    if rows == 2:
        return UNIT_WEIGHT if row == 0 else "x"
    return (UNIT_WEIGHT, "x2", "x3")[row]


def multicell_weight(cell_rows: Iterable[int], rows: int) -> str:
    if rows == 2:
        return UNIT_WEIGHT
    return "x1" if 0 in set(cell_rows) else "x23"


def _normalize(cells: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    cells = list(cells)
    lo = min(dx for dx, _ in cells)
    return tuple(sorted((dx - lo, r) for dx, r in cells))


def enumerate_tiles(spec: ShiftSpec) -> tuple[Tile, ...]:
    """The full tile alphabet of a spec, deterministically ordered."""
    shapes: set[tuple[tuple[int, int], ...]] = set()
    for r in range(spec.rows):
        shapes.add(((0, r),))
    for r, rp in itertools.combinations(range(spec.rows), 2):
        for s in spec.pair_set(r, rp):
            # a bad event: upper-row cell at offset 0, lower at the shift
            shapes.add(_normalize(((0, r), (s, rp))))
    if spec.rows == 3:
        # a 3-cell component needs two joining edges; generate every
        # way of picking them and let the coefficient count the rest
        for a in spec.s12:
            for c in spec.s13:
                shapes.add(_normalize(((0, 0), (a, 1), (c, 2))))
            for b in spec.s23:
                shapes.add(_normalize(((0, 0), (a, 1), (a + b, 2))))
        for c in spec.s13:
            for b in spec.s23:
                shapes.add(_normalize(((0, 0), (c - b, 1), (c, 2))))
    tiles = []
    for cells in shapes:
        coeff = tile_coefficient(cells, spec)
        if coeff == 0:
            raise AssertionError(f"degenerate component {cells!r}")
        weight = (
            singleton_weight(cells[0][1], spec.rows)
            if len(cells) == 1
            else multicell_weight((r for _, r in cells), spec.rows)
        )
        tiles.append(Tile(cells=cells, coefficient=coeff, weight=weight))
    tiles.sort(key=lambda t: (len(t.cells), t.cells))
    return tuple(tiles)


def ring_for(rows: int) -> PolyRing:
    if rows == 2:
        return RING_2ROW
    if rows == 3:
        return RING_3ROW
    raise ValueError(f"no weight ring for {rows} rows")


def dump_tiles(tiles: Iterable[Tile]) -> str:
    return "\n".join(t.describe() for t in tiles)
