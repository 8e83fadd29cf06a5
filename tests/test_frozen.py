"""The package's immutable records, plain slot classes on
latinrect.frozen.Frozen: a field cannot be assigned or deleted, two records
are equal exactly when class and fields agree, equal records hash
alike, and the repr names every field."""

from __future__ import annotations

import pytest

from latinrect.dp import BoardShape, SeriesTable
from latinrect.frozen import Frozen
from latinrect.oeis import OeisReport
from latinrect.poly import PolyRing
from latinrect.records import SequenceRecord
from latinrect.sequences import FAMILIES, GEN_DER, Family
from latinrect.tiles import ShiftSpec, Tile

GEN = FAMILIES[GEN_DER]

#: (class, fields, the same fields with one changed)
CASES = [
    (PolyRing, (("x",),), (("y",),)),
    (ShiftSpec, (2, frozenset({0}), frozenset(), frozenset()),
     (2, frozenset({1}), frozenset(), frozenset())),
    (Tile, (((0, 0),), 1, "1"), (((0, 0),), 1, "x")),
    (BoardShape, ((0, 1, 2), 3), ((0, 1, 2), 0)),
    (SeriesTable, (0, ()), (1, ())),
    (Family, tuple(getattr(GEN, f) for f in Family.__slots__),
     ("other", *(getattr(GEN, f) for f in Family.__slots__[1:]))),
    (OeisReport, ("A000271", "match", 5, None, ""), ("A000271", "mismatch", 5, 4, "a(4)")),
    (SequenceRecord, ("gen-der", {}, 1, [0, 1], True, "engine", "0", 0.1, {}),
     ("gen-der", {}, 1, [0, 2], True, "engine", "0", 0.1, {})),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,fields,changed", CASES, ids=IDS)
class TestFrozenRecords:
    def test_fields_cannot_change(self, cls, fields, changed):
        value = cls(*fields)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(*fields)

    def test_equal_by_class_and_fields(self, cls, fields, changed):
        assert cls(*fields) == cls(*fields)
        assert cls(*fields) != cls(*changed)
        twin = type("Twin", (Frozen,), {"__slots__": cls.__slots__})
        assert cls(*fields) != twin(*fields)
        if cls is not SequenceRecord:  # its params and terms are a dict and a list
            assert hash(cls(*fields)) == hash(cls(*fields))

    def test_keywords_and_repr(self, cls, fields, changed):
        value = cls(**dict(zip(cls.__slots__, fields)))
        assert value == cls(*fields)
        body = ", ".join(f"{n}={f!r}" for n, f in zip(cls.__slots__, fields))
        assert repr(value) == f"{cls.__qualname__}({body})"


class TestConstruction:
    def test_defaults(self):
        assert BoardShape((0, 0)).min_n == 0
        spec = ShiftSpec(rows=3, s12={1})
        assert (spec.s13, spec.s23) == (frozenset(), frozenset())

    def test_shift_sets_become_frozensets(self):
        spec = ShiftSpec(3, [0, 1, 1], {-1}, (2,))
        assert spec.s12 == frozenset({0, 1}) and type(spec.s12) is frozenset
        assert all(type(s) is frozenset for s in (spec.s13, spec.s23))
        assert spec == ShiftSpec.three_rows({0, 1}, {-1}, {2})
        assert hash(spec) == hash(ShiftSpec.three_rows({0, 1}, {-1}, {2}))

    def test_bad_fields_raise_type_error(self):
        with pytest.raises(TypeError, match="takes the fields"):
            PolyRing()
        with pytest.raises(TypeError):
            PolyRing(("x",), ("y",))
        with pytest.raises(TypeError):
            PolyRing(("x",), variables=("y",))
        with pytest.raises(TypeError):
            BoardShape((0,), size=3)

    def test_series_is_not_compared(self):
        fields = ("triangle-oracle", {}, 3, [1], True, "oracle", "0", 0.0)
        assert SequenceRecord(*fields, {}) == SequenceRecord(*fields, {3: None})
