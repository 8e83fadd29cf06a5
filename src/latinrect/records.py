"""Sequence records, and the Latin triangles the oracle counts
outright.  This loads the oracle and `frozen` and no other module of
the package, so the `triangle` command loads no sweep engine."""

from __future__ import annotations

import math
import time
from typing import Any

from . import __version__ as ENGINE_VERSION
from . import oracle
from .frozen import Frozen

TRIANGLE = "triangle-oracle"


class SequenceRecord(Frozen):
    """One computed prefix, with enough metadata to reproduce it.  Its
    series, P_n for n <= series_to from the same sweep, is neither
    serialised nor compared."""

    __slots__ = ("family", "params", "offset", "terms", "reduced", "provenance",
                 "engine_version", "duration_seconds", "series")
    _defaults = {"reduced": True, "engine_version": ENGINE_VERSION}

    def _values(self) -> tuple:
        return super()._values()[:-1]  # all but series

    @property
    def last_n(self) -> int:
        return self.offset + len(self.terms) - 1

    def term(self, n: int) -> int:
        i = n - self.offset
        if not 0 <= i < len(self.terms):
            raise IndexError(f"term {n} outside {self.offset}..{self.last_n}")
        return self.terms[i]

    def indexed_terms(self) -> list[tuple[int, int]]:
        return [(self.offset + i, t) for i, t in enumerate(self.terms)]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "params": self.params,
            "offset": self.offset,
            "terms": [str(t) for t in self.terms],
            "reduced": self.reduced,
            "provenance": self.provenance,
            "engine_version": self.engine_version,
            "duration_seconds": self.duration_seconds,
        }


def check_n_terms(n_terms: int) -> None:
    if n_terms < 1:
        raise ValueError(f"need at least one term, got {n_terms}")


def triangle_seq(n_terms: int) -> SequenceRecord:
    """Latin triangles (rows n..1), oracle-only; terms for n = 3..n_terms+2."""
    t0 = time.perf_counter()
    check_n_terms(n_terms)
    n_max = n_terms + 2
    if n_max > oracle.MAX_N_TRIANGLE:
        raise oracle.OracleLimitError(
            f"triangle counts stop at n={oracle.MAX_N_TRIANGLE}; asked for n={n_max}"
        )
    terms = [oracle.count_latin_triangle(n) for n in range(3, n_max + 1)]
    return SequenceRecord(
        family=TRIANGLE,
        params={},
        offset=3,
        terms=terms,
        provenance="oracle",
        duration_seconds=time.perf_counter() - t0,
        series={},
    )


def apply_total(record: SequenceRecord) -> SequenceRecord:
    """Drop the reduction: multiply term n by n! (row 0 free again)."""
    if not record.reduced:
        return record
    terms = [t * math.factorial(n) for n, t in record.indexed_terms()]
    fields = {name: getattr(record, name) for name in record.__slots__}
    return SequenceRecord(**{**fields, "terms": terms, "reduced": False})
