"""Sequence assembly: engine runs, oracle cross-checks, result records.

Each engine family is one row of FAMILIES, and run_family computes its
terms with the sweep engine, one P_n at a time as the sweep yields it,
replays a prefix on the brute-force oracle as it goes and refuses to
return on any disagreement: a mismatch raises OracleMismatchError
carrying the tile alphabet and the offending weight polynomial,
because a wrong count with a plausible look is the worst failure mode
this package has.  Latin triangles have no engine route: the oracle
counts them outright, in `records`, which loads no sweep engine.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from . import oracle, umbra
from .dp import packed_snapshots, rectangle, trapezoid3
from .frozen import Frozen
from .oracle import OracleMismatchError
from .poly import WeightPolynomial
from .records import SequenceRecord, check_n_terms
from .tiles import ShiftSpec, dump_tiles, enumerate_tiles

GEN_DER = "gen-der"
GLR3 = "glr3"
TRAPEZOID = "trapezoid"

#: trapezoid boards in shift-set form: rows n, n-1, n-2, middle cells
#: avoid the identity at offsets {0,-1}, top at {0,-2} against row 0
#: and {0,-1} against the middle row
TRAPEZOID_SPEC = ShiftSpec.three_rows({0, -1}, {0, -2}, {0, -1})


class Family(Frozen):
    """What run_family needs to know about one engine family.  The
    oracle and umbral functions are looked up in their modules at call
    time, so wrapping or patching `oracle.count_*` and
    `umbra.umbral_eval_*` takes effect."""

    __slots__ = ("name", "spec", "board", "umbral", "oracle", "oracle_cap", "default_depth")


FAMILIES = {
    f.name: f
    for f in (
        Family(
            name=GEN_DER,
            spec=lambda p: ShiftSpec.two_rows(p["shifts"]),
            board=rectangle(2),
            umbral=umbra.UmbralKind.TWO_ROW,
            oracle=lambda spec, n: oracle.count_generalized_perms(spec.s12, n),
            oracle_cap=oracle.MAX_N_TWO_ROWS, default_depth=7,
        ),
        Family(
            name=GLR3,
            spec=lambda p: ShiftSpec.three_rows(p["s12"], p["s13"], p["s23"]),
            board=rectangle(3),
            umbral=umbra.UmbralKind.THREE_ROW_RECTANGLE,
            oracle=lambda spec, n: oracle.count_glr3(spec.s12, spec.s13, spec.s23, n),
            oracle_cap=oracle.MAX_N_THREE_ROWS, default_depth=5,
        ),
        Family(
            name=TRAPEZOID,
            spec=lambda p: TRAPEZOID_SPEC,
            board=trapezoid3(),
            umbral=umbra.UmbralKind.THREE_ROW_TRAPEZOID,
            oracle=lambda spec, n: oracle.count_trapezoid3(n),
            oracle_cap=oracle.MAX_N_TRAPEZOID, default_depth=7,
        ),
    )
}


def run_family(
    family: Family,
    params: Mapping[str, Iterable[int]],
    n_terms: int,
    oracle_depth: int | None = None,
    series_to: int | None = None,
) -> SequenceRecord:
    """Terms n = first .. first+n_terms-1 of one engine family, first
    being the smallest non-empty board, the prefix through oracle_depth
    checked against the oracle.  Each P_n is evaluated and checked as
    the sweep yields it, then dropped unless n <= series_to (the sweep
    runs on to series_to if needed)."""
    t0 = time.perf_counter()
    check_n_terms(n_terms)
    depth = family.default_depth if oracle_depth is None else oracle_depth
    if depth > family.oracle_cap:
        raise oracle.OracleLimitError(
            f"the {family.name} oracle is capped at n={family.oracle_cap}; "
            f"asked for oracle depth {depth}"
        )
    params = {k: sorted(set(v)) for k, v in params.items()}
    spec = family.spec(params)
    tiles = enumerate_tiles(spec)
    first = max(family.board.min_n, 1)
    n_max = first + n_terms - 1
    keep = -1 if series_to is None else series_to
    terms: list[int] = []
    series: dict[int, WeightPolynomial] = {}
    for n, snapshot in packed_snapshots(tiles, family.board, max(n_max, keep)):
        if n <= keep:
            series[n] = snapshot.poly()
        if not first <= n <= n_max:
            continue
        term = umbra.umbral_eval(family.umbral, snapshot, n)
        terms.append(term)
        if n <= depth:
            want = family.oracle(spec, n)
            if term != want:
                raise OracleMismatchError(
                    f"engine/oracle mismatch at n={n} for {family.name} "
                    f"{spec.describe()}: engine={term} oracle={want}",
                    f"tiles:\n{dump_tiles(tiles)}\nP_{n} = {snapshot.poly().canonical_str()}",
                )
    return SequenceRecord(
        family=family.name,
        params=params,
        offset=first,
        terms=terms,
        provenance="engine",
        duration_seconds=time.perf_counter() - t0,
        series=series,
    )


def gen_der_seq(
    shifts: Iterable[int], n_terms: int, oracle_depth: int | None = None
) -> SequenceRecord:
    """Permutations with i - pi(i) never in the shift set, n = 1..n_terms."""
    return run_family(FAMILIES[GEN_DER], {"shifts": shifts}, n_terms, oracle_depth)


def glr3_seq(
    s12: Iterable[int],
    s13: Iterable[int],
    s23: Iterable[int],
    n_terms: int,
    oracle_depth: int | None = None,
) -> SequenceRecord:
    """Reduced 3-row boards avoiding the three shift sets, n = 1..n_terms."""
    return run_family(
        FAMILIES[GLR3], {"s12": s12, "s13": s13, "s23": s23}, n_terms, oracle_depth
    )


def trapezoid_seq(n_terms: int, oracle_depth: int | None = None) -> SequenceRecord:
    """Latin trapezoids with rows n, n-1, n-2; terms for n = 3..n_terms+2."""
    return run_family(FAMILIES[TRAPEZOID], {}, n_terms, oracle_depth)


def run_job(
    family: str,
    params: Mapping[str, Iterable[int]],
    n_terms: int,
    oracle_depth: int | None = None,
    series_to: int | None = None,
) -> SequenceRecord:
    """One engine job by family name; the other arguments are run_family's."""
    if family in FAMILIES:
        return run_family(FAMILIES[family], params, n_terms, oracle_depth, series_to)
    raise ValueError(f"unknown family {family!r}")
