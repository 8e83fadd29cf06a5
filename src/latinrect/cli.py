"""Command-line front end.

Exit codes: 0 success (including an OEIS match when one was asked
for); 1 unexpected error; 2 usage error; 3 engine/oracle mismatch;
4 OEIS mismatch; 5 OEIS check unverifiable (offline with no cache,
a cached b-file that does not parse, or no overlapping terms).  A
requested check never passes silently.

Each command imports its engine modules when it runs, not when this
module loads: start-up is most of a short job, and the sources are
recompiled whenever bytecode is not cached, so a `kernel` job should
not pay for the sequence, oracle, umbral and OEIS modules it never
calls.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__

if TYPE_CHECKING:
    from .sequences import SequenceRecord

EXIT_ORACLE_MISMATCH = 3
EXIT_OEIS_MISMATCH = 4
EXIT_OEIS_UNVERIFIABLE = 5


def _parse_shifts(value: str) -> tuple[int, ...]:
    body = value.strip().strip("{}")
    if not body:
        return ()
    try:
        return tuple(sorted({int(p) for p in re.split(r"[,\s]+", body) if p}))
    except ValueError:
        raise click.BadParameter(f"expected integers like '0,1,-2', got {value!r}")


class ShiftList(click.ParamType):
    name = "shifts"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        return _parse_shifts(value)


SHIFTS = ShiftList()


def _oeis_id(ctx, param, value: str | None) -> str | None:
    if value is None:
        return None
    from .oeis import canonical_id

    try:
        return canonical_id(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _output_path(ctx, param, value: Path | None) -> Path | None:
    # checked before the job runs; the file itself is written after it
    if value is not None and not value.parent.is_dir():
        raise click.BadParameter(f"cannot write {value}: {value.parent} is not a directory")
    return value


def _bfile_comments(record: SequenceRecord) -> tuple[str, ...]:
    params = " ".join(f"{k}={v}" for k, v in sorted(record.params.items()))
    head = f"family={record.family}"
    if params:
        head += f" {params}"
    return (
        head,
        f"n={record.offset}..{record.last_n} reduced={record.reduced} "
        f"provenance={record.provenance} engine=latinrect-{record.engine_version}",
    )


def _render(record: SequenceRecord, fmt: str) -> str:
    if fmt == "plain":
        return "\n".join(f"{n} {t}" for n, t in record.indexed_terms()) + "\n"
    if fmt == "bfile":
        from .oeis import format_bfile

        return format_bfile(record, _bfile_comments(record))
    return json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _emit(payload: str, output: Path | None) -> None:
    if output is None:
        click.echo(payload, nl=False)
    else:
        output.write_text(payload)
        click.echo(f"wrote {output}", err=True)


def _dumps(record: SequenceRecord, dump_tiles_flag: bool) -> None:
    """The tile alphabet if asked for, then the P_n that the job's own
    sweep handed back."""
    if dump_tiles_flag:
        from .sequences import FAMILIES
        from .tiles import dump_tiles, enumerate_tiles

        spec = FAMILIES[record.family].spec(record.params)
        click.echo(dump_tiles(enumerate_tiles(spec)), err=True)
    for n, poly in record.series.items():
        click.echo(f"P_{n} = {poly.canonical_str()}", err=True)


def _oeis(record: SequenceRecord, oeis_id: str | None, offline: bool) -> int:
    if oeis_id is None:
        return 0
    from .oeis import MATCH, MISMATCH, oeis_check

    report = oeis_check(record, oeis_id, offline=offline)
    click.echo(report.summary(), err=True)
    if report.status == MATCH:
        return 0
    if report.status == MISMATCH:
        return EXIT_OEIS_MISMATCH
    return EXIT_OEIS_UNVERIFIABLE


def _run(family, params, n_terms, oracle_depth=None, series_to=None, *,
         total, fmt, output, oeis_id, offline, dump_tiles_flag=False):
    from .oracle import OracleLimitError
    from .sequences import OracleMismatchError, apply_total, run_job

    try:
        reduced = run_job(family, params, n_terms, oracle_depth, series_to)
    except OracleMismatchError as exc:
        click.echo(f"oracle mismatch: {exc}", err=True)
        sys.exit(EXIT_ORACLE_MISMATCH)
    except OracleLimitError as exc:
        raise click.UsageError(str(exc)) from None
    record = apply_total(reduced) if total else reduced
    _dumps(record, dump_tiles_flag)
    _emit(_render(record, fmt), output)
    # catalog terms describe reduced counts; compare before the n! blowup
    code = _oeis(reduced, oeis_id, offline)
    if code:
        sys.exit(code)


def _common(fn):
    for deco in reversed(
        (
            click.option(
                "--format",
                "-f",
                "fmt",
                type=click.Choice(("plain", "bfile", "json")),
                default="plain",
                show_default=True,
                help="plain 'n a(n)' lines, a commented b-file, or the full record",
            ),
            click.option(
                "--output",
                "-o",
                type=click.Path(dir_okay=False, path_type=Path),
                default=None,
                callback=_output_path,
                help="write the formatted terms to a file instead of stdout",
            ),
            click.option(
                "--oeis",
                "oeis_id",
                default=None,
                callback=_oeis_id,
                metavar="ID",
                help="compare reduced terms against this OEIS entry's b-file",
            ),
            click.option("--offline", is_flag=True, help="use only cached b-files"),
            click.option(
                "--total",
                is_flag=True,
                help="multiply a(n) by n!: counts without the fixed identity row",
            ),
        )
    ):
        fn = deco(fn)
    return fn


def _engine_extras(fn):
    for deco in reversed(
        (
            click.option(
                "--oracle-depth",
                type=click.IntRange(0),
                default=None,
                help="brute-force cross-check up to this n (0 disables)",
            ),
            click.option("--dump-tiles", "dump_tiles_flag", is_flag=True,
                         help="print the tile alphabet to stderr"),
            click.option("--dump-series", type=click.IntRange(0), default=None,
                         metavar="N", help="print weight polynomials up to P_N to stderr"),
        )
    ):
        fn = deco(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="latinrect")
def main() -> None:
    """Exact counts of generalized derangements, 3-row Latin
    rectangles, Latin trapezoids and Latin triangles."""
    # terms outgrow the default 4300-digit int/str conversion limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("gen-der")
@click.option("--shifts", type=SHIFTS, required=True,
              help="forbidden values of i - pi(i), e.g. '0,1,-2'")
@click.option("-N", "n_terms", type=click.IntRange(1), required=True,
              help="number of terms (n = 1..N)")
@_common
@_engine_extras
def gen_der_cmd(shifts, n_terms, oracle_depth, dump_series, **opts):
    """Permutations of n with i - pi(i) outside the shift set."""
    _run("gen-der", {"shifts": list(shifts)}, n_terms, oracle_depth, dump_series, **opts)


@main.command("glr3")
@click.option("--s12", type=SHIFTS, default="", help="row 0 vs row 1 shifts")
@click.option("--s13", type=SHIFTS, default="", help="row 0 vs row 2 shifts")
@click.option("--s23", type=SHIFTS, default="", help="row 1 vs row 2 shifts")
@click.option("-N", "n_terms", type=click.IntRange(1), required=True,
              help="number of terms (n = 1..N)")
@_common
@_engine_extras
def glr3_cmd(s12, s13, s23, n_terms, oracle_depth, dump_series, **opts):
    """Reduced 3 x n boards avoiding three shift sets ({0},{0},{0} is
    the classical Latin rectangle case)."""
    params = {"s12": list(s12), "s13": list(s13), "s23": list(s23)}
    _run("glr3", params, n_terms, oracle_depth, dump_series, **opts)


@main.command("trapezoid")
@click.option("-N", "n_terms", type=click.IntRange(1), required=True,
              help="number of terms (n = 3..N+2)")
@_common
@_engine_extras
def trapezoid_cmd(n_terms, oracle_depth, dump_series, **opts):
    """Latin trapezoids: rows of lengths n, n-1, n-2 with the diagonal
    constraint families; terms start at n=3."""
    _run("trapezoid", {}, n_terms, oracle_depth, dump_series, **opts)


@main.command("triangle")
@click.option("--n", "n_max", type=click.IntRange(3), required=True,
              help="largest side length (terms for n = 3..n)")
@_common
def triangle_cmd(n_max, **opts):
    """Latin triangles (rows n, n-1, ..., 1), brute-force only."""
    _run("triangle-oracle", {}, n_max - 2, **opts)


@main.command("kernel")
@click.option("--shifts", type=SHIFTS, required=True,
              help="forbidden values of i - pi(i), e.g. '0,1,-2'")
@click.option("--format", "-f", "fmt", type=click.Choice(("plain", "json")),
              default="plain", show_default=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False, path_type=Path),
              default=None, callback=_output_path)
@click.option("--dump-series", type=click.IntRange(0), default=None, metavar="N",
              help="also print weight polynomials up to P_N to stderr")
def kernel_cmd(shifts, fmt, output, dump_series):
    """Closed-form rational kernel of a 2-row spec: the generating
    function whose X^n coefficient is the weight polynomial P_n.
    Shift sets may span at most 8 columns, 0 included: each column of
    span doubles the transfer states, up to 128."""
    from .dp import KernelSpanError, kernel2

    try:
        kern = kernel2(shifts)
    except KernelSpanError as exc:
        raise click.UsageError(str(exc)) from None
    if dump_series is not None:
        for n, poly in enumerate(kern.series(dump_series)):
            click.echo(f"P_{n} = {poly.canonical_str()}", err=True)
    if fmt == "plain":
        _emit(kern.canonical_str() + "\n", output)
    else:
        payload = {
            "shifts": list(shifts),
            "kernel": kern.canonical_str(),
            "normalized": kern.normalized,
            "numerator_degree": kern.order()[0],
            "denominator_degree": kern.order()[1],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


if __name__ == "__main__":
    main()
