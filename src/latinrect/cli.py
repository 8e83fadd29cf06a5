"""Command-line front end.

Exit codes: 0 success (including an OEIS match when one was asked
for); 1 unexpected error; 2 usage error; 3 engine/oracle mismatch;
4 OEIS mismatch; 5 OEIS check unverifiable (offline with no cache,
a cached b-file that cannot be read or does not parse, or no
overlapping terms).  A requested check never passes silently.

Start-up is most of a short job, and every job is a fresh process, so
this module loads nothing beyond the standard library's argparse and
the package itself: parsing with click cost about 25 ms of every
job's start-up.  For the same reason each command imports its engine
modules when it runs, not when this module loads: the sources are
recompiled whenever bytecode is not cached, so a `kernel` job should
not pay for the sequence, oracle, umbral and OEIS modules it never
calls, and a `triangle` job loads the oracle and `records` alone.
The records are slot classes on `frozen.Frozen`, not dataclasses:
importing `dataclasses` (and `inspect`) cost every job about 10 ms.
A process ends in `run()`, by a flush and `os._exit`: interpreter
teardown cost 10-13 ms of a 100 ms job.  `main()` never ends it.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from pathlib import Path

    from .records import SequenceRecord

EXIT_ORACLE_MISMATCH = 3
EXIT_OEIS_MISMATCH = 4
EXIT_OEIS_UNVERIFIABLE = 5


class _Parser(argparse.ArgumentParser):
    """argparse that, like a getopt parser, binds the next argument to
    an option that takes a value whatever that argument looks like:
    `--shifts -1,0,1` is a shift set, not an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, allow_abbrev=False, **kwargs)
        self._valued: set[str] = set()
        self.add_argument("--help", action="help", help="show this message and exit")

    def add_argument(self, *flags, **kwargs):
        action = super().add_argument(*flags, **kwargs)
        if action.option_strings and action.nargs != 0:
            self._valued.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = iter(sys.argv[1:] if args is None else args)
        bound = []
        for arg in tokens:
            value = next(tokens, None) if arg in self._valued else None
            bound.append(arg if value is None else f"{arg}={value}")
        return super().parse_known_args(bound, namespace)


def _parse_shifts(value: str) -> tuple[int, ...]:
    body = value.strip().strip("{}")
    if not body:
        return ()
    try:
        return tuple(sorted({int(p) for p in re.split(r"[,\s]+", body) if p}))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers like '0,1,-2', got {value!r}"
        ) from None


def _at_least(low: int):
    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{value!r} is not a valid integer") from None
        if number < low:
            raise argparse.ArgumentTypeError(f"{number} is not in the range x>={low}")
        return number

    return convert


def _oeis_id(value: str) -> str:
    from .oeis import canonical_id

    try:
        return canonical_id(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _output_path(value: str) -> Path:
    # checked before the job runs; the file itself is written after it
    from pathlib import Path

    path = Path(value)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot write {path}: {path.parent} is not a directory"
        )
    return path


def _render(record: SequenceRecord, fmt: str) -> str:
    if fmt == "plain":
        return "\n".join(f"{n} {t}" for n, t in record.indexed_terms()) + "\n"
    if fmt == "bfile":
        from .oeis import format_bfile

        return format_bfile(record)
    import json

    return json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _emit(payload: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(payload)
        sys.stdout.flush()
    else:
        output.write_text(payload)
        print(f"wrote {output}", file=sys.stderr)


def _dumps(record: SequenceRecord, dump_tiles_flag: bool) -> None:
    """The tile alphabet if asked for, then the P_n that the job's own
    sweep handed back."""
    if dump_tiles_flag:
        from .sequences import FAMILIES
        from .tiles import dump_tiles, enumerate_tiles

        spec = FAMILIES[record.family].spec(record.params)
        print(dump_tiles(enumerate_tiles(spec)), file=sys.stderr)
    for n, poly in record.series.items():
        print(f"P_{n} = {poly.canonical_str()}", file=sys.stderr)


def _oeis(record: SequenceRecord, oeis_id: str | None, offline: bool) -> int:
    if oeis_id is None:
        return 0
    from .oeis import MATCH, MISMATCH, oeis_check

    report = oeis_check(record, oeis_id, offline=offline)
    print(report.summary(), file=sys.stderr)
    if report.status == MATCH:
        return 0
    if report.status == MISMATCH:
        return EXIT_OEIS_MISMATCH
    return EXIT_OEIS_UNVERIFIABLE


def _run(opts: argparse.Namespace, family: str, params: dict, n_terms: int) -> None:
    from .oracle import OracleLimitError, OracleMismatchError
    from .records import TRIANGLE, apply_total, triangle_seq

    try:
        if family == TRIANGLE:
            reduced = triangle_seq(n_terms)
        else:
            from .sequences import run_job

            reduced = run_job(family, params, n_terms, opts.oracle_depth, opts.dump_series)
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        sys.exit(EXIT_ORACLE_MISMATCH)
    except OracleLimitError as exc:
        opts.parser.error(str(exc))
    record = apply_total(reduced) if opts.total else reduced
    _dumps(record, opts.dump_tiles_flag)
    _emit(_render(record, opts.fmt), opts.output)
    # catalog terms describe reduced counts; compare before the n! blowup
    code = _oeis(reduced, opts.oeis_id, opts.offline)
    if code:
        sys.exit(code)


def gen_der_cmd(opts: argparse.Namespace) -> None:
    """Permutations of n with i - pi(i) outside the shift set."""
    _run(opts, "gen-der", {"shifts": list(opts.shifts)}, opts.n_terms)


def glr3_cmd(opts: argparse.Namespace) -> None:
    """Reduced 3 x n boards avoiding three shift sets ({0},{0},{0} is
    the classical Latin rectangle case)."""
    params = {"s12": list(opts.s12), "s13": list(opts.s13), "s23": list(opts.s23)}
    _run(opts, "glr3", params, opts.n_terms)


def trapezoid_cmd(opts: argparse.Namespace) -> None:
    """Latin trapezoids: rows of lengths n, n-1, n-2 with the diagonal
    constraint families; terms start at n=3."""
    _run(opts, "trapezoid", {}, opts.n_terms)


def triangle_cmd(opts: argparse.Namespace) -> None:
    """Latin triangles (rows n, n-1, ..., 1), brute-force only."""
    _run(opts, "triangle-oracle", {}, opts.n_max - 2)


def kernel_cmd(opts: argparse.Namespace) -> None:
    """Closed-form rational kernel of a 2-row spec: the generating
    function whose X^n coefficient is the weight polynomial P_n.
    Shift sets may span at most 8 columns, 0 included: each column of
    span doubles the transfer states, up to 128."""
    from .dp import KernelSpanError, kernel2

    try:
        kern = kernel2(opts.shifts)
    except KernelSpanError as exc:
        opts.parser.error(str(exc))
    if opts.dump_series is not None:
        for n, poly in enumerate(kern.series(opts.dump_series)):
            print(f"P_{n} = {poly.canonical_str()}", file=sys.stderr)
    if opts.fmt == "plain":
        _emit(kern.canonical_str() + "\n", opts.output)
    else:
        import json

        payload = {
            "shifts": list(opts.shifts),
            "kernel": kern.canonical_str(),
            "normalized": True,  # den[0] is 1 for every kernel
            "numerator_degree": kern.order()[0],
            "denominator_degree": kern.order()[1],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", opts.output)


SHIFTS_HELP = "forbidden values of i - pi(i), e.g. '0,1,-2'"


def _command(commands, fn, name: str) -> _Parser:
    doc = " ".join(fn.__doc__.split())
    sub = commands.add_parser(name, help=doc.partition(". ")[0], description=doc)
    sub.set_defaults(run=fn, parser=sub)
    return sub


def _output_options(sub: _Parser, formats: tuple[str, ...], format_help: str) -> None:
    sub.add_argument("--format", "-f", dest="fmt", choices=formats, default="plain",
                     help=format_help)
    sub.add_argument("--output", "-o", type=_output_path, metavar="PATH",
                     help="write the formatted terms to a file instead of stdout")


def _common(sub: _Parser) -> None:
    _output_options(sub, ("plain", "bfile", "json"),
                    "plain 'n a(n)' lines, a commented b-file, or the full record"
                    " (default: plain)")
    sub.add_argument("--oeis", dest="oeis_id", type=_oeis_id, metavar="ID",
                     help="compare reduced terms against this OEIS entry's b-file")
    sub.add_argument("--offline", action="store_true", help="use only cached b-files")
    sub.add_argument("--total", action="store_true",
                     help="multiply a(n) by n!: counts without the fixed identity row")


def _engine_options(sub: _Parser, terms_help: str = "number of terms (n = 1..N)") -> None:
    sub.add_argument("-N", dest="n_terms", type=_at_least(1), required=True, metavar="N",
                     help=terms_help)
    _common(sub)
    sub.add_argument("--oracle-depth", type=_at_least(0), metavar="N",
                     help="brute-force cross-check up to this n (0 disables)")
    sub.add_argument("--dump-tiles", dest="dump_tiles_flag", action="store_true",
                     help="print the tile alphabet to stderr")
    sub.add_argument("--dump-series", type=_at_least(0), metavar="N",
                     help="print weight polynomials up to P_N to stderr")


def _parser(prog: str) -> _Parser:
    parser = _Parser(
        prog=prog,
        description="Exact counts of generalized derangements, 3-row Latin"
        " rectangles, Latin trapezoids and Latin triangles.",
    )
    parser.add_argument("--version", action="version",
                        version=f"latinrect, version {__version__}",
                        help="show the version and exit")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    sub = _command(commands, gen_der_cmd, "gen-der")
    sub.add_argument("--shifts", type=_parse_shifts, required=True, metavar="SET",
                     help=SHIFTS_HELP)
    _engine_options(sub)

    sub = _command(commands, glr3_cmd, "glr3")
    for flag, rows in (("--s12", "row 0 vs row 1"), ("--s13", "row 0 vs row 2"),
                       ("--s23", "row 1 vs row 2")):
        sub.add_argument(flag, type=_parse_shifts, default=(), metavar="SET",
                         help=f"{rows} shifts")
    _engine_options(sub)

    sub = _command(commands, trapezoid_cmd, "trapezoid")
    _engine_options(sub, "number of terms (n = 3..N+2)")

    sub = _command(commands, triangle_cmd, "triangle")
    sub.add_argument("--n", dest="n_max", type=_at_least(3), required=True, metavar="N",
                     help="largest side length (terms for n = 3..n)")
    _common(sub)
    # brute force only: no engine options
    sub.set_defaults(oracle_depth=None, dump_tiles_flag=False, dump_series=None)

    sub = _command(commands, kernel_cmd, "kernel")
    sub.add_argument("--shifts", type=_parse_shifts, required=True, metavar="SET",
                     help=SHIFTS_HELP)
    _output_options(sub, ("plain", "json"), "(default: plain)")
    sub.add_argument("--dump-series", type=_at_least(0), metavar="N",
                     help="also print weight polynomials up to P_N to stderr")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line; raises SystemExit with a code from the
    module docstring, or returns after a clean run."""
    # terms outgrow the default 4300-digit int/str conversion limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    opts = _parser(prog_name or "latinrect").parse_args(args)
    opts.run(opts)


def run() -> None:
    """The `latinrect` process: main(), a flush, then os._exit."""
    import os

    code = 0
    try:
        try:
            main()
        except SystemExit as exc:
            if not isinstance(code := exc.code or 0, int):
                raise  # a message: the interpreter prints it and exits 1
        sys.stdout.flush()
    except BrokenPipeError:  # the reader (say `head`) has gone: no traceback
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
