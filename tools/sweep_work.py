"""Count the work of the column sweep's programs on three sweeps.

    python3 tools/sweep_work.py

Sweeps super-Latin N=10, the `trapezoid -N 15` board (swept to n=17)
and menage (gen-der {0,1}) N=1000 with dp.packed_snapshots, reading
only src/, and replays each column's program over the runs `advance`
received and built.  Each sweep prints two lines: `table` applies every
planned row from a kept source into a kept target, plain stores first,
as a sweep without programs would; `program` applies the ops the
column programs apply, reuses of a built base included.  The columns:
  - ops: the rows (or rows and reuses) applied, summed over columns;
  - slot steps: the source-run slots those ops pass over;
  - big-int ops: the int operations done per slot.  A shift, a
    multiply and an add or subtract count one each; the first op into
    a target stores, so a plain store (cf = 1, no shift) counts none;
  - no free first write: kept targets, summed over columns, whose first
    op does arithmetic;
  - reusing: kept targets built from a base;
  - plan s (on the `program` line): the best of 3 constructions of the
    sweep's _Sweep, from the tiles and board packed_snapshots gave it,
    in seconds: the plan walk, its tables and the programs;
  - plan MB (on the `program` line): the tracemalloc peak of one more
    construction, made apart from the timed ones, in 10^6 bytes.
"""

from __future__ import annotations

import sys
import timeit
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latinrect import dp  # noqa: E402
from latinrect.sequences import TRAPEZOID_SPEC  # noqa: E402
from latinrect.tiles import ShiftSpec, enumerate_tiles  # noqa: E402

SWEEPS = (
    ("super-Latin N=10", ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}),
     dp.rectangle(3), 10),
    ("trapezoid -N 15", TRAPEZOID_SPEC, dp.trapezoid3(), 17),
    ("menage N=1000", ShiftSpec.two_rows({0, 1}), dp.rectangle(2), 1000),
)
FIELDS = ("ops", "slot steps", "big-int ops", "no free first write", "reusing")


def columns(tiles, board: dp.BoardShape, n_max: int) -> tuple[list[tuple], tuple]:
    """(sweep, blocked, live, dist, ndist) for every advance of a sweep,
    and the arguments packed_snapshots built its _Sweep from."""
    real, init = dp._Sweep.advance, dp._Sweep.__init__
    seen, made = [], []

    def recorded(self, dist, blocked, *, live):
        ndist = real(self, dist, blocked, live=live)
        seen.append((self, blocked, live, dist, ndist))
        return ndist

    def constructed(self, *args):
        made.append(args)
        init(self, *args)

    dp._Sweep.advance, dp._Sweep.__init__ = recorded, constructed
    try:
        for _ in dp.packed_snapshots(tiles, board, n_max):
            pass
    finally:
        dp._Sweep.advance, dp._Sweep.__init__ = real, init
    args, = made
    return seen, args


def plan_cost(args: tuple) -> tuple[float, float]:
    """The best of 3 constructions of a _Sweep from args, in seconds, and
    the tracemalloc peak of one more, in MB."""
    best = min(timeit.repeat(lambda: dp._Sweep(*args), number=1, repeat=3))
    tracemalloc.start()
    try:
        dp._Sweep(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak / 1e6


def work(seen: list[tuple]) -> tuple[dict[str, int], dict[str, int]]:
    """The FIELDS counts of the table rows and of the programs."""
    table = dict.fromkeys(FIELDS, 0)
    program = dict.fromkeys(FIELDS, 0)
    for sweep, blocked, live, dist, ndist in seen:
        for m2, base, ops, rows in sweep._programs[blocked]:
            if m2 not in ndist:
                continue
            reused = base in live
            for count, chosen in ((table, rows), (program, ops if reused else rows)):
                runs = [((ndist if made else dist).get(mask), sd, cf)
                        for mask, _, sd, cf, made in chosen]
                runs = [(run, sd, cf) for run, sd, cf in runs if run is not None]
                first = True
                for run, sd, cf in runs:
                    cost = (sd != 0) + (cf != 1 if first else 1 + (cf not in (1, -1)))
                    count["ops"] += 1
                    count["slot steps"] += len(run)
                    count["big-int ops"] += cost * len(run)
                    count["no free first write"] += first and cost > 0
                    first = False
            program["reusing"] += reused and base in ndist
    return table, program


def main() -> int:
    print(f"{'sweep':<18} {'':<8}" + "".join(f"{f:>21}" for f in FIELDS)
          + f"{'plan s':>9}{'plan MB':>9}")
    for name, spec, board, n_max in SWEEPS:
        seen, args = columns(enumerate_tiles(spec), board, n_max)
        table, program = work(seen)
        seconds, mb = plan_cost(args)
        for label, count, tail in (("table", table, ""),
                                   ("program", program, f"{seconds:>9.4f}{mb:>9.2f}")):
            print(f"{name:<18} {label:<8}" + "".join(f"{count[f]:>21,}" for f in FIELDS) + tail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
