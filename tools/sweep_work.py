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
  - reusing: kept targets built from a base.
"""

from __future__ import annotations

import sys
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


def columns(tiles, board: dp.BoardShape, n_max: int) -> list[tuple]:
    """(sweep, blocked, live, dist, ndist) for every advance of a sweep."""
    real = dp._Sweep.advance
    seen = []

    def recorded(self, dist, blocked, *, live):
        ndist = real(self, dist, blocked, live=live)
        seen.append((self, blocked, live, dist, ndist))
        return ndist

    dp._Sweep.advance = recorded
    try:
        for _ in dp.packed_snapshots(tiles, board, n_max):
            pass
    finally:
        dp._Sweep.advance = real
    return seen


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
    print(f"{'sweep':<18} {'':<8}" + "".join(f"{f:>21}" for f in FIELDS))
    for name, spec, board, n_max in SWEEPS:
        table, program = work(columns(enumerate_tiles(spec), board, n_max))
        for label, count in (("table", table), ("program", program)):
            print(f"{name:<18} {label:<8}" + "".join(f"{count[f]:>21,}" for f in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
