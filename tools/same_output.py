"""Check that this checkout prints exactly what another checkout prints.

    python3 tools/same_output.py PARENT_DIR

Replays every job of perfbench/workloads.py, as written and with each
shift set S replaced by -S, in every output format its command takes
(plain, b-file, json), each with and without `--dump-series 8` where
the command has that option, plus `--help` and `--version` of the CLI
and `--help` of every command.  The benchmark's oracle depths stop
short of the caps, so the DEEP_ORACLE jobs also run, in plain format:
each family's brute-force counter at or near its cap, about 11 s per
checkout.  glr3 runs at
its cap on super-Latin, on Latin {0}^3, with every set empty (every
value allowed in every cell, the densest masks the last-row DP steps)
and on a spec whose s23 holds -2 (a last-row cell waits for the
middle cell two places on).  The KERNEL_SETS, shift sets no workload
runs (width 7 among them), also run as kernels in both formats, with
and without `--dump-series 8`.
The LONG_DUMPS jobs dump every P_n of a super-Latin sweep to N=16,
of a trapezoid sweep to N=24 and of a 2-row sweep of {-2,0,3} to
N=60, sizes no workload reaches, so whole weight polynomials of both
rings are compared byte for byte, not only the counts.  They also
expand the kernels of {0,1,-2} to P_60 and of width 7 (0..6) to P_30,
so the kernel's series recurrence is compared far past P_8.  A wide
3-row spec swept to N=6 is dumped too: most of the profiles that sweep
reaches in its last columns can no longer drain to the empty profile,
so its P_n check the live-profile prune where it removes the most.
The LONG_COUNTS jobs print counts only, on inputs where counting
straight from the packed sweep does most of the work and no workload
reaches: Latin {0}^3 to N=40, where decoding and evaluating the
packed snapshots take about 90% of the run, and the 2-row sets {5} and
{7}, whose runs start above x^0.  The long 2-row counts, {0,1} to
N=1000, {-2,0,3} to N=400 and {7} to N=200, compare the signed sweep
and the product-tree umbral sum on runs of hundreds of slots.
One small job per engine command also runs with `--total` and with
`--dump-tiles`.  The USAGE_ERRORS are usage errors (exit 2): two
requests past an oracle cap, and the lines the parser itself rejects
(a shift set that is not integers, -N 0, a negative oracle depth, an
unknown format, an abbreviated option, a missing required option,
-o naming a directory, an unknown command and no command at all).
The OUTPUT_JOBS write their terms with `-o OUTPUT_FILE`, one per
format; each runs in a fresh temporary directory per checkout, so the
file name, and the `wrote ...` line on stderr, read the same on both.
Each command line runs as a fresh `python3 -m latinrect.cli` process
on this checkout's source and on PARENT_DIR's.  stdout, stderr, exit
code and any file written must match; a JSON record is compared
without its `duration_seconds`, the one field that differs from run
to run.  Prints each command line that differs, naming which of exit
code, stdout, stderr and file differ, and exits 1 if there is one, 0
otherwise.  perfbench/ is only read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing the workloads leaves perfbench/ untouched
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SUPER, WORKLOADS, mirrored  # noqa: E402

COMMANDS = ("gen-der", "glr3", "trapezoid", "triangle", "kernel")
FORMATS = {"kernel": ("plain", "json")}
NO_DUMP = ("triangle",)
DEEP_ORACLE = (
    ("gen-der", "--shifts", "0,1", "-N", "11", "--oracle-depth", "11"),
    ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "8", "--oracle-depth", "8"),
    ("glr3", *SUPER, "-N", "8", "--oracle-depth", "8"),
    ("glr3", "--s12", "", "--s13", "", "--s23", "", "-N", "8", "--oracle-depth", "8"),
    ("glr3", "--s12", "0", "--s13", "0", "--s23", "-2,0", "-N", "8", "--oracle-depth", "8"),
    ("trapezoid", "-N", "7", "--oracle-depth", "9"),
    ("triangle", "--n", "7"),
)
KERNEL_SETS = ("0,1,2,3,4,5,6", "-2,0,3,4", "1,5")
LONG_DUMPS = (
    ("glr3", *SUPER, "-N", "16", "--dump-series", "16"),
    ("trapezoid", "-N", "24", "--dump-series", "24"),
    ("gen-der", "--shifts", "-2,0,3", "-N", "60", "--dump-series", "60"),
    ("glr3", "--s12", "-3,0,2", "--s13", "-2,1,3", "--s23", "-3,-1,0,3", "-N", "6",
     "--dump-series", "6"),
    ("kernel", "--shifts", "0,1,-2", "--dump-series", "60"),
    ("kernel", "--shifts", "0,1,2,3,4,5,6", "--dump-series", "30"),
)
LONG_COUNTS = (
    ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "40"),
    ("gen-der", "--shifts", "5", "-N", "12"),
    ("gen-der", "--shifts", "0,1", "-N", "1000"),
    ("gen-der", "--shifts", "-2,0,3", "-N", "400"),
    ("gen-der", "--shifts", "7", "-N", "200"),
)
FLAG_JOBS = (
    ("gen-der", "--shifts", "0,1", "-N", "12"),
    ("glr3", *SUPER, "-N", "6"),
    ("trapezoid", "-N", "6"),
)
USAGE_ERRORS = (
    ("trapezoid", "-N", "3", "--oracle-depth", "20"),
    ("triangle", "--n", "8"),
    # rejected by the parser itself
    ("gen-der", "--shifts", "zebra", "-N", "3"),
    ("gen-der", "--shifts", "0", "-N", "0"),
    ("gen-der", "--shifts", "0", "-N", "3", "--oracle-depth", "-1"),
    ("gen-der", "--shifts", "0", "-N", "3", "-f", "xml"),
    ("gen-der", "--shif", "0", "-N", "3"),
    ("kernel",),
    ("kernel", "--shifts", "0,1", "-o", "src"),
    ("bogus",),
    (),
)
OUTPUT_FILE = "terms.out"
OUTPUT_JOBS = tuple(
    ("gen-der", "--shifts", "0,1", "-N", "300", "-f", fmt, "-o", OUTPUT_FILE)
    for fmt in ("plain", "bfile", "json")
)


def command_lines() -> list[tuple[str, ...]]:
    lines: list[tuple[str, ...]] = [("--help",), ("--version",)]
    lines += [(cmd, "--help") for cmd in COMMANDS]
    for jobs in WORKLOADS.values():
        for job in jobs:
            for args in dict.fromkeys((job, mirrored(job))):
                for fmt in FORMATS.get(args[0], ("plain", "bfile", "json")):
                    lines.append((*args, "-f", fmt))
                    if args[0] not in NO_DUMP:
                        lines.append((*args, "-f", fmt, "--dump-series", "8"))
    for shifts in KERNEL_SETS:
        for fmt in FORMATS["kernel"]:
            lines.append(("kernel", "--shifts", shifts, "-f", fmt))
            lines.append(("kernel", "--shifts", shifts, "-f", fmt, "--dump-series", "8"))
    for job in DEEP_ORACLE + LONG_DUMPS + LONG_COUNTS:
        # mirrored() cannot parse an empty set; the all-empty job is its own mirror
        mirror = job if "" in job else mirrored(job)
        lines += [(*args, "-f", "plain") for args in dict.fromkeys((job, mirror))]
    lines += [(*job, flag) for job in FLAG_JOBS for flag in ("--total", "--dump-tiles")]
    return lines + list(USAGE_ERRORS) + list(OUTPUT_JOBS)


PARTS = ("exit code", "stdout", "stderr", "file")  # the fields of run()'s result


def _without_duration(text: bytes) -> bytes:
    record = json.loads(text)
    record.pop("duration_seconds")
    return json.dumps(record, indent=2, sort_keys=True).encode()


def run(checkout: Path, args: tuple[str, ...]) -> tuple[int, bytes, bytes, bytes | None]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    # the OEIS check reads the frozen b-files and never downloads
    env["LATINRECT_OEIS_CACHE"] = str(checkout / "tests" / "fixtures")
    with tempfile.TemporaryDirectory() as scratch:
        cwd = Path(scratch) if OUTPUT_FILE in args else checkout
        proc = subprocess.run([sys.executable, "-m", "latinrect.cli", *args],
                              capture_output=True, env=env, cwd=cwd)
        target = cwd / OUTPUT_FILE
        written = target.read_bytes() if OUTPUT_FILE in args and target.is_file() else None
    out = proc.stdout
    if args[:1] != ("kernel",) and "json" in args and proc.returncode == 0:
        out, written = (text and _without_duration(text) for text in (out, written))
    return proc.returncode, out, proc.stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "latinrect").is_dir():
        print("usage: python3 tools/same_output.py PARENT_DIR", file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    lines = command_lines()
    differ = 0
    for args in lines:
        ours, theirs = run(ROOT, args), run(parent, args)
        parts = [name for name, a, b in zip(PARTS, ours, theirs) if a != b]
        if parts:
            differ += 1
            print("DIFFERS:", " ".join(args), f"({', '.join(parts)})")
    print(f"{len(lines)} command lines, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
