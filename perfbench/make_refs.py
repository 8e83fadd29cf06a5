"""Produce perfbench/refs.json: the expected output of every job.

    python3 perfbench/make_refs.py

Runs each job once through the CLI, outside any timed region, in both
its S and -S form, and confirms the output by checks independent of
the timed path before storing its digest:

  gen-der     the rook-polynomial count (oracle.count_generalized_perms_banded)
              at sampled n, plus the frozen OEIS b-file where one exists
  glr3        the brute-force oracle for n <= 7; for all-{0} shift sets
              also the cycle-type formula and the A000186 b-file
  trapezoid   the fifteen published terms, n = 3..17
  triangle    the published Latin triangle counts, n = 3..7
  kernel      the 2-row sweep series up to X^12, and for {0,1,-2} the
              published closed form
  all         S and -S give the same output (mirror symmetry)
"""

from __future__ import annotations

import json
import sys

import run
import workloads

sys.path.insert(0, str(run.SRC))

from latinrect import oracle  # noqa: E402
from latinrect.dp import kernel2, rectangle, weight_series  # noqa: E402
from latinrect.oeis import parse_bfile  # noqa: E402
from latinrect.poly import RING_2ROW, RationalKernel  # noqa: E402
from latinrect.tiles import ShiftSpec, enumerate_tiles  # noqa: E402

TRAPEZOID_PUBLISHED = [  # n = 3..17
    1, 6, 68, 1670, 67295, 3825722, 285667270, 26889145828, 3102187523467,
    429700007845870, 70303573947346474, 13405343287124139802,
    2945521072579394529097, 738633749151050116349946,
    209620243382776121032416188,
]
TRIANGLE_PUBLISHED = [1, 0, 4, 236, 27820]  # n = 3..7
FIXTURE_FOR_SHIFTS = {(0, 1): "b000271.txt", (-3, -2, -1, 0, 1, 2, 3): "b075852.txt"}


def published_kernel_0_1_m2() -> RationalKernel:
    """The published closed form for shifts {0, 1, -2}."""
    x, c = RING_2ROW.var("x"), RING_2ROW.const
    num = [c(1), c(2), x, x - 1, c(1), c(1)]
    den = [c(1), 3 - x, c(2), c(0), x**2 - 4 * x + 2, 2 - 2 * x, c(0), 1 - x, c(1)]
    return RationalKernel(RING_2ROW, "X", tuple(num), tuple(den))


def option(args, name) -> str:
    return args[args.index(name) + 1]


def shifts(args, name) -> tuple[int, ...]:
    return tuple(sorted(int(s) for s in option(args, name).split(",")))


def fixture(name: str) -> dict[int, int]:
    return parse_bfile((run.FIXTURES / name).read_text())


def expect(terms: dict[int, int], ns, reference, what: str) -> str:
    ns = list(ns)
    for n in ns:
        want = reference(n)
        if terms.get(n) != want:
            raise SystemExit(f"{what}: n={n} gives {terms.get(n)}, expected {want}")
    return f"{what} at {len(ns)} n"


def confirm(args: tuple[str, ...], text: str) -> list[str]:
    """Independent checks of one job's canonical output."""
    family = args[0]
    if family == "kernel":
        s = shifts(args, "--shifts")
        kern = kernel2(s)
        if workloads.canonical(kern.canonical_str().encode()) != text:
            raise SystemExit(f"kernel {s}: CLI output differs from kernel2")
        sweep = weight_series(enumerate_tiles(ShiftSpec.two_rows(s)), rectangle(2), 12)
        if kern.series(12) != [sweep.poly(n) for n in range(13)]:
            raise SystemExit(f"kernel {s}: series differs from the 2-row sweep")
        done = ["series = 2-row sweep through X^12"]
        if s == (-2, 0, 1):
            if kern != published_kernel_0_1_m2():
                raise SystemExit("kernel {0,1,-2} differs from the published closed form")
            done.append("published closed form")
        return done
    terms = {int(n): int(t) for n, t in (line.split() for line in text.splitlines())}
    top = max(terms)
    if family == "gen-der":
        s = shifts(args, "--shifts")
        sample = sorted({*range(1, min(top, 30) + 1), *range(100, top + 1, 150), top})
        done = [expect(terms, sample, lambda n: oracle.count_generalized_perms_banded(s, n),
                       "rook-polynomial count")]
        if s in FIXTURE_FOR_SHIFTS:
            ref = fixture(FIXTURE_FOR_SHIFTS[s])
            done.append(expect(terms, [n for n in ref if n <= top], ref.get,
                               FIXTURE_FOR_SHIFTS[s]))
        return done
    if family == "glr3":
        sets = [shifts(args, o) for o in ("--s12", "--s13", "--s23")]
        done = [expect(terms, range(1, min(top, oracle.MAX_N_THREE_ROWS) + 1),
                       lambda n: oracle.count_glr3(*sets, n), "brute-force oracle")]
        if sets == [(0,)] * 3:
            done.append(expect(terms, range(1, top + 1), oracle.count_latin3_cycle_type,
                               "cycle-type formula"))
            ref = fixture("b000186.txt")
            done.append(expect(terms, [n for n in ref if n <= top], ref.get, "b000186.txt"))
        return done
    if family == "trapezoid":
        return [expect(terms, range(3, top + 1), lambda n: TRAPEZOID_PUBLISHED[n - 3],
                       "published trapezoid terms")]
    if family == "triangle":
        return [expect(terms, range(3, top + 1), lambda n: TRIANGLE_PUBLISHED[n - 3],
                       "published triangle terms")]
    raise SystemExit(f"no independent check for {family}")


def main() -> int:
    env = run.child_env()
    workloads.check_pins()
    refs = {}
    for name, jobs in workloads.WORKLOADS.items():
        for args in jobs:
            forms = {args, workloads.mirrored(args)}
            texts = set()
            for argv in forms:
                _, _, code, out, err = run.run_child(
                    [sys.executable, "-m", "latinrect.cli", *argv], env, 600)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)}: exit {code}\n{err.decode()}")
                texts.add(workloads.canonical(out))
            if len(texts) != 1:
                raise SystemExit(f"{workloads.job_id(args)}: S and -S outputs differ")
            text = texts.pop()
            done = confirm(args, text)
            if len(forms) == 2:
                done.append("S/-S mirror")
            refs[workloads.job_id(args)] = {
                "lines": text.count("\n") + 1,
                "sha256": workloads.digest(text.encode()),
                "checked_by": done,
            }
            print(f"{name}: {workloads.job_id(args)}: {'; '.join(done)}", flush=True)
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS_PATH.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
