"""Workload definitions, oracle-depth pins and the reference check.

Every job is one `latinrect` command line.  The seed only decides, per
shift-set job, whether the shift sets are negated (S -> -S, which
leaves every count unchanged by mirror symmetry) and the job order
inside a pass; the program never sees anything else.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

#: options whose value is a shift set, negated when a job is mirrored
SHIFT_OPTIONS = ("--shifts", "--s12", "--s13", "--s23")

#: brute-force oracle caps per family (oracle.MAX_N_*); a pinned depth
#: above its cap would be clamped silently by the program
ORACLE_CAPS = {"gen-der": 11, "glr3": 7, "trapezoid": 10}
CAP_NAMES = {"gen-der": "MAX_N_TWO_ROWS", "glr3": "MAX_N_THREE_ROWS",
             "trapezoid": "MAX_N_TRAPEZOID"}

SUPER = ("--s12", "-1,0,1", "--s13", "-2,0,2", "--s23", "-1,0,1")

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "super-latin": (
        ("glr3", *SUPER, "-N", "10", "--oracle-depth", "6"),
    ),
    "trapezoid": (
        ("trapezoid", "-N", "15", "--oracle-depth", "7"),
    ),
    "menage-long": (
        ("gen-der", "--shifts", "0,1", "-N", "1000", "--oracle-depth", "7",
         "--oeis", "A000271", "--offline"),
    ),
    "kernel-wide": (
        ("kernel", "--shifts", "0,1,-2"),
        ("kernel", "--shifts", "0,1,2,3,4"),
        ("kernel", "--shifts", "0,1,2,3,4,5"),
        ("kernel", "--shifts", "-1,0,1,2,3,4"),
        ("kernel", "--shifts", "-2,-1,0,1,2,3"),
    ),
    "verify-deep": (
        ("gen-der", "--shifts", "0,1", "-N", "10", "--oracle-depth", "10"),
        ("trapezoid", "-N", "6", "--oracle-depth", "8"),
        ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "7",
         "--oracle-depth", "7"),
        ("triangle", "--n", "6"),
    ),
}


def job_id(args: tuple[str, ...]) -> str:
    return " ".join(args)


def mirrored(args: tuple[str, ...]) -> tuple[str, ...]:
    """The same job with every shift set S replaced by -S."""
    out = list(args)
    for i, a in enumerate(args[:-1]):
        if a in SHIFT_OPTIONS:
            out[i + 1] = ",".join(str(-int(s)) for s in args[i + 1].split(","))
    return tuple(out)


def pinned_depth(args: tuple[str, ...]) -> int | None:
    if "--oracle-depth" not in args:
        return None
    return int(args[args.index("--oracle-depth") + 1])


def check_pins(program_caps: dict[str, int] | None = None) -> None:
    """Every engine job pins --oracle-depth at or below its family cap.

    program_caps, when given, are the caps the program under test
    clamps to; a pin above one of those means the run would verify
    less than it asks for."""
    for name, jobs in WORKLOADS.items():
        for args in jobs:
            family = args[0]
            if family not in ORACLE_CAPS:
                continue
            depth = pinned_depth(args)
            if depth is None:
                raise ValueError(f"{name}: {job_id(args)!r} does not pin --oracle-depth")
            caps = [ORACLE_CAPS[family]]
            if program_caps and family in program_caps:
                caps.append(program_caps[family])
            if depth > min(caps):
                raise ValueError(
                    f"{name}: {job_id(args)!r} pins depth {depth} above the "
                    f"{family} cap {min(caps)}"
                )


@dataclass(frozen=True)
class Plan:
    """The concrete command lines of one run, fixed by its seed."""

    workload: str
    jobs: tuple[tuple[str, tuple[str, ...]], ...]  # (reference id, argv)
    rng: random.Random

    def pass_order(self) -> list[tuple[str, tuple[str, ...]]]:
        order = list(self.jobs)
        self.rng.shuffle(order)
        return order


def plan(workload: str, seed: int) -> Plan:
    rng = random.Random(seed)
    jobs = []
    for args in WORKLOADS[workload]:
        has_shifts = any(opt in args for opt in SHIFT_OPTIONS)
        argv = mirrored(args) if has_shifts and rng.random() < 0.5 else args
        jobs.append((job_id(args), argv))
    return Plan(workload, tuple(jobs), rng)


def canonical(stdout: bytes) -> str:
    """Whitespace-normalised output: the terms (or the kernel) only."""
    lines = (" ".join(line.split()) for line in stdout.decode().splitlines())
    return "\n".join(line for line in lines if line)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(canonical(stdout).encode()).hexdigest()


def load_refs(path: Path = REFS_PATH) -> dict[str, dict]:
    return json.loads(path.read_text())


def check_output(ref: dict, stdout: bytes) -> str | None:
    """None when stdout carries the reference terms, else the reason."""
    text = canonical(stdout)
    lines = text.count("\n") + 1 if text else 0
    if lines != ref["lines"]:
        return f"{lines} output lines, reference has {ref['lines']}"
    if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
        return "output differs from the reference"
    return None
