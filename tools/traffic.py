"""List the lines of src/latinrect that no benchmark job reaches.

    python3 tools/traffic.py

Runs every job of perfbench/workloads.py, as written and with each
shift set S replaced by -S, in this process through `cli.main`, under
`sys.settrace`, with the OEIS check reading the frozen b-files in
tests/fixtures as perfbench/run.py has it.  The tracer is on before
the package is imported, so import-time lines count as reached.  Then
prints, for each module, how many of its executable lines (those the
compiler gives a line number) no job reached, and each of them as
`path:line: source`.  A simplicity change can check here whether the
code it wants to remove carries any benchmark traffic.  The jobs' own
output is discarded, and a job that exits with a code other than 0 is
named on stderr.  perfbench/ is only read.  The run takes a few
seconds: most of the jobs' work happens in C, which the tracer does
not slow.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latinrect"
sys.dont_write_bytecode = True  # importing the workloads leaves perfbench/ untouched
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, mirrored  # noqa: E402


def executable_lines(path: Path) -> set[int]:
    """Every line number of the module's code objects, nested ones too."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def trace_jobs(jobs: list[tuple[str, ...]]) -> dict[str, set[int]]:
    """Runs the jobs under the tracer; the lines reached per file."""
    prefix = str(PACKAGE)
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.settrace(hook)
    try:
        from latinrect import cli

        for args in jobs:
            code = 0
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(list(args), "latinrect")
                except SystemExit as exc:
                    code = exc.code or 0
            if code:
                print(f"exit {code}:", " ".join(args), file=sys.stderr)
    finally:
        sys.settrace(None)
    return reached


def main() -> int:
    os.environ["LATINRECT_OEIS_CACHE"] = str(ROOT / "tests" / "fixtures")
    jobs = list(dict.fromkeys(
        args for workload in WORKLOADS.values() for job in workload
        for args in (job, mirrored(job))))
    reached = trace_jobs(jobs)
    print(f"{len(jobs)} jobs")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(str(path), set()))
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines not reached")
        for line in missed:
            print(f"  {path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
