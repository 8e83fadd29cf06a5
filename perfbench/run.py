"""latinrect benchmark: end-to-end timings and a traced per-layer view.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A *pass* runs every job of the workload
once, each as a fresh `latinrect` process (`python3 -m latinrect.cli`),
one after another from this single process: a closed loop with
one client.  Passes repeat until the time is up (at least three), and
every job's output is checked against perfbench/refs.json.

This process and its jobs share one CPU, and a fixed pure-Python
reference loop runs on it before and after every job.  On a shared
machine the speed of a CPU drifts by tens of percent from minute to
minute; a job's time divided by the reference time around it cancels
most of that drift.  So the end-to-end metrics for --trace 0 are

  pass_norm    median over passes of sum(job wall time / reference time)
  cpu_norm     the same with each job's user+sys time
  peak_rss_mb  median over passes of the largest job ru_maxrss
  setup_s      median time for a fresh interpreter to import latinrect.cli

and the raw pass_s (median pass wall time, with its sample count),
cpu_s and fail_frac (failed jobs / jobs) are printed next to them.

--trace 1 alternates untraced passes with traced ones, in which each
job runs through perfbench/tracing.py, and reports the per-layer
metrics of the median traced pass plus trace.overhead (traced
pass_norm / untraced pass_norm).

--workload all runs every workload in turn.  Human-readable lines go
to stdout first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  A full record with per-pass
samples and the machine it ran on is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PEAK_COUNTERS, TRACE_MARK, WORK_COUNTERS  # noqa: E402

SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
RESULTS = HERE / "results"

MIN_PASSES = 3
MAX_RUN_S = 90.0  # no new pass starts after this, whatever --seconds says
HARD_LIMIT_S = 150.0  # jobs still running this long after the first pass are killed
JOB_TIMEOUT_S = 60.0
SETUP_PER_PASS = 2  # import-time samples taken before each untraced pass
REFERENCE_STEPS = 150_000  # about 0.06 s of reference work

END_TO_END_UNITS = {"pass_norm": "ref", "cpu_norm": "ref", "peak_rss_mb": "MB",
                    "setup_s": "s"}
PER_LAYER_UNITS = {
    "tiles.s": "s", "tiles.count": "count",
    "dp.sweep_s": "s", "dp.columns": "count", "dp.profiles_max": "count",
    "dp.live_peak": "count", "dp.mono_steps": "count",
    "dp.tables": "count", "dp.table_s": "s",
    "dp.unpack_s": "s", "dp.unpack_monomials": "count",
    "dp.kernel_s": "s", "dp.kernel_states": "count",
    "poly.bareiss_s": "s", "poly.bareiss_calls": "count",
    "umbra.s": "s", "umbra.monomials": "count",
    "oracle.s": "s", "oracle.calls": "count", "oracle.max_n": "n",
    "cli.render_s": "s", "cli.render_bytes": "bytes",
    "oeis.s": "s", "sequences.self_s": "s",
    "trace.startup_s": "s", "trace.unaccounted_s": "s",
    "trace.pass_s": "s", "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class JobResult:
    ref_id: str
    argv: tuple[str, ...]
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None  # why the job failed, or None
    trace: dict | None = None
    ref_s: float = 0.0  # reference loop time around the job


@dataclass
class PassResult:
    wall_s: float
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(j.cpu_s for j in self.jobs)

    @property
    def rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)

    @property
    def norm(self) -> float:
        """The pass in reference-loop units: each job's wall time over
        the reference loop time measured around it, summed."""
        return sum(j.wall_s / j.ref_s for j in self.jobs)

    @property
    def cpu_norm(self) -> float:
        return sum(j.cpu_s / j.ref_s for j in self.jobs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # the OEIS check reads the frozen b-files and never downloads
    env["LATINRECT_OEIS_CACHE"] = str(FIXTURES)
    return env


def run_child(cmd: list[str], env: dict[str, str], timeout: float):
    """(wall s, rusage, exit code or None on timeout, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timed_out = not timer.is_alive()
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out and proc.returncode < 0 else proc.returncode
    return wall, usage, code, out, err[0] if err else b""


def run_job(ref_id, argv, refs, env, traced: bool, timeout: float = JOB_TIMEOUT_S) -> JobResult:
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "latinrect.cli", *argv]
    wall, usage, code, out, err = run_child(cmd, env, timeout)
    trace = None
    if code is None:
        error = f"timed out after {timeout:.0f}s"
    elif code != 0:
        error = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
    else:
        error = workloads.check_output(refs[ref_id], out)
    if traced and error is None:
        marks = [line for line in err.decode(errors="replace").splitlines()
                 if line.startswith(TRACE_MARK)]
        if not marks:
            error = "traced job wrote no trace"
        else:
            trace = json.loads(marks[-1][len(TRACE_MARK):])
    return JobResult(ref_id, argv, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, error, trace)


#: fixed pure-Python work that does not depend on the program under
#: test: updates of a dict that grows to ~10^5 keys in pseudo-random
#: order, like the sweep's monomial tables, so that it slows down under
#: cache and memory contention as the jobs do; one run per input line
REFERENCE_WORKER = f"""
import sys, time
for _ in sys.stdin:
    t0 = time.perf_counter()
    acc = {{}}
    k = 1
    for i in range({REFERENCE_STEPS}):
        k = (k * 1103515245 + 12345) & 0xFFFFFFFF
        acc[k >> 12] = acc.get(k >> 12, 0) + i
    print(repr(time.perf_counter() - t0), flush=True)
"""


class ReferenceLoop:
    """Times the reference work in a long-lived helper process.  It is
    not done in this process because a child's ru_maxrss starts from the
    peak size of the process that started it."""

    def __init__(self, env) -> None:
        self._proc = subprocess.Popen([sys.executable, "-c", REFERENCE_WORKER],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=env, cwd=ROOT, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the reference loop process died")
        return float(line)

    def __enter__(self) -> "ReferenceLoop":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def python_child(code: str, env, what: str) -> bytes:
    """stdout of `python3 -c code` in a fresh interpreter."""
    _, _, rc, out, err = run_child([sys.executable, "-c", code], env, JOB_TIMEOUT_S)
    if rc != 0:
        raise BenchError(f"{what} failed: {err.decode(errors='replace')[-300:]}")
    return out


def run_pass(plan, refs, env, reference: ReferenceLoop, traced: bool,
             deadline: float = float("inf")) -> PassResult:
    """One pass; each job is bracketed by runs of the reference loop,
    which are not part of the pass wall time."""
    jobs = []
    before = reference()
    for ref_id, argv in plan.pass_order():
        timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
        job = run_job(ref_id, argv, refs, env, traced, timeout)
        after = reference()
        job.ref_s = (before + after) / 2
        jobs.append(job)
        before = after
    return PassResult(sum(j.wall_s for j in jobs), jobs)


def pin_to_one_cpu() -> None:
    """Run this process and every job it starts on one CPU, the one the
    reference loop also runs on, so both see the same contention."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(env, samples: int) -> list[float]:
    """Import times of latinrect.cli, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import latinrect.cli; "
            "print(repr(time.perf_counter() - t))")
    return [float(python_child(code, env, "importing latinrect.cli"))
            for _ in range(samples)]


def program_caps(env) -> dict[str, int]:
    """The oracle caps the program under test clamps --oracle-depth to."""
    names = workloads.CAP_NAMES
    code = ("import json, latinrect.oracle as o; print(json.dumps({k: getattr(o, v, None) "
            f"for k, v in {names!r}.items()}}))")
    caps = json.loads(python_child(code, env, "reading the oracle caps"))
    return {k: v for k, v in caps.items() if isinstance(v, int)}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    pct = int(100 * (n - 10) / n)
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return f"n={n}; p{pct}={value:.4f}"


def run_passes(plan, refs, env, reference, seconds: float, trace: bool):
    """Untraced passes, each after a few import-time samples; or, when
    tracing, untraced and traced passes alternating (one untraced to
    two traced).  Returns (untraced, traced, import-time samples)."""
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    setup: list[float] = []
    measure_setup(env, 1)  # untimed: leaves the bytecode cache filled
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if trace:
            enough = len(plain) >= 1 and len(traced) >= 2
        else:
            enough = len(plain) >= MIN_PASSES
        if (enough and elapsed >= seconds) or elapsed >= MAX_RUN_S:
            break
        want_traced = trace and len(traced) < 2 * len(plain)
        if not trace:
            setup += measure_setup(env, SETUP_PER_PASS)
        (traced if want_traced else plain).append(
            run_pass(plan, refs, env, reference, want_traced, t0 + HARD_LIMIT_S))
    return plain, traced, setup


def layer_metrics(passes: list[PassResult], plain_norm: float) -> tuple[dict, dict]:
    """Per-layer metrics of the median traced pass, and the accounting."""
    for p in passes[1:]:
        for a, b in zip(sorted(passes[0].jobs, key=lambda j: j.ref_id),
                        sorted(p.jobs, key=lambda j: j.ref_id)):
            for c in WORK_COUNTERS:
                if a.trace["layers"][c] != b.trace["layers"][c]:
                    raise BenchError(f"work counter {c} differs between traced passes "
                                     f"of {a.ref_id!r}: {a.trace['layers'][c]} vs "
                                     f"{b.trace['layers'][c]}")
    mid = sorted(passes, key=lambda p: p.wall_s)[(len(passes) - 1) // 2]
    layers: dict[str, float] = {}
    for job in mid.jobs:
        for name, value in job.trace["layers"].items():
            if name in PEAK_COUNTERS:
                layers[name] = max(layers.get(name, 0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    startup = sum(j.wall_s - j.trace["main_s"] for j in mid.jobs)
    accounted = startup + sum(v for k, v in layers.items()
                              if PER_LAYER_UNITS[k] == "s")
    layers["trace.startup_s"] = startup
    layers["trace.unaccounted_s"] = mid.wall_s - accounted
    layers["trace.pass_s"] = mid.wall_s
    layers["trace.overhead"] = statistics.median(p.norm for p in passes) / plain_norm
    return layers, {"traced_pass_s": mid.wall_s, "accounted_s": accounted}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env, refs, reference):
    plan = workloads.plan(name, seed)
    load_before = os.getloadavg()[0]
    plain, traced, setup = run_passes(plan, refs, env, reference, seconds, trace)
    load_after = os.getloadavg()[0]
    jobs = [j for p in plain + traced for j in p.jobs]
    failures = [j for j in jobs if j.error]

    lines = [f"workload {name} seed {seed}: {len(plain)} untraced + {len(traced)} traced "
             f"passes of {len(plan.jobs)} job(s)"]
    if trace:
        clean = [p for p in traced if not any(j.error for j in p.jobs)]
        if not clean:
            raise BenchError("every traced pass had a failed job: "
                             + "; ".join(j.error for j in failures[:3]))
        values, acct = layer_metrics(clean, statistics.median(p.norm for p in plain))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        lines.append(f"  traced pass {acct['traced_pass_s']:.4f} s = layer self times + "
                     f"sequences.self_s + start-up {acct['accounted_s']:.4f} s "
                     f"+ unaccounted {values['trace.unaccounted_s']:.4f} s")
        for k, u in sorted(PER_LAYER_UNITS.items()):
            lines.append(f"  {k:<22} {values[k]:14.6g} {u}")
    else:
        values = {
            "pass_s": statistics.median(p.wall_s for p in plain),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "setup_s": statistics.median(setup),
            "fail_frac": len(failures) / len(jobs),
            "pass_norm": statistics.median(p.norm for p in plain),
            "cpu_norm": statistics.median(p.cpu_norm for p in plain),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        notes = [
            ("pass_s", "s", percentile_note([p.wall_s for p in plain])),
            ("cpu_s", "s", "user+sys of the jobs"),
            ("peak_rss_mb", "MB", "largest job ru_maxrss"),
            ("setup_s", "s", f"median of {len(setup)} imports"),
            ("fail_frac", "1", f"{len(failures)}/{len(jobs)} jobs failed"),
            ("pass_norm", "ref", "pass_s in reference-loop units, job by job; median"),
            ("cpu_norm", "ref", "cpu_s in reference-loop units, job by job; median"),
        ]
        for k, u, note in notes:
            lines.append(f"  {k:<12} {values[k]:12.4f} {u:<4} {note}")
    for job in failures[:5]:
        lines.append(f"  FAILED {' '.join(job.argv)}: {job.error}")
    host = dict(machine(), load1_before=load_before, load1_after=load_after)
    lines.append("  machine: " + json.dumps(host))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": host, "metrics": metrics, "setup_samples": setup,
        "values": values,
        "passes": [{"traced": p in traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "rss_mb": p.rss_mb, "norm": p.norm,
                    "jobs": [{"argv": j.argv, "wall_s": j.wall_s, "ref_s": j.ref_s,
                              "error": j.error}
                             for j in p.jobs]}
                   for p in plain + traced],
    }
    return lines, record, len(jobs), len(failures), metrics


def preflight(env) -> dict:
    if not (SRC / "latinrect" / "cli.py").is_file() or not FIXTURES.is_dir():
        raise BenchError(f"no latinrect source under {ROOT}: run from a checkout")
    workloads.check_pins(program_caps(env))
    refs = workloads.load_refs()
    missing = [workloads.job_id(a) for jobs in workloads.WORKLOADS.values()
               for a in jobs if workloads.job_id(a) not in refs]
    if missing:
        raise BenchError(f"no stored reference for {missing}")
    return refs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    env = child_env()
    pin_to_one_cpu()
    try:
        refs = preflight(env)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        with ReferenceLoop(env) as reference:
            for name in names:
                lines, record, n_jobs, n_failed, m = run_workload(
                    name, args.seed, args.seconds, bool(args.trace), env, refs, reference)
                print("\n".join(lines), flush=True)
                RESULTS.mkdir(exist_ok=True)
                out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
                out.write_text(json.dumps(record, indent=1) + "\n")
                attempted += n_jobs
                failed += n_failed
                prefix = f"{name}." if len(names) > 1 else ""
                metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
