"""Toy-size checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import WORK_COUNTERS

TOY_JOBS = (
    ("gen-der", "--shifts", "0,1", "-N", "8", "--oracle-depth", "5"),
    ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "5", "--oracle-depth", "4"),
    ("trapezoid", "-N", "3", "--oracle-depth", "5"),
    ("kernel", "--shifts", "0,1,-2"),
)


@pytest.fixture(scope="module")
def toy():
    """A toy plan plus references taken from untraced runs."""
    env = run.child_env()
    refs = {}
    for args in TOY_JOBS:
        _, _, code, out, _ = run.run_child(
            [sys.executable, "-m", "latinrect.cli", *args], env, 60)
        assert code == 0
        text = workloads.canonical(out)
        refs[workloads.job_id(args)] = {"lines": text.count("\n") + 1,
                                        "sha256": workloads.digest(out)}
    jobs = tuple((workloads.job_id(a), a) for a in TOY_JOBS)
    return workloads.Plan("toy", jobs, random.Random(0)), refs, env


def test_traced_counters_repeat_and_time_is_accounted(toy):
    plan, refs, env = toy
    with run.ReferenceLoop(env) as reference:
        passes = [run.run_pass(plan, refs, env, reference, traced=True) for _ in range(2)]
    for p in passes:
        assert [j.error for j in p.jobs] == [None] * len(TOY_JOBS)
    first, second = ({j.ref_id: j.trace["layers"] for j in p.jobs} for p in passes)
    for ref_id in first:
        assert {c: first[ref_id][c] for c in WORK_COUNTERS} == \
               {c: second[ref_id][c] for c in WORK_COUNTERS}
    layers, acct = run.layer_metrics(passes, plain_norm=1.0)
    for name in ("dp.columns", "dp.mono_steps", "dp.live_peak", "dp.profiles_max",
                 "poly.bareiss_calls", "oracle.calls", "umbra.monomials",
                 "dp.kernel_states", "tiles.count"):
        assert layers[name] > 0, name
    assert layers["oracle.max_n"] == 5
    # spans nest inside the pass, and little is left unaccounted
    assert 0 < acct["accounted_s"] <= acct["traced_pass_s"]
    assert layers["trace.unaccounted_s"] < 0.2 * acct["traced_pass_s"]


def test_wrong_output_is_rejected(toy):
    _, refs, _ = toy
    ref = refs[workloads.job_id(TOY_JOBS[0])]
    assert workloads.check_output(ref, b"1 0\n2 0\n3 1\n4 3\n5 16\n6 96\n7 675\n8 5413\n") is None
    assert workloads.check_output(ref, b"1 0\n2 0\n3 1\n4 3\n5 16\n6 96\n7 675\n8 5414\n")
    assert workloads.check_output(ref, b"1 0\n")


def test_oracle_depths_are_pinned_within_caps(monkeypatch):
    workloads.check_pins({"gen-der": 11, "glr3": 7, "trapezoid": 10})
    with pytest.raises(ValueError, match="above"):
        workloads.check_pins({"gen-der": 9})
    monkeypatch.setitem(workloads.WORKLOADS, "unpinned", (("trapezoid", "-N", "5"),))
    with pytest.raises(ValueError, match="pin"):
        workloads.check_pins()


def test_seed_fixes_inputs_and_mirror_negates_shift_sets():
    assert workloads.mirrored(("kernel", "--shifts", "0,1,-2")) == ("kernel", "--shifts", "0,-1,2")
    a, b = workloads.plan("kernel-wide", 7), workloads.plan("kernel-wide", 7)
    assert a.jobs == b.jobs and a.pass_order() == b.pass_order()
    assert all(ref in workloads.load_refs() for ref, _ in a.jobs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trapezoid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
