"""The benchmark's tracer (perfbench/tracing.py) wraps the package's
layer functions by name from outside.  A rename there leaves a layer
unwrapped and its counters at zero without any error, so each traced
job here must report work in every layer it runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: prefix of the tracer's one stderr report line
TRACE_MARK = "@@latinrect-trace"


def traced_layers(args: tuple[str, ...]) -> dict[str, float]:
    # no bytecode: perfbench/ is only read
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    marks = [line for line in proc.stderr.splitlines() if line.startswith(TRACE_MARK + " ")]
    assert len(marks) == 1, proc.stderr
    return json.loads(marks[0][len(TRACE_MARK) + 1:])["layers"]


def test_kernel_is_one_elimination():
    # kernel2 walks its transfer states, then solves for one unknown
    layers = traced_layers(("kernel", "--shifts", "0,1,-2"))
    assert layers["poly.bareiss_calls"] == 1
    assert layers["dp.kernel_states"] > 0


#: layers every engine job runs: the sweep, its replayed table rows,
#: the umbral count and the oracle
ENGINE_LAYERS = ("dp.columns", "dp.mono_steps", "umbra.monomials", "oracle.calls")


def test_glr3_reaches_sweep_umbra_and_oracle():
    layers = traced_layers(
        ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "4", "--oracle-depth", "4")
    )
    for name in ENGINE_LAYERS:
        assert layers[name] > 0, name


@pytest.mark.parametrize("args", [
    ("gen-der", "--shifts", "0,1", "-N", "12", "--oracle-depth", "7"),
    ("trapezoid", "-N", "6", "--oracle-depth", "7"),
], ids=["gen-der", "trapezoid"])
def test_two_row_and_trapezoid_jobs_reach_every_layer(args):
    layers = traced_layers(args)
    for name in ENGINE_LAYERS:
        assert layers[name] > 0, name


def test_dump_series_reaches_unpack():
    # a glr3 job unpacks its snapshots only for the --dump-series table
    layers = traced_layers(
        ("glr3", "--s12", "0,1", "--s13", "", "--s23", "-1", "-N", "5",
         "--oracle-depth", "5", "--dump-series", "5")
    )
    assert layers["dp.unpack_monomials"] > 0
