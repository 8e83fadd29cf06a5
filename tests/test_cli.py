"""End-to-end CLI behavior, run in process through `main` with stdout,
stderr and the environment captured (fresh processes where start-up
or the process exit matters): formats, file output, dump flags, OEIS
checking, option values that begin with '-', the documented exit
codes, how a process ends, and what importing the front end loads."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

import latinrect.dp as dpmod
import latinrect.sequences as seqmod
from latinrect.cli import (
    EXIT_OEIS_MISMATCH,
    EXIT_OEIS_UNVERIFIABLE,
    EXIT_ORACLE_MISMATCH,
    main,
)
from latinrect.oeis import CACHE_ENV_VAR, cache_path, parse_bfile

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def cached_271(tmp_path, monkeypatch, fixture_dir):
    """The menage b-file, alone in a fresh OEIS cache."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    target = cache_path("271")
    target.write_text((fixture_dir / "b000271.txt").read_text())
    return target


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str


def invoke(*args: str, env: dict[str, str] | None = None) -> Result:
    """Run main() in process with its streams, exit code and environment
    captured.  Any exception other than SystemExit propagates, so a
    traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="latinrect")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), err.getvalue())


class TestGenDer:
    def test_plain(self):
        r = invoke("gen-der", "--shifts", "0,1", "-N", "6")
        assert r.exit_code == 0
        assert r.stdout == "1 0\n2 0\n3 1\n4 3\n5 16\n6 96\n"

    def test_bfile_header(self):
        r = invoke("gen-der", "--shifts", "0,1", "-N", "4", "-f", "bfile")
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "# family=gen-der shifts=[0, 1]"
        assert lines[1].startswith("# n=1..4 reduced=True provenance=engine")
        assert lines[2:] == ["1 0", "2 0", "3 1", "4 3"]

    def test_json(self):
        r = invoke("gen-der", "--shifts", "0", "-N", "5", "-f", "json")
        data = json.loads(r.stdout)
        assert data["terms"] == ["0", "1", "2", "9", "44"]
        assert data["family"] == "gen-der"

    def test_deterministic_output(self):
        args = ("gen-der", "--shifts", "-2,0,1", "-N", "8", "-f", "bfile")
        assert invoke(*args).stdout == invoke(*args).stdout

    def test_total(self):
        r = invoke("gen-der", "--shifts", "0", "-N", "4", "--total")
        assert r.stdout == "1 0\n2 2\n3 12\n4 216\n"

    def test_output_file(self, tmp_path):
        out = tmp_path / "terms.txt"
        r = invoke("gen-der", "--shifts", "0", "-N", "3", "-o", str(out))
        assert r.exit_code == 0
        assert out.read_text() == "1 0\n2 1\n3 2\n"
        assert r.stdout == ""

    def test_dump_flags_go_to_stderr(self):
        r = invoke("gen-der", "--shifts", "0", "-N", "3",
                   "--dump-tiles", "--dump-series", "2")
        assert r.stdout == "1 0\n2 1\n3 2\n"
        assert "(0,0)+(0,1) coeff=-1 weight=1" in r.stderr
        assert "P_2 = x^2 - 2*x + 1" in r.stderr

    def test_dump_series_reuses_the_job_sweep(self, monkeypatch):
        columns = []
        advance = dpmod._Sweep.advance

        def counted(self, dist, blocked, **kwargs):
            columns.append(blocked)
            return advance(self, dist, blocked, **kwargs)

        monkeypatch.setattr(dpmod._Sweep, "advance", counted)
        r = invoke("gen-der", "--shifts", "0,1", "-N", "30", "--dump-series", "8")
        assert len(columns) == 30
        assert r.stderr.count("P_") == 9  # P_0 .. P_8
        columns.clear()
        r = invoke("gen-der", "--shifts", "0,1", "-N", "3", "--dump-series", "8")
        assert len(columns) == 8  # swept on for the dump, terms stop at N
        assert r.stdout == "1 0\n2 0\n3 1\n"
        assert "P_8 = " in r.stderr

    def test_bad_shift_string_usage_error(self):
        r = invoke("gen-der", "--shifts", "zebra", "-N", "3")
        assert r.exit_code == 2

    def test_shift_parsing_variants(self):
        for raw in ("{0, 1}", "0 1", "1,0"):
            r = invoke("gen-der", "--shifts", raw, "-N", "3")
            assert r.stdout == "1 0\n2 0\n3 1\n"


class TestOtherFamilies:
    def test_glr3(self):
        r = invoke("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "5")
        assert r.stdout == "1 0\n2 0\n3 2\n4 24\n5 552\n"

    def test_glr3_oracle_to_n8(self):
        r = invoke("glr3", "--s12", "0", "--s13", "0", "--s23", "0",
                   "-N", "8", "--oracle-depth", "8")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1] == "8 70299264"

    def test_glr3_empty_sets_default(self):
        r = invoke("glr3", "-N", "3")
        assert r.stdout == "1 1\n2 4\n3 36\n"

    def test_trapezoid(self):
        r = invoke("trapezoid", "-N", "4")
        assert r.stdout == "3 1\n4 6\n5 68\n6 1670\n"

    def test_triangle(self):
        r = invoke("triangle", "--n", "6")
        assert r.stdout == "3 1\n4 0\n5 4\n6 236\n"

    def test_triangle_has_no_dump_flags(self):
        r = invoke("triangle", "--n", "5", "--dump-tiles")
        assert r.exit_code == 2

    def test_terms_past_4300_digits(self):
        # free 3 x n boards count (n!)^2, 5136 digits at n = 1000
        want = {n: math.factorial(n) ** 2 for n in range(1, 1001)}
        assert len(str(want[1000])) > 5000
        plain = invoke("glr3", "-N", "1000")
        assert plain.exit_code == 0
        assert plain.stdout.splitlines()[-1] == f"1000 {want[1000]}"
        data = json.loads(invoke("glr3", "-N", "1000", "-f", "json").stdout)
        assert int(data["terms"][-1]) == want[1000]
        bfile = invoke("glr3", "-N", "1000", "-f", "bfile")
        assert bfile.exit_code == 0
        assert parse_bfile(bfile.stdout) == want


class TestKernel:
    def test_plain(self):
        r = invoke("kernel", "--shifts", "0")
        assert r.stdout == "(1) / (1 + (-x + 1)*X)\n"

    def test_json(self):
        r = invoke("kernel", "--shifts", "0,1", "-f", "json")
        data = json.loads(r.stdout)
        assert data["normalized"] is True
        assert data["shifts"] == [0, 1]

    def test_dump_series(self):
        r = invoke("kernel", "--shifts", "0", "--dump-series", "2")
        assert "P_0 = 1" in r.stderr
        assert "P_2 = x^2 - 2*x + 1" in r.stderr


def _negated(shifts: str) -> str:
    return ",".join(str(-int(s)) for s in shifts.split(","))


class TestMinusLedShiftSets:
    """A shift set that begins with '-' and stands as its own argument
    is the option's value, not an unknown option: the benchmark mirrors
    shift sets (S -> -S) and passes them this way."""

    @pytest.mark.parametrize("args", [
        ("gen-der", "--shifts", "-1,0,1", "-N", "8"),
        ("glr3", "--s12", "-1,0,1", "--s13", "-2,0,2", "--s23", "-1,0,1", "-N", "6"),
        ("kernel", "--shifts", "-2,-1,0,1,2,3"),
    ], ids=["gen-der", "glr3", "kernel"])
    def test_prints_what_its_mirror_prints(self, args):
        mirror = [_negated(a) if a[:1] == "-" and a[1:2].isdigit() else a for a in args]
        assert all(a[:1] != "-" or not a[1:2].isdigit() for a in mirror)
        r = invoke(*args)
        assert r.exit_code == 0, r.stderr
        assert r.stdout != ""
        assert r.stdout == invoke(*mirror).stdout


class TestExitCodes:
    def test_oracle_mismatch_is_3(self, monkeypatch):
        true_eval = seqmod.umbra.umbral_eval_2row
        monkeypatch.setattr(
            seqmod.umbra, "umbral_eval_2row", lambda p: true_eval(p) + 1
        )
        r = invoke("gen-der", "--shifts", "0", "-N", "5")
        assert r.exit_code == EXIT_ORACLE_MISMATCH
        assert "oracle mismatch" in r.stderr

    @pytest.mark.parametrize("args", [
        ("trapezoid", "-N", "3", "--oracle-depth", "20"),
        ("gen-der", "--shifts", "0", "-N", "3", "--oracle-depth", "12"),
        ("triangle", "--n", "8"),
        ("triangle", "--n", "9"),
    ])
    def test_check_past_oracle_cap_is_usage_error(self, args):
        r = invoke(*args)
        assert r.exit_code == 2
        assert "capped at n=" in r.stderr or "stop at n=" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("shifts", ["0,8", "0,30"])
    def test_kernel_past_span_limit_is_usage_error(self, shifts):
        # a fresh process with a timeout: without the guard these run for hours
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "latinrect.cli", "kernel", "--shifts", shifts],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"at most {dpmod.MAX_KERNEL_SPAN} columns" in proc.stderr

    def test_bad_oeis_id_is_usage_error_before_the_job(self, monkeypatch):
        def no_job(*args, **kwargs):
            raise AssertionError("the job ran before the ID was checked")

        monkeypatch.setattr("latinrect.sequences.run_job", no_job)
        r = invoke("gen-der", "--shifts", "0,1", "-N", "3", "--oeis", "bogus")
        assert r.exit_code == 2
        assert "not an OEIS id: 'bogus'" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("engine, args, target", [
        ("latinrect.sequences.run_job", ("gen-der", "--shifts", "0,1", "-N", "3"),
         "missing/f.txt"),
        ("latinrect.dp.kernel2", ("kernel", "--shifts", "0,1"), "missing/f.txt"),
        # -o naming a directory that exists
        ("latinrect.sequences.run_job", ("gen-der", "--shifts", "0,1", "-N", "3"), "."),
        ("latinrect.dp.kernel2", ("kernel", "--shifts", "0,1"), "."),
    ], ids=["gen-der", "kernel", "gen-der-into-directory", "kernel-into-directory"])
    def test_output_into_missing_directory_is_usage_error(
            self, monkeypatch, tmp_path, engine, args, target):
        def no_job(*args, **kwargs):
            raise AssertionError("the job ran before the output path was checked")

        monkeypatch.setattr(engine, no_job)
        out = tmp_path / target
        r = invoke(*args, "-o", str(out))
        assert r.exit_code == 2
        assert r.stdout == ""
        assert str(out) in r.stderr
        assert not any(tmp_path.iterdir())  # nothing was created or written

    def test_closed_stdout_is_1_without_traceback(self):
        # as in `latinrect ... | true`: the reader is gone before the terms are written
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "latinrect.cli", "glr3", "-N", "50"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    def test_oeis_match_is_0(self, cached_271):
        r = invoke("gen-der", "--shifts", "0,1", "-N", "8",
                   "--oeis", "271", "--offline")
        assert r.exit_code == 0
        assert "MATCH" in r.stderr

    def test_oeis_mismatch_is_4(self, cached_271):
        r = invoke("gen-der", "--shifts", "0", "-N", "8",
                   "--oeis", "271", "--offline")
        assert r.exit_code == EXIT_OEIS_MISMATCH

    def test_oeis_cold_cache_offline_is_5(self, tmp_path):
        r = invoke("gen-der", "--shifts", "0", "-N", "4",
                   "--oeis", "271", "--offline",
                   env={"LATINRECT_OEIS_CACHE": str(tmp_path / "empty")})
        assert r.exit_code == EXIT_OEIS_UNVERIFIABLE

    @pytest.mark.parametrize("data, line", [
        (b"<html>rate limited</html>\n", 1),
        (b"1 0\n2 0\n3 1\n4 ", 4),  # a transfer cut off mid-line
        (b"1 0\n2 \xff\xfe\n", 2),
    ], ids=["html", "truncated", "not-utf8"])
    def test_oeis_malformed_cache_is_5(self, cached_271, data, line):
        # invoke() re-raises, so a traceback would fail the test
        cached_271.write_bytes(data)
        r = invoke("gen-der", "--shifts", "0,1", "-N", "5",
                   "--oeis", "271", "--offline")
        assert r.exit_code == EXIT_OEIS_UNVERIFIABLE
        assert f"{cached_271} does not parse, line {line}:" in r.stderr
        assert r.stdout == "1 0\n2 0\n3 1\n4 3\n5 16\n"

    def test_oeis_unreadable_cache_is_5(self, cached_271):
        cached_271.unlink()
        cached_271.mkdir()
        r = invoke("gen-der", "--shifts", "0,1", "-N", "3",
                   "--oeis", "A000271", "--offline")
        assert r.exit_code == EXIT_OEIS_UNVERIFIABLE
        assert f"UNVERIFIABLE (0 terms compared) -- cannot read cached b-file {cached_271}: " \
            in r.stderr
        assert r.stdout == "1 0\n2 0\n3 1\n"

    def test_oeis_compares_reduced_terms_under_total(self, cached_271):
        r = invoke("gen-der", "--shifts", "0,1", "-N", "8", "--total",
                   "--oeis", "271", "--offline")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[2] == "3 6"  # 1 * 3!


def buffered_env(**extra: str) -> dict[str, str]:
    """os.environ with src/ on the path and stdout block-buffered into a
    pipe, as in a shell, so output that nothing flushes would be lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **extra)


def latinrect(*args: str, cwd: Path | None = None,
              env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """A fresh `python -m latinrect.cli` process, bytes captured."""
    return subprocess.run([sys.executable, "-m", "latinrect.cli", *args],
                          env=buffered_env(**(env or {})), cwd=cwd,
                          capture_output=True, timeout=60)


def python(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], env=buffered_env(),
                          capture_output=True, text=True, timeout=60)


class TestProcessEntry:
    """A process ends through run(): a flush, then os._exit, with what
    main() prints and the code it exits with."""

    def test_piped_output_is_the_in_process_output(self):
        args = ("gen-der", "--shifts", "0,1", "-N", "300")
        proc = latinrect(*args)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout) > 65536  # more than one pipe buffer
        assert proc.stdout == invoke(*args).stdout.encode()

    @pytest.mark.parametrize("fmt", ["plain", "bfile", "json"])
    def test_output_file_gets_the_stdout_bytes(self, tmp_path, fmt):
        args = ("gen-der", "--shifts", "0,1", "-N", "300", "-f", fmt)
        proc = latinrect(*args, "-o", "terms.txt", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"wrote terms.txt\n")
        written = (tmp_path / "terms.txt").read_bytes()
        if fmt == "json":  # the one field that differs from run to run
            written, piped = (
                {**json.loads(text), "duration_seconds": 0}
                for text in (written, latinrect(*args).stdout)
            )
        else:
            piped = latinrect(*args).stdout
        assert written == piped

    @pytest.mark.parametrize("args, code, text", [
        (("gen-der", "--shifts", "0", "-N", "0"), 2,
         "latinrect gen-der: error: argument -N: 0 is not in the range x>=1\n"),
        (("bogus",), 2, "latinrect: error: argument COMMAND: invalid choice: 'bogus'"),
        (("gen-der", "--shifts", "0,1", "-N", "4", "--oeis", "271", "--offline"), 5,
         "A000271: UNVERIFIABLE (0 terms compared) -- offline and no cached b-file"),
        (("--help",), 0, ""),
        (("--version",), 0, ""),
    ], ids=["range", "command", "offline", "help", "version"])
    def test_exit_code_and_streams_are_main_s(self, tmp_path, args, code, text):
        env = {CACHE_ENV_VAR: str(tmp_path / "empty")}
        proc = latinrect(*args, env=env)
        want = invoke(*args, env=env)
        assert proc.returncode == want.exit_code == code
        assert proc.stdout.decode() == want.stdout
        assert proc.stderr.decode() == want.stderr
        assert text in want.stderr

    @pytest.mark.parametrize("args", [("glr3", "-N", "50"), ("--help",)],
                             ids=["job", "help"])
    def test_closed_buffered_stdout_is_1_without_traceback(self, args):
        # `--help` leaves its text in the buffer: run()'s flush meets the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "latinrect.cli", *args],
            env=buffered_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    def test_main_never_ends_the_process(self):
        proc = python(
            "from latinrect.cli import main\n"
            "main(['gen-der', '--shifts', '0,1', '-N', '3'])\n"
            "print('after')\n"
        )
        assert (proc.returncode, proc.stdout) == (0, "1 0\n2 0\n3 1\nafter\n")

    @pytest.mark.parametrize("raised, code, stderr", [
        ("SystemExit(None)", 0, ""),
        ("SystemExit(True)", 1, ""),
        ("SystemExit(4)", 4, ""),
        ("SystemExit('no int')", 1, "no int\n"),
        ("RuntimeError('boom')", 1, "RuntimeError: boom\n"),
    ])
    def test_exit_codes_map_as_the_interpreter_maps_them(self, raised, code, stderr):
        proc = python(
            "import latinrect.cli as cli\n"
            "def main():\n"
            "    print('out')\n"
            f"    raise {raised}\n"
            "cli.main = main\n"
            "cli.run()\n"
        )
        assert (proc.returncode, proc.stdout) == (code, "out\n")
        assert proc.stderr.endswith(stderr)


class TestHelp:
    def test_group_help(self):
        r = invoke("--help")
        assert r.exit_code == 0
        for cmd in ("gen-der", "glr3", "trapezoid", "triangle", "kernel"):
            assert cmd in r.stdout

    def test_kernel_help_states_the_span_limit(self):
        r = invoke("kernel", "--help")
        assert r.exit_code == 0
        text = " ".join(r.stdout.split())  # argparse rewraps the docstring
        span = dpmod.MAX_KERNEL_SPAN
        assert f"at most {span} columns" in text
        assert f"up to {2 ** (span - 1)}." in text

    def test_version(self):
        r = invoke("--version")
        assert r.exit_code == 0
        assert "latinrect" in r.stdout


class TestImports:
    """Each command imports only the engine modules it runs."""

    @staticmethod
    def modules(*args):
        """Every module loaded by running the command line in a fresh
        interpreter, so modules imported by earlier tests do not count."""
        script = (
            "import sys\n"
            "from latinrect.cli import main\n"
            "try:\n"
            "    if sys.argv[1:]:\n"
            "        main(sys.argv[1:], prog_name='latinrect')\n"
            "finally:\n"
            "    print(*sorted(sys.modules), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stderr.splitlines()[-1].split())

    def loaded(self, *args):
        return {m for m in self.modules(*args) if m.startswith("latinrect")}

    def test_import_adds_only_stdlib_modules(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import latinrect.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "latinrect.cli" in added
        allowed = sys.stdlib_module_names | {"latinrect"}
        assert [m for m in added if m.partition(".")[0] not in allowed] == []

    def test_import_loads_only_the_front_end(self):
        assert self.loaded() == {"latinrect", "latinrect.cli"}

    def test_kernel_loads_no_sequence_modules(self):
        mods = self.loaded("kernel", "--shifts", "0,1,-2")
        assert "latinrect.dp" in mods
        for name in ("sequences", "oracle", "umbra", "oeis"):
            assert f"latinrect.{name}" not in mods

    def test_plain_engine_job_loads_no_oeis(self):
        mods = self.loaded("gen-der", "--shifts", "0,1", "-N", "5")
        assert "latinrect.sequences" in mods
        assert "latinrect.oeis" not in mods

    def test_triangle_loads_only_the_oracle(self):
        mods = self.loaded("triangle", "--n", "5")
        assert "latinrect.oracle" in mods
        for name in ("dp", "poly", "tiles", "umbra", "sequences"):
            assert f"latinrect.{name}" not in mods

    def test_no_command_imports_dataclasses(self, cached_271):
        # dataclasses imports inspect: about 10 ms of every job's start-up
        bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                              capture_output=True, text=True, timeout=60).stdout.split()
        jobs = (
            ("kernel", "--shifts", "0,1,-2"),
            ("gen-der", "--shifts", "0,1", "-N", "5"),
            ("glr3", "--s12", "0", "--s13", "0", "--s23", "0", "-N", "4"),
            ("trapezoid", "-N", "3"),
            ("triangle", "--n", "5"),
            ("gen-der", "--shifts", "0,1", "-N", "5", "--oeis", "A000271", "--offline"),
        )
        for job in jobs:
            added = self.modules(*job) - set(bare)
            assert not {"dataclasses", "inspect"} & added, job
