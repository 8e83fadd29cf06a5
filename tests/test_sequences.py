"""Sequence assembly: records, the built-in oracle gate, the n!
blowup, and JSON round-trips.  The negative-control tests deliberately
corrupt the evaluator to prove a mismatch cannot pass silently."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

import latinrect.sequences as seqmod
from latinrect.dp import weight_series
from latinrect.oracle import OracleLimitError, count_generalized_perms_banded
from latinrect.records import TRIANGLE, apply_total, triangle_seq
from latinrect.sequences import (
    FAMILIES,
    GEN_DER,
    GLR3,
    TRAPEZOID,
    TRAPEZOID_SPEC,
    Family,
    OracleMismatchError,
    gen_der_seq,
    glr3_seq,
    run_family,
    run_job,
    trapezoid_seq,
)
from latinrect.tiles import UNIT_WEIGHT, ShiftSpec, enumerate_tiles
from test_dp import random_three_row_specs, retagged

MENAGE = [0, 0, 1, 3, 16, 96, 675, 5413, 48800, 488592]


class TestGenDer:
    def test_menage_record(self):
        rec = gen_der_seq({0, 1}, 10)
        assert rec.terms == MENAGE
        assert rec.family == GEN_DER
        assert rec.offset == 1
        assert rec.reduced and rec.provenance == "engine"
        assert rec.params == {"shifts": [0, 1]}
        assert rec.term(3) == 1
        assert rec.last_n == 10

    def test_term_out_of_range(self):
        rec = gen_der_seq({0}, 3)
        with pytest.raises(IndexError):
            rec.term(0)
        with pytest.raises(IndexError):
            rec.term(4)

    def test_oracle_gate_fires(self, monkeypatch):
        calls = {"n": 0}
        true_eval = seqmod.umbra.umbral_eval_2row

        def corrupted(p):
            calls["n"] += 1
            return true_eval(p) + 1

        monkeypatch.setattr(seqmod.umbra, "umbral_eval_2row", corrupted)
        with pytest.raises(OracleMismatchError) as exc:
            gen_der_seq({0}, 6)
        assert calls["n"] > 0
        assert "tiles:" in exc.value.diagnostics
        assert "P_1" in exc.value.diagnostics

    def test_oracle_depth_zero_disables_gate(self, monkeypatch):
        true_eval = seqmod.umbra.umbral_eval_2row
        monkeypatch.setattr(
            seqmod.umbra, "umbral_eval_2row", lambda p: true_eval(p) + 1
        )
        rec = gen_der_seq({0}, 5, oracle_depth=0)
        assert rec.terms == [1, 2, 3, 10, 45]  # wrong on purpose, gate off

    def test_mirror_symmetry(self):
        a = gen_der_seq({0, 1, -2}, 9)
        b = gen_der_seq({0, -1, 2}, 9)
        assert a.terms == b.terms


class TestGlr3:
    def test_latin_record(self):
        rec = glr3_seq({0}, {0}, {0}, 6)
        assert rec.terms == [0, 0, 2, 24, 552, 21280]
        assert rec.params == {"s12": [0], "s13": [0], "s23": [0]}

    def test_empty_sets(self):
        rec = glr3_seq(set(), set(), set(), 6)
        assert rec.terms == [math.factorial(n) ** 2 for n in range(1, 7)]

    def test_oracle_gate_fires(self, monkeypatch):
        true_eval = seqmod.umbra.umbral_eval_3row
        monkeypatch.setattr(
            seqmod.umbra, "umbral_eval_3row", lambda p, n: true_eval(p, n) - 1
        )
        with pytest.raises(OracleMismatchError):
            glr3_seq({0}, {0}, {0}, 4)


class TestTrapezoid:
    def test_record(self):
        rec = trapezoid_seq(5)
        assert rec.offset == 3
        assert rec.terms == [1, 6, 68, 1670, 67295]
        assert rec.last_n == 7

    def test_oracle_gate_fires(self, monkeypatch):
        true_eval = seqmod.umbra.umbral_eval_trapezoid
        monkeypatch.setattr(
            seqmod.umbra, "umbral_eval_trapezoid", lambda p, n: true_eval(p, n) + 1
        )
        with pytest.raises(OracleMismatchError):
            trapezoid_seq(3)


class TestTriangle:
    def test_record(self):
        rec = triangle_seq(4)
        assert rec.offset == 3
        assert rec.terms == [1, 0, 4, 236]
        assert rec.provenance == "oracle"

    def test_depth_cap(self):
        with pytest.raises(OracleLimitError):
            triangle_seq(7)  # n would reach 9, past the brute-force cap


class TestTotals:
    def test_apply_total(self):
        rec = gen_der_seq({0}, 5)
        tot = apply_total(rec)
        assert tot.terms == [t * math.factorial(n)
                             for n, t in rec.indexed_terms()]
        assert not tot.reduced
        assert apply_total(tot) is tot  # idempotent once unreduced

    def test_offset_respected(self):
        tot = apply_total(trapezoid_seq(3))
        assert tot.terms[0] == 1 * math.factorial(3)


class TestJson:
    def test_roundtrip(self):
        rec = glr3_seq({0, 1}, set(), {-1}, 4)
        data = rec.to_json_dict()
        assert all(isinstance(t, str) for t in data["terms"])
        assert [int(t) for t in data["terms"]] == rec.terms


class TestRunJob:
    def test_dispatch(self):
        rec = run_job(GEN_DER, {"shifts": [0, 1]}, 6)
        assert rec.terms == MENAGE[:6]
        rec = run_job(GLR3, {"s12": [0], "s13": [0], "s23": [0]}, 4)
        assert rec.terms == [0, 0, 2, 24]
        rec = run_job(TRAPEZOID, {}, 3)
        assert rec.terms == [1, 6, 68]

    def test_total_flag(self):
        rec = apply_total(run_job(GEN_DER, {"shifts": [0]}, 4))
        assert rec.terms == [0, 2, 12, 216]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            run_job("hexagon", {}, 3)
        with pytest.raises(ValueError):  # the CLI counts triangles by triangle_seq
            run_job(TRIANGLE, {}, 3)

    def test_zero_terms_rejected(self):
        with pytest.raises(ValueError):
            run_job(GEN_DER, {"shifts": [0]}, 0)

    @pytest.mark.parametrize("n_terms", [0, -1])
    @pytest.mark.parametrize("call", [
        lambda n: gen_der_seq({0, 1}, n),
        lambda n: glr3_seq({0}, {0}, {0}, n),
        lambda n: trapezoid_seq(n),
    ], ids=["gen_der_seq", "glr3_seq", "trapezoid_seq"])
    def test_helpers_refuse_no_terms(self, call, n_terms):
        # run_family refuses, not only run_job: the helpers call it directly
        with pytest.raises(ValueError, match="at least one term"):
            call(n_terms)


def assert_terms_match_series_table(family, params, n_terms, tiles=None):
    """run_family counts each P_n from the packed sweep; every count
    must equal the umbral operator applied to the unpacked P_n."""
    spec = family.spec({k: sorted(v) for k, v in params.items()})
    tiles = enumerate_tiles(spec) if tiles is None else tiles
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqmod, "enumerate_tiles", lambda _: tiles)
        rec = run_family(family, params, n_terms, oracle_depth=0)
    table = weight_series(tiles, family.board, rec.last_n)
    want = [seqmod.umbra.umbral_eval(family.umbral, table.poly(n), n)
            for n in range(rec.offset, rec.last_n + 1)]
    assert rec.terms == want, (spec.describe(), family.board)


def trapezoid_under(spec):
    """The trapezoid family, its board swept under another spec's tiles."""
    trap = FAMILIES[TRAPEZOID]
    return Family(trap.name, lambda _: spec, trap.board, trap.umbral, trap.oracle,
                  trap.oracle_cap, trap.default_depth)


class TestDirectCount:
    """The counts of run_family, taken straight from the packed runs,
    against the operators on the unpacked P_n, at every n."""

    def test_two_row_random_shifts(self):
        rng = random.Random(1616)
        for _ in range(20):
            shifts = {s for s in range(-3, 4) if rng.random() < 0.4}
            assert_terms_match_series_table(FAMILIES[GEN_DER], {"shifts": shifts}, 12)

    @pytest.mark.parametrize("shifts", [{5}, {-4, 3}], ids=["5", "-4,3"])
    def test_two_row_runs_starting_above_zero(self, shifts):
        assert_terms_match_series_table(FAMILIES[GEN_DER], {"shifts": shifts}, 12)

    def test_three_row_random_specs(self):
        for spec in random_three_row_specs(1717, 10):
            params = {"s12": spec.s12, "s13": spec.s13, "s23": spec.s23}
            assert_terms_match_series_table(FAMILIES[GLR3], params, 7)
            # the trapezoid board swept mirrored, under this spec's tiles
            assert_terms_match_series_table(trapezoid_under(spec), {}, 6)

    @pytest.mark.parametrize("cells,weight", [
        (((0, 0), (0, 1)), UNIT_WEIGHT),
        (((0, 2),), "x1"),
    ], ids=["unit-01", "x1-on-row-2"])
    def test_incidence_layout(self, cells, weight):
        # the hand-tagged alphabets of TestSlotLayout in test_dp
        params = {"s12": [0, 1], "s13": [-1, 0], "s23": [0]}
        spec = ShiftSpec.three_rows(*params.values())
        tiles = retagged(retagged(enumerate_tiles(spec), cells, weight), ((0, 0),), "x1")
        assert_terms_match_series_table(FAMILIES[GLR3], params, 7, tiles)
        assert_terms_match_series_table(trapezoid_under(spec), {}, 5, tiles)

    @pytest.mark.parametrize("name,params,evaluator", [
        (GEN_DER, {"shifts": [0, 1]}, "umbral_eval_2row"),
        (GLR3, {"s12": [0, 1], "s13": [], "s23": [-1]}, "umbral_eval_3row"),
    ])
    def test_mismatch_reports_the_whole_polynomial(self, name, params, evaluator,
                                                    monkeypatch):
        true_eval = getattr(seqmod.umbra, evaluator)
        calls = []

        def corrupted(p, *n):
            calls.append(p)
            return true_eval(p, *n) + (len(calls) == 3)

        monkeypatch.setattr(seqmod.umbra, evaluator, corrupted)
        with pytest.raises(OracleMismatchError) as exc:
            run_family(FAMILIES[name], params, 6)
        family = FAMILIES[name]
        table = weight_series(enumerate_tiles(family.spec(params)), family.board, 3)
        assert exc.value.diagnostics.endswith(f"\nP_3 = {table.poly(3).canonical_str()}")
        assert len(table.poly(3)) > 3


class TestStreaming:
    @pytest.mark.parametrize("name,params,n_terms", [
        (GEN_DER, {"shifts": [-2, 0, 1]}, 14),
        (GLR3, {"s12": [0, 1], "s13": [], "s23": [-1]}, 6),
        (TRAPEZOID, {}, 6),
    ])
    def test_terms_match_series_table(self, name, params, n_terms):
        assert_terms_match_series_table(FAMILIES[name], params, n_terms)

    def test_series_handed_back(self):
        family = FAMILIES[TRAPEZOID]
        table = weight_series(enumerate_tiles(TRAPEZOID_SPEC), family.board, 9)
        short = run_job(TRAPEZOID, {}, 2, series_to=9)
        assert short.terms == [1, 6]  # swept on to n=9, terms stop at N
        assert list(short.series) == list(range(3, 10))
        assert all(short.series[n] == table.poly(n) for n in short.series)
        assert run_job(TRAPEZOID, {}, 4, series_to=2).series == {}
        rec = run_job(GEN_DER, {"shifts": [0]}, 5, series_to=3)
        assert list(rec.series) == [0, 1, 2, 3]
        assert "series" not in rec.to_json_dict()
        assert run_job(GEN_DER, {"shifts": [0]}, 5).series == {}

    def test_mismatch_raised_before_the_sweep_ends(self, monkeypatch):
        evaluated = []
        true_eval = seqmod.umbra.umbral_eval_2row

        def corrupted(p):
            evaluated.append(p)
            return true_eval(p) + 1

        monkeypatch.setattr(seqmod.umbra, "umbral_eval_2row", corrupted)
        with pytest.raises(OracleMismatchError) as exc:
            gen_der_seq({0, 1}, 200)
        assert len(evaluated) == 1
        assert "P_1 = " in exc.value.diagnostics

    def test_memory_stays_flat(self):
        # all P_n kept at once peaked at 22.7 MB; one at a time, 0.4 MB
        tracemalloc.start()
        try:
            gen_der_seq([0, 1], 400, oracle_depth=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_factorials_kept_once(self):
        # one factorial table per n held 0!..n! for every n: 176 MB
        tracemalloc.start()
        try:
            glr3_seq([], [], [], 1000, oracle_depth=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 1024 * 1024

    @pytest.mark.parametrize("shifts,ns", [
        ([0, 1], (100, 200, 300)),
        ([-2, 0, 1], (50, 150)),
    ])
    def test_deep_terms_vs_rook_polynomial(self, shifts, ns):
        # far past the brute-force cap: the banded rook DP is independent
        rec = gen_der_seq(shifts, max(ns), oracle_depth=0)
        for n in ns:
            assert rec.term(n) == count_generalized_perms_banded(shifts, n)
