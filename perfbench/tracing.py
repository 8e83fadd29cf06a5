"""Per-layer spans for one `latinrect` command, run in-process.

    python3 perfbench/tracing.py <latinrect arguments>

behaves like `latinrect <arguments>` (same stdout, stderr and exit
code) and, after the command ends, writes one stderr line
`TRACE_MARK <json>` with each layer's self time and work counters.
Spans come from wrapping the layer functions from outside: where a
module imported a function by name, that module's attribute is
wrapped too.  No program source is edited.

A layer's self time is the time inside its spans minus the time
inside spans of other layers nested in them, so the self times of all
layers plus the untraced remainder add up to the command's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

TRACE_MARK = "@@latinrect-trace"

#: work counters that must repeat exactly between two traced runs
WORK_COUNTERS = (
    "dp.columns", "dp.profiles_max", "dp.live_peak", "dp.mono_steps",
    "dp.tables", "dp.unpack_monomials", "dp.kernel_states",
    "poly.bareiss_calls", "oracle.calls", "oracle.max_n",
    "umbra.monomials", "tiles.count", "cli.render_bytes",
)
#: counters that are peaks, not totals, when jobs are combined
PEAK_COUNTERS = ("dp.profiles_max", "dp.live_peak", "oracle.max_n")

#: span name -> per-layer self-time metric
TIME_METRICS = {
    "tiles": "tiles.s",
    "dp.sweep": "dp.sweep_s",
    "dp.table": "dp.table_s",
    "dp.unpack": "dp.unpack_s",
    "dp.kernel": "dp.kernel_s",
    "poly": "poly.bareiss_s",
    "umbra": "umbra.s",
    "oracle": "oracle.s",
    "sequences": "sequences.self_s",
    "cli.render": "cli.render_s",
    "oeis": "oeis.s",
}


class Tracer:
    """Span stack plus counters for one process."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.depth: Counter[str] = Counter()
        self._stack: list[list] = []  # [span name, time of nested spans]

    def wrap(self, span: str, fn, after=None):
        """fn inside a span; after(result, args, kwargs) updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            self._stack.append(frame)
            self.depth[span] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.depth[span] -= 1
                self._stack.pop()
                self.self_s[span] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def report(self) -> dict[str, float]:
        out: dict[str, float] = {m: self.self_s[s] for s, m in TIME_METRICS.items()}
        out.update({c: self.counts[c] for c in WORK_COUNTERS})
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported latinrect modules."""
    from latinrect import cli, dp, oeis, oracle, poly, sequences, tiles, umbra

    def patch(span, owners, name, after=None):
        wrapped = tracer.wrap(span, getattr(owners[0], name), after)
        for owner in owners:
            if hasattr(owner, name):
                setattr(owner, name, wrapped)

    def tiles_done(result, args, kwargs):
        tracer.counts["tiles.count"] += len(result)

    patch("tiles", (tiles, sequences, dp, cli), "enumerate_tiles", tiles_done)

    sweep = dp._Sweep
    column_table = sweep.column_table

    def advance_done(result, args, kwargs):
        self, dist, blocked = args
        tracer.counts["dp.columns"] += 1
        tracer.peak("dp.profiles_max", len(result))
        tracer.peak("dp.live_peak", sum(len(p) for p in result.values()))
        # every table is cached by now, so these calls do no new work
        tracer.counts["dp.mono_steps"] += sum(
            len(poly_) * len(column_table(self, mask, blocked))
            for mask, poly_ in dist.items()
        )

    sweep.advance = tracer.wrap("dp.sweep", sweep.advance, advance_done)

    table_span = tracer.wrap("dp.table", column_table)

    def traced_column_table(self, mask0, blocked):
        if tracer.depth["dp.kernel"]:
            tracer.counts["dp.kernel_states"] += 1
        if (mask0, blocked) in self._tables:
            return column_table(self, mask0, blocked)
        tracer.counts["dp.tables"] += 1
        return table_span(self, mask0, blocked)

    sweep.column_table = traced_column_table

    def unpack_done(result, args, kwargs):
        tracer.counts["dp.unpack_monomials"] += len(args[1])

    sweep.unpack = tracer.wrap("dp.unpack", sweep.unpack, unpack_done)
    patch("dp.kernel", (dp, cli), "kernel2")

    def bareiss_done(result, args, kwargs):
        tracer.counts["poly.bareiss_calls"] += 1

    patch("poly", (poly,), "bareiss_determinant", bareiss_done)
    patch("poly", (poly, dp), "solve_linear_system")

    def umbra_done(result, args, kwargs):
        tracer.counts["umbra.monomials"] += len(args[0])

    for name in ("umbral_eval_2row", "umbral_eval_3row", "umbral_eval_trapezoid"):
        patch("umbra", (umbra,), name, umbra_done)

    for name, fn in inspect.getmembers(oracle, inspect.isfunction):
        if name.startswith("count_"):
            patch("oracle", (oracle,), name, _oracle_counter(tracer, fn))

    patch("sequences", (sequences, cli), "run_job")

    def render_done(result, args, kwargs):
        tracer.counts["cli.render_bytes"] += len(result.encode())

    patch("cli.render", (cli,), "_render", render_done)
    patch("cli.render", (cli,), "_emit")
    patch("oeis", (oeis, cli), "oeis_check")


def _oracle_counter(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def done(result, args, kwargs):
        if tracer.depth["oracle"]:
            return  # nested inside another oracle call
        tracer.counts["oracle.calls"] += 1
        n = signature.bind(*args, **kwargs).arguments.get("n")
        if isinstance(n, int):
            tracer.peak("oracle.max_n", n)

    return done


def main(argv: list[str]) -> int:
    from latinrect import cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    try:
        cli.main(args=argv, prog_name="latinrect")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = {"main_s": main_s, "layers": tracer.report()}
    print(TRACE_MARK, json.dumps(record), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
