"""E9 — supervisor overhead: the no-fault supervised run priced and gated.

Runs NC-uniform two ways on identical instances — the plain simulator plus
its :func:`evaluate` call (the work a supervised run must do anyway) and a
:class:`~repro.runtime.supervisor.Supervisor` run with an **empty fault
plan** — interleaved round by round with GC paused.  The gated statistic is
the **median of the per-round ratios**: each round times the two variants
back to back, so slow-machine drift (CPU frequency, container neighbours)
hits both sides of a ratio and cancels, where a ratio of per-variant bests
would not.

Acceptance: the supervised run stays within 5% of the unsupervised
baseline.  The differential contract already makes the two *bit-identical*
in outputs (``tests/test_supervisor.py``); this benchmark holds the price of
that contract — one checkpoint, ``None`` hook reads, and read-only guards —
to near zero.  The ceiling is the bench's ``GATES``, checked when the
artifact is written and again by ``scripts/check_bench_regression.py`` in CI.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import PowerLaw
from repro.algorithms import simulate_nc_uniform
from repro.analysis import format_table
from repro.core.metrics import evaluate
from repro.runtime.supervisor import Supervisor
from repro.workloads import random_instance

from conftest import emit, emit_json

ALPHA = 3.0
CASES = ((1000, 401), (2000, 402))
#: Supervised / unsupervised wall clock: above 5% the supervisor is doing
#: work on the hot path.
GATES = {"supervised_overhead": {"max": 1.05}}
_TIMING_ROUNDS = 31


def _time_variants():
    power = PowerLaw(ALPHA)
    records = []
    for n, seed in CASES:
        inst = random_instance(n, seed=seed, volume="uniform")

        def baseline():
            run = simulate_nc_uniform(inst, power)
            evaluate(run.schedule, inst, power, validate=True)

        def supervised():
            Supervisor(power).run("NC", inst)

        best = {"baseline": float("inf"), "supervised": float("inf")}
        ratios = []
        baseline()  # warm caches before the timed rounds
        supervised()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            variants = (("baseline", baseline), ("supervised", supervised))
            for i in range(_TIMING_ROUNDS):
                round_times = {}
                # Alternate which variant runs first so a systematic
                # second-position effect (cache warmth, allocator state)
                # cannot bias the paired ratio.
                for name, fn in variants if i % 2 == 0 else variants[::-1]:
                    t0 = time.perf_counter()
                    fn()
                    dt = time.perf_counter() - t0
                    round_times[name] = dt
                    if dt < best[name]:
                        best[name] = dt
                ratios.append(round_times["supervised"] / round_times["baseline"])
        finally:
            if gc_was_enabled:
                gc.enable()
        records.append(
            {
                "jobs": n,
                "seed": seed,
                "wall_clock_s": dict(best),
                "supervised_overhead": statistics.median(ratios),
            }
        )
    return records


def test_supervisor_overhead(benchmark):
    records = benchmark.pedantic(_time_variants, rounds=1, iterations=1)
    rows = [
        [
            f"n={r['jobs']} seed={r['seed']}",
            r["wall_clock_s"]["baseline"],
            r["wall_clock_s"]["supervised"],
            r["supervised_overhead"],
        ]
        for r in records
    ]
    table = format_table(
        ["case", "unsupervised [s]", "supervised [s]", "ratio"],
        rows,
        title=f"supervisor overhead on NC (median ratio over {_TIMING_ROUNDS} "
        f"paired rounds, gate: ratio <= {GATES['supervised_overhead']['max']})",
        floatfmt=".4f",
    )
    emit("supervisor_overhead", table)
    emit_json("supervisor_overhead", {"alpha": ALPHA, "cases": records}, GATES)
