"""E8 — tracing overhead: the zero-overhead-when-off contract, measured.

Runs the general-density workload (the hottest path in the repo: NC-general's
per-engine-step speculative shadow queries) three ways on identical
instances — the untraced default context, an explicit ``NullRecorder``
context, and a ``MemoryRecorder`` context — interleaved round by round with
GC paused, best-of-N per variant.

Acceptance: the ``NullRecorder`` run stays within 3% of the untraced
baseline.  Both paths execute literally the same guarded code (the recorder
is hoisted to ``None`` once per loop), so a failure here means the guard
regressed — an unguarded ``emit`` crept into a hot loop, or
``NullRecorder.enabled`` stopped being False.  The ``MemoryRecorder`` column
is informational: it prices what tracing *on* costs.
"""

from __future__ import annotations

import gc
import time

from repro import PowerLaw
from repro.algorithms import simulate_nc_general
from repro.analysis import format_table
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder, NullRecorder
from repro.workloads import random_instance

from conftest import emit, emit_json

ALPHA = 3.0
CASES = ((40, 301),)
#: NullRecorder / untraced wall clock: above 3% an unguarded emit is in a
#: hot loop.
GATES = {"null_overhead": {"max": 1.03}}
_TIMING_ROUNDS = 7


def _contexts() -> dict[str, object]:
    power = PowerLaw(ALPHA)
    return {
        "untraced": lambda: None,
        "null_recorder": lambda: SimulationContext(power, recorder=NullRecorder()),
        "memory_recorder": lambda: SimulationContext(power, recorder=MemoryRecorder()),
    }


def _time_variants():
    power = PowerLaw(ALPHA)
    records = []
    for n, seed in CASES:
        inst = random_instance(n, seed=seed, volume="uniform", density="loguniform")
        best: dict[str, float] = {}
        events: dict[str, int] = {}
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_TIMING_ROUNDS):
                for name, make in _contexts().items():
                    context = make()
                    t0 = time.perf_counter()
                    simulate_nc_general(inst, power, max_step=2e-2, context=context)
                    dt = time.perf_counter() - t0
                    if name not in best or dt < best[name]:
                        best[name] = dt
                    if context is not None and context.recorder.enabled:
                        events[name] = len(context.recorder.events)
        finally:
            if gc_was_enabled:
                gc.enable()
        records.append(
            {
                "jobs": n,
                "seed": seed,
                "wall_clock_s": best,
                "null_overhead": best["null_recorder"] / best["untraced"],
                "memory_overhead": best["memory_recorder"] / best["untraced"],
                "memory_events": events.get("memory_recorder", 0),
            }
        )
    return records


def test_tracing_overhead(benchmark):
    records = benchmark.pedantic(_time_variants, rounds=1, iterations=1)
    rows = [
        [
            f"n={r['jobs']} seed={r['seed']}",
            r["wall_clock_s"]["untraced"],
            r["wall_clock_s"]["null_recorder"],
            r["null_overhead"],
            r["wall_clock_s"]["memory_recorder"],
            r["memory_overhead"],
            r["memory_events"],
        ]
        for r in records
    ]
    table = format_table(
        [
            "case",
            "untraced [s]",
            "NullRecorder [s]",
            "ratio",
            "MemoryRecorder [s]",
            "ratio",
            "events",
        ],
        rows,
        title=f"tracing overhead on NC-general (best of {_TIMING_ROUNDS}, "
        f"gate: NullRecorder ratio <= {GATES['null_overhead']['max']})",
        floatfmt=".3f",
    )
    emit("tracing_overhead", table)
    emit_json("tracing_overhead", {"alpha": ALPHA, "cases": records}, GATES)

    for r in records:
        # Tracing on must actually record the hot path.
        assert r["memory_events"] > 0
