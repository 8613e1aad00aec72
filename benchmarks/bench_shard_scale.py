"""E10 — sharded execution: pool scaling and the price of recovery.

Times the sharded parallel-machine path (:func:`repro.parallel.shard.run_sharded`)
over a machines x jobs grid, serial in-process shard computes versus the
supervised worker pool, and prices the pool's fault recovery (a SIGKILLed
worker mid-shard) against a clean pool run.

**What is being measured.** Shard *latency*, not CPU parallelism: every
shard carries a synthetic ``shard_hold`` duration (the same ``hold_s`` knob
the chaos campaign uses to make kills land mid-shard), modelling a shard
whose wall clock is dominated by waiting — remote inputs, I/O, a simulated
device.  Holds overlap across worker processes even on a single-core host
(this container has one CPU), so the benchmark isolates what the pool
itself contributes — dispatch, heartbeats, result transport, respawn — and
is reproducible on any machine.  The per-machine schedule derivation (real
CPU work) rides along in both variants and is bit-identity-checked.

Gated statistics (the bench's ``GATES``):

* ``shard_pool_speedup_largest`` — serial / pool wall clock at the largest
  grid point; the pool must beat serial shard-at-a-time execution.
* ``shard_recovery_overhead`` — killed-worker pool run / clean pool run at
  the largest grid point; recovering a lost shard (detect, respawn,
  re-dispatch, recompute) must stay under a 4x ceiling.

Both are wall-clock-derived, so like every gated key they are never diffed
against baselines — only the one-sided gates apply.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import PowerLaw
from repro.analysis import format_table
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel.shard import run_sharded
from repro.runtime.pool import PoolPolicy
from repro.workloads import random_instance

from conftest import emit, emit_json

ALPHA = 3.0
WORKERS = 2
#: synthetic per-shard latency; large against pool overhead (~tens of ms),
#: small enough to keep the whole bench under ~20 s.
SHARD_HOLD = 0.12
#: (machines, jobs, seed) grid; the last entry is the gated "largest" point.
GRID = ((2, 32, 501), (4, 64, 502))
#: At the largest grid point the supervised pool must beat shard-at-a-time
#: serial execution, and recovering a SIGKILLed worker may cost at most 4x
#: the clean pool run.
GATES = {
    "shard_pool_speedup_largest": {"min": 1.0},
    "shard_recovery_overhead": {"max": 4.0},
}
_TIMING_ROUNDS = 3

_POLICY = PoolPolicy(
    workers=WORKERS,
    heartbeat_interval=0.05,
    shard_timeout=30.0,
    poll_interval=0.01,
)


def _scaling_records():
    power = PowerLaw(ALPHA)
    records = []
    for machines, jobs, seed in GRID:
        inst = random_instance(jobs, seed=seed, volume="uniform")

        def serial():
            return run_sharded(
                inst, power, machines, force_serial=True, shard_hold=SHARD_HOLD
            )

        def pooled():
            return run_sharded(
                inst, power, machines, policy=_POLICY, shard_hold=SHARD_HOLD
            )

        serial_result = serial()  # warm caches before the timed rounds
        pooled_result = pooled()
        assert pooled_result.report == serial_result.report, (
            f"pool and serial shard reports diverged at m={machines} n={jobs}"
        )
        best = {"serial": float("inf"), "pool": float("inf")}
        ratios = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            variants = (("serial", serial), ("pool", pooled))
            for i in range(_TIMING_ROUNDS):
                round_times = {}
                # Alternate order so a systematic second-position effect
                # cannot bias the paired ratio.
                for name, fn in variants if i % 2 == 0 else variants[::-1]:
                    t0 = time.perf_counter()
                    fn()
                    dt = time.perf_counter() - t0
                    round_times[name] = dt
                    if dt < best[name]:
                        best[name] = dt
                ratios.append(round_times["serial"] / round_times["pool"])
        finally:
            if gc_was_enabled:
                gc.enable()
        records.append(
            {
                "machines": machines,
                "jobs": jobs,
                "seed": seed,
                "n_shards": len(pooled_result.shards),
                "wall_clock_s": dict(best),
                "shard_pool_speedup": statistics.median(ratios),
            }
        )
    return records


def _recovery_record():
    """Price one SIGKILLed worker against a clean pool run (largest grid
    point); both runs produce the same bit-identical report."""
    machines, jobs, seed = GRID[-1]
    power = PowerLaw(ALPHA)
    inst = random_instance(jobs, seed=seed, volume="uniform")

    def clean():
        return run_sharded(
            inst, power, machines, policy=_POLICY, shard_hold=SHARD_HOLD
        )

    def killed():
        context = SimulationContext(power, recorder=MemoryRecorder())
        plan = FaultPlan(
            seed=seed, faults=(FaultSpec(kind="worker_kill", after_calls=1),)
        )
        injector = FaultInjector(plan, context)
        result = run_sharded(
            inst,
            power,
            machines,
            policy=_POLICY,
            context=context,
            injector=injector,
            shard_hold=SHARD_HOLD,
        )
        assert injector.fired, "worker_kill fault did not fire"
        assert result.stats is not None and result.stats.redispatched >= 1
        return result

    clean_result = clean()  # warm + correctness check before timing
    killed_result = killed()
    assert killed_result.report == clean_result.report, (
        "recovered pool run diverged from the clean pool run"
    )
    best = {"clean": float("inf"), "killed": float("inf")}
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        variants = (("clean", clean), ("killed", killed))
        for i in range(_TIMING_ROUNDS):
            round_times = {}
            for name, fn in variants if i % 2 == 0 else variants[::-1]:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                round_times[name] = dt
                if dt < best[name]:
                    best[name] = dt
            ratios.append(round_times["killed"] / round_times["clean"])
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "machines": machines,
        "jobs": jobs,
        "seed": seed,
        "wall_clock_s": dict(best),
        "shard_recovery_overhead": statistics.median(ratios),
    }


def test_shard_scale(benchmark):
    def run_all():
        return _scaling_records(), _recovery_record()

    records, recovery = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [
            f"m={r['machines']} n={r['jobs']}",
            r["n_shards"],
            r["wall_clock_s"]["serial"],
            r["wall_clock_s"]["pool"],
            r["shard_pool_speedup"],
        ]
        for r in records
    ]
    rows.append(
        [
            f"m={recovery['machines']} n={recovery['jobs']} +kill",
            records[-1]["n_shards"],
            recovery["wall_clock_s"]["clean"],
            recovery["wall_clock_s"]["killed"],
            recovery["shard_recovery_overhead"],
        ]
    )
    table = format_table(
        ["case", "shards", "serial/clean [s]", "pool/killed [s]", "ratio"],
        rows,
        title=f"sharded execution, hold={SHARD_HOLD}s, {WORKERS} workers "
        f"(median of {_TIMING_ROUNDS} paired rounds; gates: pool speedup >= "
        f"{GATES['shard_pool_speedup_largest']['min']}, recovery <= "
        f"{GATES['shard_recovery_overhead']['max']}x)",
        floatfmt=".4f",
    )
    emit("shard_scale", table)
    emit_json(
        "shard_scale",
        {
            "alpha": ALPHA,
            "workers": WORKERS,
            "shard_hold_s": SHARD_HOLD,
            "grid": [dict(r) for r in records],
            "shard_pool_speedup_largest": records[-1]["shard_pool_speedup"],
            "recovery": recovery,
        },
        GATES,
    )
