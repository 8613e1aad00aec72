"""Worker process for the ``general-batch`` and ``trace-verify`` workloads.

Run by ``run.py`` from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/batch.py --workload general-batch --seed 1 \
        --seconds 20 --mode measure --work DIR

It prints one ``{"ready": ...}`` line once set-up (imports, the first
input, a small warm-up instance) is done, then, unless ``--mode setup``,
one ``{"result": ...}`` line.  ``--mode measure`` carries instances to a
checked result until ``--seconds`` have passed; ``--mode trace`` runs a
fixed set of instances at two sizes, each untraced and then under the
span shims, and reports spans per size.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

# Layers are called through their modules so that the span shims, which
# replace module attributes, see every call.
import repro.algorithms.clairvoyant as clairvoyant
import repro.algorithms.nc_general as nc_general
import repro.algorithms.nc_uniform as nc_uniform
import repro.analysis.trace_report as trace_report
import repro.core.metrics as core_metrics
import repro.core.tracing as tracing
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.core.shadow import SimulationContext

import common
import spans

#: Jobs per instance (the trace run also uses half this size).
SIZES = {"general-batch": 300, "trace-verify": 2000}
#: Instances per size in a traced run.
TRACE_INSTANCES = 2
#: Jobs in the warm-up instance that runs during set-up.
WARMUP_JOBS = 20
POWER = PowerLaw(common.ALPHA)


def instance_rows(workload: str, seed: int, index: int, n: int) -> list[tuple]:
    rng = random.Random(f"{seed}:{workload}:{n}:{index}")
    return common.job_rows(n, rng, uniform=workload == "trace-verify")


def general_batch(rows: list[tuple], work: Path) -> dict[str, int]:
    """C and NC-general on one instance, both scored; checks Theorem 1
    (C's energy equals its fractional flow) and that NC-general completes
    every job with exactly its volume (``evaluate`` validates this)."""
    inst = Instance(Job(*r) for r in rows)
    c = clairvoyant.simulate_clairvoyant(inst, POWER)
    g = nc_general.simulate_nc_general(inst, POWER)
    rep_c = core_metrics.evaluate(c.schedule, inst, POWER)
    rep_g = core_metrics.evaluate(g.schedule, inst, POWER)
    if not common.close(rep_c.energy, rep_c.fractional_flow):
        raise AssertionError(
            f"Theorem 1: energy {rep_c.energy!r} != fractional flow {rep_c.fractional_flow!r}"
        )
    done = rep_g.completion_times
    if len(done) != len(inst) or not all(
        job.release <= done[job.job_id] < float("inf") for job in inst
    ):
        raise AssertionError("NC-general left a job incomplete")
    counters = g.counters.as_dict() if g.counters is not None else {}
    return {
        "shadow.events": counters.get("events", 0),
        "shadow.queries": counters.get("queries", 0),
        "shadow.rollbacks": counters.get("rollbacks", 0),
        "engine.steps": g.engine_steps,
        "schedule.segments": len(c.schedule) + len(g.schedule),
    }


def trace_verify(rows: list[tuple], work: Path) -> dict[str, int]:
    """C then NC traced to a plain JSONL file, streamed back through
    ``iter_trace`` into ``build_report``; Lemma 3 and Lemma 4 must hold at
    the report's 1e-9 tolerance."""
    inst = Instance(Job(*r) for r in rows)
    path = work / "trace.jsonl"
    with tracing.JsonlRecorder(path) as rec:
        ctx = SimulationContext(POWER, recorder=rec)
        ctx.emit(
            "run_meta",
            0.0,
            "harness",
            alpha=common.ALPHA,
            instance=[list(r) for r in rows],
            algorithms=["C", "NC"],
        )
        clairvoyant.simulate_clairvoyant(inst, POWER, context=ctx)
        nc_uniform.simulate_nc_uniform(inst, POWER, context=ctx)
    paths = rec.paths
    n_bytes = sum(p.stat().st_size for p in paths)
    report = trace_report.build_report(tracing.iter_trace(paths))
    for p in paths:
        p.unlink()
    names = {c.name.split(":")[0] for c in report.checks if c.holds}
    if not report.ok or not {"Lemma 3", "Lemma 4"} <= names:
        raise AssertionError(
            f"trace verification failed: {[(c.name, c.holds) for c in report.checks]} "
            f"{report.order_violations[:3]}"
        )
    counters = ctx.counters.as_dict()
    return {
        "shadow.events": counters["events"],
        "shadow.queries": counters["queries"],
        "shadow.rollbacks": counters["rollbacks"],
        "schedule.segments": sum(c.by_kind.get("kernel_eval", 0) for c in report.components),
        "tracing.events": rec.count,
        "tracing.bytes": n_bytes,
        "verify.events": report.n_events,
    }


PIPELINES = {"general-batch": general_batch, "trace-verify": trace_verify}


def _add(total: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    pipeline = PIPELINES[workload]
    n = SIZES[workload]
    jobs = attempted = failed = 0
    errors: list[str] = []
    totals: dict[str, int] = {}
    first: dict[str, int] | None = None
    wall = cpu = 0.0
    #: per checked instance: (jobs per second, CPU ms per job), scaled to
    #: the nominal host speed
    scaled: list[tuple[float, float]] = []
    refs = [common.host_ref_s()]
    t_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_start < seconds:
        rows = instance_rows(workload, seed, attempted, n)
        attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            counts = pipeline(rows, work)
        except Exception as exc:  # noqa: BLE001 — a failed check is a counted failure
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}"[:300])
            counts = None
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        refs.append(common.host_ref_s())
        scale = common.host_scale(refs[-2], refs[-1])
        wall += dt
        cpu += dc
        if counts is None:
            continue
        scaled.append((len(rows) / (dt * scale), dc * scale * 1e3 / len(rows)))
        jobs += len(rows)
        _add(totals, counts)
        if first is None:
            first = counts
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "jobs": jobs,
        "instance_jobs": n,
        "wall_s": wall,
        "cpu_s": cpu,
        "scaled_per_instance": scaled,
        "host_ref_ms": [round(r * 1e3, 3) for r in refs],
        "peak_rss_mb": common.vm_hwm_mb(),
        "counts_first_instance": first or {},
        "counts_total": totals,
    }


def trace(workload: str, seed: int, work: Path) -> dict:
    """Each instance untraced, then again under the shims, alternating so
    that drift in the host's speed lands on both; spans and counts per size."""
    pipeline = PIPELINES[workload]
    n = SIZES[workload]
    sizes = (n // 2, n)
    attempted = failed = 0
    errors: list[str] = []
    out: dict = {"sizes": list(sizes), "untraced_wall_s": {}, "traced_wall_s": {},
                 "spans": {}, "counts": {}}
    for size in sizes:
        spans.reset()
        counts: dict[str, int] = {}
        walls = {False: 0.0, True: 0.0}
        for i in range(TRACE_INSTANCES):
            rows = instance_rows(workload, seed, i, size)
            for traced in (False, True):
                if traced:
                    spans.install()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    got = pipeline(rows, work)
                except Exception as exc:  # noqa: BLE001 — a failed check is a counted failure
                    failed += 1
                    errors.append(f"{type(exc).__name__}: {exc}"[:300])
                    got = {}
                walls[traced] += time.perf_counter() - t0
                spans.uninstall()
                if traced:
                    _add(counts, got)
        out["untraced_wall_s"][str(size)] = walls[False]
        out["traced_wall_s"][str(size)] = walls[True]
        out["spans"][str(size)] = spans.snapshot()
        out["counts"][str(size)] = counts
    out.update(attempted=attempted, failed=failed, errors=errors[:5])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PIPELINES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    # Set-up: the first input and a warm-up through the whole pipeline, so
    # lazy initialization is paid here and not inside the measurement.
    instance_rows(args.workload, args.seed, 0, SIZES[args.workload])
    warm = instance_rows(args.workload, args.seed, -1, WARMUP_JOBS)
    PIPELINES[args.workload](warm, args.work)
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return
    if args.mode == "measure":
        result = measure(args.workload, args.seed, args.seconds, args.work)
    else:
        result = trace(args.workload, args.seed, args.work)
    print(json.dumps({"result": result}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
