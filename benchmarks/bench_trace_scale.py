"""Bounded-memory verification of million-event traces (ISSUE 8 acceptance).

Synthesizes a trace of >= 10^6 events as a *generator* — one traced (C, NC)
pair repeated as supervisor attempts separated by ``retry`` boundaries, so
the one-pass replayer keeps only the final attempt live — and drives
:func:`repro.analysis.trace_report.build_report` over it while tracemalloc
watches the Python heap.  The claims pinned here:

* ``trace_peak_mb`` — peak heap while verifying the 10^6-event stream
  (and the 10^4-event one).  Gated one-sided by the bench's ``GATES``:
  streaming verification must fit in a fixed ceiling no matter how long
  the trace is.
* ``trace_peak_ratio`` — peak at 10^6 events over peak at 10^4 events.
  Gated one-sided too: the aggregator's memory is a function of the *job
  count*, not the event count (100x more events, ~1x the memory).
* ``in_memory_peak_mb`` — the list-materializing oracle
  (``build_report_in_memory`` in ``tests/trace_oracle.py``) on a
  materialized 10^5-event list, for scale: the list path's peak grows
  linearly with the trace and already dwarfs the streaming ceiling at a
  tenth of the gated length.
* ``replay_steps_per_segment`` — one 2000-job (C, NC) trace's kernel
  segments fed to ``IncrementalScheduleReplayer``: its ``integral_steps``
  per segment is the mean number of live jobs, flat in the trace length
  because jobs join the replay at release.  Gated one-sided; the count is
  deterministic, so host speed cannot flake it.  Admitting every job up
  front read ~n/2 (about 1000 here).
* Event counts and the replayed invariant verdicts are deterministic and
  land in the JSON artifact, so a silent change in what the synthesized
  trace contains is caught by the baseline diff.

``ru_maxrss`` is recorded informationally (whole-process high-water mark;
it never shrinks, so only the first measurement in the process is sharp).
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from typing import Iterator

from repro.analysis import format_table
from repro.analysis.streaming import IncrementalScheduleReplayer
from repro.analysis.trace_report import build_report, trace_lemma_pair
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder, TraceEvent
from repro.workloads import random_instance

from conftest import emit, emit_json
from trace_oracle import build_report_in_memory

ALPHA = 3.0
SEED = 808
JOBS = 8
#: Jobs in the trace whose replay work is counted.
REPLAY_JOBS = 2000
#: The ISSUE's acceptance point and the small reference point.
TARGET_LARGE = 1_000_000
TARGET_SMALL = 10_000
TARGET_IN_MEMORY = 100_000
#: Streaming verification must fit a fixed heap ceiling, and its peak may
#: drift at most 2x across the 100x event-count spread: the aggregators are
#: event-count independent.  The replay must cost O(live jobs) per segment,
#: not O(jobs): a per-job scan of every segment would read ~1000 here.
GATES = {
    "trace_peak_mb": {"max": 8.0},
    "trace_peak_ratio": {"max": 2.0},
    "replay_steps_per_segment": {"max": 4.0},
}


def _base_attempt(jobs: int = JOBS) -> tuple[TraceEvent, list[TraceEvent]]:
    """One traced (C, NC) pair: ``(run_meta header, body events)``."""
    inst = random_instance(jobs, seed=SEED, volume="exponential", density="unit")
    power = PowerLaw(ALPHA)
    rec = MemoryRecorder()
    trace_lemma_pair(inst, power, SimulationContext(power, recorder=rec), "harness")
    events = list(rec)
    return events[0], events[1:]


def _retry(component: str) -> TraceEvent:
    return TraceEvent(
        kind="retry", sim_time=0.0, wall_time=0.0, component=component,
        payload={"reason": "bench_trace_scale"},
    )


def synthesize(target: int) -> tuple[Iterator[TraceEvent], int]:
    """A generator of >= ``target`` events and its exact length.

    The header is emitted once; the pair body repeats as attempts separated
    by ``retry`` events on C and NC, exactly the shape a supervised run
    leaves behind.  Nothing is materialized — each attempt re-yields the
    same ~200 base events, so the *source* is O(1) memory too and any peak
    observed belongs to the verifier.
    """
    header, body = _base_attempt()
    per_attempt = len(body) + 2  # + the two retry events
    attempts = max(1, -(-(target + 1) // per_attempt))
    total = 1 + attempts * len(body) + (attempts - 1) * 2
    assert total >= target

    def gen() -> Iterator[TraceEvent]:
        yield header
        for k in range(attempts):
            if k:
                yield _retry("C")
                yield _retry("NC")
            yield from body

    return gen(), total


def _streaming_peak(target: int) -> dict:
    events, total = synthesize(target)
    tracemalloc.start()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    report = build_report(events)
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.n_events == total
    assert report.ok, [c for c in report.checks if not c.holds]
    return {
        "events": total,
        "trace_peak_mb": peak / 2**20,
        "wall_clock_s": wall,
        "events_per_s": total / wall,
        "n_checks": len(report.checks),
        "checks_hold": all(c.holds for c in report.checks),
    }


def _in_memory_peak(target: int) -> dict:
    events, total = synthesize(target)
    tracemalloc.start()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    report = build_report_in_memory(events)
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert report.n_events == total
    return {
        "events": total,
        "in_memory_peak_mb": peak / 2**20,
        "wall_clock_s": wall,
        "checks_hold": all(c.holds for c in report.checks),
    }


def _replay_steps() -> dict:
    header, body = _base_attempt(REPLAY_JOBS)
    inst = Instance(Job(*row) for row in header.payload["instance"])
    steps = segments = 0
    for component in ("C", "NC"):
        replayer = IncrementalScheduleReplayer(component, inst, PowerLaw(ALPHA))
        for e in body:
            if e.kind == "kernel_eval" and e.component == component:
                replayer.feed(e.payload)
                segments += 1
        replayer.finalize_replay()
        replayer.finalize_eval()
        steps += replayer.integral_steps
    return {
        "jobs": REPLAY_JOBS,
        "segments": segments,
        "integral_steps": steps,
        "replay_steps_per_segment": steps / segments,
    }


def _measure() -> dict:
    small = _streaming_peak(TARGET_SMALL)
    large = _streaming_peak(TARGET_LARGE)
    in_mem = _in_memory_peak(TARGET_IN_MEMORY)
    return {
        "streaming_small": small,
        "streaming_large": large,
        "in_memory": in_mem,
        "replay": _replay_steps(),
        "trace_peak_ratio": large["trace_peak_mb"] / small["trace_peak_mb"],
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def test_trace_scale(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)
    small, large, in_mem = (
        result["streaming_small"], result["streaming_large"], result["in_memory"]
    )

    table = format_table(
        ["path", "events", "peak MB", "wall s", "events/s"],
        [
            ["streaming", small["events"], f"{small['trace_peak_mb']:.2f}",
             f"{small['wall_clock_s']:.2f}", f"{small['events_per_s']:.0f}"],
            ["streaming", large["events"], f"{large['trace_peak_mb']:.2f}",
             f"{large['wall_clock_s']:.2f}", f"{large['events_per_s']:.0f}"],
            ["in-memory", in_mem["events"], f"{in_mem['in_memory_peak_mb']:.2f}",
             f"{in_mem['wall_clock_s']:.2f}", "—"],
        ],
        title=f"trace verification peak heap (ratio 1e6/1e4 = "
        f"{result['trace_peak_ratio']:.2f}, ru_maxrss "
        f"{result['ru_maxrss_mb']:.0f} MB)",
    )
    replay = result["replay"]
    emit(
        "trace_scale",
        f"{table}\nreplay of a {replay['jobs']}-job trace: {replay['segments']} segments, "
        f"{replay['integral_steps']} integral steps "
        f"({replay['replay_steps_per_segment']:.2f} per segment)",
    )
    emit_json("trace_scale", result, GATES)

    assert large["events"] >= 1_000_000
    assert large["checks_hold"] and small["checks_hold"]
    # And the twin really does pay linearly: at a tenth of the length it
    # already uses far more heap than the streaming ceiling.
    assert in_mem["in_memory_peak_mb"] > 4 * large["trace_peak_mb"]
