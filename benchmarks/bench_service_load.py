"""Load-test the scheduling service through the in-process client.

Drives :func:`repro.service.create_app` with a representative request mix —
streamed single-job arrivals, live speed queries, periodic full-schedule
metrics, health probes — through :func:`repro.service.asgi.call`, which
hands each :class:`~repro.service.asgi.Request` straight to ``App.handle``
(no sockets and no HTTP parsing, so the numbers measure the service stack
itself: routing, pydantic validation, session locking, shadow advancement,
serialization).  perfbench's ``service-stream`` workload measures the same
stack behind a real ``repro serve`` socket.

The claims pinned here:

* ``service_p99_ms`` — 99th-percentile request latency over the mixed load.
  Gated one-sided by the bench's ``GATES``: the run fails if the tail
  exceeds the committed ceiling.
* ``service_p50_ms`` / ``requests_per_s`` — recorded alongside (host
  dependent, excluded from the baseline diff like every timing number).
* The request counts per endpoint class and the count of non-2xx responses
  are deterministic and land in the JSON artifact, so a silent change in the
  measured mix is caught by the baseline diff.  ``errors`` must be zero.

Sessions are rotated every ``JOBS_PER_SESSION`` arrivals so the metrics
endpoint (whose serialized body grows with the session's job count) measures
a bounded, representative session size instead of an ever-growing one.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import pytest

from conftest import emit, emit_json

pytest.importorskip("pydantic")

from repro.analysis import format_table  # noqa: E402
from repro.service import create_app  # noqa: E402
from repro.service.asgi import call  # noqa: E402

ALPHA = 3.0
#: Arrivals per session before rotating to a fresh one.
JOBS_PER_SESSION = 40
#: Measured mixed-load request count (warmup not recorded).
REQUESTS = 600
WARMUP = 60
#: Every Nth arrival also queries full metrics (the expensive endpoint).
METRICS_EVERY = 20
#: The mixed-load p99 tail stays under 25 ms (the measured baseline is well
#: under 2 ms).
GATES = {"service_p99_ms": {"max": 25.0}}


def _percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    idx = min(len(sorted_ms) - 1, max(0, round(q * (len(sorted_ms) - 1))))
    return sorted_ms[idx]


async def _drive(n_requests: int, *, record: bool) -> dict:
    """Run the mixed load; returns latencies (ms) per endpoint class."""
    app = create_app()
    await app.startup()
    latencies: dict[str, list[float]] = {
        "arrival": [], "speeds": [], "metrics": [], "health": []
    }
    errors = 0
    session_idx = 0
    session_id = ""
    jobs_in_session = JOBS_PER_SESSION  # force a session on the first loop
    release = 0.0

    async def timed(kind: str, method: str, path: str, **kw) -> None:
        nonlocal errors
        t0 = time.perf_counter()
        resp = await call(app, method, path, **kw)
        dt_ms = (time.perf_counter() - t0) * 1e3
        if record:
            latencies[kind].append(dt_ms)
        if resp.status_code >= 300:
            errors += 1

    i = 0
    job_id = 0
    while i < n_requests:
        if jobs_in_session >= JOBS_PER_SESSION:
            session_idx += 1
            session_id = f"load-{session_idx}"
            resp = await call(
                app, "POST", "/sessions",
                json_body={"session_id": session_id, "alpha": ALPHA, "algorithm": "NC"},
            )
            if resp.status_code >= 300:
                errors += 1
            jobs_in_session = 0
            release = 0.0
        job_id += 1
        release += 0.05
        await timed(
            "arrival", "POST", f"/sessions/{session_id}/jobs",
            json_body={"jobs": [{"id": job_id, "release": release, "volume": 1.0}]},
        )
        await timed("speeds", "GET", f"/sessions/{session_id}/speeds")
        jobs_in_session += 1
        i += 2
        if jobs_in_session % METRICS_EVERY == 0:
            await timed("metrics", "GET", f"/sessions/{session_id}/metrics")
            await timed("health", "GET", "/health")
            i += 2
    await app.shutdown()
    return {"latencies": latencies, "errors": errors}


def _measure() -> dict:
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(_drive(WARMUP, record=False))
        t0 = time.perf_counter()
        out = loop.run_until_complete(_drive(REQUESTS, record=True))
        wall = time.perf_counter() - t0
    finally:
        loop.close()

    latencies = out["latencies"]
    all_ms = sorted(ms for series in latencies.values() for ms in series)
    by_class = {}
    for kind, series in latencies.items():
        if not series:
            continue
        s = sorted(series)
        by_class[kind] = {
            "requests": len(s),
            "p50_ms": _percentile(s, 0.50),
            "p99_ms": _percentile(s, 0.99),
            "mean_ms": statistics.fmean(s),
        }
    return {
        "requests": len(all_ms),
        "errors": out["errors"],
        "wall_clock_s": wall,
        "requests_per_s": len(all_ms) / wall,
        "service_p50_ms": _percentile(all_ms, 0.50),
        "service_p99_ms": _percentile(all_ms, 0.99),
        "by_class": by_class,
        "jobs_per_session": JOBS_PER_SESSION,
        "metrics_every": METRICS_EVERY,
    }


def test_service_load(benchmark):
    result = benchmark.pedantic(_measure, rounds=1, iterations=1)

    rows = [
        [kind, c["requests"], f"{c['p50_ms']:.3f}", f"{c['p99_ms']:.3f}",
         f"{c['mean_ms']:.3f}"]
        for kind, c in sorted(result["by_class"].items())
    ]
    rows.append(
        ["ALL", result["requests"], f"{result['service_p50_ms']:.3f}",
         f"{result['service_p99_ms']:.3f}", "—"]
    )
    table = format_table(
        ["endpoint class", "requests", "p50 ms", "p99 ms", "mean ms"],
        rows,
        title=f"service load: {result['requests_per_s']:.0f} req/s over "
        f"{result['requests']} in-process requests ({result['errors']} errors)",
    )
    emit("service_load", table)
    emit_json("service_load", result, GATES)

    assert result["errors"] == 0
    assert result["requests"] >= REQUESTS
