"""Journaling overhead and crash-recovery speed of the durable service.

Two claims, both gated by the bench's ``GATES``:

* ``journal_overhead`` — the p99 request latency of a journaled service
  divided by an unjournaled twin's, over the same paired mixed load
  (arrival submits, speed queries, periodic full metrics — the
  ``bench_service_load`` mix; interleaved A/B so host noise hits both
  arms).  The write-ahead journal flushes one canonical-JSON + SHA-256
  line per batch *before* the ack; the gate keeps that durability tax
  under 10% at the service's tail.  Submit-only percentiles are recorded
  alongside as diagnostics — at tens of microseconds per bare submit, the
  mandatory pre-ack flush is a visible fraction there by construction,
  which is why the gate reads the user-visible mixed tail.
* ``restore_100_sessions_ms`` — wall-clock for
  :meth:`~repro.service.sessions.SessionManager.restore` to rebuild 100
  journaled sessions (deterministic replay through the normal submit
  drive, re-journaling as it goes).  Gated one-sided: recovery is part of
  the availability budget, so a restart must not silently become minutes.

Latency percentiles are host-dependent and excluded from the baseline
diff like every timing number; the *ratio* and the deterministic counts
are the stable signals.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from conftest import emit, emit_json

pytest.importorskip("pydantic")

from repro.analysis import format_table  # noqa: E402
from repro.core.job import Job  # noqa: E402
from repro.service.app import create_app  # noqa: E402
from repro.service.asgi import call  # noqa: E402
from repro.service.models import SessionCreateRequest  # noqa: E402
from repro.service.sessions import SessionManager  # noqa: E402

ALPHA = 3.0
#: Arrival submits measured per arm (plain vs journaled), after warmup.
SUBMITS = 400
WARMUP = 40
#: Arrivals per session before rotating to a fresh one.
JOBS_PER_SESSION = 40
#: Sessions rebuilt by the restore timing, each with this many batches.
RESTORE_SESSIONS = 100
RESTORE_BATCHES = 5


def _percentile(sorted_ms: list[float], q: float) -> float:
    idx = min(len(sorted_ms) - 1, max(0, round(q * (len(sorted_ms) - 1))))
    return sorted_ms[idx]


#: Every Nth arrival also queries full metrics (the expensive endpoint).
METRICS_EVERY = 20
#: Write-ahead durability may cost at most 10% at the mixed-load p99, and a
#: cold restore of 100 journaled sessions stays under 5 s: recovery time is
#: part of the availability budget.
GATES = {
    "journal_overhead": {"max": 1.10},
    "restore_100_sessions_ms": {"max": 5000.0},
}


async def _drive_pair(tmp_path) -> dict:
    """One interleaved A/B run of the mixed load: every iteration drives the
    same requests through a plain app and a journaled app back-to-back, so
    drift in the host's background load lands on both arms equally."""
    apps = {
        "plain": create_app(SessionManager()),
        "journal": create_app(SessionManager(journal_dir=tmp_path / "journals")),
    }
    for app in apps.values():
        await app.startup()
    mixed: dict[str, list[float]] = {"plain": [], "journal": []}
    submits: dict[str, list[float]] = {"plain": [], "journal": []}
    errors = 0
    session_idx = 0
    jobs_in_session = JOBS_PER_SESSION
    release = 0.0
    job_id = 0

    async def timed(arm: str, method: str, path: str, *, record, is_submit=False, **kw):
        nonlocal errors
        t0 = time.perf_counter()
        resp = await call(apps[arm], method, path, **kw)
        dt_ms = (time.perf_counter() - t0) * 1e3
        if resp.status_code >= 300:
            errors += 1
        if record:
            mixed[arm].append(dt_ms)
            if is_submit:
                submits[arm].append(dt_ms)

    for i in range(WARMUP + SUBMITS):
        record = i >= WARMUP
        if jobs_in_session >= JOBS_PER_SESSION:
            session_idx += 1
            for arm, app in apps.items():
                resp = await call(
                    app, "POST", "/sessions",
                    json_body={
                        "session_id": f"bench-{session_idx}",
                        "alpha": ALPHA,
                        "algorithm": "NC",
                    },
                )
                if resp.status_code >= 300:
                    errors += 1
            jobs_in_session = 0
            release = 0.0
        job_id += 1
        release += 0.05
        body = {"jobs": [{"id": job_id, "release": release, "volume": 1.0}]}
        sid = f"bench-{session_idx}"
        for arm in apps:
            await timed(
                arm, "POST", f"/sessions/{sid}/jobs",
                record=record, is_submit=True, json_body=body,
            )
        for arm in apps:
            await timed(arm, "GET", f"/sessions/{sid}/speeds", record=record)
        jobs_in_session += 1
        if jobs_in_session % METRICS_EVERY == 0:
            for arm in apps:
                await timed(arm, "GET", f"/sessions/{sid}/metrics", record=record)
    for app in apps.values():
        await app.shutdown()
    return {"mixed": mixed, "submits": submits, "errors": errors}


async def _restore_timing(tmp_path) -> dict:
    """Journal RESTORE_SESSIONS sessions, then time a cold restore."""
    jdir = tmp_path / "restore-journals"
    manager = SessionManager(journal_dir=jdir)
    for i in range(RESTORE_SESSIONS):
        session = await manager.create_session(
            SessionCreateRequest(session_id=f"r{i:03d}", alpha=ALPHA)
        )
        for b in range(RESTORE_BATCHES):
            await session.submit(
                [Job(2 * b, float(b), 1.0, 1.0), Job(2 * b + 1, float(b), 2.0, 1.0)]
            )
    await manager.shutdown()

    fresh = SessionManager(journal_dir=jdir)
    t0 = time.perf_counter()
    report = await fresh.restore()
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    await fresh.shutdown()
    return {
        "restored": len(report.restored),
        "skipped": len(report.skipped),
        "restore_ms": elapsed_ms,
    }


def _measure(tmp_path) -> dict:
    loop = asyncio.new_event_loop()
    try:
        pair = loop.run_until_complete(_drive_pair(tmp_path))
        restore = loop.run_until_complete(_restore_timing(tmp_path))
    finally:
        loop.close()
    plain = sorted(pair["mixed"]["plain"])
    journal = sorted(pair["mixed"]["journal"])
    sub_plain = sorted(pair["submits"]["plain"])
    sub_journal = sorted(pair["submits"]["journal"])
    p99_plain = _percentile(plain, 0.99)
    p99_journal = _percentile(journal, 0.99)
    return {
        "requests_per_arm": len(plain),
        "submits_per_arm": len(sub_plain),
        "errors": pair["errors"],
        "p50_plain_ms": _percentile(plain, 0.50),
        "p50_journal_ms": _percentile(journal, 0.50),
        "p99_plain_ms": p99_plain,
        "p99_journal_ms": p99_journal,
        "journal_overhead": p99_journal / p99_plain,
        "submit_p99_plain_ms": _percentile(sub_plain, 0.99),
        "submit_p99_journal_ms": _percentile(sub_journal, 0.99),
        "restore_sessions": restore["restored"],
        "restore_skipped": restore["skipped"],
        "restore_100_sessions_ms": restore["restore_ms"],
        "restore_per_session_ms": restore["restore_ms"] / max(1, restore["restored"]),
    }


def test_service_recovery(benchmark, tmp_path):
    result = benchmark.pedantic(_measure, args=(tmp_path,), rounds=1, iterations=1)

    rows = [
        ["p50 mixed ms", f"{result['p50_plain_ms']:.3f}", f"{result['p50_journal_ms']:.3f}"],
        ["p99 mixed ms", f"{result['p99_plain_ms']:.3f}", f"{result['p99_journal_ms']:.3f}"],
        [
            "p99 submit ms",
            f"{result['submit_p99_plain_ms']:.3f}",
            f"{result['submit_p99_journal_ms']:.3f}",
        ],
        ["p99 overhead", "1.000", f"{result['journal_overhead']:.3f}"],
        ["restore (100 sessions)", "—", f"{result['restore_100_sessions_ms']:.1f} ms"],
    ]
    table = format_table(
        ["metric", "plain", "journaled"],
        rows,
        title=f"journaling overhead over {result['requests_per_arm']} paired "
        f"mixed requests ({result['errors']} errors)",
    )
    emit("service_recovery", table)
    emit_json("service_recovery", result, GATES)

    assert result["errors"] == 0
    assert result["restore_sessions"] == RESTORE_SESSIONS
    assert result["restore_skipped"] == 0
