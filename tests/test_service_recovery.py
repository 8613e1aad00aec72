"""Durability and self-healing tests of the service layer.

The load-bearing claims:

* **Journal integrity**: every journal line is canonical JSON + SHA-256;
  a torn final line (a write that was never acked) is dropped silently,
  while interior corruption, checksum mismatches, and sequence gaps raise
  :class:`~repro.service.journal.JournalCorruption` — a damaged journal is
  quarantined, never silently restored wrong.
* **Bit-identical recovery** (the ISSUE's acceptance test): a server killed
  mid-workload and restarted serves speeds/schedule/metrics/verified-report
  bodies **byte-identical** to a twin that never died — the non-clairvoyant
  model makes the arrival log a complete reconstruction recipe.
* **Bounded store**: TTL/LRU eviction answers 410 (distinct from 404), with
  tombstones that survive restarts; the admission limit answers 503; pruned
  campaigns answer 410 carrying their final status.
* **Traffic policy**: per-client session creation is token-bucketed (429 +
  Retry-After) and every request is bounded by a deadline (504, handler
  cancelled cleanly).
* **No partial state**: a submit racing a close loses cleanly (409, nothing
  journaled or committed); a torn journal write aborts the submit before
  anything mutates; SIGTERM drains and flushes so suspended sessions
  restore on the next start.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
import urllib.request

import pytest

pytest.importorskip("pydantic")

from repro.core.job import Job
from repro.faults.injector import FaultInjector
from repro.faults.plan import SERVICE_KINDS, FaultPlan, FaultSpec, generate_plan
from repro.core.power import PowerLaw
from repro.core.shadow import SimulationContext
from repro.runtime.chaos import (
    _free_port,
    _http,
    _spawn_server,
    _stop_server,
    ServiceScenario,
    iter_campaign_runs,
    run_campaign,
)
from repro.service import TestClient, create_app, serve
from repro.service.journal import (
    JournalCorruption,
    JournalWriteAborted,
    SessionJournal,
    corrupt_line,
    discover_journals,
    encode_record,
    journal_path,
    read_journal,
)
from repro import io
from repro.core.metrics import evaluate
from repro.service.models import ReportModel, ScheduleModel, SessionCreateRequest
from repro.service.sessions import (
    RateLimited,
    RestoreReport,
    SessionClosed,
    SessionGone,
    SessionManager,
    StoreFull,
    TokenBucket,
    simulate_session_algorithm,
)
from repro.workloads import random_instance

ALPHA = 3.0


def _job_dicts(inst):
    return [
        {"id": j.job_id, "release": j.release, "volume": j.volume, "density": j.density}
        for j in sorted(inst, key=lambda j: (j.release, j.job_id))
    ]


def _batches(inst, size=2):
    jobs = _job_dicts(inst)
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _feed(client, sid, batches):
    for chunk in batches:
        resp = client.post(f"/sessions/{sid}/jobs", json_body={"jobs": chunk})
        assert resp.status_code == 202, resp.json()


def _fingerprint(client, sid):
    out = {}
    for path in ("/speeds", "/schedule", "/metrics", "/report"):
        resp = client.get(f"/sessions/{sid}{path}")
        out[path] = (resp.status_code, resp.body)
    return out


def _run(coro):
    return asyncio.new_event_loop().run_until_complete(coro)


# -- journal format -----------------------------------------------------------


def test_journal_roundtrip(tmp_path):
    path = journal_path(tmp_path, "s")
    journal = SessionJournal(path)
    journal.append({"record": "session_create", "session": "s", "request": {"alpha": 3.0}})
    journal.append({"record": "arrival_batch", "session": "s", "jobs": [[0, 0.0, 1.0, 1.0]]})
    journal.append({"record": "session_close", "session": "s"})
    journal.close()
    records = read_journal(path)
    assert [r["record"] for r in records] == [
        "session_create", "arrival_batch", "session_close",
    ]
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert records[1]["jobs"] == [[0, 0.0, 1.0, 1.0]]


def test_journal_rejects_unknown_record_kind(tmp_path):
    journal = SessionJournal(journal_path(tmp_path, "s"))
    with pytest.raises(ValueError):
        journal.append({"record": "mystery", "session": "s"})
    journal.close()


def test_torn_final_line_is_dropped(tmp_path):
    path = journal_path(tmp_path, "s")
    journal = SessionJournal(path)
    journal.append({"record": "session_create", "session": "s", "request": {}})
    journal.append({"record": "arrival_batch", "session": "s", "jobs": []})
    journal.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"body": "{\\"record\\": \\"arrival_')  # crash mid-write
    records = read_journal(path)
    assert [r["record"] for r in records] == ["session_create", "arrival_batch"]


def test_interior_corruption_raises(tmp_path):
    path = journal_path(tmp_path, "s")
    journal = SessionJournal(path)
    journal.append({"record": "session_create", "session": "s", "request": {}})
    journal.append({"record": "arrival_batch", "session": "s", "jobs": []})
    journal.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = corrupt_line(lines[0])  # interior: a valid line follows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JournalCorruption):
        read_journal(path)


def test_checksum_mismatch_raises(tmp_path):
    path = journal_path(tmp_path, "s")
    line = encode_record({"record": "session_close", "session": "s", "seq": 0})
    envelope = json.loads(line)
    envelope["checksum"] = "0" * 64
    path.write_text(json.dumps(envelope) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(JournalCorruption):
        read_journal(path)


def test_sequence_gap_raises(tmp_path):
    path = journal_path(tmp_path, "s")
    lines = [
        encode_record({"record": "session_create", "session": "s", "request": {}, "seq": 0}),
        encode_record({"record": "session_close", "session": "s", "seq": 5}),  # gap
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(JournalCorruption):
        read_journal(path)


def test_discover_journals_maps_ids(tmp_path):
    for sid in ("alpha", "beta/slash"):
        journal = SessionJournal(journal_path(tmp_path, sid))
        journal.append({"record": "session_create", "session": sid, "request": {}})
        journal.close()
    found = discover_journals(tmp_path)
    assert set(found) == {"alpha", "beta/slash"}
    assert read_journal(found["beta/slash"])[0]["session"] == "beta/slash"


# -- fault channels: torn writes and corruption -------------------------------


def test_service_kinds_registered():
    assert SERVICE_KINDS == {
        "torn_journal_write", "journal_corruption", "slow_handler", "connection_drop",
    }
    plan = generate_plan(3, n_faults=2, kinds=tuple(sorted(SERVICE_KINDS)), n_jobs=4)
    assert all(s.kind in SERVICE_KINDS for s in plan.faults)


def test_torn_journal_write_aborts_submit(tmp_path):
    """The injector tears an arrival's journal write mid-line: the submit
    fails with nothing committed, the session fails closed (its journal
    ends in a crash-shaped tear), and restore drops exactly the torn line
    — after which the client's resubmitted batch commits."""
    plan = FaultPlan(
        seed=1,
        faults=(FaultSpec(kind="torn_journal_write", after_calls=3, magnitude=0.5),),
    )
    injector = FaultInjector(plan, SimulationContext(PowerLaw(ALPHA)))
    manager = SessionManager(journal_dir=tmp_path, journal_filter=injector.journal_filter())

    async def scenario():
        session = await manager.create_session(
            SessionCreateRequest(session_id="s", alpha=ALPHA)
        )
        await session.submit([Job(0, 0.0, 1.0, 1.0)])  # committed cleanly
        with pytest.raises(JournalWriteAborted):
            await session.submit([Job(1, 1.0, 1.0, 1.0)])
        assert session.jobs_accepted == 1 and session.queue.qsize() == 0
        with pytest.raises(SessionClosed):  # failed closed, not half-alive
            await session.submit([Job(1, 1.0, 1.0, 1.0)])

    _run(scenario())
    assert len(injector.fired) == 1
    fresh = SessionManager(journal_dir=tmp_path)

    async def recover():
        report = await fresh.restore()
        assert report.restored == ["s"] and not report.skipped
        session = fresh.get_session("s")
        assert session.jobs_accepted == 1  # the torn batch was never acked
        assert await session.submit([Job(1, 1.0, 1.0, 1.0)]) == 1  # resubmit

    _run(recover())
    records = read_journal(journal_path(tmp_path, "s"))
    assert [r["record"] for r in records] == [
        "session_create", "arrival_batch", "arrival_batch",
    ]


def test_journal_corruption_fault_detected_on_read(tmp_path):
    plan = FaultPlan(seed=2, faults=(FaultSpec(kind="journal_corruption", after_calls=2),))
    injector = FaultInjector(plan, SimulationContext(PowerLaw(ALPHA)))
    manager = SessionManager(journal_dir=tmp_path, journal_filter=injector.journal_filter())

    async def scenario():
        session = await manager.create_session(
            SessionCreateRequest(session_id="s", alpha=ALPHA)
        )
        await session.submit([Job(0, 0.0, 1.0, 1.0)])  # corrupted on disk
        await session.submit([Job(1, 1.0, 1.0, 1.0)])  # valid line after it

    _run(scenario())
    assert len(injector.fired) == 1
    with pytest.raises(JournalCorruption):
        read_journal(journal_path(tmp_path, "s"))
    report = _run(SessionManager(journal_dir=tmp_path).restore())
    assert list(report.skipped) == ["s"] and not report.restored


# -- crash recovery -----------------------------------------------------------


def test_restore_is_bit_identical(tmp_path):
    """In-process differential: crash (abandon) a journaled manager
    mid-workload, restore into a fresh one, finish the workload, and compare
    all four query bodies byte-for-byte against a never-crashed twin."""
    inst = random_instance(8, 21, density="unit")
    batches = _batches(inst)
    half = len(batches) // 2
    jdir = tmp_path / "journals"

    async def drive(manager, chunks):
        session = await manager.create_session(
            SessionCreateRequest(session_id="s", alpha=ALPHA)
        )
        for chunk in chunks:
            await session.submit([Job(c["id"], c["release"], c["volume"], c["density"]) for c in chunk])

    _run(drive(SessionManager(journal_dir=jdir), batches[:half]))  # no shutdown: a crash
    before = journal_path(jdir, "s").read_bytes()

    restored = SessionManager(journal_dir=jdir)
    with TestClient(create_app(restored)) as client:
        report = client._loop.run_until_complete(restored.restore())
        assert report.restored == ["s"] and not report.skipped
        # Deterministic re-journaling: the rewritten journal is byte-identical.
        assert journal_path(jdir, "s").read_bytes() == before
        _feed(client, "s", batches[half:])
        live = _fingerprint(client, "s")

    with TestClient(create_app(SessionManager())) as twin:
        twin.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        _feed(twin, "s", batches)
        assert _fingerprint(twin, "s") == live
    assert json.loads(live["/report"][1])["ok"] is True


def test_rejected_create_leaves_no_journal(tmp_path):
    """A create request the service rejects journals nothing, so the next
    restore has nothing to quarantine."""
    jdir = tmp_path / "journals"
    trace = str(tmp_path / "t.jsonl")
    manager = SessionManager(journal_dir=jdir)
    with TestClient(create_app(manager)) as client:
        for body in (
            {"backend": "bogus"},
            {"sink": "bogus", "trace_path": trace},
            {"sink": "rotate:0", "trace_path": trace},
        ):
            resp = client.post("/sessions", json_body={"session_id": "s", **body})
            assert resp.status_code == 422, (body, resp.json())
    # A request that validates but fails while the session is built (its
    # trace file cannot be opened) must not leave a journal behind either.
    missing = str(tmp_path / "no-such-dir" / "t.jsonl")
    with pytest.raises(OSError):
        _run(manager.create_session(SessionCreateRequest(session_id="s", trace_path=missing)))
    assert list(jdir.iterdir()) == []
    assert _run(SessionManager(journal_dir=jdir).restore()) == RestoreReport()


def test_restore_journal_with_legacy_backend_field(tmp_path):
    """Journals whose ``session_create`` request still carries the retired
    ``"backend": null`` field restore instead of being quarantined: the
    session's schedule and metrics equal a direct drive bit for bit, and the
    rewritten journal differs from the original only by the dropped key."""
    inst = random_instance(8, 21, density="unit")
    jdir = tmp_path / "journals"
    jdir.mkdir()
    request = SessionCreateRequest(session_id="s", alpha=ALPHA).model_dump(exclude={"jobs"})
    request["backend"] = None
    journal = SessionJournal(journal_path(jdir, "s"))
    journal.append({"record": "session_create", "session": "s", "request": request})
    for chunk in _batches(inst):
        journal.append(
            {
                "record": "arrival_batch",
                "session": "s",
                "jobs": [[c["id"], c["release"], c["volume"], c["density"]] for c in chunk],
            }
        )
    journal.close()
    original = read_journal(journal_path(jdir, "s"))

    manager = SessionManager(journal_dir=jdir)
    with TestClient(create_app(manager)) as client:
        report = client._loop.run_until_complete(manager.restore())
        assert report.restored == ["s"] and not report.skipped
        schedule = client.get("/sessions/s/schedule").json()["schedule"]
        metrics = client.get("/sessions/s/metrics").json()["report"]

    power = PowerLaw(ALPHA)
    direct = simulate_session_algorithm("NC", inst, power, context=SimulationContext(power))
    restored = ScheduleModel.model_validate(schedule).to_schedule()
    assert io.schedule_to_dict(restored) == io.schedule_to_dict(direct)
    expected = ReportModel.from_report(evaluate(direct, inst, power))
    assert ReportModel.model_validate(metrics) == expected
    del original[0]["request"]["backend"]
    assert read_journal(journal_path(jdir, "s")) == original


def test_restore_skips_deleted_sessions(tmp_path):
    manager = SessionManager(journal_dir=tmp_path)
    with TestClient(create_app(manager)) as client:
        client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        client.delete("/sessions/s")
    report = _run(SessionManager(journal_dir=tmp_path).restore())
    assert report.closed == ["s"] and not report.restored


def test_restore_a_hundred_sessions(tmp_path):
    manager = SessionManager(journal_dir=tmp_path)

    async def drive():
        for i in range(100):
            session = await manager.create_session(
                SessionCreateRequest(session_id=f"s{i:03d}", alpha=ALPHA)
            )
            await session.submit([Job(0, 0.0, 1.0 + i, 1.0)])

    _run(drive())
    fresh = SessionManager(journal_dir=tmp_path)
    report = _run(fresh.restore())
    assert len(report.restored) == 100 and not report.skipped
    assert fresh.sessions["s042"].jobs[0].volume == 43.0


# -- bounded store: TTL, LRU, admission ---------------------------------------


def test_ttl_eviction_answers_410(tmp_path):
    clock = {"t": 0.0}
    manager = SessionManager(
        journal_dir=tmp_path, session_ttl=10.0, clock=lambda: clock["t"]
    )
    with TestClient(create_app(manager)) as client:
        client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        clock["t"] = 11.0
        client._loop.run_until_complete(manager.sweep())
        resp = client.get("/sessions/s")
        assert resp.status_code == 410
        assert "evicted" in resp.json()["detail"]
        assert client.get("/sessions/never").status_code == 404
    # The tombstone is journaled, so it survives a restart.
    fresh = SessionManager(journal_dir=tmp_path)
    report = _run(fresh.restore())
    assert report.evicted == ["s"]
    with pytest.raises(SessionGone):
        fresh.get_session("s")


def test_lru_eviction_and_admission_limit():
    async def scenario():
        strict = SessionManager(max_sessions=1)
        await strict.create_session(SessionCreateRequest(session_id="a", alpha=ALPHA))
        with pytest.raises(StoreFull):
            await strict.create_session(SessionCreateRequest(session_id="b", alpha=ALPHA))

        clock = {"t": 0.0}
        lru = SessionManager(max_sessions=2, evict_lru=True, clock=lambda: clock["t"])
        await lru.create_session(SessionCreateRequest(session_id="old", alpha=ALPHA))
        clock["t"] = 1.0
        await lru.create_session(SessionCreateRequest(session_id="new", alpha=ALPHA))
        clock["t"] = 2.0
        lru.get_session("old")  # touch: "new" becomes least-recently-used
        clock["t"] = 3.0
        await lru.create_session(SessionCreateRequest(session_id="third", alpha=ALPHA))
        assert set(lru.sessions) == {"old", "third"}
        with pytest.raises(SessionGone):
            lru.get_session("new")

    _run(scenario())


def test_store_full_answers_503_and_evicted_410():
    manager = SessionManager(max_sessions=1)
    with TestClient(create_app(manager)) as client:
        assert client.post(
            "/sessions", json_body={"session_id": "a", "alpha": ALPHA}
        ).status_code == 201
        resp = client.post("/sessions", json_body={"session_id": "b", "alpha": ALPHA})
        assert resp.status_code == 503
        assert "full" in resp.json()["detail"]


# -- campaign retention -------------------------------------------------------


def test_pruned_campaign_answers_410_with_final_status():
    manager = SessionManager(campaign_retention=0)
    with TestClient(create_app(manager)) as client:
        client.post(
            "/campaigns",
            json_body={"campaign_id": "c1", "machines": 2, "n_jobs": 6,
                       "seed": 3, "force_serial": True},
        )
        deadline = time.time() + 30
        while time.time() < deadline:
            state = client.get("/campaigns/c1").json()["state"]
            if state != "running":
                break
            time.sleep(0.05)
        assert state == "done"
        # The next launch prunes finished campaigns past retention (0).
        client.post(
            "/campaigns",
            json_body={"campaign_id": "c2", "machines": 2, "n_jobs": 6,
                       "seed": 4, "force_serial": True},
        )
        resp = client.get("/campaigns/c1")
        assert resp.status_code == 410
        final = resp.json()["final"]
        assert final["state"] == "done" and final["bit_identical"] is True
        assert client.get("/campaigns/zzz").status_code == 404


# -- traffic policy: rate limits and deadlines --------------------------------


def test_token_bucket_refills_deterministically():
    clock = {"t": 0.0}
    bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: clock["t"])
    assert bucket.check("k") == 0.0
    assert bucket.check("k") == 0.0
    assert bucket.check("k") == pytest.approx(0.5)  # empty: 1 token / 2 per s
    assert bucket.check("other") == 0.0  # buckets are per-key
    clock["t"] = 0.5
    assert bucket.check("k") == 0.0


def test_create_rate_limit_answers_429_with_retry_after():
    clock = {"t": 0.0}
    manager = SessionManager(create_rate=0.1, create_burst=1, clock=lambda: clock["t"])
    with TestClient(create_app(manager)) as client:
        assert client.post(
            "/sessions", json_body={"session_id": "a", "alpha": ALPHA},
            headers={"x-client-key": "tenant-1"},
        ).status_code == 201
        resp = client.post(
            "/sessions", json_body={"session_id": "b", "alpha": ALPHA},
            headers={"x-client-key": "tenant-1"},
        )
        assert resp.status_code == 429
        assert int(resp.headers["retry-after"]) == 10  # ceil(1 token / 0.1 per s)
        # A different tenant's bucket is untouched.
        assert client.post(
            "/sessions", json_body={"session_id": "c", "alpha": ALPHA},
            headers={"x-client-key": "tenant-2"},
        ).status_code == 201


def test_request_deadline_answers_504():
    app = create_app(SessionManager(), request_timeout=0.05)

    async def stall(request):
        await asyncio.sleep(5.0)

    app.gates.append(stall)
    with TestClient(app) as client:
        t0 = time.monotonic()
        resp = client.get("/health")
        assert resp.status_code == 504
        assert "deadline" in resp.json()["detail"]
        assert time.monotonic() - t0 < 2.0  # cancelled, not awaited


def test_deadline_cancellation_releases_session_lock():
    """A handler cancelled at the deadline must unwind its ``async with
    lock`` — the next request against the same session succeeds."""
    manager = SessionManager()
    app = create_app(manager, request_timeout=0.1)
    gate_state = {"stall": False}

    async def gate(request):
        if gate_state["stall"]:
            gate_state["stall"] = False
            await asyncio.sleep(5.0)

    app.gates.append(gate)
    with TestClient(app) as client:
        client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        gate_state["stall"] = True
        assert client.post(
            "/sessions/s/jobs",
            json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
        ).status_code == 504
        resp = client.post(
            "/sessions/s/jobs",
            json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
        )
        assert resp.status_code == 202, resp.json()


# -- connection drops over a real socket --------------------------------------


def test_connection_drop_tears_the_response(tmp_path):
    plan = FaultPlan(seed=5, faults=(FaultSpec(kind="connection_drop", after_calls=2),))
    injector = FaultInjector(plan, SimulationContext(PowerLaw(ALPHA)))
    app = create_app(SessionManager())
    app.gates.append(injector.service_gate())
    port = _free_port()
    loop = asyncio.new_event_loop()
    ready = asyncio.Event()
    stop = asyncio.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(
            serve(app, "127.0.0.1", port, ready=ready, shutdown_trigger=stop)
        )
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.time() + 10
    while not ready.is_set() and time.time() < deadline:
        time.sleep(0.01)
    assert ready.is_set()
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as r:
            assert r.status == 200  # gated call 1: clean
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            assert raw.recv(1024) == b"HTTP/1.1 "  # torn mid-status-line
            assert raw.recv(1024) == b""  # ...then closed
        assert len(injector.fired) == 1
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=10) as r:
            assert r.status == 200  # budget spent: clean again
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(10)


# -- the submit-vs-close race -------------------------------------------------


def test_submit_racing_close_commits_nothing(tmp_path):
    """A batch parked on the session lock while ``close()`` runs must fail
    with :class:`SessionClosed` — nothing journaled, committed, or stranded
    in the queue."""
    manager = SessionManager(journal_dir=tmp_path)

    async def scenario():
        session = await manager.create_session(
            SessionCreateRequest(session_id="s", alpha=ALPHA)
        )
        await session.submit([Job(0, 0.0, 1.0, 1.0)])
        await session.lock.acquire()  # pin both contenders behind the lock
        close_task = asyncio.ensure_future(session.close())
        await asyncio.sleep(0)
        submit_task = asyncio.ensure_future(session.submit([Job(1, 1.0, 1.0, 1.0)]))
        await asyncio.sleep(0)
        session.lock.release()  # FIFO: close acquires first
        await close_task
        with pytest.raises(SessionClosed):
            await submit_task
        assert session.jobs_accepted == 1
        assert session.queue.qsize() == 0

    _run(scenario())
    records = read_journal(journal_path(tmp_path, "s"))
    assert [r["record"] for r in records] == [
        "session_create", "arrival_batch", "session_close",
    ]
    assert records[1]["jobs"] == [[0, 0.0, 1.0, 1.0]]  # job 1 never journaled


def test_race_maps_to_409_over_http():
    manager = SessionManager()
    with TestClient(create_app(manager)) as client:
        client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        client._loop.run_until_complete(manager.get_session("s").close())
        resp = client.post(
            "/sessions/s/jobs",
            json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
        )
        assert resp.status_code == 409


# -- live subprocess: SIGTERM drain and SIGKILL recovery ----------------------


def test_sigterm_drains_and_suspends(tmp_path):
    """SIGTERM must exit 0, flush the trace sink, and leave the journal
    *without* a terminal record — a suspension, so the next start restores
    the session."""
    jdir = tmp_path / "journals"
    trace = tmp_path / "trace.jsonl"
    port = _free_port()
    proc = _spawn_server(port, jdir)
    try:
        status, _ = _http(
            port, "POST", "/sessions",
            {"session_id": "s", "alpha": ALPHA, "trace_path": str(trace)},
        )
        assert status == 201
        status, _ = _http(
            port, "POST", "/sessions/s/jobs",
            {"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
        )
        assert status == 202
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        _stop_server(proc)
    kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
    assert kinds[-1] == "session_close"  # sink flushed on the way out
    records = read_journal(journal_path(jdir, "s"))
    assert [r["record"] for r in records] == ["session_create", "arrival_batch"]
    report = _run(SessionManager(journal_dir=jdir).restore())
    assert report.restored == ["s"]


def test_sigkill_restart_differential():
    """The acceptance scenario end-to-end: a real server SIGKILLed
    mid-workload, restarted, and byte-compared against a never-killed twin
    (run 0 of the service chaos rotation)."""
    report = run_campaign(11, 1, scenario=ServiceScenario(jobs=6, alpha=ALPHA))
    assert report.ok, report.outcomes
    outcome = report.outcomes[0]
    assert outcome.plan == "kill_restart"
    assert outcome.status == "recovered"
    assert outcome.checks == {"bitid": True, "lemmas": True}
    assert outcome.counts["rest"] == 1


def test_service_campaign_torn_and_corrupt_scenarios(tmp_path):
    """Rotation slots 1 and 2: the torn journal tail restores the committed
    prefix bit-identically; interior corruption is quarantined (404 +
    health count), never silently restored."""
    out = tmp_path / "campaign.jsonl"
    report = run_campaign(7, 3, scenario=ServiceScenario(jobs=6, alpha=ALPHA), out=out)
    assert report.ok, report.outcomes
    by_scenario = {o.plan: o for o in report.outcomes}
    assert by_scenario["torn_tail"].checks["bitid"] is True
    assert by_scenario["corruption"].counts == {"rest": 0, "quar": 1}
    # The campaign trace partitions per run like every other campaign's.
    headers = [h for h, _ in iter_campaign_runs(out)]
    assert [h["family"] for h in headers] == [
        "SERVICE_KILL_RESTART", "SERVICE_TORN_TAIL", "SERVICE_CORRUPTION",
    ]
