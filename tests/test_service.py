"""End-to-end tests of the scheduling service (:mod:`repro.service`).

The load-bearing claims:

* **Differential bit-identity** (the ISSUE's acceptance test): a session fed
  jobs through the HTTP API yields schedules bit-identical to driving the
  same instance through :class:`~repro.core.shadow.SimulationContext`
  directly, for every session algorithm — floats compared exactly after a
  full JSON round trip.
* **Isolation**: two sessions with interleaved arrival streams produce the
  same schedules as the same workloads run in isolated sessions.
* **Backpressure**: a batch that would overflow the bounded per-session
  queue is rejected whole with 429 and leaves no partial state behind.
* **Verified reports**: the ``/report`` endpoint replays a traced (C, NC)
  pair through the streaming verifier and the Lemma 3/4 checks hold.
* **Graceful shutdown** flushes per-session trace sinks (on DELETE and on
  service shutdown), and the dependency-free socket server serves the same
  app over real HTTP.
* **One request path**: the socket server, the in-process client and the
  ASGI adapter reach the same session ids (each path segment decoded once),
  and the socket parser answers any malformed input with a JSON 400.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("pydantic")

from repro import io
from repro.algorithms import ALGORITHMS, simulate_nc_uniform
from repro.analysis.gantt import gantt_chart
from repro.core.errors import SimulationError
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.power import PowerLaw
from repro.core.shadow import SimulationContext
from repro.core.tracing import iter_trace
from repro.service import TestClient, create_app, serve
from repro.service.asgi import HTTPError, call, read_request
from repro.service.journal import JournalCorruption, SessionJournal, journal_path, read_journal
from repro.service.models import ReportModel, ScheduleModel, SessionCreateRequest
from repro.service.sessions import SessionManager
from repro.workloads import random_instance

ALPHA = 3.0


@pytest.fixture()
def client():
    with TestClient(create_app()) as c:
        yield c


def _batches(inst: Instance, size: int):
    jobs = [
        {"id": j.job_id, "release": j.release, "volume": j.volume, "density": j.density}
        for j in inst
    ]
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _feed(client: TestClient, session_id: str, inst: Instance, *, batch: int = 3) -> None:
    for chunk in _batches(inst, batch):
        resp = client.post(f"/sessions/{session_id}/jobs", json_body={"jobs": chunk})
        assert resp.status_code == 202, resp.json()


# -- meta / lifecycle ---------------------------------------------------------


def test_health_and_algorithms(client):
    assert client.get("/health").json()["status"] == "ok"
    algos = client.get("/algorithms").json()
    assert algos["session"] == ["C", "NC", "NC_GENERAL"]
    assert algos["campaign"] == ["nc_par", "c_par"]


def test_session_lifecycle(client):
    resp = client.post("/sessions", json_body={"session_id": "s1", "alpha": 2.5})
    assert resp.status_code == 201
    info = resp.json()
    assert info["session_id"] == "s1"
    assert info["alpha"] == 2.5
    assert not info["closed"]

    assert client.get("/sessions/s1").status_code == 200
    listed = client.get("/sessions").json()["sessions"]
    assert [s["session_id"] for s in listed] == ["s1"]

    # Duplicate id conflicts; minted ids don't.
    dup = client.post("/sessions", json_body={"session_id": "s1"})
    assert (dup.status_code, dup.json()) == (409, {"detail": "session 's1' already exists"})
    minted = client.post("/sessions", json_body={})
    assert minted.status_code == 201
    assert minted.json()["session_id"]

    gone = client.delete("/sessions/s1")
    assert gone.status_code == 200 and gone.json()["closed"]
    missing = client.get("/sessions/s1")
    assert (missing.status_code, missing.json()) == (404, {"detail": "no session 's1'"})
    again = client.delete("/sessions/s1")
    assert (again.status_code, again.json()) == (404, {"detail": "no session 's1'"})


def test_validation_and_routing_errors(client):
    assert client.get("/nope").status_code == 404
    assert client.request("PUT", "/sessions").status_code == 405
    assert client.post("/sessions", json_body={"alpha": 0.5}).status_code == 422
    assert client.post("/sessions", json_body={"surprise": 1}).status_code == 422
    # The session Literal is derived from the registry; it must not widen.
    for algorithm in ("NC_PAR", "WAT", "NC_INT", "CONSTANT_SPEED"):
        body = {"algorithm": algorithm}
        assert client.post("/sessions", json_body=body).status_code == 422
    resp = client.request("POST", "/sessions", json_body=None)
    assert resp.status_code == 201  # empty body is a default session
    sid = resp.json()["session_id"]
    assert client.post(f"/sessions/{sid}/jobs", json_body={"jobs": []}).status_code == 422
    assert client.get(f"/sessions/{sid}/schedule").status_code == 409  # no jobs yet


def test_out_of_order_release_conflicts(client):
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", Instance([Job(0, 0.0, 1.0), Job(1, 1.0, 1.0)]))
    resp = client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 2, "release": 0.5, "volume": 1.0}]},
    )
    assert resp.status_code == 409
    # The rejected arrival left no state behind.
    assert client.get("/sessions/s").json()["jobs_accepted"] == 2


def test_midbatch_conflict_commits_nothing(client):
    """A batch whose *middle* member is invalid is rejected whole: jobs
    before the failure are not committed, jobs after it are not stranded in
    the queue for a later request to commit, and a corrected retry of the
    same ids succeeds."""
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", Instance([Job(0, 0.0, 1.0), Job(1, 1.0, 1.0)]))
    bad = {"jobs": [
        {"id": 2, "release": 2.0, "volume": 1.0},
        {"id": 3, "release": 0.5, "volume": 1.0},  # out of order mid-batch
        {"id": 4, "release": 3.0, "volume": 1.0},
    ]}
    assert client.post("/sessions/s/jobs", json_body=bad).status_code == 409
    assert client.get("/sessions/s").json()["jobs_accepted"] == 2
    assert client.get("/sessions/s").json()["queue_depth"] == 0
    # Reads between retries must not commit stranded batch members.
    assert client.get("/sessions/s/speeds").status_code == 200
    info = client.get("/sessions/s").json()
    assert info["jobs_accepted"] == 2 and info["clock"] == 1.0
    # The corrected retry reuses the same ids and lands in full.
    good = {"jobs": [
        {"id": 2, "release": 2.0, "volume": 1.0},
        {"id": 3, "release": 2.5, "volume": 1.0},
        {"id": 4, "release": 3.0, "volume": 1.0},
    ]}
    ok = client.post("/sessions/s/jobs", json_body=good)
    assert ok.status_code == 202, ok.json()
    assert ok.json()["jobs_accepted"] == 5


def test_duplicate_id_rejects_whole_batch(client):
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", Instance([Job(0, 0.0, 1.0)]))
    # Duplicate against an accepted job, and duplicate within the batch:
    for bad in (
        [{"id": 1, "release": 1.0, "volume": 1.0}, {"id": 0, "release": 2.0, "volume": 1.0}],
        [{"id": 1, "release": 1.0, "volume": 1.0}, {"id": 1, "release": 2.0, "volume": 1.0}],
    ):
        assert client.post("/sessions/s/jobs", json_body={"jobs": bad}).status_code == 409
        assert client.get("/sessions/s").json()["jobs_accepted"] == 1
    ok = client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 1, "release": 1.0, "volume": 1.0}]},
    )
    assert ok.status_code == 202 and ok.json()["jobs_accepted"] == 2


def test_future_speed_query_is_side_effect_free(client):
    """``GET /speeds?t=`` beyond the session clock answers speculatively and
    must not advance the committed clock — later arrivals with releases
    before ``t`` (but at/after the last release) stay admissible."""
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", Instance([Job(0, 0.0, 4.0)]))
    view = client.get("/sessions/s/speeds", query="t=50.0").json()
    assert view["t"] == 50.0
    assert client.get("/sessions/s").json()["clock"] == 0.0
    ok = client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 1, "release": 0.5, "volume": 1.0}]},
    )
    assert ok.status_code == 202, ok.json()


# -- backpressure -------------------------------------------------------------


def test_backpressure_rejects_whole_batch(client):
    client.post("/sessions", json_body={"session_id": "s", "queue_limit": 4})
    too_big = [
        {"id": i, "release": float(i), "volume": 1.0} for i in range(5)
    ]
    resp = client.post("/sessions/s/jobs", json_body={"jobs": too_big})
    assert resp.status_code == 429
    assert "retry" in resp.json()["detail"]
    assert client.get("/sessions/s").json()["jobs_accepted"] == 0
    # A batch that fits is accepted in full afterwards.
    ok = client.post("/sessions/s/jobs", json_body={"jobs": too_big[:4]})
    assert ok.status_code == 202 and ok.json()["accepted"] == 4


# -- the differential acceptance test -----------------------------------------


@pytest.mark.parametrize(
    "algorithm,density",
    [("C", "unit"), ("NC", "unit"), ("NC_GENERAL", "loguniform")],
)
def test_api_schedule_bit_identical_to_direct_drive(client, algorithm, density):
    """Jobs fed via the API produce the byte-for-byte schedule a direct
    ``SimulationContext`` drive of the same instance produces."""
    inst = random_instance(12, seed=21, density=density)
    client.post(
        "/sessions", json_body={"session_id": "s", "algorithm": algorithm, "alpha": ALPHA}
    )
    _feed(client, "s", inst, batch=4)

    resp = client.get("/sessions/s/schedule")
    assert resp.status_code == 200
    body = resp.json()
    assert body["n_jobs"] == len(inst)
    via_api = ScheduleModel.model_validate(body["schedule"]).to_schedule()

    direct = (
        ALGORITHMS[algorithm]
        .simulate(inst, PowerLaw(ALPHA), context=SimulationContext(PowerLaw(ALPHA)))
        .schedule
    )
    assert io.schedule_to_dict(via_api) == io.schedule_to_dict(direct)


def test_api_speeds_match_direct_shadow(client):
    inst = random_instance(10, seed=4, density="unit")
    client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
    _feed(client, "s", inst)

    power = PowerLaw(ALPHA)
    shadow = SimulationContext(power).shadow(component="direct")
    for j in inst:
        shadow.insert_job(j.job_id, j.release, j.density, j.volume)
        shadow.advance(j.release)
    t = max(j.release for j in inst) + 0.25
    shadow.advance(t)
    expected_w = shadow.remaining_weight()

    view = client.get("/sessions/s/speeds", query=f"t={t}").json()
    assert view["remaining_weight"] == expected_w
    assert view["speed"] == power.speed(expected_w)
    assert view["active_jobs"] == [
        {"id": jid, "density": den, "remaining_volume": rem}
        for jid, den, rem in shadow.remaining_items()
    ]
    # The live shadow only moves forward.
    assert client.get("/sessions/s/speeds", query="t=0.0").status_code == 409


def test_interleaved_sessions_match_isolated_runs():
    """Two sessions streamed in interleaved order behave exactly like the
    same two workloads in isolated sessions — no shared mutable state."""
    inst_a = random_instance(9, seed=31, density="unit")
    inst_b = random_instance(9, seed=32, density="loguniform")

    def schedules(interleave: bool):
        with TestClient(create_app()) as c:
            c.post("/sessions", json_body={"session_id": "a", "algorithm": "NC"})
            c.post("/sessions", json_body={"session_id": "b", "algorithm": "NC_GENERAL"})
            ba, bb = _batches(inst_a, 2), _batches(inst_b, 2)
            if interleave:
                for i in range(max(len(ba), len(bb))):
                    if i < len(ba):
                        assert c.post("/sessions/a/jobs", json_body={"jobs": ba[i]}).status_code == 202
                    if i < len(bb):
                        assert c.post("/sessions/b/jobs", json_body={"jobs": bb[i]}).status_code == 202
                        # Queries on one session between the other's arrivals
                        # must not disturb either.
                        assert c.get("/sessions/b/speeds").status_code == 200
            else:
                for chunk in ba:
                    assert c.post("/sessions/a/jobs", json_body={"jobs": chunk}).status_code == 202
                for chunk in bb:
                    assert c.post("/sessions/b/jobs", json_body={"jobs": chunk}).status_code == 202
            return (
                c.get("/sessions/a/schedule").json()["schedule"],
                c.get("/sessions/b/schedule").json()["schedule"],
            )

    assert schedules(interleave=True) == schedules(interleave=False)


# -- metrics / gantt / verified report ----------------------------------------


def test_metrics_and_gantt(client):
    inst = random_instance(8, seed=2, density="unit")
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", inst)

    metrics = client.get("/sessions/s/metrics").json()
    assert metrics["n_jobs"] == len(inst)
    assert metrics["report"]["energy"] > 0
    assert metrics["counters"]["inserts"] >= len(inst)

    gantt = client.get("/sessions/s/gantt", query="width=48").json()
    assert gantt["width"] == 48
    assert gantt["end_time"] > 0
    assert gantt["chart"]
    assert client.get("/sessions/s/gantt", query="width=2").status_code == 400


def test_verified_report_replays_lemmas(client):
    inst = random_instance(10, seed=9, density="unit")
    client.post("/sessions", json_body={"session_id": "s"})
    _feed(client, "s", inst)

    report = client.get("/sessions/s/report").json()
    assert report["ok"] is True
    names = [c["name"] for c in report["checks"]]
    assert any("Lemma 3" in n for n in names)
    assert any("Lemma 4" in n for n in names)
    assert all(c["holds"] for c in report["checks"])
    assert report["order_violations"] == []
    assert set(report["energies"]) == {"C", "NC"}


def test_verified_report_holds_with_tied_arrivals(client):
    client.post("/sessions", json_body={"session_id": "s"})
    jobs = [(0, 0.0, 1.0), (1, 0.0, 2.0), (2, 0.5, 1.0), (3, 0.5, 1.0)]
    resp = client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": j, "release": r, "volume": v} for j, r, v in jobs]},
    )
    assert resp.status_code == 202
    report = client.get("/sessions/s/report").json()
    assert report["ok"] is True and len(report["checks"]) == 2
    assert report["energies"]["NC"] == pytest.approx(report["energies"]["C"], rel=1e-12)


def test_verified_report_needs_uniform_density(client):
    client.post("/sessions", json_body={"session_id": "s"})
    client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [
            {"id": 0, "release": 0.0, "volume": 1.0, "density": 2.0},
            {"id": 1, "release": 0.5, "volume": 1.0, "density": 1.0},
        ]},
    )
    assert client.get("/sessions/s/report").status_code == 409


# -- campaigns ----------------------------------------------------------------


def test_campaign_end_to_end(client):
    resp = client.post(
        "/campaigns",
        json_body={"campaign_id": "camp", "machines": 3, "n_jobs": 12, "seed": 5},
    )
    assert resp.status_code == 202
    assert resp.json()["state"] == "running"
    assert client.post(
        "/campaigns", json_body={"campaign_id": "camp"}
    ).status_code == 409

    deadline = time.time() + 30
    status = resp.json()
    while status["state"] == "running" and time.time() < deadline:
        time.sleep(0.05)
        status = client.get("/campaigns/camp").json()
    assert status["state"] == "done", status
    assert status["bit_identical"] is True
    assert status["shards"] >= 1
    assert status["report"]["energy"] > 0
    assert [c["campaign_id"] for c in client.get("/campaigns").json()["campaigns"]] == ["camp"]
    assert client.get("/campaigns/nope").status_code == 404


# -- tracing + shutdown -------------------------------------------------------


def test_delete_flushes_trace_sink(client, tmp_path):
    trace = tmp_path / "session.jsonl"
    client.post(
        "/sessions",
        json_body={"session_id": "s", "trace_path": str(trace)},
    )
    inst = random_instance(6, seed=13, density="unit")
    _feed(client, "s", inst)
    info = client.get("/sessions/s").json()
    assert info["trace_paths"] == [str(trace)]
    client.delete("/sessions/s")

    events = list(iter_trace([trace]))
    kinds = [e.kind for e in events]
    assert "run_meta" in kinds
    assert kinds.count("arrival") == len(inst)
    assert kinds[-1] == "session_close"


def test_service_shutdown_flushes_open_sessions(tmp_path):
    trace = tmp_path / "open-session.jsonl"
    client = TestClient(create_app())
    client.__enter__()
    client.post("/sessions", json_body={"session_id": "s", "trace_path": str(trace)})
    client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
    )
    # No DELETE: the lifespan shutdown must close and flush the sink.
    client.close()
    kinds = [e.kind for e in iter_trace([trace])]
    assert "arrival" in kinds and kinds[-1] == "session_close"


def test_closed_session_rejects_requests(client):
    client.post("/sessions", json_body={"session_id": "s"})
    # Close via the manager (DELETE removes it from the registry entirely).
    manager = client.app.state["manager"]
    client._loop.run_until_complete(manager.get_session("s").close())
    resp = client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]},
    )
    assert resp.status_code == 409


# -- the dependency-free socket server ----------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _http(method: str, url: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, method=method, headers={"content-type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


@contextlib.contextmanager
def _serving(app):
    """Run ``serve(app)`` on a free port in a thread; yield its base URL."""
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
    assert ready.is_set(), "server never came up"
    try:
        yield f"http://127.0.0.1:{port}"
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=10)
    assert not thread.is_alive()


def _raw_exchange(base: str, request: bytes) -> tuple[bytes, dict]:
    """Send ``request`` as is and half-close; return the response head and
    its JSON body."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as raw:
        raw.sendall(request)
        raw.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := raw.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, json.loads(body)


def test_socket_server_serves_the_app(tmp_path):
    trace = tmp_path / "served.jsonl"
    with _serving(create_app()) as base:
        status, body = _http("GET", f"{base}/health")
        assert status == 200 and body["status"] == "ok"
        status, body = _http(
            "POST", f"{base}/sessions",
            {"session_id": "over-http", "trace_path": str(trace)},
        )
        assert status == 201
        status, body = _http(
            "POST", f"{base}/sessions/over-http/jobs",
            {"jobs": [{"id": 1, "release": 0.0, "volume": 2.0}]},
        )
        assert status == 202 and body["accepted"] == 1
        status, body = _http("GET", f"{base}/sessions/over-http/speeds")
        assert status == 200 and body["speed"] > 0
        status, body = _http("GET", f"{base}/sessions/missing")
        assert status == 404
    # serve()'s shutdown path flushed the session sink.
    kinds = [e.kind for e in iter_trace([trace])]
    assert "arrival" in kinds and kinds[-1] == "session_close"


@pytest.mark.parametrize(
    "request_bytes,detail",
    [
        (b"GET /health HTTP/1.1\r\ncontent-length: nope\r\n\r\n", "invalid content-length"),
        (b"GET /health HTTP/1.1\r\ncontent-length: -5\r\n\r\n", "invalid content-length"),
        (b"GET /health HTTP/1.1\r\ncontent-length: 9\r\n\r\n{}", "body ended after 2 of 9"),
        (b"GARBAGE\r\n\r\n", "malformed request line"),
        (b"GET /health HTTP/1.1\r\nno-colon\r\n\r\n", "malformed header line"),
        (b"GET /" + b"a" * 200_000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
        (b"GET /health HTTP/1.1\r\nx: " + b"a" * 70_000 + b"\r\n\r\n", "header line too long"),
        (
            b"GET /health HTTP/1.1\r\n" + b"".join(b"h%d: x\r\n" % i for i in range(101)) + b"\r\n",
            "more than 100 distinct headers",
        ),
        (b"POST /sessions HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", "transfer-encoding"),
    ],
    ids=["length-word", "length-negative", "short-body", "request-line", "header-line",
         "long-request-line", "long-header-line", "many-headers", "chunked"],
)
def test_socket_server_answers_malformed_requests_with_json_400(request_bytes, detail):
    """Every parse error, over-long lines included, gets a JSON 400 through the
    same writer as any response -- never an empty reply."""
    with _serving(create_app()) as base:
        head, body = _raw_exchange(base, request_bytes)
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"\r\nconnection: close" in head
    assert detail in body["detail"]


def test_socket_server_reaches_every_session_id():
    """The socket server decodes each path segment exactly once, as the
    in-process client does: ids with '%', '/', spaces or non-ASCII text
    answer 200 over a real socket too."""
    with _serving(create_app()) as base:
        for sid in ("a%41", "x/y", "a b", "\u00e9"):
            status, body = _http("POST", f"{base}/sessions", {"session_id": sid})
            assert (status, body["session_id"]) == (201, sid)
            status, body = _http("GET", f"{base}/sessions/{quote(sid, safe='')}")
            assert (status, body["session_id"]) == (200, sid)
            status, body = _http("DELETE", f"{base}/sessions/{quote(sid, safe='')}")
            assert (status, body["session_id"]) == (200, sid)


# -- the one request parser, the ASGI adapter, path decoding -------------------


def _encode_request(method, target, headers, body):
    lines = [f"{method} {target} HTTP/1.1", *(f"{k}: {v}" for k, v in headers.items())]
    if body:
        lines.append(f"content-length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _request_or_400(data: bytes, limit: int):
    """``read_request`` over a reader fed ``data`` then EOF: a request (None
    only for no bytes at all) or a 4xx ``HTTPError``; a hang fails."""

    async def parse():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await asyncio.wait_for(read_request(reader), 5.0)

    try:
        request = asyncio.run(parse())
    except HTTPError as exc:
        assert 400 <= exc.status < 500
        assert json.loads(exc.response().body) == {"detail": exc.detail}
        return None
    assert (request is None) == (data == b"")
    return request


_token = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":"),
    min_size=1,
    max_size=12,
)
_valid_requests = st.tuples(
    st.sampled_from(["GET", "POST", "DELETE", "get"]),
    st.lists(st.text(min_size=1, max_size=10), max_size=4).map(
        lambda parts: "/" + "/".join(quote(p, safe="") for p in parts)
    ),
    st.dictionaries(
        _token.map(str.lower).filter(lambda k: k not in ("content-length", "transfer-encoding")),
        _token,
        max_size=4,
    ),
    st.binary(max_size=40),
)
_limits = st.sampled_from([16, 64, 1 << 16])


class TestReadRequest:
    @given(_valid_requests, _limits)
    @settings(max_examples=200, deadline=None)
    def test_valid_requests_parse_exactly(self, parts, limit):
        method, path, headers, body = parts
        data = _encode_request(method, f"{path}?k=v%20w", headers, body)
        request = _request_or_400(data, limit)
        if request is None:  # a line longer than the reader's limit
            assert max(len(line) for line in data.split(b"\n")) >= limit
            return
        assert (request.method, request.path, request.body) == (method.upper(), path, body)
        assert request.query == {"k": "v w"}
        request.headers.pop("content-length", None)
        assert request.headers == headers

    @given(_valid_requests, _limits, st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_requests_give_a_request_or_a_400(self, parts, limit, data):
        raw = bytearray(_encode_request(*parts))
        for _ in range(data.draw(st.integers(1, 4))):
            pos = data.draw(st.integers(0, len(raw)))
            op = data.draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
            chunk = data.draw(
                st.binary(min_size=1, max_size=8)
                | st.sampled_from([b"\r\n", b"\n", b":", b" ", b"?", b"%", b"-1", b"99"])
            )
            if op == "insert":
                raw[pos:pos] = chunk
            elif op == "delete":
                del raw[pos : pos + len(chunk)]
            elif op == "replace":
                raw[pos : pos + len(chunk)] = chunk
            else:
                del raw[pos:]
        _request_or_400(bytes(raw), limit)

    @given(st.binary(max_size=300), _limits)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_give_a_request_or_a_400(self, data, limit):
        _request_or_400(data, limit)


async def _asgi_http(app, method, raw_path, *, json_body=None, with_raw_path=True):
    """One request through the ASGI adapter, its body in two chunks; returns
    (status, headers, body bytes)."""
    scope = {
        "type": "http",
        "method": method,
        "path": unquote(raw_path),
        "query_string": b"",
        "headers": [(b"content-type", b"application/json")],
    }
    if with_raw_path:
        scope["raw_path"] = raw_path.encode("ascii")
    body = b"" if json_body is None else json.dumps(json_body).encode()
    incoming = [
        {"type": "http.request", "body": body[:1], "more_body": True},
        {"type": "http.request", "body": body[1:], "more_body": False},
    ]
    sent = []

    async def receive():
        return incoming.pop(0)

    async def send(message):
        sent.append(message)

    await app(scope, receive, send)
    start, end = sent
    assert start["type"] == "http.response.start" and end["type"] == "http.response.body"
    headers = {k.decode(): v.decode() for k, v in start["headers"]}
    return start["status"], headers, end["body"]


def test_asgi_adapter_serves_http_between_lifespan_events(tmp_path):
    trace = tmp_path / "asgi.jsonl"
    app = create_app()

    async def scenario():
        inbox: asyncio.Queue = asyncio.Queue()
        sent = []

        async def send(message):
            sent.append(message["type"])

        lifespan = asyncio.ensure_future(app({"type": "lifespan"}, inbox.get, send))
        await inbox.put({"type": "lifespan.startup"})
        while not sent:
            await asyncio.sleep(0)
        assert sent == ["lifespan.startup.complete"]

        body = {"session_id": "a%41", "trace_path": str(trace)}
        assert (await _asgi_http(app, "POST", "/sessions", json_body=body))[0] == 201
        status, headers, raw = await _asgi_http(app, "GET", "/sessions/a%2541")
        assert (status, json.loads(raw)["session_id"]) == (200, "a%41")
        assert headers == {"content-type": "application/json", "content-length": str(len(raw))}
        # Without raw_path the adapter re-encodes the decoded path: same bytes,
        # and the same as the in-process client's.
        assert await _asgi_http(app, "GET", "/sessions/a%2541", with_raw_path=False) == (
            status, headers, raw
        )
        in_process = await call(app, "GET", "/sessions/a%2541")
        assert (in_process.status_code, in_process.headers, in_process.body) == (
            status, headers, raw
        )

        body = {"session_id": "x/y"}
        assert (await _asgi_http(app, "POST", "/sessions", json_body=body))[0] == 201
        status, _, raw = await _asgi_http(app, "GET", "/sessions/x%2Fy")
        assert (status, json.loads(raw)["session_id"]) == (200, "x/y")
        # An encoded "/" is lost in a decoded path, so it needs raw_path.
        assert (await _asgi_http(app, "GET", "/sessions/x%2Fy", with_raw_path=False))[0] == 404

        status, _, raw = await _asgi_http(app, "GET", "/sessions/nope")
        assert (status, json.loads(raw)) == (404, {"detail": "no session 'nope'"})

        await inbox.put({"type": "lifespan.shutdown"})
        await lifespan
        assert sent == ["lifespan.startup.complete", "lifespan.shutdown.complete"]

    asyncio.run(scenario())
    # The lifespan shutdown closed the open session and flushed its sink.
    assert [e.kind for e in iter_trace([trace])][-1] == "session_close"


@given(st.text(min_size=1, max_size=128))
@settings(max_examples=60, deadline=None)
def test_every_session_id_is_reachable(sid):
    """Any id a session can be created with answers at its quoted path,
    through the in-process client and through the ASGI adapter.  An id too
    long for a journal file name once percent-encoded is a 422 instead."""
    path = "/sessions/" + quote(sid, safe="")
    if len(quote(sid, safe="")) > 255 - len(".journal.00000.jsonl"):
        with TestClient(create_app()) as client:
            assert client.post("/sessions", json_body={"session_id": sid}).status_code == 422
            assert client.get(path).status_code == 404
        return
    with TestClient(create_app()) as client:
        assert client.post("/sessions", json_body={"session_id": sid}).status_code == 201
        resp = client.get(path)
        assert (resp.status_code, resp.json()["session_id"]) == (200, sid)

    async def over_asgi():
        app = create_app()
        created = await _asgi_http(app, "POST", "/sessions", json_body={"session_id": sid})
        reads = [await _asgi_http(app, "GET", path)]
        if "/" not in sid:
            reads.append(await _asgi_http(app, "GET", path, with_raw_path=False))
        return created, reads

    created, reads = asyncio.run(over_asgi())
    assert created[0] == 201
    for status, _, body in reads:
        assert (status, json.loads(body)["session_id"]) == (200, sid)


# -- incremental NC reads -------------------------------------------------------

NON_UNIFORM_NC = (
    "Algorithm NC (§3) requires uniform densities; "
    "use simulate_nc_general for the non-uniform case"
)


@st.composite
def _nc_session_scripts(draw):
    """One NC session's requests: arrival batches of 1-4 jobs (releases on a
    grid, so ties are common, with ids in random order), each followed by up
    to two reads of ``/metrics``, ``/schedule`` or ``/gantt`` or a restart
    that restores the session from its journal."""
    n = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations(range(n)))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.25]), min_size=n, max_size=n))
    vols = draw(
        st.lists(st.floats(min_value=0.05, max_value=6.0, allow_nan=False), min_size=n, max_size=n)
    )
    rho = draw(st.sampled_from([1.0, 3.0]))
    jobs = [Job(ids[i], sum(steps[: i + 1]), vols[i], rho) for i in range(n)]
    script: list = []
    i = 0
    while i < n:
        k = draw(st.integers(min_value=1, max_value=4))
        script.append(jobs[i : i + k])
        i += k
        script += draw(
            st.lists(st.sampled_from(["metrics", "schedule", "gantt", "restart"]), max_size=2)
        )
    return script


def _nc_reads_match_fresh_runs(script, journal_dir) -> None:
    power = PowerLaw(ALPHA)
    sent: list[Job] = []

    def open_client(restore: bool) -> TestClient:
        manager = SessionManager(journal_dir=journal_dir)
        client = TestClient(create_app(manager))
        client.__enter__()
        if restore:
            report = client._loop.run_until_complete(manager.restore())
            assert report.restored == ["s"] and not report.skipped
        return client

    client = open_client(restore=False)
    try:
        client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
        for step in script:
            if step == "restart":
                client.close()  # suspends the session; its journal stays
                client = open_client(restore=True)
                continue
            if isinstance(step, list):
                chunk = [
                    {"id": j.job_id, "release": j.release, "volume": j.volume, "density": j.density}
                    for j in step
                ]
                resp = client.post("/sessions/s/jobs", json_body={"jobs": chunk})
                assert resp.status_code == 202, resp.json()
                sent += step
                continue
            resp = client.get(f"/sessions/s/{step}", query="width=40" if step == "gantt" else "")
            assert resp.status_code == 200, resp.json()
            body = resp.json()
            inst = Instance(sent)
            fresh = simulate_nc_uniform(inst, power)
            if step == "metrics":
                want = evaluate(fresh.schedule, inst, power)
                got = ReportModel.model_validate(body["report"])
                assert body["n_jobs"] == len(sent)
                assert got.to_report() == want
                assert list(got.completion_times.items()) == list(want.completion_times.items())
                assert got.energy == want.energy
                assert got.fractional_flow == want.fractional_flow
                assert got.integral_flow == want.integral_flow
            elif step == "schedule":
                via_api = ScheduleModel.model_validate(body["schedule"]).to_schedule()
                assert list(via_api) == list(fresh.schedule)
            else:
                assert body["chart"] == gantt_chart(fresh.schedule, width=40)
                assert body["end_time"] == fresh.schedule.end_time
    finally:
        client.close()


@given(script=_nc_session_scripts())
@settings(max_examples=30, deadline=None)
def test_nc_reads_equal_fresh_runs(script):
    """Every NC read — through batches, tied releases in any id order,
    interleaved reads and journal restarts — equals a fresh
    ``simulate_nc_uniform`` + ``evaluate`` of the arrivals so far, float for
    float, although the session extends one run instead of re-simulating."""
    with tempfile.TemporaryDirectory() as tmp:
        _nc_reads_match_fresh_runs(script, Path(tmp))


def test_nc_reread_is_identical_and_counts_nothing(client):
    inst = random_instance(12, seed=5, density="unit")
    client.post("/sessions", json_body={"session_id": "s", "alpha": ALPHA})
    _feed(client, "s", inst)
    first = client.get("/sessions/s/metrics")
    assert first.status_code == 200
    assert client.get("/sessions/s/schedule").status_code == 200
    assert client.get("/sessions/s/gantt").status_code == 200
    again = client.get("/sessions/s/metrics")
    # Same body, counters included: the reads in between ran no NC pass.
    assert again.body == first.body
    _feed(client, "s", Instance([Job(99, inst.max_release + 1.0, 1.0)]))
    grown = client.get("/sessions/s/metrics").json()
    assert grown["n_jobs"] == len(inst) + 1
    assert grown["counters"] != json.loads(first.body)["counters"]


def test_nc_read_of_nonuniform_session_is_409(client):
    client.post("/sessions", json_body={"session_id": "s"})
    client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 0, "release": 0.0, "volume": 1.0, "density": 2.0}]},
    )
    assert client.get("/sessions/s/metrics").status_code == 200
    client.post(
        "/sessions/s/jobs",
        json_body={"jobs": [{"id": 1, "release": 0.5, "volume": 1.0, "density": 1.0}]},
    )
    for path in ("metrics", "schedule", "gantt", "metrics"):
        resp = client.get(f"/sessions/s/{path}")
        assert resp.status_code == 409
        assert resp.json()["detail"] == NON_UNIFORM_NC


# -- future-t speeds ---------------------------------------------------------------


@st.composite
def _speed_scripts(draw):
    """Arrival batches with mixed densities and tied releases, each followed
    by reads at the session clock and at offsets beyond it."""
    n = draw(st.integers(min_value=1, max_value=12))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]), min_size=n, max_size=n))
    vols = draw(st.lists(st.sampled_from([0.2, 0.7, 1.0, 3.0]), min_size=n, max_size=n))
    dens = draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=n, max_size=n))
    jobs = [Job(i, sum(steps[: i + 1]), vols[i], dens[i]) for i in range(n)]
    script: list = []
    i = 0
    while i < n:
        k = draw(st.integers(min_value=1, max_value=3))
        script.append(jobs[i : i + k])
        i += k
        script += draw(st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.4, 2.0, 50.0]), max_size=3))
    return script


@given(script=_speed_scripts())
@settings(max_examples=40, deadline=None)
def test_future_speeds_equal_a_replay(script):
    """``GET /speeds?t=`` beyond the clock, answered from a fork of the live
    shadow, equals a fresh replay of every arrival advanced to ``t``."""
    power = PowerLaw(ALPHA)

    async def drive():
        manager = SessionManager()
        session = await manager.create_session(SessionCreateRequest(session_id="s", alpha=ALPHA))
        sent: list[Job] = []
        for step in script:
            if isinstance(step, list):
                await session.submit(step)
                sent += step
                continue
            if not sent:
                continue
            t = session.clock + step
            view = await session.speeds(t)
            replay = SimulationContext(power).shadow()
            for j in sent:
                replay.insert_job(j.job_id, j.release, j.density, j.volume)
                replay.advance(j.release)
            replay.advance(t)
            assert view["remaining_weight"] == replay.remaining_weight()
            assert view["active"] == replay.remaining_items()
        assert session.clock == max(j.release for j in sent)

    asyncio.run(drive())


# -- journal damage ----------------------------------------------------------------


def _journal_bytes(tmp: Path, sink: str) -> bytes:
    async def drive():
        manager = SessionManager(journal_dir=tmp, journal_sink=sink)
        session = await manager.create_session(SessionCreateRequest(session_id="s", alpha=ALPHA))
        for i in range(3):
            await session.submit([Job(i, float(i), 1.0 + i, 1.0)])
        await manager.shutdown()

    asyncio.run(drive())
    return journal_path(tmp, "s").read_bytes()


@pytest.mark.parametrize("sink", ["plain", "gzip"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_read_journal_survives_any_byte_damage(sink, data):
    """Whatever bytes of a real journal are overwritten, ``read_journal``
    returns records or raises ``JournalCorruption`` — nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = bytearray(_journal_bytes(Path(tmp), sink))
        hits = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                min_size=1,
                max_size=4,
            )
        )
        for pos, byte in hits:
            raw[pos] = byte
        path = Path(tmp) / "damaged.journal.jsonl"
        path.write_bytes(bytes(raw))
        try:
            records = read_journal(path)
        except JournalCorruption:
            return
        assert all(isinstance(r, dict) for r in records)


def test_session_shadow_forgets_completed_jobs():
    async def drive():
        session = await SessionManager().create_session(
            SessionCreateRequest(session_id="s", alpha=ALPHA)
        )
        await session.submit([Job(0, 0.0, 1.0, 1.0), Job(1, 10.0, 1.0, 2.0)])
        # Job 0 completed long before t = 10: the shadow keeps only job 1,
        # and the session still knows job 0's id.
        assert session.shadow.remaining_items() == [(1, 2.0, 1.0)]
        assert set(session.shadow._rho) == {1}
        with pytest.raises(SimulationError, match="already known"):
            await session.submit([Job(0, 10.0, 1.0, 1.0)])

    asyncio.run(drive())


def test_session_ids_must_fit_a_journal_file_name(tmp_path):
    """Percent-encoded, with a rotated segment's suffix, an id must fit a
    255-byte file name; a longer one is a 422 for every session, journaled
    or not, and leaves no journal behind."""
    fits = "é" * 39 + "a"  # 235 bytes encoded: 255 with ".journal.00000.jsonl"
    manager = SessionManager(journal_dir=tmp_path, journal_sink="rotate:2")
    with TestClient(create_app(manager)) as client:
        assert client.post("/sessions", json_body={"session_id": fits}).status_code == 201
        for k in range(3):
            job = {"id": k, "release": float(k), "volume": 1.0, "density": 1.0}
            resp = client.post(f"/sessions/{quote(fits, safe='')}/jobs", json_body={"jobs": [job]})
            assert resp.status_code == 202
        for sid in (fits + "b", "é" * 41):
            resp = client.post("/sessions", json_body={"session_id": sid})
            assert resp.status_code == 422
            assert "at most 235 fit a 255-byte journal file name" in resp.json()["detail"]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [f"{quote(fits, safe='')}.journal.{i:05d}.jsonl" for i in range(2)]
    assert max(len(n.encode()) for n in names) == 255
    with TestClient(create_app()) as client:
        resp = client.post("/sessions", json_body={"session_id": "é" * 41})
        assert resp.status_code == 422


def test_os_error_500_does_not_echo_a_path(tmp_path):
    journal_dir = tmp_path / "journals"
    manager = SessionManager(journal_dir=journal_dir)
    journal_dir.rmdir()
    journal_dir.write_text("not a directory")
    with TestClient(create_app(manager)) as client:
        resp = client.post("/sessions", json_body={"session_id": "s"})
    assert resp.status_code == 500
    assert resp.json() == {"detail": "NotADirectoryError: Not a directory"}


def test_restore_quarantines_a_non_utf8_journal(tmp_path):
    async def drive():
        manager = SessionManager(journal_dir=tmp_path)
        for sid in ("a", "b", "c"):
            session = await manager.create_session(
                SessionCreateRequest(session_id=sid, alpha=ALPHA)
            )
            await session.submit([Job(0, 0.0, 1.0, 1.0)])
        await manager.shutdown()

    asyncio.run(drive())
    path = journal_path(tmp_path, "b")
    raw = bytearray(path.read_bytes())
    raw[5] = 0xFF  # inside the first record: interior damage, not a torn tail
    path.write_bytes(bytes(raw))
    fresh = SessionManager(journal_dir=tmp_path)
    report = asyncio.run(fresh.restore())
    assert report.restored == ["a", "c"]
    assert list(report.skipped) == ["b"] and "malformed" in report.skipped["b"]


def test_non_utf8_torn_tail_is_dropped(tmp_path):
    path = journal_path(tmp_path, "s")
    journal = SessionJournal(path)
    journal.append({"record": "session_create", "session": "s", "request": {"alpha": 3.0}})
    journal.close()
    with path.open("ab") as fh:
        fh.write(b'{"body": "\xe2\x82')  # a write cut inside a UTF-8 sequence
    assert [r["record"] for r in read_journal(path)] == ["session_create"]
