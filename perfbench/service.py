"""The ``service-stream`` workload: a real ``repro serve`` under open-loop load.

The benchmark first journals ``PREFILL_SESSIONS`` NC sessions through the
package's own :class:`~repro.service.sessions.SessionManager`, so every
server start below is a cold restore.  It then starts ``python -m repro
serve --journal-dir ...`` as a subprocess and drives it from this process
over TCP with at most ``LANES`` connections in flight.

The client is an open loop: request times are drawn up front (Poisson at a
fixed offered rate) and each request's latency is measured from its
*scheduled* send time, so a stall also charges the requests queued behind
it.  Requests alternate between lanes; each lane owns its sessions, so the
arrivals of one session are always sent in release order.  Each session
streams 50 to 200 single-job arrivals (``POST /jobs``), each followed by a
speed read (``GET /speeds``), and every 10th arrival by a full metrics read
(``GET /metrics``, which re-simulates the session).

A run first keeps both connections busy (a closed loop) to measure
throughput and server CPU per job, then restarts the server and measures
a heavy phase and a light phase at fixed offered rates, then searches for
the highest rate whose all-class p99 stays within ``CEILING_MS`` without a
growing backlog.  At the end, every session's
``GET /metrics`` must equal a direct ``simulate_nc_uniform`` plus
``evaluate`` over the arrivals the server acknowledged.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import common

#: Offered rates (requests/s, all classes).  HEAVY is ~70% of the capacity
#: the seed commit measured on a 2-core x86-64 host (~930 req/s); LIGHT
#: is ~20%.
HEAVY_RPS = 650.0
LIGHT_RPS = 200.0
#: The service's latency ceiling on the all-class p99.
CEILING_MS = 25.0
LANES = 2
METRICS_EVERY = 10
#: Arrivals per session, 50 to 200.
SESSION_LENGTHS = (50, 71, 93, 114, 136, 157, 179, 200)
PREFILL_SESSIONS = 40
PREFILL_ARRIVALS = 100
#: Restored sessions whose metrics are also checked at the end of a run.
RESTORED_CHECKED = 5
SETUP_REPS = 3
#: Fewest requests in a fixed-rate phase (the light p99 needs 10 beyond).
MIN_PHASE_REQUESTS = 1100
#: Requests per capacity probe (p99 then has 12 samples beyond it).
PROBE_REQUESTS = 1200
#: Capacity bracket growth factor and bisection steps after bracketing:
#: the search resolves to 1.5 ** (1 / 2**4) - 1 = 2.6% of the rate.
BRACKET = 1.5
BISECT_STEPS = 4
MAX_PROBES = 12
#: The search never offers less than this (the light rate), which bounds
#: its duration; a failure there reports this floor.
MIN_PROBE_RPS = LIGHT_RPS
#: A phase is invalid if the generator itself sent late: p99 of the delay
#: between when a request was due (and its lane free) and when it left.
GENERATOR_LATE_MS = 5.0
REQUEST_TIMEOUT_S = 10.0
#: A phase gives up (failing what it has not sent) this long after three
#: times its scheduled length, so a stuck server cannot stall the run.
PHASE_SLACK_S = 30.0
#: The closed-loop phase: chunks of requests; the bounded metrics are
#: quartiles over the chunks (see ``measure``).
SATURATION_CHUNKS = 7
SATURATION_REQUESTS = 1000
#: Requests in the fixed heavy schedule of a traced run.
TRACE_REQUESTS = 6000


# -- HTTP ------------------------------------------------------------------------


def _encode(method: str, path: str, body: bytes | None) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
    if body is not None:
        head += f"content-type: application/json\r\ncontent-length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + (body or b"")


def _decode(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


async def http(port: int, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_encode(method, path, body))
        raw = await reader.read()
    finally:
        writer.close()
    return _decode(raw)


def http_sync(port: int, method: str, path: str, body: bytes | None = None,
              timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(_encode(method, path, body))
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _decode(b"".join(chunks))


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- the server process ----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on a journal directory."""

    def __init__(self, work: Path, journal_dir: Path, spans_out: Path | None = None) -> None:
        self.work = work
        self.journal_dir = journal_dir
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.health: dict = {}
        self._starts = 0

    def start(self) -> float:
        """Start and wait until ``/health`` answers; returns the seconds
        from spawn to ready (interpreter start, imports, journal restore)."""
        self.port = free_port()
        serve_args = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                      "--journal-dir", str(self.journal_dir)]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                   str(self.spans_out), *serve_args]
        self._starts += 1
        log = open(self.work / f"server-{self._starts}.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     env=common.child_env())
        log.close()
        deadline = t0 + 120.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} during start")
            try:
                status, body = http_sync(self.port, "GET", "/health", timeout=5.0)
                if status == 200:
                    self.health = json.loads(body)
                    return time.perf_counter() - t0
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready in 120 s")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (drain, flush journals, write spans), then wait."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


# -- inputs ------------------------------------------------------------------------


@dataclass
class Req:
    cls: str
    method: str
    path: str
    body: bytes | None
    session: str
    row: tuple | None = None


class Lane:
    """One connection slot and the sessions it streams, seeded."""

    def __init__(self, seed: int, index: int) -> None:
        self.index = index
        self.rng = random.Random(f"{seed}:service-stream:lane{index}")
        #: session id -> acknowledged job rows
        self.sessions: dict[str, list[tuple]] = {}
        self._requests = self._generate()

    def _lengths(self):
        """Session lengths: each cycle is a seeded shuffle of the same eight
        lengths, so every seed offers the same mix of cheap short and
        expensive long sessions (a metrics read re-simulates its session)."""
        while True:
            cycle = list(SESSION_LENGTHS)
            self.rng.shuffle(cycle)
            yield from cycle

    def _generate(self):
        lengths = self._lengths()
        k = 0
        while True:
            sid = f"lane{self.index}-{k:05d}"
            k += 1
            create = {"session_id": sid, "alpha": common.ALPHA, "algorithm": "NC"}
            yield Req("create", "POST", "/sessions", json.dumps(create).encode(), sid)
            release = 0.0
            for a in range(1, next(lengths) + 1):
                release += self.rng.expovariate(1.0)
                row = (a, release, self.rng.uniform(0.2, 2.0), 1.0)
                body = {"jobs": [{"id": a, "release": release, "volume": row[2]}]}
                yield Req("submit", "POST", f"/sessions/{sid}/jobs",
                          json.dumps(body).encode(), sid, row)
                yield Req("speeds", "GET", f"/sessions/{sid}/speeds", None, sid)
                if a % METRICS_EVERY == 0:
                    yield Req("metrics", "GET", f"/sessions/{sid}/metrics", None, sid)

    def next(self) -> Req:
        return next(self._requests)


def prefill_rows(seed: int) -> dict[str, list[tuple]]:
    rng = random.Random(f"{seed}:service-stream:prefill")
    out = {}
    for k in range(PREFILL_SESSIONS):
        rows = common.job_rows(PREFILL_ARRIVALS, rng, uniform=True)
        out[f"pre-{k:03d}"] = [(i + 1, r, v, d) for i, r, v, d in rows]
    return out


def prefill(journal_dir: Path, sessions: dict[str, list[tuple]]) -> None:
    """Journal the sessions through the package's own session manager, one
    single-job batch per arrival, as the HTTP path would."""
    from repro.core.job import Job
    from repro.service.models import SessionCreateRequest
    from repro.service.sessions import SessionManager

    async def _fill() -> None:
        manager = SessionManager(journal_dir=journal_dir)
        for sid, rows in sessions.items():
            session = await manager.create_session(
                SessionCreateRequest(session_id=sid, alpha=common.ALPHA, algorithm="NC")
            )
            for row in rows:
                await session.submit([Job(*row)])
        await manager.shutdown()

    asyncio.run(_fill())


# -- the open-loop client -----------------------------------------------------------


@dataclass
class Record:
    cls: str
    latency: float  # done - scheduled
    service: float  # done - sent
    late: float  # sent - max(scheduled, lane free): the generator's own delay
    ok: bool


@dataclass
class Phase:
    name: str
    rate: float
    records: list[Record] = field(default_factory=list)
    wall_s: float = 0.0

    def latencies_ms(self, cls: str | None = None) -> list[float]:
        return [r.latency * 1e3 for r in self.records if cls is None or r.cls == cls]

    def stats(self) -> dict:
        lat = self.latencies_ms()
        n = len(lat)
        quarter = max(1, n // 4)
        first = statistics.median(lat[:quarter]) if lat else math.nan
        last = statistics.median(lat[-quarter:]) if lat else math.nan
        late = [r.late * 1e3 for r in self.records]
        return {
            "rate_rps": self.rate,
            "requests": n,
            "failed": sum(not r.ok for r in self.records),
            "all_p50_ms": common.percentile(lat, 0.50),
            "all_p99_ms": common.percentile(lat, 0.99),
            "backlog_growing": last > 2.0 * first + 2.0,
            "generator_late_p50_ms": common.percentile(late, 0.50),
            "generator_late_p99_ms": common.percentile(late, 0.99),
            "generator_behind": common.percentile(late, 0.99) > GENERATOR_LATE_MS,
            "wall_s": self.wall_s,
        }

    def passes(self) -> bool:
        st = self.stats()
        return (
            st["failed"] == 0
            and st["all_p99_ms"] <= CEILING_MS
            and not st["backlog_growing"]
            and not st["generator_behind"]
        )


async def _lane_loop(port: int, lane: Lane, items: list[tuple[float | None, Req]],
                     phase: Phase, deadline: float) -> None:
    lane_free = 0.0
    for t_sched, req in items:
        if time.perf_counter() > deadline:  # a stuck server: fail the rest unsent
            phase.records.append(Record(req.cls, math.inf, math.inf, 0.0, False))
            continue
        if t_sched is None:  # closed loop: due as soon as the lane is free
            t_sched = time.perf_counter()
        delay = t_sched - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        t_send = time.perf_counter()
        try:
            status, _ = await asyncio.wait_for(
                http(port, req.method, req.path, req.body), REQUEST_TIMEOUT_S
            )
            ok = 200 <= status < 300
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            ok = False
        t_done = time.perf_counter()
        phase.records.append(
            Record(req.cls, t_done - t_sched, t_done - t_send,
                   t_send - max(t_sched, lane_free), ok)
        )
        lane_free = t_done
        if ok and req.cls == "create":
            lane.sessions[req.session] = []
        elif ok and req.row is not None:
            lane.sessions[req.session].append(req.row)


def run_phase(port: int, lanes: list[Lane], name: str, rate: float | None, count: int,
              rng: random.Random) -> Phase:
    """Offer ``count`` requests at ``rate`` (Poisson) and wait for all;
    ``rate=None`` is a closed loop that keeps every lane busy."""
    gaps = [rng.expovariate(rate) if rate else None for _ in range(count)]
    per_lane: list[list[tuple[float | None, Req]]] = [[] for _ in lanes]
    phase = Phase(name, rate or 0.0)

    async def _run() -> None:
        t = time.perf_counter() + 0.01
        for k, gap in enumerate(gaps):
            if gap is not None:
                t += gap
            lane = k % len(lanes)
            per_lane[lane].append((t if gap is not None else None, lanes[lane].next()))
        t0 = time.perf_counter()
        deadline = t0 + PHASE_SLACK_S + (sum(gaps) if rate else 0.0) * 3.0
        await asyncio.gather(*(
            _lane_loop(port, lane, items, phase, deadline)
            for lane, items in zip(lanes, per_lane)
        ))
        phase.wall_s = time.perf_counter() - t0

    asyncio.run(_run())
    return phase


def saturate(server: Server, lanes: list[Lane], rng: random.Random) -> list[dict]:
    """The closed-loop phase, chunk by chunk: per chunk the submitted jobs
    per second and the server's CPU time per submitted job.

    Unlike the batch workloads these are not scaled by ``host_ref_s``: the
    client and the server run on different cores, and a reading taken in
    the client does not follow the server's core (scaling widened the
    spread between runs from 6% to 16%)."""
    chunks = []
    for _ in range(SATURATION_CHUNKS):
        cpu0 = common.cpu_seconds(server.pid)
        phase = run_phase(server.port, lanes, "saturation", None, SATURATION_REQUESTS, rng)
        cpu = common.cpu_seconds(server.pid) - cpu0
        jobs = max(1, sum(1 for r in phase.records if r.cls == "submit" and r.ok))
        chunks.append({
            "stats": phase.stats(),
            "requests_per_s": len(phase.records) / phase.wall_s,
            "jobs_per_s": jobs / phase.wall_s,
            "cpu_ms_per_job": cpu * 1e3 / jobs,
        })
    return chunks


def class_stats(phase: Phase) -> dict:
    out = {}
    for cls in ("submit", "speeds", "metrics", "create"):
        lat = phase.latencies_ms(cls)
        out[cls] = {
            "n": len(lat),
            "p50_ms": common.percentile(lat, 0.50),
            "p90_ms": common.percentile(lat, 0.90),
            "p99_ms": common.percentile(lat, 0.99),
        }
    return out


def capacity_search(
    port: int, lanes: list[Lane], heavy: Phase, rng: random.Random
) -> tuple[float, list[dict]]:
    """Highest offered rate that passes (see :meth:`Phase.passes`).

    The heavy phase is the first probe.  The bracket then grows or shrinks
    by ``BRACKET`` until it straddles the limit, and is bisected
    geometrically ``BISECT_STEPS`` times."""
    probes = [heavy.stats()]

    def probe(rate: float) -> bool:
        phase = run_phase(port, lanes, "probe", rate, PROBE_REQUESTS, rng)
        probes.append(phase.stats())
        return phase.passes()

    if heavy.passes():
        lo, hi = heavy.rate, heavy.rate * BRACKET
        while len(probes) < MAX_PROBES and probe(hi):
            lo, hi = hi, hi * BRACKET
    else:
        lo, hi = max(MIN_PROBE_RPS, heavy.rate / BRACKET), heavy.rate
        while len(probes) < MAX_PROBES and lo > MIN_PROBE_RPS and not probe(lo):
            lo, hi = max(MIN_PROBE_RPS, lo / BRACKET), lo
    for _ in range(BISECT_STEPS):
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


# -- correctness -------------------------------------------------------------------


def check_sessions(
    port: int, sessions: dict[str, list[tuple]], phase: Phase | None
) -> tuple[int, int, dict, list[str]]:
    """``GET /metrics`` of each session against a direct simulation.

    Returns (attempted, failed, summed shadow counters, error messages)."""
    from repro.algorithms.nc_uniform import simulate_nc_uniform
    from repro.core.job import Instance, Job
    from repro.core.metrics import evaluate
    from repro.core.power import PowerLaw

    power = PowerLaw(common.ALPHA)
    attempted = failed = 0
    counters: dict[str, int] = {}
    errors: list[str] = []
    for sid, rows in sessions.items():
        if not rows:
            continue
        attempted += 1
        t0 = time.perf_counter()
        try:
            status, body = http_sync(port, "GET", f"/sessions/{sid}/metrics")
        except OSError as exc:
            failed += 1
            errors.append(f"{sid}: {exc}")
            continue
        if phase is not None:
            dt = time.perf_counter() - t0
            phase.records.append(Record("metrics", dt, dt, 0.0, status == 200))
        if status != 200:
            failed += 1
            errors.append(f"{sid}: HTTP {status}")
            continue
        got = json.loads(body)
        inst = Instance(Job(*row) for row in rows)
        want = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power)
        report = got["report"]
        same = (
            got["n_jobs"] == len(rows)
            and report["energy"] == want.energy
            and report["fractional_flow"] == want.fractional_flow
            and report["integral_flow"] == want.integral_flow
            and {int(k): v for k, v in report["completion_times"].items()}
            == want.completion_times
        )
        if not same:
            failed += 1
            errors.append(f"{sid}: metrics differ from a direct simulation")
        for key, value in got["counters"].items():
            counters[key] = counters.get(key, 0) + int(value)
    return attempted, failed, counters, errors


def journal_counts(journal_dir: Path) -> dict[str, int]:
    files = sorted(p for p in journal_dir.iterdir() if p.is_file())
    appends = 0
    for p in files:
        with p.open("rb") as fh:
            appends += sum(1 for _ in fh)
    return {
        "journal.files": len(files),
        "journal.appends": appends,
        "journal.bytes": sum(p.stat().st_size for p in files),
    }


# -- the workload ------------------------------------------------------------------


def _prepare(seed: int, work: Path) -> tuple[Path, dict[str, list[tuple]]]:
    pre = prefill_rows(seed)
    journal_dir = work / "journals-prefill"
    prefill(journal_dir, pre)
    return journal_dir, pre


def _restored_sample(seed: int, pre: dict[str, list[tuple]]) -> dict[str, list[tuple]]:
    rng = random.Random(f"{seed}:service-stream:check")
    return {sid: pre[sid] for sid in sorted(rng.sample(sorted(pre), RESTORED_CHECKED))}


def _all_sessions(lanes: list[Lane]) -> dict[str, list[tuple]]:
    out: dict[str, list[tuple]] = {}
    for lane in lanes:
        out.update(lane.sessions)
    return out


def measure(seed: int, seconds: float, work: Path) -> dict:
    journal_dir, pre = _prepare(seed, work)
    server = Server(work, journal_dir)
    setups = []
    attempted = failed = 0
    errors: list[str] = []
    try:
        for rep in range(SETUP_REPS):
            setups.append(server.start())
            restored = server.health.get("restore", {}).get("restored")
            attempted += 1
            if restored != PREFILL_SESSIONS:
                failed += 1
                errors.append(f"start {rep}: restored {restored} of {PREFILL_SESSIONS} sessions")
            if rep < SETUP_REPS - 1:
                server.stop()

        lanes = [Lane(seed, i) for i in range(LANES)]
        rng = random.Random(f"{seed}:service-stream:schedule")
        chunks = saturate(server, lanes, rng)
        # Every request is a new connection.  In a 24k-request closed-loop
        # trial throughput halved after ~18k connections to one server port,
        # so the latency phases get a restarted server on a fresh port (the
        # sessions so far restored from their journals), and no server sees
        # more than ~16k connections.
        server.stop()
        restart_s = server.start()
        heavy_n = max(MIN_PHASE_REQUESTS, int(HEAVY_RPS * seconds * 0.3))
        light_n = max(MIN_PHASE_REQUESTS, int(LIGHT_RPS * seconds * 0.3))
        heavy = run_phase(server.port, lanes, "heavy", HEAVY_RPS, heavy_n, rng)
        light = run_phase(server.port, lanes, "light", LIGHT_RPS, light_n, rng)
        max_rate, probes = capacity_search(server.port, lanes, heavy, rng)

        sessions = {**_all_sessions(lanes), **_restored_sample(seed, pre)}
        c_att, c_fail, counters, c_err = check_sessions(server.port, sessions, None)
        peak_rss = common.vm_hwm_mb(server.pid)
    finally:
        server.stop()

    heavy_st, light_st = heavy.stats(), light.stats()
    per_class = class_stats(heavy)
    phases = [heavy_st, light_st, *probes[1:], *(c["stats"] for c in chunks)]
    attempted += sum(st["requests"] for st in phases) + c_att
    failed += sum(st["failed"] for st in phases) + c_fail
    errors += c_err
    # Reasons the latency percentiles of this run cannot be trusted.  The
    # result line's metrics do not depend on them: they come from the
    # closed-loop phase.
    latency_invalid = []
    for st in (heavy_st, light_st):
        if st["generator_behind"]:
            latency_invalid.append(f"generator fell behind in a fixed-rate phase ({st})")
    need = {
        "submit p99": (per_class["submit"]["n"], 0.99),
        "speeds p99": (per_class["speeds"]["n"], 0.99),
        "metrics p90": (per_class["metrics"]["n"], 0.90),
        "light p99": (light_st["requests"], 0.99),
    }
    for what, (n, q) in need.items():
        if common.beyond(n, q) < 10:
            latency_invalid.append(f"{what}: only {common.beyond(n, q)} samples beyond it")
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "latency_invalid": latency_invalid,
        "setup_samples_s": setups,
        "setup_s": statistics.median(setups),
        "restart_s": restart_s,
        "peak_rss_mb": peak_rss,
        "heavy": heavy_st,
        "light": light_st,
        "per_class_heavy": per_class,
        "probes": probes,
        "saturation_chunks": chunks,
        "max_rate_rps": max_rate,
        "saturation_rps": statistics.median(c["requests_per_s"] for c in chunks),
        # The host toggles between a fast and a slow state for seconds at a
        # time (chunks of one run read ~600 or ~950 jobs/s).  A median over
        # 7 chunks flips with the share of fast chunks; the lower quartile
        # (the rate sustained in 3 of 4 chunks) follows the slow state that
        # every run meets.  Likewise the upper quartile of CPU per job.
        "jobs_per_s": statistics.quantiles([c["jobs_per_s"] for c in chunks], n=4)[0],
        "cpu_ms_per_job": statistics.quantiles([c["cpu_ms_per_job"] for c in chunks], n=4)[2],
        "counts": {
            "sessions_checked": c_att,
            "requests_heavy": heavy_st["requests"],
            **{f"shadow.{k}": v for k, v in counters.items()},
            **journal_counts(journal_dir),
        },
    }


def trace(seed: int, work: Path) -> dict:
    """The fixed heavy schedule against an untraced server, then against a
    traced one (``serve_traced.py``), each on a fresh copy of the prefilled
    journals; the traced server's spans are read back after SIGTERM."""
    journal_dir, pre = _prepare(seed, work)
    results = {}
    attempted = failed = 0
    errors: list[str] = []
    for traced in (False, True):
        jdir = work / f"journals-{'traced' if traced else 'plain'}"
        shutil.copytree(journal_dir, jdir)
        spans_out = work / "server-spans.json" if traced else None
        server = Server(work, jdir, spans_out)
        try:
            server.start()
            lanes = [Lane(seed, i) for i in range(LANES)]
            rng = random.Random(f"{seed}:service-stream:schedule")
            phase = run_phase(server.port, lanes, "heavy", HEAVY_RPS, TRACE_REQUESTS, rng)
            st = phase.stats()
            mean_service_ms = 1e3 * statistics.fmean(r.service for r in phase.records)
            sessions = {**_all_sessions(lanes), **_restored_sample(seed, pre)}
            c_att, c_fail, counters, c_err = check_sessions(
                server.port, sessions, phase if traced else None
            )
        finally:
            server.stop()
        attempted += st["requests"] + c_att
        failed += st["failed"] + c_fail
        errors += c_err
        client_s = {
            cls: sum(r.service for r in phase.records if r.cls == cls)
            for cls in ("submit", "speeds", "metrics", "create")
        }
        results["traced" if traced else "untraced"] = {
            "stats": st,
            "mean_service_ms": mean_service_ms,
            "client_service_s": client_s,
            "counters": counters,
            "journal": journal_counts(jdir),
        }
        if traced:
            results["server"] = json.loads(spans_out.read_text())
    return {"attempted": attempted, "failed": failed, "errors": errors[:5], **results}

