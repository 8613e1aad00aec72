"""Multi-tenant scheduling sessions and sharded campaigns.

A :class:`Session` is the non-clairvoyant model made operational: jobs
arrive over time with unknown-to-the-algorithm sizes, streamed in batches
of at most ``queue_limit`` (the backpressure boundary), and the session
answers live queries — current speeds from an incrementally-advanced
:class:`~repro.core.shadow.ClairvoyantShadow`, full schedules/metrics/Gantt
data from the session's algorithm over the arrivals received so far (for
NC, one :class:`~repro.algorithms.nc_uniform.NCUniformRunner` extended by
the arrivals since the last read; C and NC-general re-run), and verified
reports that replay a traced (C, NC) pair through the streaming Lemma 3/4
verifier.

Concurrency model: every session owns one ``asyncio.Lock``; all state
mutation (arrivals into the shadow, schedule computation) happens under
it, so interleaved requests against different sessions never share mutable
state and interleaved requests against one session serialize.  Determinism
is the contract the differential tests pin: a session fed jobs through the
API yields schedules **bit-identical** to driving the same instance through
:class:`~repro.core.shadow.SimulationContext` directly.

Tracing: a session created with ``trace_path`` routes every shadow/algorithm
event through a per-session :class:`~repro.core.tracing.JsonlRecorder`
(any ``plain | gzip | rotate:N`` sink).  :meth:`Session.close` — reached by
``DELETE``, manager shutdown, or server stop — flushes and closes the sink,
so traces survive any graceful exit path.

Durability: a manager created with ``journal_dir`` write-ahead journals
every session (create request + each committed arrival batch, canonical
JSON + SHA-256 per line, flushed *before* the submit ack) through
:class:`~repro.service.journal.SessionJournal`.  After a crash,
:meth:`SessionManager.restore` replays each journal through the normal
``create``/``submit`` drive — because the simulators are deterministic and
NC needs only released weights, the restored session's speeds, schedules,
metrics, and verified reports are **bit-identical** to an uninterrupted
twin's.  The store is bounded: ``max_sessions`` caps admission (503 when
full), ``session_ttl``/``evict_lru`` evict idle sessions (journaling a
``session_evicted`` record; the id answers 410 Gone, distinct from 404),
``campaign_retention`` prunes finished campaigns (410 with the final status
summarized), and ``create_rate`` token-buckets session creation per client
key (429 with Retry-After).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..algorithms import ALGORITHMS, NCUniformRunner
from ..analysis.trace_report import TraceReport, build_report, trace_lemma_pair
from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance, Job
from ..core.metrics import CostReport, evaluate
from ..core.power import PowerLaw
from ..core.schedule import Schedule
from ..core.shadow import SimulationContext
from ..core.tracing import NULL_RECORDER, JsonlRecorder, MemoryRecorder, TraceRecorder
from .journal import (
    JournalCorruption,
    JournalError,
    JournalWriteAborted,
    SessionJournal,
    discover_journals,
    journal_path,
    read_journal,
)
from .models import CampaignRequest, SessionCreateRequest

__all__ = [
    "Backpressure",
    "SessionClosed",
    "SessionGone",
    "StoreFull",
    "CampaignPruned",
    "RateLimited",
    "TokenBucket",
    "RestoreReport",
    "Session",
    "Campaign",
    "SessionManager",
]


class Backpressure(Exception):
    """The arrival batch is larger than the session's queue limit."""

    def __init__(self, limit: int, batch: int) -> None:
        super().__init__(
            f"a batch of {batch} arrivals exceeds the session's queue limit of "
            f"{limit}; retry in batches of at most {limit}"
        )
        self.limit = limit
        self.batch = batch


class SessionClosed(Exception):
    """The session was closed; no further arrivals or queries."""


class SessionGone(Exception):
    """The session existed but was evicted (TTL/LRU) — 410, not 404."""

    def __init__(self, session_id: str, reason: str) -> None:
        super().__init__(
            f"session {session_id!r} was evicted ({reason}); its id is gone — "
            "create a new session to continue"
        )
        self.session_id = session_id
        self.reason = reason


class StoreFull(Exception):
    """The session store is at its admission limit — 503."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"session store is full ({limit} sessions); retry after a session "
            "closes or is evicted"
        )
        self.limit = limit


class CampaignPruned(Exception):
    """The campaign finished and was pruned past retention — 410 with its
    final status summarized."""

    def __init__(self, campaign_id: str, summary: dict[str, Any]) -> None:
        super().__init__(
            f"campaign {campaign_id!r} finished as {summary.get('state')!r} and "
            "was pruned past the retention window"
        )
        self.campaign_id = campaign_id
        self.summary = summary


class RateLimited(Exception):
    """The per-client session-create token bucket is empty — 429."""

    def __init__(self, client_key: str, retry_after: float) -> None:
        super().__init__(
            f"session-create rate limit exceeded for client {client_key!r}; "
            f"retry after {retry_after:.2f}s"
        )
        self.client_key = client_key
        self.retry_after = retry_after


class TokenBucket:
    """Per-key token buckets: ``burst`` capacity refilled at ``rate``/s.

    ``check(key)`` consumes one token and returns 0.0, or — when the bucket
    is empty — returns the seconds until a token accrues, consuming nothing.
    Deterministic under an injected ``clock`` (tests and the chaos campaign
    pass a fake one).
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: dict[str, tuple[float, float]] = {}  # key -> (tokens, at)

    def check(self, key: str) -> float:
        now = self._clock()
        tokens, at = self._buckets.get(key, (float(self.burst), now))
        tokens = min(float(self.burst), tokens + (now - at) * self.rate)
        if tokens >= 1.0:
            self._buckets[key] = (tokens - 1.0, now)
            return 0.0
        self._buckets[key] = (tokens, now)
        return (1.0 - tokens) / self.rate


@dataclass
class RestoreReport:
    """What :meth:`SessionManager.restore` found and did."""

    restored: list[str] = field(default_factory=list)
    closed: list[str] = field(default_factory=list)
    evicted: list[str] = field(default_factory=list)
    #: journals that failed integrity checks, quarantined: sid -> error
    skipped: dict[str, str] = field(default_factory=dict)


def _fifo_key(job: Job) -> tuple[float, int]:
    """Instance order, which is NC's FIFO order."""
    return job.release, job.job_id


class Session:
    """One live scheduling session (see module docstring).

    All public coroutines acquire :attr:`lock`; synchronous helpers prefixed
    ``_`` assume it is held.
    """

    def __init__(
        self,
        session_id: str,
        request: SessionCreateRequest,
    ) -> None:
        self.session_id = session_id
        #: the session's write-ahead journal, attached by the manager once
        #: the session is built (None when the manager does not journal).
        self.journal: SessionJournal | None = None
        self.algorithm = request.algorithm
        self.power = PowerLaw(request.alpha)
        self.max_step = request.max_step
        self.queue_limit = request.queue_limit
        self.recorder: TraceRecorder = (
            JsonlRecorder(request.trace_path, sink=request.sink)
            if request.trace_path
            else NULL_RECORDER
        )
        self.context = SimulationContext(self.power, recorder=self.recorder)
        self.context.emit(
            "run_meta",
            0.0,
            "service",
            alpha=request.alpha,
            session=session_id,
            algorithms=[request.algorithm],
        )
        #: Algorithm C's live state over the arrivals so far — the substrate
        #: of the speeds endpoint.  Advanced monotonically to each arrival's
        #: release, never rolled back.
        self.shadow = self.context.shadow(component="service.shadow")
        self.lock = asyncio.Lock()
        self.jobs: list[Job] = []
        self.jobs_accepted = 0
        #: the NC run over ``jobs[:_nc_fed]``, built by the first NC read
        self._nc: NCUniformRunner | None = None
        self._nc_fed = 0
        self.closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def clock(self) -> float:
        return self.shadow.clock

    @property
    def trace_paths(self) -> list[str]:
        rec = self.recorder
        return [str(p) for p in rec.paths] if isinstance(rec, JsonlRecorder) else []

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosed(f"session {self.session_id!r} is closed")

    async def close(
        self, *, record: bool = True, evict_reason: str | None = None
    ) -> None:
        """Flush and close the session's trace sink and journal; idempotent.

        ``record=True`` (explicit DELETE) journals a terminal
        ``session_close`` record, so a restart does not resurrect a
        deliberately closed session.  ``record=False`` (service shutdown) is
        *suspension*: the journal closes without a terminal record and the
        session restores on the next start.  ``evict_reason`` journals a
        ``session_evicted`` record instead and emits the matching trace
        event — the id answers 410 afterwards.
        """
        async with self.lock:
            if self.closed:
                return
            self.closed = True
            if evict_reason is not None:
                self.context.emit(
                    "session_evicted",
                    self.clock,
                    "service",
                    session=self.session_id,
                    reason=evict_reason,
                    jobs=self.jobs_accepted,
                )
            self.context.emit(
                "session_close",
                self.clock,
                "service",
                session=self.session_id,
                jobs=self.jobs_accepted,
            )
            if self.journal is not None:
                try:
                    if evict_reason is not None:
                        self.journal.append(
                            {
                                "record": "session_evicted",
                                "session": self.session_id,
                                "reason": evict_reason,
                            }
                        )
                    elif record:
                        self.journal.append(
                            {"record": "session_close", "session": self.session_id}
                        )
                finally:
                    self.journal.close()
            if isinstance(self.recorder, JsonlRecorder):
                self.recorder.close()

    # -- arrivals -------------------------------------------------------------

    async def submit(self, jobs: list[Job]) -> int:
        """Stream a batch of arrivals in; returns the number accepted.

        Batches are all-or-nothing: the whole batch is vetted under the lock
        *before* any state mutation — if it is longer than ``queue_limit``
        the request fails with :class:`Backpressure`, and if any member is
        out of order or a duplicate the request fails with
        :class:`~repro.core.errors.SimulationError` — and in both cases
        nothing is committed, so a corrected retry of the same batch
        succeeds (a partial admit would silently reorder arrivals relative
        to the client's retry).  An accepted batch commits within the
        request, so no arrival ever waits in a queue.
        """
        async with self.lock:
            self._check_open()
            if len(jobs) > self.queue_limit:
                raise Backpressure(self.queue_limit, len(jobs))
            self._validate_batch(jobs)
            if self.journal is not None:
                # Write-ahead: the batch is durable before anything mutates
                # and before the ack.  A journal failure (torn write) aborts
                # here — nothing committed, no ack.
                try:
                    self.journal.append(
                        {
                            "record": "arrival_batch",
                            "session": self.session_id,
                            "jobs": [
                                [j.job_id, j.release, j.volume, j.density]
                                for j in jobs
                            ],
                        }
                    )
                except JournalWriteAborted:
                    # The journal now ends in a torn line, exactly as a crash
                    # would leave it.  Appending more would turn that tear
                    # into interior corruption, so the session fails closed;
                    # recovery is :meth:`SessionManager.restore`, which drops
                    # the torn tail and replays the committed prefix.
                    self.closed = True
                    self.journal.close()
                    if isinstance(self.recorder, JsonlRecorder):
                        self.recorder.close()
                    raise
            self._commit(jobs)
        return len(jobs)

    def _validate_batch(self, jobs: list[Job]) -> None:
        """Reject a whole arrival batch before any mutation (lock held).

        Mirrors the shadow's own rejection rules — duplicate ids and
        releases behind the committed clock — plus in-batch release
        monotonicity, so :meth:`_commit` cannot fail partway through and
        leave a prefix of the batch committed.  Duplicates are checked
        against :attr:`jobs`, since the shadow forgets completed jobs.
        (Positive volumes/densities are already enforced by the pydantic
        layer and :class:`~repro.core.job.Job` itself.)
        """
        known = {j.job_id for j in self.jobs}
        clock = self.clock
        for job in jobs:
            if job.job_id in known:
                raise SimulationError(
                    f"job {job.job_id} already known to session "
                    f"{self.session_id!r}; batch rejected, nothing committed"
                )
            if job.release < clock:
                raise SimulationError(
                    f"job {job.job_id} released at {job.release}, before the "
                    f"session clock {clock}; arrivals must be streamed in "
                    "release order — batch rejected, nothing committed"
                )
            known.add(job.job_id)
            clock = job.release

    def _commit(self, jobs: list[Job]) -> None:
        """Move a vetted batch into the live shadow (lock held).

        Each arrival is revealed to Algorithm C's shadow and the session
        clock advances to its release — exactly the online order a fresh
        clairvoyant run would see, so session state stays bit-identical to a
        from-scratch simulation over the same prefix.  The shadow then drops
        what only its completed jobs needed: no read goes back in time.
        """
        for job in jobs:
            self.shadow.insert_job(job.job_id, job.release, job.density, job.volume)
            self.shadow.advance(job.release)
            self.jobs.append(job)
            self.jobs_accepted += 1
            self.context.emit(
                "arrival",
                job.release,
                "service",
                session=self.session_id,
                job=job.job_id,
                volume=job.volume,
                density=job.density,
            )
        self.shadow.forget_completed()

    # -- queries --------------------------------------------------------------

    def _require_jobs(self) -> None:
        if not self.jobs:
            raise InvalidInstanceError(
                f"session {self.session_id!r} has no jobs yet; stream arrivals first"
            )

    def _instance(self) -> Instance:
        self._require_jobs()
        return Instance(self.jobs)

    async def speeds(self, t: float | None = None) -> dict[str, Any]:
        """Live speed view at ``t`` (default: the session clock).

        Side-effect-free: a query beyond the session clock is answered from
        a :meth:`~repro.core.shadow.ClairvoyantShadow.fork` of the live
        shadow advanced to ``t`` — bit-identical to a fresh replay of the
        arrivals so far, without the replay — so the live shadow's committed
        clock never moves past the last arrival and a read can never narrow
        which future arrivals the session accepts.
        """
        self._check_open()
        async with self.lock:
            at = self.clock if t is None else t
            if at < self.clock:
                raise InvalidInstanceError(
                    f"t={at} is before the session clock {self.clock}; "
                    "the live shadow only moves forward"
                )
            shadow = self.shadow
            if at > self.clock:
                shadow = shadow.fork()
                shadow.advance(at)
            weight = shadow.remaining_weight()
            return {
                "t": at,
                "remaining_weight": weight,
                "speed": self.power.speed(weight),
                "active": shadow.remaining_items(),
            }

    def _simulate(self, inst: Instance) -> Schedule:
        """The session algorithm's schedule of ``inst`` (lock held)."""
        spec, power = ALGORITHMS[self.algorithm], self.power
        return spec.simulate(inst, power, context=self.context, max_step=self.max_step).schedule

    def _nc_run(self) -> NCUniformRunner:
        """The session's NC run, extended to every arrival so far (lock held).

        Built on the first read and fed only the arrivals since the last
        one, in instance order.  An arrival tied in release with a job
        already placed but with a smaller id runs earlier under FIFO, so it
        starts the run over; so does a read that failed part-way.
        """
        self._require_jobs()
        runner = self._nc
        new = sorted(self.jobs[self._nc_fed :], key=_fifo_key)
        if runner is None or (new and _fifo_key(new[0]) < _fifo_key(runner.jobs[-1])):
            runner = NCUniformRunner(self.power, context=self.context)
            new = sorted(self.jobs, key=_fifo_key)
        self._nc = None
        runner.extend(new)
        self._nc, self._nc_fed = runner, len(self.jobs)
        return runner

    async def schedule(self) -> tuple[Schedule, int]:
        """The session algorithm's schedule over all arrivals so far."""
        self._check_open()
        async with self.lock:
            if self.algorithm == "NC":
                return self._nc_run().schedule(), len(self.jobs)
            inst = self._instance()
            return self._simulate(inst), len(inst)

    async def metrics(self) -> tuple[CostReport, dict[str, int], int]:
        """Exact cost report of the current schedule plus shadow counters."""
        self._check_open()
        async with self.lock:
            if self.algorithm == "NC":
                report = self._nc_run().report()
            else:
                inst = self._instance()
                report = evaluate(self._simulate(inst), inst, self.power)
            return report, self.context.counters.as_dict(), len(self.jobs)

    async def verified_report(self) -> TraceReport:
        """Trace a (C, NC) pair over the current arrivals and replay it
        through the streaming verifier (Lemma 3 energy equality, Lemma 4
        flow ratio, per-component ordering) — verification from the trace
        alone, exactly the ``repro trace`` pipeline."""
        self._check_open()
        async with self.lock:
            inst = self._instance()
            if not inst.is_uniform_density():
                raise InvalidInstanceError(
                    "verified reports replay the Lemma 3/4 pair, which needs "
                    "uniform densities; non-uniform sessions expose metrics instead"
                )
            rec = MemoryRecorder()
            context = SimulationContext(self.power, recorder=rec)
            trace_lemma_pair(
                inst, self.power, context, "service",
                session=self.session_id, algorithms=["C", "NC"],
            )
            return build_report(iter(rec))


class Campaign:
    """One sharded campaign: a ``run_sharded`` call tracked as a task."""

    def __init__(self, campaign_id: str, request: CampaignRequest) -> None:
        self.campaign_id = campaign_id
        self.request = request
        self.state = "running"
        self.error: str | None = None
        self.result: dict[str, Any] | None = None
        self.task: asyncio.Task[None] | None = None

    def _instance(self) -> Instance:
        if self.request.jobs:
            return Instance(j.to_job() for j in self.request.jobs)
        from ..workloads import random_instance

        return random_instance(self.request.n_jobs, self.request.seed, density="unit")

    def _run_blocking(self) -> dict[str, Any]:
        """The worker-thread body: shard, execute, merge, differential-check."""
        from ..parallel.shard import run_sharded
        from ..runtime.pool import PoolPolicy

        req = self.request
        inst = self._instance()
        power = PowerLaw(req.alpha)
        result = run_sharded(
            inst,
            power,
            req.machines,
            algorithm=req.algorithm,
            n_shards=req.n_shards,
            policy=PoolPolicy(workers=req.workers),
            force_serial=req.force_serial,
        )
        serial = result.cluster.report()
        return {
            "shards": len(result.shards),
            "resumed": result.resumed,
            "bit_identical": result.report == serial,
            "report": result.report,
            "n_jobs": len(inst),
        }

    async def run(self) -> None:
        try:
            self.result = await asyncio.to_thread(self._run_blocking)
            self.state = "done"
        except Exception as exc:  # noqa: BLE001 — campaign failures are data
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"


class SessionManager:
    """The service's root object: sessions and campaigns keyed by id.

    See the module docstring for the durability and bounded-store knobs;
    everything defaults off, so a bare ``SessionManager()`` behaves exactly
    like the pre-durability service.
    """

    def __init__(
        self,
        *,
        journal_dir: str | Path | None = None,
        journal_sink: str = "plain",
        max_sessions: int | None = None,
        session_ttl: float | None = None,
        evict_lru: bool = False,
        campaign_retention: int | None = None,
        create_rate: float | None = None,
        create_burst: int = 8,
        clock: Callable[[], float] = time.monotonic,
        journal_filter: Callable[[int, str], str] | None = None,
    ) -> None:
        self.sessions: dict[str, Session] = {}
        self.campaigns: dict[str, Campaign] = {}
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.journal_sink = journal_sink
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.evict_lru = evict_lru
        self.campaign_retention = campaign_retention
        #: evicted session ids -> reason; these answer 410, not 404
        self.evicted: dict[str, str] = {}
        #: pruned campaign ids -> final status summary; these answer 410
        self.pruned_campaigns: dict[str, dict[str, Any]] = {}
        self.last_restore: RestoreReport | None = None
        self._touched: dict[str, float] = {}
        self._clock = clock
        self._limiter = (
            TokenBucket(create_rate, create_burst, clock)
            if create_rate is not None
            else None
        )
        self._journal_filter = journal_filter
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()

    def _mint_id(self, prefix: str) -> str:
        return f"{prefix}-{next(self._ids):06d}"

    # -- journaling -----------------------------------------------------------

    def _open_journal(
        self, session_id: str, request: SessionCreateRequest
    ) -> SessionJournal | None:
        """Open ``session_id``'s WAL and write its ``session_create`` record.

        Seed jobs are excluded from the record — they flow through the
        normal :meth:`Session.submit` path and journal as a regular
        ``arrival_batch``, so the journal is a pure arrival log.
        """
        if self.journal_dir is None:
            return None
        journal = SessionJournal(
            journal_path(self.journal_dir, session_id),
            sink=self.journal_sink,
            line_filter=self._journal_filter,
        )
        payload = request.model_dump(exclude={"jobs"})
        payload["session_id"] = session_id  # pin minted ids for the replay
        journal.append(
            {"record": "session_create", "session": session_id, "request": payload}
        )
        return journal

    # -- sessions -------------------------------------------------------------

    def _new_session(self, session_id: str, request: SessionCreateRequest) -> Session:
        """Build a session, then open its journal — in that order, so a
        request the session rejects leaves no journal behind."""
        session = Session(session_id, request)
        session.journal = self._open_journal(session_id, request)
        return session

    async def create_session(
        self, request: SessionCreateRequest, *, client_key: str | None = None
    ) -> Session:
        if self._limiter is not None and client_key is not None:
            retry_after = self._limiter.check(client_key)
            if retry_after > 0.0:
                raise RateLimited(client_key, retry_after)
        async with self._lock:
            await self._sweep_locked()
            sid = request.session_id or self._mint_id("session")
            if sid in self.sessions:
                raise KeyError(f"session {sid!r} already exists")
            if (
                self.max_sessions is not None
                and len(self.sessions) >= self.max_sessions
            ):
                if self.evict_lru and self.sessions:
                    lru = min(self._touched, key=self._touched.__getitem__)
                    await self._evict_locked(lru, "lru")
                if len(self.sessions) >= self.max_sessions:
                    raise StoreFull(self.max_sessions)
            # Re-creating an evicted id is allowed: the tombstone yields to
            # the live session (and its journal starts over).
            self.evicted.pop(sid, None)
            session = self._new_session(sid, request)
            self.sessions[sid] = session
            self._touched[sid] = self._clock()
        if request.jobs:
            await session.submit([j.to_job() for j in request.jobs])
        return session

    def get_session(self, session_id: str) -> Session:
        try:
            session = self.sessions[session_id]
        except KeyError:
            if session_id in self.evicted:
                raise SessionGone(session_id, self.evicted[session_id]) from None
            raise KeyError(f"no session {session_id!r}") from None
        self._touched[session_id] = self._clock()
        return session

    async def delete_session(self, session_id: str) -> Session:
        session = self.get_session(session_id)
        await session.close(record=True)
        async with self._lock:
            self.sessions.pop(session_id, None)
            self._touched.pop(session_id, None)
        return session

    # -- eviction -------------------------------------------------------------

    async def _evict_locked(self, session_id: str, reason: str) -> None:
        """Evict one session (manager lock held): flush its sinks, journal
        the ``session_evicted`` record, leave a 410 tombstone."""
        session = self.sessions.pop(session_id, None)
        self._touched.pop(session_id, None)
        if session is None:
            return
        self.evicted[session_id] = reason
        await session.close(record=False, evict_reason=reason)

    async def _sweep_locked(self) -> int:
        """Evict every session idle past ``session_ttl`` (manager lock held)."""
        if self.session_ttl is None:
            return 0
        now = self._clock()
        expired = [
            sid
            for sid, at in self._touched.items()
            if now - at > self.session_ttl and sid in self.sessions
        ]
        for sid in expired:
            await self._evict_locked(sid, "ttl")
        return len(expired)

    async def sweep(self) -> int:
        """TTL sweep, callable from any route; returns sessions evicted."""
        async with self._lock:
            return await self._sweep_locked()

    # -- recovery -------------------------------------------------------------

    async def restore(self, journal_dir: str | Path | None = None) -> RestoreReport:
        """Rebuild sessions from the journals under ``journal_dir``.

        Each journal is integrity-checked (:func:`read_journal` drops one
        torn tail, raises on interior corruption) and replayed through the
        *normal* ``create``/``submit`` drive, re-journaling as it goes — so
        a restored session is bit-identical to an uninterrupted one, its
        rewritten journal is byte-identical to the committed prefix, and a
        second crash right after restore loses nothing.  Journals ending in
        ``session_close`` are finished sessions (skipped); ones ending in
        ``session_evicted`` re-arm their 410 tombstones; corrupt journals
        are quarantined on disk and reported in :attr:`RestoreReport.skipped`
        — never silently restored wrong.
        """
        directory = Path(journal_dir) if journal_dir is not None else self.journal_dir
        report = RestoreReport()
        if directory is None:
            self.last_restore = report
            return report
        for sid, paths in sorted(discover_journals(directory).items()):
            try:
                records = read_journal(paths)
            except JournalCorruption as err:
                report.skipped[sid] = str(err)
                continue
            if not records or records[0].get("record") != "session_create":
                report.skipped[sid] = "journal does not begin with session_create"
                continue
            terminal = records[-1]["record"]
            if terminal == "session_close":
                report.closed.append(sid)
                continue
            if terminal == "session_evicted":
                reason = str(records[-1].get("reason", "evicted"))
                self.evicted[sid] = reason
                report.evicted.append(sid)
                continue
            try:
                payload = dict(records[0]["request"])
                # Journals written before kernel backends were removed carry
                # a ``"backend": null`` field that ``extra="forbid"`` would
                # reject; drop it so those sessions restore instead of being
                # quarantined.
                payload.pop("backend", None)
                payload["session_id"] = sid
                payload["jobs"] = []
                request = SessionCreateRequest.model_validate(payload)
                session = await self._restore_one(sid, request, records[1:])
            except (JournalError, SimulationError, InvalidInstanceError, KeyError) as err:
                report.skipped[sid] = f"{type(err).__name__}: {err}"
                continue
            except Exception as err:  # noqa: BLE001 — quarantine, don't crash startup
                report.skipped[sid] = f"{type(err).__name__}: {err}"
                continue
            assert session is not None
            report.restored.append(sid)
        self.last_restore = report
        return report

    async def _restore_one(
        self,
        sid: str,
        request: SessionCreateRequest,
        records: list[dict[str, Any]],
    ) -> Session:
        """Replay one journal through the normal session drive.

        Bypasses admission limits, TTL sweeps, and rate limits — restore
        must be faithful to what was acked, not subject to this boot's
        traffic policy.  Opening the journal truncates and rewrites it
        (identical bytes for the committed prefix, the torn tail gone).
        """
        async with self._lock:
            if sid in self.sessions:
                raise KeyError(f"session {sid!r} already exists")
            session = self._new_session(sid, request)
            self.sessions[sid] = session
            self._touched[sid] = self._clock()
        for record in records:
            if record["record"] != "arrival_batch":
                continue
            batch = [
                Job(int(jid), float(release), float(volume), float(density))
                for jid, release, volume, density in record["jobs"]
            ]
            await session.submit(batch)
        return session

    # -- campaigns ------------------------------------------------------------

    async def launch_campaign(self, request: CampaignRequest) -> Campaign:
        async with self._lock:
            self._prune_campaigns_locked()
            cid = request.campaign_id or self._mint_id("campaign")
            if cid in self.campaigns:
                raise KeyError(f"campaign {cid!r} already exists")
            campaign = Campaign(cid, request)
            self.campaigns[cid] = campaign
        campaign.task = asyncio.create_task(campaign.run())
        return campaign

    def _prune_campaigns_locked(self) -> None:
        """Drop finished campaigns past the retention count (oldest first),
        keeping a final-status summary for the 410 body."""
        if self.campaign_retention is None:
            return
        finished = [
            cid
            for cid, c in self.campaigns.items()
            if c.state in ("done", "failed")
        ]
        for cid in finished[: max(0, len(finished) - self.campaign_retention)]:
            campaign = self.campaigns.pop(cid)
            result = campaign.result or {}
            self.pruned_campaigns[cid] = {
                "campaign_id": cid,
                "state": campaign.state,
                "error": campaign.error,
                "shards": result.get("shards"),
                "bit_identical": result.get("bit_identical"),
                "n_jobs": result.get("n_jobs", campaign.request.n_jobs),
            }

    def get_campaign(self, campaign_id: str) -> Campaign:
        try:
            return self.campaigns[campaign_id]
        except KeyError:
            if campaign_id in self.pruned_campaigns:
                raise CampaignPruned(
                    campaign_id, self.pruned_campaigns[campaign_id]
                ) from None
            raise KeyError(f"no campaign {campaign_id!r}") from None

    # -- lifecycle ------------------------------------------------------------

    async def shutdown(self) -> None:
        """Graceful shutdown: settle campaigns, close every session (flushing
        trace sinks and journals).  Sessions are *suspended*, not closed —
        no terminal journal record — so the next start restores them.
        Called from the app's ASGI lifespan hook."""
        for campaign in self.campaigns.values():
            if campaign.task is not None and not campaign.task.done():
                try:
                    await campaign.task
                except Exception:  # noqa: BLE001 — state captured in run()
                    pass
        for session in list(self.sessions.values()):
            await session.close(record=False)
