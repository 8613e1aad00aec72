"""Incremental clairvoyant shadow oracle and the shared simulation context.

Both non-clairvoyant algorithms of the paper are defined *relative to*
Algorithm C: NC-uniform's speed offset is ``W^C(r[j]-)`` (§3) and NC-general's
speed is ``eta * s^C_{I(t)}(t) + epsilon`` where ``I(t)`` is the evolving
instance of processed amounts (§4).  Re-simulating C from scratch for every
query makes NC-general quadratic-or-worse in events.  This module maintains
Algorithm C's *live* state — the remaining volumes of its active set — and
advances it event-by-event with the closed-form decay kernel, so a query at
time ``t`` costs only the events between the previous query and ``t``:

* :class:`ClairvoyantShadow` — C's live remaining-weight state with
  ``advance(t)``, ``insert_job()`` and ``checkpoint()`` / ``rollback()``
  for the speculative re-runs NC-general needs (its current job's weight
  in ``I(t)`` changes at every engine step).
* :class:`EpochShadow` — NC-general's epoch bases: raw
  :class:`ShadowSnapshot` s after each admission let every epoch rebuild
  resume from the last unchanged release, and queries that stay inside
  the first decay piece after the base are answered in closed form.
* :class:`PrefixWeightOracle` — the ``W^C(r[j]-)`` prefix-offset pattern:
  one incrementally-extended C run answering a monotone stream of
  weight-at-time queries (with an automatic from-scratch rebuild when a
  query or insertion goes backwards in time).
* :class:`SimulationContext` — the shared boundary object the engine hands
  to policies via ``bind``; owns the :class:`ShadowCounters` so shadow
  activity is observable per run.

Exactness contract: the one event loop below serves every consumer —
``simulate_clairvoyant`` (capped or not: :func:`shadow_params` reads the
cap off the power function), the prefix oracles and NC-general's
speculative queries — with fixed admission tolerances, HDF tie-breaking
and a drop-only-exact-zero rule, so a staged sequence of ``advance`` calls
is bit-identical to one fresh run to the same horizon.  The only
latitude taken is *laziness*: a partial decay piece cut by a query horizon is
kept as an anchor ``(piece start, committed state)`` and re-derived on the
next ``advance`` instead of being split at the horizon, which is what makes
many small advances as cheap as one big one.  The piece is committed
("materialized") exactly where a one-shot run would split it: at a
release event, or on :meth:`ClairvoyantShadow.materialize` /
:meth:`ClairvoyantShadow.checkpoint`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable

from .errors import SimulationError
from .kernels import decay_weight_after
from .power import PowerFunction
from .schedule import trace_payload
from .tracing import NULL_RECORDER, MetricsRegistry, TraceRecorder

__all__ = [
    "ShadowCounters",
    "ShadowCheckpoint",
    "ShadowSnapshot",
    "ContextCheckpoint",
    "ClairvoyantShadow",
    "EpochShadow",
    "PrefixWeightOracle",
    "SimulationContext",
    "shadow_params",
    "uncapped_alpha",
]

#: Same relative tie tolerance as the analytic simulators.  Relative, not
#: absolute: shadow runs legitimately operate at picosecond scales.
_TIE_TOL = 1e-12


def _counter(name: str) -> Any:
    """A :class:`ShadowCounters` attribute backed by a registry slot."""

    def _get(self: "ShadowCounters") -> int:
        return int(self.registry.values.get(name, 0))

    def _set(self: "ShadowCounters", value: int) -> None:
        self.registry.values[name] = value

    return property(_get, _set)


class ShadowCounters:
    """Observability counters shared by the engine and its shadow oracles.

    ``engine_steps`` counts integrator steps; the rest count shadow-oracle
    traffic.  ``events`` is the number of committed scheduler events inside
    shadow runs — the true cost of the incremental scheme — while ``queries``
    is how often a remaining-weight value was read.  ``rebuilds`` counts
    reconstructions (epoch changes in NC-general, which resume from the last
    unchanged release; time regressions in prefix oracles, which start
    over).

    Since the tracing layer landed this is a *view* over a
    :class:`~repro.core.tracing.MetricsRegistry` rather than a bag of ad-hoc
    ints: ``counters.events += 1`` and ``registry.values["events"]`` read and
    write the same slot, so counters, trace events and any future metrics
    share one substrate per run.  Each attribute access is a Python call, so
    the hot paths (the event loop, speculative queries) count in locals or
    straight into the registry dict and write once per call.
    """

    FIELDS = (
        "engine_steps",
        "queries",
        "advances",
        "events",
        "inserts",
        "checkpoints",
        "rollbacks",
        "rebuilds",
    )

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in self.FIELDS:
            self.registry.values.setdefault(name, 0)

    engine_steps = _counter("engine_steps")
    queries = _counter("queries")
    advances = _counter("advances")
    events = _counter("events")
    inserts = _counter("inserts")
    checkpoints = _counter("checkpoints")
    rollbacks = _counter("rollbacks")
    rebuilds = _counter("rebuilds")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShadowCounters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.FIELDS)
        return f"ShadowCounters({inner})"


@dataclass(frozen=True)
class ShadowCheckpoint:
    """Opaque snapshot of a :class:`ClairvoyantShadow` (fully materialized).

    ``w_accum`` is the canonical (exact ``fsum``) total weight of
    ``remaining``.  Canonicalizing it at checkpoint time makes
    rollback-and-replay bit-identical to the first pass under the
    incremental-accumulator scheme.
    """

    clock: float
    remaining: tuple[tuple[int, float], ...]
    pending: tuple[tuple[float, int, float, float], ...]
    w_accum: float


@dataclass(frozen=True)
class ShadowSnapshot:
    """Raw state of a :class:`ClairvoyantShadow` between two advances.

    Holds what :meth:`ClairvoyantShadow._run_loop` left: the committed
    clock ``t_loop`` and query clock ``clock`` (apart when a piece is
    anchored), the remaining volumes in admission order, the HDF heap as
    laid out, and the *uncanonicalized* accumulator.  Every job released at
    or before ``cutoff`` had been admitted, and none released after it; the
    snapshot carries no pending jobs — :meth:`ClairvoyantShadow.resume`
    supplies them.
    """

    t_loop: float
    clock: float
    remaining: tuple[tuple[int, float], ...]
    heap: tuple[tuple[float, float, int], ...]
    w_accum: float
    cutoff: float


@dataclass(frozen=True)
class ContextCheckpoint:
    """Snapshot of a :class:`SimulationContext`'s mutable run state.

    Extends the shadow-layer checkpoint idea to the whole context: the
    supervisor (:mod:`repro.runtime.supervisor`) takes one before every
    attempt and restores it before a retry, so counters and metrics from the
    failed attempt do not leak into the retried run and the empty-fault-plan
    supervised path stays bit-identical to an unsupervised run.
    """

    label: str
    sim_time: float
    metrics: tuple[tuple[str, int | float], ...]


class ClairvoyantShadow:
    """Algorithm C's live state, advanced incrementally.

    ``s_max=None`` gives the pure power-law dynamics; a finite ``s_max``
    reproduces the bounded-speed variant (saturated linear phase above
    ``P(s_max)``, decay below).  ``record`` — if given — is called as
    ``record(kind, t0, t1, job_id, value)`` for every committed piece with
    ``kind`` in ``{"decay", "const"}`` and ``value`` the piece's starting
    total weight (decay) or the cap speed (const); the analytic simulators
    use it to build their schedules.

    ``recorder`` — if given and enabled — receives structured trace events
    tagged with ``component``: a ``release`` per revealed job, a
    ``kernel_eval`` per committed closed-form piece, a ``completion`` per
    job leaving the active set, and ``shadow_checkpoint`` /
    ``shadow_rollback`` markers.  All emission sites honor the
    zero-overhead-when-off contract of :mod:`repro.core.tracing`.
    """

    __slots__ = (
        "alpha",
        "s_max",
        "clock",
        "counters",
        "component",
        "_beta",
        "_inv_beta",
        "_heap",
        "_w_accum",
        "_pending_ids",
        "_w_sat",
        "_record",
        "_rec",
        "_t_loop",
        "_remaining",
        "_pending",
        "_next",
        "_rho",
        "_key",
        "_piece",
    )

    def __init__(
        self,
        alpha: float,
        *,
        s_max: float | None = None,
        counters: ShadowCounters | None = None,
        record: Callable[[str, float, float, int, float], None] | None = None,
        recorder: TraceRecorder | None = None,
        component: str = "shadow",
    ) -> None:
        if not alpha > 1:
            raise ValueError(f"alpha must exceed 1, got {alpha}")
        if s_max is not None and not (s_max > 0 and math.isfinite(s_max)):
            raise ValueError(f"s_max must be finite > 0, got {s_max}")
        self.alpha = float(alpha)
        self.s_max = None if s_max is None else float(s_max)
        self._w_sat = math.inf if s_max is None else self.s_max**self.alpha
        self.counters = counters if counters is not None else ShadowCounters()
        self._record = record
        self.component = component
        #: hoisted per-run kernel constants (beta = 1 - 1/alpha), so the hot
        #: loop evaluates the closed forms without per-event re-derivation.
        self._beta = 1.0 - 1.0 / self.alpha
        self._inv_beta = 1.0 / self._beta
        #: min-heap of HDF keys over the active set and the incremental total
        #: fractional weight of ``_remaining``, so an event costs O(log n).  The
        #: accumulator is reset to exactly 0.0 whenever the active set drains
        #: and re-canonicalized (exact fsum) at every checkpoint, so replay
        #: from a checkpoint is bit-identical to the first pass.
        self._heap: list[tuple[float, float, int]] = []
        self._w_accum = 0.0
        #: ids of the not-yet-admitted jobs (O(1) duplicate checks).
        self._pending_ids: set[int] = set()
        #: hoisted zero-overhead guard: None unless tracing is actually on.
        self._rec = recorder if (recorder is not None and recorder.enabled) else None
        #: time of the last *committed* event; the anchored partial piece (if
        #: any) spans (_t_loop, clock].
        self._t_loop = 0.0
        self.clock = 0.0
        #: admitted, uncompleted jobs: id -> remaining volume, in admission
        #: order (== a one-shot run's dict order).
        self._remaining: dict[int, float] = {}
        #: not-yet-admitted jobs as (release, id, density, volume), sorted;
        #: consumed by index so checkpoints can snapshot the tail cheaply.
        self._pending: list[tuple[float, int, float, float]] = []
        self._next = 0
        #: per-job metadata (survives completion; needed for HDF keys).
        self._rho: dict[int, float] = {}
        #: precomputed HDF sort key per job (-density, release, id).
        self._key: dict[int, tuple[float, float, int]] = {}
        #: cache of the anchored piece, ``(current job, its density, total
        #: weight at _t_loop)``, filled at the lazy horizon cut so reads and
        #: materialization need not re-derive it.  None when state is
        #: materialized or the cache was invalidated.
        self._piece: tuple[int, float, float] | None = None

    # -- deltas ---------------------------------------------------------------

    def insert_job(self, job_id: int, release: float, density: float, volume: float) -> None:
        """Reveal a job to the shadow.

        ``release`` may lie at or before the current clock (but not before the
        last committed event minus the tie tolerance): the shadow then
        re-derives the anchored piece with the proper split at ``release``,
        exactly as a fresh run seeing the job would have.
        """
        if volume <= 0:
            raise ValueError(f"job {job_id}: volume must be > 0, got {volume}")
        if density <= 0:
            raise ValueError(f"job {job_id}: density must be > 0, got {density}")
        if release < self._t_loop * (1.0 - _TIE_TOL) - 1e-300:
            raise SimulationError(
                f"job {job_id} released at {release}, before the shadow's "
                f"committed past (t={self._t_loop}); rollback first"
            )
        if job_id in self._remaining or job_id in self._pending_ids:
            raise SimulationError(f"job {job_id} already known to the shadow")
        self._rho[job_id] = density
        self._key[job_id] = (-density, release, job_id)
        entry = (release, job_id, density, volume)
        i = bisect_right(self._pending, entry, lo=self._next)
        self._pending.insert(i, entry)
        self._pending_ids.add(job_id)
        self.counters.inserts += 1
        if self._rec is not None:
            self._rec.emit(
                "release", release, self.component, job=job_id, density=density, volume=volume
            )
        if release <= self.clock * (1.0 + _TIE_TOL):
            # Catch the state up: the loop splits the anchored piece at the
            # new release and admits the job, mirroring a fresh run.
            self._run_loop(self.clock)

    # -- time -----------------------------------------------------------------

    def advance(self, horizon: float) -> None:
        """Advance Algorithm C's state to ``horizon`` (monotone; may be inf)."""
        if horizon <= self.clock:
            return
        self._run_loop(horizon)

    def _admit(self, now: float) -> None:
        pending = self._pending
        while self._next < len(pending) and pending[self._next][0] <= now * (1.0 + _TIE_TOL):
            _, jid, rho, vol = pending[self._next]
            self._remaining[jid] = vol
            heappush(self._heap, self._key[jid])
            self._w_accum += rho * vol
            self._pending_ids.discard(jid)
            self._next += 1

    def _run_loop(self, horizon: float) -> None:
        """Algorithm C's event loop from the committed state to ``horizon``.

        The HDF argmin comes from a min-heap of the precomputed ``_key``
        tuples (only the minimum-key job ever completes, so pops stay aligned
        with the dict) and the total weight from an incremental accumulator
        updated by the weight each committed event removes or admits, so an
        event costs O(log n) rather than two O(n) scans.  The accumulator is
        reset to exactly 0.0 whenever the active set drains and
        re-canonicalized at every :meth:`checkpoint`, bounding float drift to
        ~1e-15 relative per busy period; ``tests/test_arraykernels.py`` pins
        full-run agreement with the O(n)-scan reference loop in
        ``tests/shadow_oracle.py`` at 1e-12.  Trace events are buffered per
        advance and flushed in emission order on exit — batched, but
        replay-equivalent for ``trace_report``.
        """
        rem = self._remaining
        rho_of = self._rho
        key_of = self._key
        alpha = self.alpha
        beta = self._beta
        inv_beta = self._inv_beta
        s_max = self.s_max
        w_sat = self._w_sat
        record = self._record
        rec = self._rec
        comp = self.component
        counters = self.counters
        heap = self._heap
        w_accum = self._w_accum
        pend_ids = self._pending_ids
        pending = self._pending
        n_pending = len(pending)
        nxt = self._next
        counters.advances += 1
        n_events = 0
        anchored = False
        self._piece = None
        events: list[tuple[str, float, dict[str, Any]]] = []

        def flush() -> None:
            if rec is not None and events:
                emit = rec.emit
                for kind, st, payload in events:
                    emit(kind, st, comp, **payload)
                events.clear()

        t = self._t_loop
        if t >= self.clock:
            # Not anchored inside a piece: admit what a fresh run would.
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                _, jid, rho_j, vol = pending[nxt]
                rem[jid] = vol
                heappush(heap, key_of[jid])
                w_accum += rho_j * vol
                pend_ids.discard(jid)
                nxt += 1
        while t < horizon and (rem or nxt < n_pending):
            if not rem:
                w_accum = 0.0
                t = min(pending[nxt][0], horizon)
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    _, jid, rho_j, vol = pending[nxt]
                    rem[jid] = vol
                    heappush(heap, key_of[jid])
                    w_accum += rho_j * vol
                    pend_ids.discard(jid)
                    nxt += 1
                continue
            cur = heap[0][2]
            rho = rho_of[cur]
            if len(rem) == 1:
                # Single-job tail: the dict sum is one product, so re-derive
                # it exactly (matching a fresh sum over the active set).
                # Without this, ``w_end`` below carries the accumulator's
                # ~1e-16 residue where the true value is exactly 0, and
                # ``w_end**beta`` amplifies that into a ~1e-11 error on the
                # busy period's final completion time.
                w_accum = rho * rem[cur]
            w_total = w_accum
            if w_total <= 0:
                # Accumulator drift can momentarily dip a near-empty total
                # below zero; re-derive it exactly before declaring failure.
                w_accum = w_total = math.fsum(rho_of[j] * v for j, v in rem.items())
                if w_total <= 0:
                    raise SimulationError("active set with zero weight")
            t_next = pending[nxt][0] if nxt < n_pending else math.inf
            if s_max is not None and rho * rem[cur] <= 1e-15 * w_total:
                w_accum -= rho * rem[cur]
                del rem[cur]
                heappop(heap)
                if not rem:
                    w_accum = 0.0
                n_events += 1
                if rec is not None:
                    events.append(("completion", t, {"job": cur}))
                continue
            w_end = w_total - rho * rem[cur]

            if w_total > w_sat * (1.0 + _TIE_TOL):
                # Saturated phase: constant speed s_max, weight falls linearly.
                target = max(w_sat, w_end)
                tau_phase = (w_total - target) / (rho * s_max)
                t_stop = min(t + tau_phase, t_next, horizon)
                if t_stop <= t:
                    old = rem[cur]
                    new_v = max(old - (w_total - target) / rho, 0.0)
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    n_events += 1
                    continue
                if (
                    t_stop >= horizon
                    and t_stop < t + tau_phase
                    and not t_next <= horizon * (1.0 + _TIE_TOL)
                ):
                    self._piece = (cur, rho, w_total)
                    anchored = True
                    break
                tau = t_stop - t
                if tau > 0:
                    if record is not None:
                        record("const", t, t_stop, cur, s_max)
                    if rec is not None:
                        events.append(
                            (
                                "kernel_eval",
                                t,
                                trace_payload("const", t, t_stop, cur, s_max, rho, alpha),
                            )
                        )
                    dv = s_max * tau
                    old = rem[cur]
                    new_v = max(old - dv, 0.0)
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t_stop, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    n_events += 1
                t = t_stop
                bound = t * (1.0 + _TIE_TOL)
                while nxt < n_pending and pending[nxt][0] <= bound:
                    _, jid, rho_j, vol = pending[nxt]
                    rem[jid] = vol
                    heappush(heap, key_of[jid])
                    w_accum += rho_j * vol
                    pend_ids.discard(jid)
                    nxt += 1
                continue

            # Hoisted closed forms — same float expressions as the kernels
            # with beta precomputed once per run.
            w_end_c = w_end if w_end > 0.0 else 0.0
            tau_complete = (w_total**beta - w_end_c**beta) / (rho * beta)
            if tau_complete < 0.0:
                tau_complete = 0.0
            t_stop = min(t + tau_complete, t_next, horizon)
            if t_stop >= t + tau_complete * (1.0 - _TIE_TOL):
                # The current job completes first.
                if record is not None:
                    record("decay", t, t + tau_complete, cur, w_total)
                if rec is not None:
                    events.append(
                        (
                            "kernel_eval",
                            t,
                            trace_payload(
                                "decay", t, t + tau_complete, cur, w_total, rho, alpha
                            ),
                        )
                    )
                t = t + tau_complete
                w_accum -= rho * rem[cur]
                del rem[cur]
                heappop(heap)
                if not rem:
                    w_accum = 0.0
                n_events += 1
                if rec is not None:
                    events.append(("completion", t, {"job": cur}))
            else:
                if t_stop >= horizon and not t_next <= horizon * (1.0 + _TIE_TOL):
                    # Cut only by the query horizon with no admission due:
                    # keep the piece anchored instead of splitting it here.
                    self._piece = (cur, rho, w_total)
                    anchored = True
                    break
                tau = t_stop - t
                if tau > 0:
                    base = w_total**beta - rho * beta * tau
                    w_after = base**inv_beta if base > 0.0 else 0.0
                    dv = (w_total - w_after) / rho
                    if record is not None:
                        record("decay", t, t_stop, cur, w_total)
                    if rec is not None:
                        events.append(
                            (
                                "kernel_eval",
                                t,
                                trace_payload("decay", t, t_stop, cur, w_total, rho, alpha),
                            )
                        )
                    old = rem[cur]
                    new_v = max(old - dv, 0.0)
                    # Only drop exact zeros — a 1e-15 remainder is usually the
                    # analytically correct value (see simulate_clairvoyant).
                    if new_v <= 0.0:
                        del rem[cur]
                        heappop(heap)
                        w_accum = w_accum - rho * old if rem else 0.0
                        if rec is not None:
                            events.append(("completion", t_stop, {"job": cur}))
                    else:
                        rem[cur] = new_v
                        w_accum -= rho * (old - new_v)
                    n_events += 1
                t = t_stop
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                _, jid, rho_j, vol = pending[nxt]
                rem[jid] = vol
                heappush(heap, key_of[jid])
                w_accum += rho_j * vol
                pend_ids.discard(jid)
                nxt += 1
        self._t_loop = t
        self._next = nxt
        self.clock = horizon if anchored else t
        self._w_accum = w_accum
        if n_events:
            counters.events += n_events
        flush()

    def _current_piece(self) -> tuple[int, float, float]:
        """``(current job, its density, total weight at _t_loop)`` of the
        anchored piece, re-derived from the heap and the accumulator when the
        horizon cut left no cached copy."""
        if self._piece is not None:
            return self._piece
        rem = self._remaining
        rho_of = self._rho
        cur = self._heap[0][2]
        rho = rho_of[cur]
        if len(rem) == 1:
            # Same single-job exact tail as the event loop.
            w_total = self._w_accum = rho * rem[cur]
        else:
            w_total = self._w_accum
        if w_total <= 0:
            w_total = self._w_accum = math.fsum(rho_of[j] * v for j, v in rem.items())
        return cur, rho, w_total

    def materialize(self) -> None:
        """Commit the anchored partial piece (if any) at the current clock.

        After this the state equals what a fresh run to ``clock`` reports,
        including the split of the in-progress piece at ``clock``.
        """
        rem = self._remaining
        if self.clock <= self._t_loop or not rem:
            self._t_loop = max(self._t_loop, self.clock)
            return
        cur, rho, w_total = self._current_piece()
        tau = self.clock - self._t_loop
        rec = self._rec
        if self.s_max is not None and w_total > self._w_sat * (1.0 + _TIE_TOL):
            if self._record is not None:
                self._record("const", self._t_loop, self.clock, cur, self.s_max)
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    self._t_loop,
                    self.component,
                    **trace_payload(
                        "const", self._t_loop, self.clock, cur, self.s_max, rho, self.alpha
                    ),
                )
            dv = self.s_max * tau
        else:
            w_after = decay_weight_after(w_total, rho, tau, self.alpha)
            dv = (w_total - w_after) / rho
            if self._record is not None:
                self._record("decay", self._t_loop, self.clock, cur, w_total)
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    self._t_loop,
                    self.component,
                    **trace_payload(
                        "decay", self._t_loop, self.clock, cur, w_total, rho, self.alpha
                    ),
                )
        old = rem[cur]
        new_v = max(old - dv, 0.0)
        if new_v <= 0.0:
            del rem[cur]
            heappop(self._heap)
            self._w_accum = self._w_accum - rho * old if rem else 0.0
            if rec is not None:
                rec.emit("completion", self.clock, self.component, job=cur)
        else:
            rem[cur] = new_v
            self._w_accum -= rho * (old - new_v)
        self.counters.events += 1
        self._t_loop = self.clock
        self._piece = None
        self._admit(self.clock)

    # -- reads (non-destructive) ----------------------------------------------

    def _peek_current(self) -> tuple[int, float] | None:
        """The in-progress job and its would-be remaining volume at ``clock``,
        without committing the anchored piece."""
        rem = self._remaining
        if self.clock <= self._t_loop or not rem:
            return None
        cur, rho, w_total = self._current_piece()
        tau = self.clock - self._t_loop
        if self.s_max is not None and w_total > self._w_sat * (1.0 + _TIE_TOL):
            dv = self.s_max * tau
        else:
            w_after = decay_weight_after(w_total, rho, tau, self.alpha)
            dv = (w_total - w_after) / rho
        return cur, max(rem[cur] - dv, 0.0)

    def remaining_weight(self) -> float:
        """``W^C(clock)`` — total remaining fractional weight, live state.

        O(1): the committed accumulator, minus the anchored piece's decay on
        the current job.  Clamped at 0.0 — accumulator drift must never hand
        a negative weight to the growth kernels."""
        self.counters.queries += 1
        peek = self._peek_current()
        total = self._w_accum
        if peek is not None:
            cur, val = peek
            total -= self._rho[cur] * (self._remaining[cur] - val)
        return total if total > 0.0 else 0.0

    def remaining_items(self) -> list[tuple[int, float, float]]:
        """Materialized-equivalent ``(job_id, density, remaining volume)`` at
        ``clock``, in admission order, completed jobs omitted."""
        self.counters.queries += 1
        rho_of = self._rho
        peek = self._peek_current()
        out = []
        for j, v in self._remaining.items():
            if peek is not None and j == peek[0]:
                v = peek[1]
                if v <= 0.0:
                    continue
            out.append((j, rho_of[j], v))
        return out

    def remaining_dict(self) -> dict[int, float]:
        """Copy of the remaining-volume map (call :meth:`materialize` first if
        an anchored piece should be included)."""
        return dict(self._remaining)

    # -- checkpoint / rollback ------------------------------------------------

    def checkpoint(self) -> ShadowCheckpoint:
        """Materialize and snapshot the state for later :meth:`rollback`."""
        self.materialize()
        self.counters.checkpoints += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_checkpoint",
                self.clock,
                self.component,
                active=len(self._remaining),
                pending=len(self._pending) - self._next,
            )
        # Canonicalize the accumulator at the snapshot boundary: replay from
        # this checkpoint then becomes a deterministic function of the
        # committed state, bit-identical on every restore.
        rho_of = self._rho
        self._w_accum = (
            math.fsum(rho_of[j] * v for j, v in self._remaining.items())
            if self._remaining
            else 0.0
        )
        return ShadowCheckpoint(
            clock=self.clock,
            remaining=tuple(self._remaining.items()),
            pending=tuple(self._pending[self._next :]),
            w_accum=self._w_accum,
        )

    def rollback(self, ckpt: ShadowCheckpoint) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`.

        Jobs inserted after the checkpoint vanish from the active/pending
        sets (their metadata is kept; re-inserting them is allowed)."""
        self.counters.rollbacks += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_rollback", ckpt.clock, self.component, from_time=self.clock
            )
        self._restore(ckpt)

    def _restore(self, ckpt: ShadowCheckpoint) -> None:
        """Reset the live state, heap, accumulator and pending ids to a
        snapshot."""
        self.clock = self._t_loop = ckpt.clock
        self._remaining = dict(ckpt.remaining)
        self._pending = list(ckpt.pending)
        self._next = 0
        self._piece = None
        key_of = self._key
        self._heap = [key_of[j] for j, _ in ckpt.remaining]
        heapify(self._heap)
        self._w_accum = ckpt.w_accum
        self._pending_ids = {e[1] for e in ckpt.pending}

    def query_with_job(
        self,
        base: ShadowCheckpoint,
        t: float,
        job_id: int | None,
        release: float,
        density: float,
        volume: float,
    ) -> float:
        """Speculative query: remaining weight at ``t`` starting from ``base``
        with one extra job.

        Equivalent to ``rollback(base)``, ``insert_job(...)``, ``advance(t)``,
        ``remaining_weight()`` fused into one call — the NC-general inner
        loop, where every engine step re-asks "what would C's weight be now if
        the current job's processed amount entered its run at its release".
        ``job_id=None`` skips the insertion (nothing of the job processed yet).
        """
        # Counted straight into the registry: each property bump is two
        # Python calls, a measurable share of NC-general's inner loop.
        tally = self.counters.registry.values
        tally["rollbacks"] += 1
        if self._rec is not None:
            self._rec.emit(
                "shadow_rollback",
                base.clock,
                self.component,
                from_time=self.clock,
                speculative=True,
            )
        self._restore(base)
        if job_id is not None:
            self._rho[job_id] = density
            key = self._key[job_id] = (-density, release, job_id)
            tally["inserts"] += 1
            if release <= base.clock * (1.0 + _TIE_TOL):
                # The base is materialized with no admission due, so the
                # job joins the active set directly, as _admit would place it.
                self._remaining[job_id] = volume
                heappush(self._heap, key)
                self._w_accum += density * volume
            else:
                entry = (release, job_id, density, volume)
                self._pending.insert(bisect_right(self._pending, entry), entry)
                self._pending_ids.add(job_id)
        if t > self.clock:
            self._run_loop(t)
        return self.remaining_weight()

    # -- raw snapshots (incremental rebuilds) ---------------------------------

    def next_release(self) -> float:
        """Release time of the first not-yet-admitted job (inf if none)."""
        return self._pending[self._next][0] if self._next < len(self._pending) else math.inf

    def snapshot(self) -> ShadowSnapshot:
        """The raw live state, exactly as :meth:`_run_loop` left it.

        Unlike :meth:`checkpoint` this neither materializes the anchored
        piece nor canonicalizes the accumulator, so resuming from it and
        advancing further is bit-identical to never having stopped."""
        return ShadowSnapshot(
            t_loop=self._t_loop,
            clock=self.clock,
            remaining=tuple(self._remaining.items()),
            heap=tuple(self._heap),
            w_accum=self._w_accum,
            cutoff=self.clock * (1.0 + _TIE_TOL),
        )

    def resume(
        self, snap: ShadowSnapshot, pending: list[tuple[float, int, float, float]]
    ) -> None:
        """Restore a raw :meth:`snapshot` with ``pending`` — sorted
        ``(release, id, density, volume)`` rows, every release above
        ``snap.cutoff`` — as the jobs still to come.

        Rows due at a snapshot that sits on a committed event are admitted
        at once, as :meth:`insert_job` would admit them."""
        self._t_loop = snap.t_loop
        self.clock = snap.clock
        self._remaining = dict(snap.remaining)
        self._heap = list(snap.heap)
        self._w_accum = snap.w_accum
        self._pending = pending
        self._next = 0
        self._piece = None
        self._pending_ids = {e[1] for e in pending}
        rho_of = self._rho
        key_of = self._key
        for rel, jid, rho, _ in pending:
            rho_of[jid] = rho
            key_of[jid] = (-rho, rel, jid)
        self.counters.inserts += len(pending)
        rec = self._rec
        if rec is not None:
            for rel, jid, rho, vol in pending:
                rec.emit("release", rel, self.component, job=jid, density=rho, volume=vol)
        if self._t_loop >= self.clock:
            self._admit(self.clock)

    def forget_completed(self) -> None:
        """Drop the state only a return to an earlier one reads: completed
        jobs' densities and HDF keys, and the pending rows already admitted.

        For a shadow that is only ever advanced: after this, a
        :meth:`rollback` or :meth:`resume` to a state taken before it fails.
        Costs the jobs completed since the last call plus the live ones."""
        if self._next:
            del self._pending[: self._next]
            self._next = 0
        live = self._remaining.keys() | self._pending_ids
        for jid in [j for j in self._rho if j not in live]:
            del self._rho[jid], self._key[jid]

    def fork(self) -> "ClairvoyantShadow":
        """An untraced twin of the live state, with counters of its own.

        Started through :meth:`snapshot` and :meth:`resume`, carrying the
        densities and HDF keys of the jobs still active, so advancing the
        twin is bit-identical to advancing this shadow — or a fresh replay
        of its inserts and advances — while this shadow stays where it is."""
        twin = ClairvoyantShadow(self.alpha, s_max=self.s_max)
        for jid in self._remaining:
            twin._rho[jid] = self._rho[jid]
            twin._key[jid] = self._key[jid]
        twin.resume(self.snapshot(), self._pending[self._next :])
        return twin


class EpochShadow:
    """Algorithm C over NC-general's epoch instances, rebuilt incrementally.

    NC-general (§4) reads C's run on ``S = {j != j* : processed_j > 0}``
    materialized at the current job's release ``r*`` — the epoch *base* —
    and answers each engine query by admitting ``j*`` with its latest
    processed weight and advancing to ``t``.

    **Rebuilds.**  ``S`` changes between epochs only in the jobs whose
    volume is re-set through :meth:`set_volume`, so C's run on the new ``S``
    agrees with the previous one up to the last release before the earliest
    changed release.  One :class:`ClairvoyantShadow` serves the whole run:
    :meth:`rebuild` advances it one release at a time, keeping a raw
    :class:`ShadowSnapshot` after each admission; the next rebuild resumes
    from the latest snapshot whose ``cutoff`` lies below both the new ``r*``
    and every changed release, re-seeds the jobs of ``S`` released after it,
    advances to ``r*`` and checkpoints.  By the staged-``advance`` contract
    the base equals a from-scratch run of C on ``S`` bit for bit
    (``tests/shadow_oracle.py`` keeps that run as the oracle).

    **Queries.**  When the first decay piece after the base spans ``t`` —
    no completion and no admission is due before ``t`` — :meth:`first_piece`
    returns the weight in closed form from per-base constants, with the
    event loop's own float expressions; every other query is a
    :meth:`ClairvoyantShadow.query_with_job` restore-and-loop.
    """

    def __init__(
        self,
        alpha: float,
        *,
        counters: ShadowCounters | None = None,
        recorder: TraceRecorder | None = None,
        component: str = "shadow",
    ) -> None:
        self.shadow = ClairvoyantShadow(
            alpha, counters=counters, recorder=recorder, component=component
        )
        self.counters = self.shadow.counters
        self._rec = self.shadow._rec
        #: every job revealed so far, in release order: (release, id, density).
        self._jobs: list[tuple[float, int, float]] = []
        self._release_of: dict[int, float] = {}
        #: the job set ``S`` the snapshots were taken on: id -> volume.
        self._volumes: dict[int, float] = {}
        #: earliest release among jobs whose volume changed since the last
        #: rebuild; snapshots at or past it no longer describe ``S``.
        self._stale_from = math.inf
        #: raw snapshots with increasing cutoffs; the first is the empty
        #: shadow before any admission, valid for every ``S``.
        self._snaps = [ShadowSnapshot(0.0, 0.0, (), (), 0.0, -math.inf)]
        self.base: ShadowCheckpoint | None = None
        #: the base's closed-form constants, set by :meth:`rebuild`.
        self._first: tuple[float, float, int, tuple[float, float, int] | None, float, float, float]

    def add_job(self, job_id: int, release: float, density: float) -> None:
        """Reveal a job (in release order); it joins ``S`` via :meth:`set_volume`."""
        if self._jobs and release < self._jobs[-1][0]:
            raise SimulationError(
                f"job {job_id} released at {release}, before job "
                f"{self._jobs[-1][1]} at {self._jobs[-1][0]}"
            )
        self._jobs.append((release, job_id, density))
        self._release_of[job_id] = release

    def set_volume(self, job_id: int, volume: float) -> None:
        """Set a job's volume in ``S`` (``0.0`` removes it)."""
        old = self._volumes.get(job_id, 0.0)
        if volume > 0.0:
            self._volumes[job_id] = volume
        else:
            self._volumes.pop(job_id, None)
            volume = 0.0
        if volume != old:
            self._stale_from = min(self._stale_from, self._release_of[job_id])

    def rebuild(self, at: float, *, now: float, j_star: int | None) -> ShadowCheckpoint:
        """C on ``S`` materialized at ``at``; the new :attr:`base`.

        ``now`` and ``j_star`` only label the ``shadow_rebuild`` trace
        marker, whose ``base_time`` is the resume point: the events after
        it replay C from there, not from ``t = 0``."""
        snaps = self._snaps
        stale = min(at, self._stale_from)
        while len(snaps) > 1 and snaps[-1].cutoff >= stale:
            snaps.pop()
        snap = snaps[-1]
        if self._rec is not None:
            self._rec.emit(
                "shadow_rebuild", now, self.shadow.component, j_star=j_star, base_time=snap.clock
            )
        vols = self._volumes
        start = bisect_right(self._jobs, snap.cutoff, key=itemgetter(0))
        pending = [
            (rel, jid, rho, vols[jid]) for rel, jid, rho in self._jobs[start:] if jid in vols
        ]
        pending.sort()
        shadow = self.shadow
        shadow.resume(snap, pending)
        nxt = shadow.next_release()
        while nxt < at:
            shadow.advance(nxt)
            snaps.append(shadow.snapshot())
            nxt = shadow.next_release()
        shadow.advance(at)
        base = self.base = shadow.checkpoint()
        self._stale_from = math.inf
        # Per-base constants of the closed-form first piece: the HDF-minimum
        # key and the remaining volume of its job, the canonical weight, the
        # size of the active set and the first pending release.
        rem = shadow._remaining
        if rem:
            cur = shadow._heap[0][2]
            key, rho, vol = shadow._key[cur], shadow._rho[cur], rem[cur]
        else:
            key, rho, vol = None, 0.0, 0.0
        t_next = base.pending[0][0] if base.pending else math.inf
        self._first = (base.clock, base.w_accum, len(rem), key, rho, vol, t_next)
        return base

    def first_piece(
        self, t: float, job_id: int | None, release: float, density: float, volume: float
    ) -> float | None:
        """:meth:`query`'s answer in closed form, or ``None`` when the first
        piece after the base does not span ``t``.

        Repeats, float for float, what ``query_with_job`` computes when its
        loop anchors in the first piece: the admission of ``job_id``, the
        single-job exact re-derivation of the total, the piece's completion
        time, and ``remaining_weight``'s decay of the anchored piece."""
        t0, w_base, n_base, key_b, rho_b, vol_b, t_next = self._first
        if job_id is None:
            if not n_base:
                return None
            w_accum, rho, vol, n = w_base, rho_b, vol_b, n_base
        else:
            if release > t0 * (1.0 + _TIE_TOL):
                return None
            w_accum = w_base + density * volume
            n = n_base + 1
            if n_base and key_b < (-density, release, job_id):
                rho, vol = rho_b, vol_b
            else:
                rho, vol = density, volume
        if t <= t0:
            return w_accum if w_accum > 0.0 else 0.0
        if n == 1:
            # The loop's single-job exact re-derivation.  On a canonical
            # base it reproduces ``w_accum`` bit for bit; it stays so that
            # this line is the loop's, whatever the base.
            w_accum = rho * vol
        w_total = w_accum
        if w_total <= 0:
            return None
        beta = self.shadow._beta
        w_end = w_total - rho * vol
        w_end_c = w_end if w_end > 0.0 else 0.0
        tau_complete = (w_total**beta - w_end_c**beta) / (rho * beta)
        if tau_complete < 0.0:
            tau_complete = 0.0
        t_stop = min(t0 + tau_complete, t_next, t)
        if t_stop >= t0 + tau_complete * (1.0 - _TIE_TOL):
            return None  # the piece's job completes first
        if t_stop < t or t_next <= t * (1.0 + _TIE_TOL):
            return None  # an admission is due first
        w_after = decay_weight_after(w_total, rho, t - t0, self.shadow.alpha)
        dv = (w_total - w_after) / rho
        total = w_accum - rho * (vol - max(vol - dv, 0.0))
        return total if total > 0.0 else 0.0

    def query(
        self, t: float, job_id: int | None, release: float, density: float, volume: float
    ) -> float:
        """Remaining weight at ``t`` of C on ``S`` plus ``job_id`` (released
        at ``release``); ``job_id=None`` adds nothing.  Equals
        ``shadow.query_with_job(base, ...)`` bit for bit, counters aside.
        With tracing on, every query takes the loop, so the trace keeps one
        speculative ``shadow_rollback`` marker per query."""
        if self.base is None:
            raise SimulationError("EpochShadow queried before its first rebuild")
        if self._rec is None:
            w = self.first_piece(t, job_id, release, density, volume)
            if w is not None:
                tally = self.counters.registry.values
                tally["rollbacks"] += 1
                tally["queries"] += 1
                if job_id is not None:
                    tally["inserts"] += 1
                return w
        return self.shadow.query_with_job(self.base, t, job_id, release, density, volume)


def shadow_params(power: PowerFunction) -> tuple[float, float | None]:
    """``(alpha, s_max)`` of a power law; ``s_max`` is ``None`` when uncapped.

    The one place the speed cap is read off a power function: every analytic
    simulator and shadow factory takes its dynamics from here, so a
    :class:`~repro.core.power.CappedPowerLaw` is honoured (or
    refused) everywhere alike.
    """
    alpha = getattr(power, "alpha", None)
    if alpha is None:
        raise TypeError(f"analytic shadow oracles require a PowerLaw, got {power!r}")
    return alpha, getattr(power, "s_max", None)


def uncapped_alpha(power: PowerFunction, algorithm: str) -> float:
    """``alpha`` of an uncapped power law; ``TypeError`` naming the cap for a
    capped one, for simulators whose dynamics ignore ``s_max``."""
    alpha, s_max = shadow_params(power)
    if s_max is not None:
        raise TypeError(f"{algorithm} cannot honour the speed cap s_max={s_max} of {power!r}")
    return alpha


class PrefixWeightOracle:
    """One incrementally-extended Algorithm C run answering ``W^C(t)`` queries.

    This is the paper's ``W^C(r[j]-)`` pattern (§3, §6): the speed-rule
    offsets of the per-machine NC-PAR runs (and of NC-uniform, whose runner
    drives a plain forward-only :class:`ClairvoyantShadow`) are remaining
    weights of C simulated over an ever-growing prefix of completed jobs.
    Queries and insertions are expected mostly in nondecreasing time order —
    then each query costs only the events since the previous one.  A query or
    insertion that goes backwards in time triggers a from-scratch rebuild
    (counted in :attr:`ShadowCounters.rebuilds`), which reproduces exactly
    what a fresh simulation would report.
    """

    def __init__(
        self,
        alpha: float,
        *,
        s_max: float | None = None,
        counters: ShadowCounters | None = None,
        recorder: TraceRecorder | None = None,
        component: str = "shadow",
    ) -> None:
        self.alpha = alpha
        self.s_max = s_max
        self.counters = counters if counters is not None else ShadowCounters()
        self.component = component
        self._recorder = recorder
        self._rec = recorder if (recorder is not None and recorder.enabled) else None
        self._jobs: list[tuple[float, int, float, float]] = []  # (release, id, rho, vol)
        self._shadow = ClairvoyantShadow(
            alpha,
            s_max=s_max,
            counters=self.counters,
            recorder=recorder,
            component=component,
        )
        self._dirty = False

    def add_job(self, job_id: int, release: float, density: float, volume: float) -> None:
        self._jobs.append((release, job_id, density, volume))
        if self._dirty:
            return
        if release < self._shadow._t_loop * (1.0 - _TIE_TOL) - 1e-300:
            self._dirty = True
        else:
            self._shadow.insert_job(job_id, release, density, volume)

    def _settle(self, t: float) -> ClairvoyantShadow:
        if self._dirty or t < self._shadow.clock:
            self.counters.rebuilds += 1
            if self._rec is not None:
                self._rec.emit(
                    "shadow_rebuild",
                    t,
                    self.component,
                    from_time=self._shadow.clock,
                    jobs=len(self._jobs),
                    reason="dirty" if self._dirty else "time_regression",
                )
            self._shadow = ClairvoyantShadow(
                self.alpha,
                s_max=self.s_max,
                counters=self.counters,
                recorder=self._recorder,
                component=self.component,
            )
            for release, jid, rho, vol in sorted(self._jobs):
                self._shadow.insert_job(jid, release, rho, vol)
            self._dirty = False
        self._shadow.advance(t)
        return self._shadow

    def weight_at(self, t: float) -> float:
        """``W^C(t)`` over the jobs added so far (left limit at releases ==
        ``t``: a job released exactly at ``t`` counts at full weight)."""
        return self._settle(t).remaining_weight()

    def remaining_items_at(self, t: float) -> list[tuple[int, float, float]]:
        """``(job_id, density, remaining volume)`` of C's live state at ``t``."""
        return self._settle(t).remaining_items()


class SimulationContext:
    """Shared boundary object between the engine and scheduling algorithms.

    Owns the power function, the per-run :class:`ShadowCounters` and (once a
    run starts) the :class:`~repro.core.oracle.VolumeOracle`.  Policies
    receive it via ``SchedulingPolicy.bind`` and obtain their shadow oracles
    from the factories below so all shadow traffic lands in one counter set.
    """

    def __init__(
        self,
        power: PowerFunction,
        *,
        counters: ShadowCounters | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        self.power = power
        self.counters = counters if counters is not None else ShadowCounters()
        #: the run's metrics substrate — counters are a view over it.
        self.metrics = self.counters.registry
        self.recorder: TraceRecorder = recorder if recorder is not None else NULL_RECORDER
        self.oracle = None  # set by the engine at run start
        #: fault-injection hooks, wired by :mod:`repro.faults`.  All default
        #: to inert (``None``) so an unfaulted run pays one attribute read.
        #: ``oracle_factory`` lets the engine build a (possibly faulty)
        #: oracle; ``volume_filter`` perturbs volumes revealed to analytic
        #: NC simulators; ``step_interceptor`` corrupts the engine's
        #: per-step processed volume.
        self.oracle_factory: Callable[[Any], Any] | None = None
        self.volume_filter: Callable[[int, float], float] | None = None
        self.step_interceptor: Callable[[float, int, float], float] | None = None

    # -- checkpoint / restore (supervised runtime) ---------------------------

    def checkpoint(self, label: str = "", sim_time: float = 0.0) -> ContextCheckpoint:
        """Snapshot the context's metrics substrate (counters included,
        since :class:`ShadowCounters` is a view over it).  Deliberately does
        not bump any counter: taking a checkpoint must leave the run's
        observable state untouched."""
        return ContextCheckpoint(
            label=label,
            sim_time=float(sim_time),
            metrics=tuple(self.metrics.values.items()),
        )

    def restore(self, ckpt: ContextCheckpoint) -> None:
        """Restore a :meth:`checkpoint` snapshot in place (the counters view
        stays coherent because the registry dict is mutated, not replaced)."""
        self.metrics.values.clear()
        self.metrics.values.update(dict(ckpt.metrics))
        self.oracle = None

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None:
        """Guarded convenience emit — a no-op when tracing is off.

        Hot loops should still hoist ``context.recorder`` themselves; this is
        for one-shot emissions (run headers, phase markers)."""
        rec = self.recorder
        if rec.enabled:
            rec.emit(kind, sim_time, component, **payload)

    def shadow(
        self,
        *,
        power: PowerFunction | None = None,
        record: Callable[[str, float, float, int, float], None] | None = None,
        component: str = "shadow",
    ) -> ClairvoyantShadow:
        """A fresh :class:`ClairvoyantShadow` wired to this context's counters
        and recorder."""
        alpha, s_max = shadow_params(self.power if power is None else power)
        return ClairvoyantShadow(
            alpha,
            s_max=s_max,
            counters=self.counters,
            record=record,
            recorder=self.recorder,
            component=component,
        )

    def prefix_oracle(
        self, *, power: PowerFunction | None = None, component: str = "shadow"
    ) -> PrefixWeightOracle:
        """A fresh :class:`PrefixWeightOracle` wired to this context's counters
        and recorder."""
        alpha, s_max = shadow_params(self.power if power is None else power)
        return PrefixWeightOracle(
            alpha,
            s_max=s_max,
            counters=self.counters,
            recorder=self.recorder,
            component=component,
        )
