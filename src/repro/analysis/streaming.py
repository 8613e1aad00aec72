"""Single-pass trace verification: bounded-memory reports of any-size runs.

:func:`repro.analysis.trace_report.build_report` checks the paper's
invariants from a trace.  They are all expressible as one-pass running
sums, so this module derives the report from a single forward iteration
with memory bounded by the number of **jobs**, never the number of events:

* :class:`OrderingChecker` — the per-``(component, kind)`` watermark
  contract, honoring ``shadow_rollback`` / ``shadow_rebuild`` / ``retry``
  rewind boundaries.
* :class:`ComponentStatsAggregator` — per-component event counts, kind
  histograms and wall-clock extents.
* :class:`IncrementalScheduleReplayer` — the heart: an online mirror of
  ``ScheduleBuilder`` + ``Schedule`` + ``metrics.evaluate`` for one
  component.  It keeps the online Lemma 3 energy accumulator (segment
  energies summed in schedule order) and the online Lemma 4 flow
  accumulator (per-job remaining-volume integrals advanced segment by
  segment), admitting each job at its release and retiring its closed-form
  state the moment its completion time is fixed, so each segment costs
  O(live jobs).  A segment is held only while a later one could still
  sort before it.
* :class:`StreamingReportBuilder` — feeds one event at a time to the above
  and assembles the final :class:`~repro.analysis.trace_report.TraceReport`.

Parity contract
---------------

``tests/trace_oracle.py`` keeps the list-materializing replay this module
replaced: rebuild each component's ``Schedule`` through a
``ScheduleBuilder``, then ``evaluate`` it.  On every trace whose kept
segments (positive duration, surviving attempt) do not overlap once sorted
by ``t0``, the streaming report is ``==`` to the oracle's — same floats,
same check verdicts — and on every trace the oracle rejects with a
:class:`~repro.core.errors.ScheduleError`, the streaming path raises one
with the same message.  That holds because both perform the *same float
operations in the same order*:

* ``ScheduleBuilder.append``'s clock check admits a segment whose ``t0``
  regresses by up to ``1e-9·max(1, clock)``, and ``Schedule`` then
  stable-sorts by ``t0``.  The replayer keeps each kept segment in a
  ``t0``-sorted pending list until ``t0 <= clock - 1e-9·max(1, clock)``:
  every later segment the clock check accepts starts at or after that
  horizon, so nothing can still sort before it, and released order *is*
  schedule order.  Only a segment shorter than the tolerance is ever held
  past its own arrival; builder-fed traces (nondecreasing ``t0``) pass
  straight through.  ``Schedule``'s overlap check runs online against the
  previous released segment.
* The energy sum, each job's completion-time scan, and each job's
  remaining-volume integral are accumulated left-to-right in schedule order
  exactly as the batch code does; per-job arithmetic is independent across
  jobs, so transposing the loops (segment-outer instead of job-outer)
  reproduces the identical operation sequence per job.
* ``evaluate``'s completion fallback (a job finishing by accumulated-float
  shortfall at its last touch) clips the integral at the job's *last*
  processed segment; the replayer snapshots the integral state after every
  processed segment of the job so the finish step can restore exactly that
  clip.
* Error semantics mirror the batch path's control flow: builder/constructor
  errors surface as soon as the batch replay would have raised them,
  validation and completion errors are recorded online and raised at
  ``finish()`` in the batch order (replay C, replay NC, evaluate C,
  evaluate NC, per pair) — so consumers that catch ``ScheduleError`` (the
  chaos harness's lemma guard) observe identical behavior.

The contract stops at segments that overlap *inside* the 1e-9 overlap
tolerance, which both paths accept.  When a job completes inside such an
overlap, the oracle clips every segment's integral at that completion time,
known before its integral pass; the replayer learns it only at the
completing segment, after it has integrated the earlier-starting segment to
that segment's end.  The flows then differ in the last bits (a minimal
case streams 0.12500000030000002 where the oracle gives 0.1250000003);
energies and verdicts agree.  ``tests/test_streaming.py`` proves the
contract differentially — on the golden corpus, across ``retry``
boundaries, on random segment streams with sub-tolerance ``t0``
regressions — and pins that minimal case.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Any

from ..core.errors import InvalidInstanceError, InvalidPowerFunctionError, ScheduleError
from ..core.job import Instance, Job
from ..core.power import PowerLaw
from ..core.schedule import Segment, segment_from_trace
from ..core.tracing import TraceEvent

# trace_report only imports this module lazily (inside build_report), so the
# top-level import here is acyclic.
from .trace_report import (
    _PAIRS,
    ComponentStats,
    InvariantCheck,
    TraceReport,
    _close,
)

#: The components whose kernel streams feed the lemma replayers.
_PAIR_COMPONENTS = frozenset(c for pair in _PAIRS for c in pair)

__all__ = [
    "StreamOrderError",
    "OrderingChecker",
    "ComponentStatsAggregator",
    "IncrementalScheduleReplayer",
    "StreamingReportBuilder",
]

#: Same tolerance the schedule layer uses for clock/overlap slack.
_REL_TOL = 1e-9
#: Same tolerance ``metrics.validate_schedule`` uses for volume conservation.
_VOL_TOL = 1e-6
#: Bound on what one pass holds back: replay events buffered until the
#: ``run_meta`` header decides the instance, and one component's kernel
#: segments held for re-sorting.  A real trace writes the header first and
#: regresses ``t0`` only by slivers, so neither bound is approached in
#: practice.
_BUFFER_LIMIT = 65536


def _malformed(index: int, event: TraceEvent, err: Exception) -> ValueError:
    return ValueError(
        f"event {index}: malformed {event.kind} payload: {type(err).__name__}: {err}"
    )


class StreamOrderError(ValueError):
    """The stream holds back more than a single pass may buffer.

    Raised when replay events overflow the pre-``run_meta`` buffer (or a
    component's re-sort list); a header-first trace never does.
    """


class OrderingChecker:
    """Online per-``(component, kind)`` monotone ``sim_time`` check."""

    def __init__(self) -> None:
        self._last: dict[tuple[str, str], float] = {}
        self.violations: list[str] = []

    def feed(self, index: int, event: TraceEvent) -> None:
        if event.kind == "retry":
            self._last.clear()
            return
        if event.kind in ("shadow_rollback", "shadow_rebuild"):
            for key in [k for k in self._last if k[0] == event.component]:
                del self._last[key]
            return
        key = (event.component, event.kind)
        prev = self._last.get(key)
        if prev is not None and event.sim_time < prev:
            self.violations.append(
                f"event {index}: {event.component}/{event.kind} at "
                f"sim_time={event.sim_time} after {prev} with no rollback boundary"
            )
        self._last[key] = event.sim_time


class _CompAccum:
    __slots__ = ("events", "by_kind", "wall_start", "wall_end")

    def __init__(self, wall: float) -> None:
        self.events = 0
        self.by_kind: dict[str, int] = {}
        self.wall_start = wall
        self.wall_end = wall


class ComponentStatsAggregator:
    """Running per-component event counts / kind histograms / wall extents."""

    def __init__(self) -> None:
        self._comps: dict[str, _CompAccum] = {}

    def feed(self, event: TraceEvent) -> None:
        acc = self._comps.get(event.component)
        if acc is None:
            acc = self._comps[event.component] = _CompAccum(event.wall_time)
        acc.events += 1
        acc.by_kind[event.kind] = acc.by_kind.get(event.kind, 0) + 1
        if event.wall_time < acc.wall_start:
            acc.wall_start = event.wall_time
        if event.wall_time > acc.wall_end:
            acc.wall_end = event.wall_time

    def finish(self) -> list[ComponentStats]:
        return [
            ComponentStats(
                component=comp,
                events=acc.events,
                by_kind=dict(sorted(acc.by_kind.items())),
                wall_start=acc.wall_start,
                wall_end=acc.wall_end,
            )
            for comp, acc in sorted(self._comps.items())
        ]


class _JobState:
    """Mutable per-job accumulator mirroring one job's arithmetic in
    ``Schedule.completion_time`` and ``metrics._remaining_volume_integral``."""

    __slots__ = (
        "job",
        "got",
        "remaining_ct",
        "last_end",
        "completion",
        "total",
        "cursor",
        "remaining_iv",
        "snap_total",
        "snap_cursor",
        "snap_remaining_iv",
        "frac",
        "done",
    )

    def __init__(self, job: Job) -> None:
        self.job = job
        #: ``Schedule.processed_volume`` mirror (validation + error messages).
        self.got: float = 0
        # completion_time scan state
        self.remaining_ct = job.volume
        self.last_end: float | None = None
        self.completion: float | None = None
        # _remaining_volume_integral state (completion treated as +inf while
        # unknown; the batch path knows it up front, but every segment it
        # clips at the completion boundary is either the completing segment —
        # where we learn the completion *before* the integral step — or a
        # later segment contributing zero, so the transposition is exact)
        self.total = 0.0
        self.cursor = job.release
        self.remaining_iv = job.volume
        # snapshot after each processed segment of this job, for the
        # completion-fallback clip at finish()
        self.snap_total = 0.0
        self.snap_cursor = job.release
        self.snap_remaining_iv = job.volume
        self.frac = 0.0
        self.done = False


class IncrementalScheduleReplayer:
    """Online ``ScheduleBuilder`` + ``Schedule`` + ``evaluate`` for one component.

    Feed ``kernel_eval`` payloads with :meth:`feed`; a supervisor ``retry``
    on the component calls :meth:`reset` (the discarded attempt's segments
    vanish, exactly as the batch replay restarts its builder).  At the end,
    :meth:`finalize_replay` raises any error the batch *replay* would have
    raised, and :meth:`finalize_eval` raises any error the batch *evaluate*
    would have raised — in the batch path's order — then returns the
    component's ``(energy, fractional_flow)``.

    Memory is O(jobs), and each segment costs O(live jobs): a job joins the
    per-segment update set when the first segment ending after its release
    arrives (every earlier segment leaves its accumulators untouched) and
    retires from it the moment its completion time is fixed.  A segment is
    retained only while a later one could still sort before it.
    """

    def __init__(self, component: str, instance: Instance, power: PowerLaw) -> None:
        self.component = component
        self.instance = instance
        self.power = power
        #: Count of replayed kernel events in the surviving attempt (the
        #: batch replay builds no schedule — no evaluation — when 0).
        self.n = 0
        #: First error the batch replay iteration would raise (permanent:
        #: the batch path scans every event, retry or not).
        self.poison: Exception | None = None
        #: ``(job, segment)`` integral steps taken so far, across attempts:
        #: the replay's work, linear in the segments when jobs are admitted
        #: at release.
        self.integral_steps = 0
        self._reset_attempt()

    def _reset_attempt(self) -> None:
        self.n = 0
        self._clock = 0.0  # ScheduleBuilder clock mirror
        self._pending: list[Segment] = []  # kept segments awaiting release, by t0
        self._prev: tuple[float, float] | None = None  # last released (t0, t1)
        self._energy: float = 0
        self._build_error: ScheduleError | None = None  # first overlap
        self._seg_violation: ScheduleError | None = None  # first validate hit
        self._jobs: dict[int, _JobState] = {
            job.job_id: _JobState(job) for job in self.instance
        }
        # Jobs not yet admitted, earliest release last, so admission pops.
        self._unreleased: list[_JobState] = sorted(
            self._jobs.values(), key=lambda js: js.job.release, reverse=True
        )
        self._active: dict[int, _JobState] = {}

    def reset(self) -> None:
        """A ``retry`` boundary: discard the failed attempt entirely."""
        self._reset_attempt()

    def feed(self, payload: dict[str, Any]) -> None:
        """One ``kernel_eval`` event of this component."""
        if self.poison is not None:
            return
        try:
            segment = segment_from_trace(payload)
            # ScheduleBuilder.append mirror: clock check, then advance.
            if segment.t0 < self._clock - _REL_TOL * max(1.0, self._clock):
                raise ScheduleError(
                    f"segment starts at {segment.t0} before builder clock {self._clock}"
                )
        except ScheduleError as err:
            self.poison = err
            return
        self._clock = max(self._clock, segment.t1)
        self.n += 1
        # Schedule.__init__ mirror: every later segment starts at or after
        # this horizon, so a kept segment at or before it is in sorted place.
        horizon = self._clock - _REL_TOL * max(1.0, self._clock)
        pending = self._pending
        if segment.duration > 0:
            if not pending and segment.t0 <= horizon:
                self._consume(segment)
                return
            if len(pending) >= _BUFFER_LIMIT:
                raise StreamOrderError(
                    f"component {self.component!r}: more than {_BUFFER_LIMIT} "
                    f"kernel segments within the clock tolerance of t={self._clock}"
                )
            insort(pending, segment, key=attrgetter("t0"))
        while pending and pending[0].t0 <= horizon:
            self._consume(pending.pop(0))

    def _consume(self, segment: Segment) -> None:
        """One kept segment, in schedule order: overlap check and evaluate."""
        if self._prev is not None and self._build_error is None:
            pa, pb = self._prev
            if segment.t0 < pb - _REL_TOL * max(1.0, abs(pb)):
                self._build_error = ScheduleError(
                    f"segments overlap: [{pa},{pb}] then [{segment.t0},{segment.t1}]"
                )
        self._prev = (segment.t0, segment.t1)
        # evaluate mirror, transposed to segment-outer order.
        self._energy += segment.energy(self.power)
        self._validate_segment(segment)
        job_id = segment.job_id
        state = self._jobs.get(job_id) if job_id is not None else None
        if state is not None:
            state.got += segment.volume()
        self._advance_jobs(segment, state)

    def _validate_segment(self, segment: Segment) -> None:
        """``validate_schedule``'s per-segment loop, first hit recorded."""
        if self._seg_violation is not None or segment.job_id is None:
            return
        if segment.job_id not in self.instance:
            self._seg_violation = ScheduleError(
                f"segment references unknown job {segment.job_id}"
            )
            return
        release = self.instance[segment.job_id].release
        if segment.t0 < release - 1e-9 * max(1.0, release):
            self._seg_violation = ScheduleError(
                f"job {segment.job_id} processed at {segment.t0} before release {release}"
            )

    def _advance_jobs(self, segment: Segment, seg_state: _JobState | None) -> None:
        """Advance every live job's completion scan and flow integral."""
        # Completion-time step first: the batch path knows each completion
        # before its integral pass, and the completing segment is clipped at
        # the completion found *within it*.
        if seg_state is not None and not seg_state.done and seg_state.completion is None:
            v = segment.volume()
            if v >= seg_state.remaining_ct * (1 - 1e-9):
                seg_state.completion = segment.t0 + segment.time_to_volume(
                    min(seg_state.remaining_ct, v)
                )
            else:
                seg_state.remaining_ct -= v
                seg_state.last_end = segment.t1
        unreleased = self._unreleased
        while unreleased and unreleased[-1].job.release < segment.t1:
            js = unreleased.pop()
            self._active[js.job.job_id] = js
        self.integral_steps += len(self._active)
        retired: list[int] = []
        for job_id, js in self._active.items():
            if self._advance_integral(js, segment):
                retired.append(job_id)
        for job_id in retired:
            del self._active[job_id]

    def _advance_integral(self, js: _JobState, segment: Segment) -> bool:
        """``_remaining_volume_integral``'s loop body for one (job, segment).

        Returns True once the job's integral is final (retire it)."""
        completion = js.completion if js.completion is not None else float("inf")
        if segment.t1 <= js.cursor or segment.t0 >= completion:
            return js.completion is not None
        a = max(segment.t0, js.cursor)
        b = min(segment.t1, completion)
        if b <= a:
            return js.completion is not None
        if a > js.cursor:
            js.total += js.remaining_iv * (a - js.cursor)
        if segment.job_id != js.job.job_id:
            js.total += js.remaining_iv * (b - a)
        else:
            la, lb = a - segment.t0, b - segment.t0
            v_la = segment.volume_until(la)
            v_lb = segment.volume_until(lb)
            inner = (segment.flow_integral(lb) - segment.flow_integral(la)) - v_la * (lb - la)
            js.total += js.remaining_iv * (lb - la) - inner
            js.remaining_iv = max(js.remaining_iv - (v_lb - v_la), 0.0)
        js.cursor = b
        if segment.job_id == js.job.job_id:
            # Fallback-clip snapshot: if the job later completes by the
            # accumulated-shortfall rule, the batch integral ends exactly
            # here (completion = this segment's t1), discarding everything
            # after the last processed segment.
            js.snap_total = js.total
            js.snap_cursor = js.cursor
            js.snap_remaining_iv = js.remaining_iv
            if js.completion is not None:
                # Normal completion: cursor == completion now, so every later
                # segment contributes zero — the integral is final.
                js.frac = js.job.density * js.total
                js.done = True
                return True
        return False

    def finalize_replay(self) -> None:
        """Release the held segments; raise whatever the batch replay would."""
        if self.poison is not None:
            raise self.poison
        for segment in self._pending:
            self._consume(segment)
        self._pending.clear()
        if self.n and self._build_error is not None:
            raise self._build_error

    def finalize_eval(self) -> tuple[float, float]:
        """Mirror ``evaluate``: validation, completions, then the sums."""
        # validate_schedule: segment loop first, then per-job volumes in
        # instance order.
        if self._seg_violation is not None:
            raise self._seg_violation
        for job in self.instance:
            js = self._jobs[job.job_id]
            if abs(js.got - job.volume) > _VOL_TOL * max(1.0, job.volume):
                raise ScheduleError(
                    f"job {job.job_id} processed volume {js.got}, requires {job.volume}"
                )
        # Per-job completion resolution in instance order.
        for job in self.instance:
            js = self._jobs[job.job_id]
            if js.done:
                continue
            if js.completion is None:
                if js.last_end is not None and js.remaining_ct <= 1e-6 * max(1.0, job.volume):
                    js.completion = js.last_end
                    js.total = js.snap_total
                    js.cursor = js.snap_cursor
                    js.remaining_iv = js.snap_remaining_iv
                else:
                    raise ScheduleError(
                        f"job {job.job_id} never accumulates volume {job.volume} "
                        f"(processed {js.got})"
                    )
            if js.cursor < js.completion:
                js.total += js.remaining_iv * (js.completion - js.cursor)
            js.frac = js.job.density * js.total
            js.done = True
        fractional_flow: float = 0
        for job in self.instance:
            fractional_flow += self._jobs[job.job_id].frac
        return self._energy, fractional_flow


class StreamingReportBuilder:
    """Drive every aggregator from one forward pass and assemble the report.

    ``feed`` each event in order, then ``finish()`` returns the
    :class:`~repro.analysis.trace_report.TraceReport`.  Replay events seen
    before the ``run_meta`` header are buffered (bounded); the *first*
    header decides the instance, even when it lacks one.  A header that
    cannot be replayed (a malformed instance row, an invalid ``alpha``)
    raises :class:`ValueError` naming the event's index.  A ``kernel_eval``
    payload that :func:`~repro.core.schedule.segment_from_trace` cannot
    decode (a missing, ``null`` or non-numeric field, an unknown profile)
    fails its component's replay with that
    :class:`~repro.core.errors.ScheduleError`, like an invalid segment.
    """

    def __init__(self, *, rel_tol: float) -> None:
        self.rel_tol = rel_tol
        self._n = 0
        self._ordering = OrderingChecker()
        self._stats = ComponentStatsAggregator()
        self._meta_decided = False
        self._meta: tuple[Instance, PowerLaw] | None = None
        self._buffer: list[TraceEvent] = []
        self._replayers: dict[str, IncrementalScheduleReplayer] = {}

    def feed(self, event: TraceEvent) -> None:
        index = self._n
        self._ordering.feed(index, event)
        self._stats.feed(event)
        self._n += 1
        if not self._meta_decided:
            if event.kind == "run_meta":
                self._decide_meta(index, event)
                return
            if (
                event.kind in ("kernel_eval", "retry")
                and event.component in _PAIR_COMPONENTS
            ):
                if len(self._buffer) >= _BUFFER_LIMIT:
                    raise StreamOrderError(
                        f"more than {_BUFFER_LIMIT} replay events "
                        f"before any run_meta header"
                    )
                self._buffer.append(event)
            return
        self._route(event)

    def _decide_meta(self, index: int, event: TraceEvent) -> None:
        """The first ``run_meta`` decides, even when it lacks the instance
        (the batch path stops scanning there too)."""
        self._meta_decided = True
        spec = event.payload.get("instance")
        alpha = event.payload.get("alpha")
        if spec is None or alpha is None:
            self._buffer.clear()
            return
        try:
            inst = Instance([Job(int(j), float(r), float(v), float(d)) for j, r, v, d in spec])
            power = PowerLaw(float(alpha))
        except (TypeError, ValueError, InvalidInstanceError, InvalidPowerFunctionError) as err:
            raise _malformed(index, event, err) from err
        self._meta = (inst, power)
        for pair in _PAIRS:
            for comp in pair:
                self._replayers[comp] = IncrementalScheduleReplayer(comp, inst, power)
        buffered, self._buffer = self._buffer, []
        for buffered_event in buffered:
            self._route(buffered_event)

    def _route(self, event: TraceEvent) -> None:
        if self._meta is None:
            return
        replayer = self._replayers.get(event.component)
        if replayer is None:
            return
        if event.kind == "retry":
            replayer.reset()
        elif event.kind == "kernel_eval":
            replayer.feed(event.payload)

    def finish(self) -> TraceReport:
        checks: list[InvariantCheck] = []
        energies: dict[str, float] = {}
        if self._meta is not None:
            _, power = self._meta
            for c_comp, nc_comp in _PAIRS:
                rc = self._replayers[c_comp]
                rn = self._replayers[nc_comp]
                # Batch order: replay C, replay NC, evaluate C, evaluate NC.
                rc.finalize_replay()
                rn.finalize_replay()
                res_c = rc.finalize_eval() if rc.n else None
                if res_c is not None:
                    energies[c_comp] = res_c[0]
                res_nc = rn.finalize_eval() if rn.n else None
                if res_nc is not None:
                    energies[nc_comp] = res_nc[0]
                if res_c is None or res_nc is None:
                    continue
                energy_c, flow_c = res_c
                energy_nc, flow_nc = res_nc
                checks.append(
                    InvariantCheck(
                        name=f"Lemma 3: energy({nc_comp}) == energy({c_comp})",
                        holds=_close(energy_nc, energy_c, self.rel_tol),
                        lhs=energy_nc,
                        rhs=energy_c,
                        detail=f"replayed from kernel_eval events, rel_tol={self.rel_tol:g}",
                    )
                )
                if c_comp == "C":
                    # Lemma 4's exact ratio holds only uncapped (the capped
                    # ratio degrades with the cap; see
                    # extensions.bounded_speed).
                    factor = 1.0 / (1.0 - 1.0 / power.alpha)
                    expected = flow_c * factor
                    checks.append(
                        InvariantCheck(
                            name="Lemma 4: flow(NC) == flow(C) / (1 - 1/alpha)",
                            holds=_close(flow_nc, expected, self.rel_tol),
                            lhs=flow_nc,
                            rhs=expected,
                            detail=f"alpha={power.alpha:g}, factor={factor:.6g}",
                        )
                    )
        return TraceReport(
            n_events=self._n,
            components=self._stats.finish(),
            checks=checks,
            order_violations=self._ordering.violations,
            energies=energies,
        )
