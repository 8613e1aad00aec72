"""Algorithm NC — the non-clairvoyant algorithm for uniform densities (§3).

Scheduling rule: **first-in first-out** — always run the active job with the
earliest release.  Speed rule: while processing job ``j`` at time ``t``,

    ``P(s(t)) = W^C(r[j]-) + W̆[j](t)``

where ``W^C(r[j]-)`` is the remaining weight of *Algorithm C simulated on the
prefix instance* (every job FIFO ran before ``j``: those released before
``r[j]`` and those tied with it but of smaller id, whose volumes NC has
already learned by completing them) just before ``r[j]``, and ``W̆[j](t)``
is the weight of ``j`` that NC has processed so far.

Guarantees reproduced by the test-suite as *equalities*:

* Lemma 3 — energy(NC) == energy(C);
* Lemma 4 — fractional flow(NC) == fractional flow(C) / (1 − 1/α);
* Theorem 5 — NC is ``2 + 1/(α−1)``-competitive (fractional);
* Lemma 8 / Theorem 9 — ``3 + 1/(α−1)``-competitive (integral).

For ``P(s)=s**alpha`` the dynamics while a job runs are the growth kernel
``dU/dt = rho·U**(1/alpha)`` with ``U = W^C(r[j]-) + W̆[j]``, so the whole run
is computed in closed form: one :class:`~repro.core.schedule.GrowthSegment`
per job (under a speed cap, followed by a constant-speed piece once ``U``
passes ``P(s_max)``).  Note that the speed while processing ``j`` depends only on ``j``'s
own progress and on jobs released *before* ``j`` — later arrivals never change
it — which is why the simulation is a single FIFO pass.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable

from ..core.engine import NumericEngine, SchedulingPolicy
from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance, Job
from ..core.kernels import growth_time_between
from ..core.metrics import CostReport, _job_costs, validate_schedule
from ..core.power import PowerFunction, PowerLaw
from ..core.schedule import (
    ConstantSegment,
    GrowthSegment,
    Schedule,
    ScheduleBuilder,
    trace_payload,
)
from ..core.shadow import PrefixWeightOracle, SimulationContext, shadow_params
from ..core.tracing import TraceRecorder
from .clairvoyant import ClairvoyantPolicy

__all__ = ["NCUniformRun", "NCUniformRunner", "simulate_nc_uniform", "NCUniformPolicy"]


@dataclass(frozen=True)
class NCUniformRun:
    """Outcome of an exact Algorithm NC simulation.

    ``offsets`` maps each job id to its speed-rule constant ``W^C(r[j]-)``;
    ``starts`` maps each job to the time NC began processing it.
    """

    instance: Instance
    power: PowerLaw
    schedule: Schedule
    offsets: dict[int, float]
    starts: dict[int, float]

    def processed_weight_at(self, job_id: int, t: float) -> float:
        """``W̆[j](t)`` — the weight of job ``j`` processed by time ``t``."""
        job = self.instance[job_id]
        return job.density * self.schedule.processed_volume_until(job_id, t)

    def completion_time(self, job_id: int) -> float:
        return self.schedule.completion_time(job_id, self.instance[job_id].volume)


class NCUniformRunner:
    """Algorithm NC's FIFO pass, fed arrivals a batch at a time.

    NC runs jobs first-in first-out, and its speed on job ``j`` depends only
    on ``W^C(r[j]-)`` and ``j``'s own progress, so the segments placed for a
    job never change when later jobs arrive.  The runner therefore places
    each job as :meth:`extend` receives it and scores it once, the first
    time :meth:`report` runs after that, with :func:`~repro.core.metrics.
    evaluate`'s own per-job code.  Jobs must arrive in instance order
    (release, then id): a job that sorts before one already placed would
    rewrite NC's past and is refused.

    :func:`simulate_nc_uniform` drives one runner over a whole instance; a
    service session keeps one alive and feeds it only the arrivals since its
    last read, so a read costs the new arrivals, not the whole stream.
    """

    def __init__(
        self,
        power: PowerLaw,
        *,
        context: SimulationContext | None = None,
        component: str | None = None,
    ) -> None:
        if not isinstance(power, PowerLaw):
            raise TypeError(
                "analytic Algorithm NC requires a PowerLaw; use NCUniformPolicy otherwise"
            )
        self.power = power
        self._alpha, self._s_max = shadow_params(power)
        # The saturation level P(s_max); inf uncapped, so no job ever reaches it.
        self._u_sat = math.inf if self._s_max is None else self._s_max**self._alpha
        if component is None:
            component = "NC" if self._s_max is None else "NC_capped"
        self.component = component
        if context is None:
            context = SimulationContext(power)
        # Algorithm C over the jobs NC has completed.  NC reveals them in
        # release order, each at or after the shadow's clock, so the shadow
        # only ever moves forward (no PrefixWeightOracle rebuild can arise).
        self._prefix = context.shadow(power=power, component=f"{component}.prefix")
        self._rec = context.recorder if context.recorder.enabled else None  # zero-overhead hoist
        self._filt = context.volume_filter  # fault reveal channel; None when unfaulted
        #: the jobs placed so far, in FIFO (instance) order
        self.jobs: list[Job] = []
        # Per placed job, in the order of ``jobs``: flat arrays, not dicts,
        # since a service session keeps its runner for as long as it lives.
        self._offsets = array("d")
        self._starts = array("d")
        self._builder = ScheduleBuilder()
        self._first_segment = array("q")  # each job's first segment's index
        self._revealed = 0
        self._t = 0.0
        # Scoring state, extended by report().
        self._scored = 0
        self._energies = array("d")
        self._completions = array("d")
        self._integral = array("d")
        self._fractional = array("d")

    @property
    def offsets(self) -> dict[int, float]:
        """Each placed job's speed-rule constant ``W^C(r[j]-)``."""
        return dict(zip((j.job_id for j in self.jobs), self._offsets))

    @property
    def starts(self) -> dict[int, float]:
        """The time NC began processing each placed job."""
        return dict(zip((j.job_id for j in self.jobs), self._starts))

    def extend(self, batch: Iterable[Job]) -> None:
        """Place ``batch``, in order, after the jobs placed so far.

        The whole batch is checked first — instance order and uniform
        density — so a refused batch changes nothing."""
        batch = list(batch)
        jobs = self.jobs
        prev = jobs[-1] if jobs else None
        if batch:
            rho = jobs[0].density if jobs else batch[0].density
            for job in batch:
                if prev is not None and (job.release, job.job_id) <= (prev.release, prev.job_id):
                    raise SimulationError(
                        f"job {job.job_id} (release {job.release}) does not follow job "
                        f"{prev.job_id} (release {prev.release}) in FIFO order",
                        job=job.job_id,
                    )
                if not math.isclose(job.density, rho, rel_tol=1e-12):
                    raise InvalidInstanceError(
                        "Algorithm NC (§3) requires uniform densities; "
                        "use simulate_nc_general for the non-uniform case"
                    )
                prev = job
        alpha, s_max, u_sat = self._alpha, self._s_max, self._u_sat
        component, prefix, rec, filt = self.component, self._prefix, self._rec, self._filt
        builder, segments = self._builder, self._builder.segments
        offsets, starts = self._offsets, self._starts
        first_segment = self._first_segment
        revealed, t = self._revealed, self._t
        try:
            for job in batch:  # FIFO == release order
                start = max(t, job.release)
                # The speed-rule constant: Algorithm C's remaining weight just
                # before r[j], over the prefix of already-completed (hence
                # known) jobs: every placed job, since each precedes ``job``
                # in FIFO order, a job tied in release with ``job`` included.
                # The shadow reads C's live state rather than re-integrating
                # a schedule: completed jobs are exactly absent, so no 1e-16
                # residue survives (residues get amplified by the 1/beta
                # exponent of the growth curve when alpha is close to 1).
                while revealed < len(jobs):
                    done = jobs[revealed]
                    vol = done.volume
                    if filt is not None:
                        vol = filt(done.job_id, vol)
                        if not (math.isfinite(vol) and vol > 0.0):
                            raise SimulationError(
                                f"revealed volume of job {done.job_id} corrupted to {vol}",
                                time=job.release,
                                job=done.job_id,
                                value=vol,
                            )
                    prefix.insert_job(done.job_id, done.release, done.density, vol)
                    revealed += 1
                prefix.advance(job.release)
                offset = prefix.remaining_weight()
                offsets.append(offset)
                starts.append(start)
                first_segment.append(len(segments))
                jobs.append(job)
                # U grows from offset to offset + W[j]; the job completes when
                # all of its (only now revealed) weight has been processed.
                u_end = offset + job.weight
                if u_end > u_sat:
                    assert s_max is not None
                    t = _saturated_job(
                        builder, rec, component, job, start, offset, u_end, u_sat, s_max, alpha
                    )
                    continue
                tau = growth_time_between(offset, u_end, job.density, alpha)
                builder.append(
                    GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha)
                )
                if rec is not None:
                    rec.emit(
                        "release",
                        job.release,
                        component,
                        job=job.job_id,
                        density=job.density,
                        offset=offset,
                    )
                    rec.emit(
                        "kernel_eval",
                        start,
                        component,
                        **trace_payload(
                            "growth", start, start + tau, job.job_id, offset, job.density, alpha
                        ),
                    )
                    rec.emit("completion", start + tau, component, job=job.job_id)
                t = start + tau
        finally:
            self._revealed, self._t = revealed, t
            if batch:
                prefix.forget_completed()

    def schedule(self) -> Schedule:
        """NC's schedule of the jobs placed so far."""
        return self._builder.build()

    def report(self) -> CostReport:
        """``evaluate(self.schedule(), Instance(self.jobs), self.power)``, bit
        for bit, validating and scoring only the jobs placed since the last
        call.

        A job's costs read its own segments and the ones in its window
        ``[release, completion]``.  Segments placed later start at or after
        the job's last segment ends, so scoring the new jobs on a tail of
        the schedule that holds every segment ending after the earliest new
        release gives exactly the floats the full schedule gives.  Energy
        keeps ``evaluate``'s sum over every segment, in schedule order."""
        segments = self._builder.segments
        power = self.power
        energies = self._energies
        energies.extend(seg.energy(power) for seg in segments[len(energies) :])
        jobs, first_segment = self.jobs, self._first_segment
        if self._scored < len(jobs):
            # The tail starts at the first job with a segment ending after
            # the earliest new release; every segment before it ends earlier.
            release = jobs[self._scored].release
            k = self._scored
            while k > 0 and segments[first_segment[k] - 1].t1 > release:
                k -= 1
            tail = Schedule(segments[first_segment[k] :])
            # Scored jobs in the tail pass again; the first error a new job
            # raises is the one evaluate raises.
            validate_schedule(tail, Instance(jobs[k:]))
            del self._completions[self._scored :], self._integral[self._scored :]
            del self._fractional[self._scored :]
            for job in jobs[self._scored :]:
                c, integ, frac = _job_costs(tail, job)
                self._completions.append(c)
                self._integral.append(integ)
                self._fractional.append(frac)
            self._scored = len(jobs)
        ids = [j.job_id for j in jobs]
        return CostReport(
            energy=sum(energies),
            fractional_flow_by_job=dict(zip(ids, self._fractional)),
            integral_flow_by_job=dict(zip(ids, self._integral)),
            completion_times=dict(zip(ids, self._completions)),
        )


def simulate_nc_uniform(
    instance: Instance,
    power: PowerLaw,
    *,
    context: SimulationContext | None = None,
    component: str | None = None,
) -> NCUniformRun:
    """Exact simulation of Algorithm NC on a uniform-density instance.

    All per-job speed-rule offsets ``W^C(r[j]-)`` come from **one**
    incrementally-extended clairvoyant shadow run (each job is revealed to it
    once NC has completed it, in FIFO order), not from per-job fresh
    simulations — the offsets are bit-identical either way, by the shadow's
    staged-advance contract.  The pass itself is one :class:`NCUniformRunner`
    fed the whole instance.

    A :class:`~repro.core.power.CappedPowerLaw` clips the growth
    rule at its ``s_max``: once ``U`` reaches ``P(s_max)`` the machine
    saturates and ``U`` grows *linearly* to the job's end (a
    :class:`ConstantSegment` after the growth piece), and the prefix shadow
    runs capped too.  ``component`` tags the trace events; it defaults to
    ``"NC"``, or ``"NC_capped"`` under a cap.
    """
    runner = NCUniformRunner(power, context=context, component=component)
    runner.extend(instance)
    return NCUniformRun(
        instance=instance,
        power=power,
        schedule=runner.schedule(),
        offsets=runner.offsets,
        starts=runner.starts,
    )


def _saturated_job(
    builder: ScheduleBuilder,
    rec: TraceRecorder | None,
    component: str,
    job: Job,
    start: float,
    offset: float,
    u_end: float,
    u_sat: float,
    s_max: float,
    alpha: float,
) -> float:
    """Place a job whose driver ``U`` ends above the cap ``P(s_max)``: growth
    up to the cap (if ``U`` starts below it), then constant speed ``s_max``
    to the finish line.  Returns the job's completion time."""
    rho = job.density
    if rec is not None:
        rec.emit("release", job.release, component, job=job.job_id, density=rho, offset=offset)
    cursor = start
    if offset < u_sat:
        tau = growth_time_between(offset, u_sat, rho, alpha)
        if tau > 0:
            builder.append(GrowthSegment(cursor, cursor + tau, job.job_id, offset, rho, alpha))
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    cursor,
                    component,
                    **trace_payload(
                        "growth", cursor, cursor + tau, job.job_id, offset, rho, alpha
                    ),
                )
            cursor += tau
        reached = u_sat
    else:
        reached = offset
    if u_end > reached:
        tau = (u_end - reached) / (rho * s_max)
        builder.append(ConstantSegment(cursor, cursor + tau, job.job_id, s_max))
        if rec is not None:
            rec.emit(
                "kernel_eval",
                cursor,
                component,
                **trace_payload("const", cursor, cursor + tau, job.job_id, s_max, rho, alpha),
            )
        cursor += tau
    if cursor <= start:
        raise SimulationError(f"job {job.job_id} made no progress")
    if rec is not None:
        rec.emit("completion", cursor, component, job=job.job_id)
    return cursor


class NCUniformPolicy(SchedulingPolicy):
    """Algorithm NC as a policy for the generic numeric engine.

    Works for any power function (Lemmas 3 and 6 hold in that generality);
    the prefix shadow run of Algorithm C is analytic under a
    :class:`PowerLaw` and numeric otherwise.  The policy is honestly
    non-clairvoyant: it learns densities from ``on_release`` and volumes from
    ``on_completion`` only.
    """

    def __init__(
        self, power: PowerFunction, shadow_max_step: float = 1e-3, epsilon: float = 1e-6
    ) -> None:
        self.power = power
        self.shadow_max_step = shadow_max_step
        self.epsilon = epsilon
        self._released: dict[int, tuple[float, float]] = {}  # id -> (release, density)
        self._completed: dict[int, float] = {}  # id -> revealed volume
        self._active: list[int] = []  # FIFO queue
        self._offsets: dict[int, float] = {}
        self._starts: dict[int, float] = {}  # first time each job was driven
        #: incremental prefix shadow (PowerLaw only); jobs enter it as their
        #: volumes are revealed by completion.
        self._prefix_oracle: PrefixWeightOracle | None = None
        self._in_oracle: set[int] = set()

    def on_release(self, t: float, job_id: int, density: float) -> None:
        self._released[job_id] = (t, density)
        self._active.append(job_id)

    def on_completion(self, t: float, job_id: int, volume: float) -> None:
        self._completed[job_id] = volume
        self._active.remove(job_id)

    def select_job(self, t: float) -> int | None:
        return self._active[0] if self._active else None

    def speed(self, t: float, processed: dict[int, float]) -> float:
        job_id = self._active[0]
        release, density = self._released[job_id]
        offset = self._offsets.get(job_id)
        if offset is None:
            offset = self._prefix_remaining_weight(release)
            self._offsets[job_id] = offset
        self._starts.setdefault(job_id, t)
        u = offset + density * processed.get(job_id, 0.0)
        if u <= 0.0:
            # Degenerate start: P(s) = 0 + 0.  The growth ODE's non-trivial
            # solution (the time reversal of the clairvoyant decay; Fig 1b)
            # leaves zero immediately — follow it exactly for power laws,
            # epsilon-bootstrap otherwise (the paper's fix, §4).
            tau = max(t - self._starts[job_id], 0.0)
            if isinstance(self.power, PowerLaw) and tau > 0.0:
                from ..core.kernels import growth_weight_after

                u = growth_weight_after(0.0, density, tau, self.power.alpha)
            else:
                return self.epsilon
        return self.power.speed(u)

    def _prefix_remaining_weight(self, release: float) -> float:
        """``W^C(release-)`` from the jobs completed so far: under FIFO, every
        job that ran before the current one, a job tied in release with it
        included."""
        if isinstance(self.power, PowerLaw):
            # One incrementally-extended shadow run serves every offset
            # query; FIFO makes both the queries and the insertions monotone.
            if self._prefix_oracle is None:
                self._prefix_oracle = self.context.prefix_oracle(power=self.power)
            for jid, volume in self._completed.items():
                if jid not in self._in_oracle:
                    r, rho = self._released[jid]
                    self._prefix_oracle.add_job(jid, r, rho, volume)
                    self._in_oracle.add(jid)
            return self._prefix_oracle.weight_at(release)

        prefix_jobs = [
            Job(jid, self._released[jid][0], volume, self._released[jid][1])
            for jid, volume in self._completed.items()
        ]
        if not prefix_jobs:
            return 0.0
        prefix = Instance(prefix_jobs)
        engine = NumericEngine(self.power, max_step=self.shadow_max_step)
        result = engine.run(prefix, ClairvoyantPolicy(prefix, self.power))
        total = 0.0
        for job in prefix:
            done = result.schedule.processed_volume_until(job.job_id, release)
            total += job.density * max(job.volume - done, 0.0)
        return total
