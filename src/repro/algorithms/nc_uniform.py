"""Algorithm NC — the non-clairvoyant algorithm for uniform densities (§3).

Scheduling rule: **first-in first-out** — always run the active job with the
earliest release.  Speed rule: while processing job ``j`` at time ``t``,

    ``P(s(t)) = W^C(r[j]-) + W̆[j](t)``

where ``W^C(r[j]-)`` is the remaining weight of *Algorithm C simulated on the
prefix instance* (all jobs released strictly before ``r[j]``, whose volumes NC
has already learned by completing them — FIFO guarantees this) just before
``r[j]``, and ``W̆[j](t)`` is the weight of ``j`` that NC has processed so far.

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
from dataclasses import dataclass

from ..core.engine import NumericEngine, SchedulingPolicy
from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance, Job
from ..core.kernels import growth_time_between
from ..core.power import PowerFunction, PowerLaw
from ..core.schedule import ConstantSegment, GrowthSegment, Schedule, ScheduleBuilder
from ..core.shadow import PrefixWeightOracle, SimulationContext, shadow_params
from ..core.tracing import TraceRecorder
from .clairvoyant import ClairvoyantPolicy

__all__ = ["NCUniformRun", "simulate_nc_uniform", "NCUniformPolicy"]


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


def simulate_nc_uniform(
    instance: Instance,
    power: PowerLaw,
    *,
    context: SimulationContext | None = None,
    component: str | None = None,
) -> NCUniformRun:
    """Exact simulation of Algorithm NC on a uniform-density instance.

    All per-job speed-rule offsets ``W^C(r[j]-)`` come from **one**
    incrementally-extended clairvoyant shadow run (jobs are revealed to it in
    FIFO order, strictly-earlier releases first), not from per-job fresh
    simulations — the offsets are bit-identical either way, see
    :class:`~repro.core.shadow.PrefixWeightOracle`.

    A :class:`~repro.extensions.bounded_speed.CappedPowerLaw` clips the growth
    rule at its ``s_max``: once ``U`` reaches ``P(s_max)`` the machine
    saturates and ``U`` grows *linearly* to the job's end (a
    :class:`ConstantSegment` after the growth piece), and the prefix shadow
    runs capped too.  ``component`` tags the trace events; it defaults to
    ``"NC"``, or ``"NC_capped"`` under a cap.
    """
    if not isinstance(power, PowerLaw):
        raise TypeError("analytic Algorithm NC requires a PowerLaw; use NCUniformPolicy otherwise")
    if not instance.is_uniform_density():
        raise InvalidInstanceError(
            "Algorithm NC (§3) requires uniform densities; "
            "use simulate_nc_general for the non-uniform case"
        )
    alpha, s_max = shadow_params(power)
    # The saturation level P(s_max); inf uncapped, so no job ever reaches it.
    u_sat = math.inf if s_max is None else s_max**alpha
    if component is None:
        component = "NC" if s_max is None else "NC_capped"
    builder = ScheduleBuilder()
    offsets: dict[int, float] = {}
    starts: dict[int, float] = {}
    if context is None:
        context = SimulationContext(power)
    oracle = context.prefix_oracle(power=power, component=f"{component}.prefix")
    recorder = context.recorder
    rec = recorder if recorder.enabled else None  # zero-overhead hoist
    filt = context.volume_filter  # fault reveal channel; None when unfaulted
    jobs = list(instance.jobs)
    revealed = 0
    t = 0.0
    for job in instance:  # FIFO == release order
        start = max(t, job.release)
        # The speed-rule constant: Algorithm C's remaining weight just before
        # r[j], over the prefix of already-completed (hence known) jobs.  The
        # oracle reads C's live state rather than re-integrating a schedule:
        # completed jobs are exactly absent, so no 1e-16 residue survives
        # (residues get amplified by the 1/beta exponent of the growth curve
        # when alpha is close to 1).
        while revealed < len(jobs) and jobs[revealed].release < job.release:
            prev = jobs[revealed]
            vol = prev.volume
            if filt is not None:
                vol = filt(prev.job_id, vol)
                if not (math.isfinite(vol) and vol > 0.0):
                    raise SimulationError(
                        f"revealed volume of job {prev.job_id} corrupted to {vol}",
                        time=job.release,
                        job=prev.job_id,
                        value=vol,
                    )
            oracle.add_job(prev.job_id, prev.release, prev.density, vol)
            revealed += 1
        offset = oracle.weight_at(job.release)
        offsets[job.job_id] = offset
        starts[job.job_id] = start
        # U grows from offset to offset + W[j]; the job completes when all of
        # its (only now revealed) weight has been processed.
        u_end = offset + job.weight
        if u_end > u_sat:
            t = _saturated_job(
                builder, rec, component, job, start, offset, u_end, u_sat, s_max, alpha
            )
            continue
        tau = growth_time_between(offset, u_end, job.density, alpha)
        builder.append(GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha))
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
                profile="growth",
                t0=start,
                t1=start + tau,
                job=job.job_id,
                x0=offset,
                rho=job.density,
                alpha=alpha,
            )
            rec.emit("completion", start + tau, component, job=job.job_id)
        t = start + tau
    return NCUniformRun(
        instance=instance, power=power, schedule=builder.build(), offsets=offsets, starts=starts
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
                    profile="growth",
                    t0=cursor,
                    t1=cursor + tau,
                    job=job.job_id,
                    x0=offset,
                    rho=rho,
                    alpha=alpha,
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
                profile="const",
                t0=cursor,
                t1=cursor + tau,
                job=job.job_id,
                speed=s_max,
                rho=rho,
                alpha=alpha,
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
        """``W^C(release-)`` from the jobs completed so far (all jobs released
        strictly before ``release``, by FIFO)."""
        if isinstance(self.power, PowerLaw):
            # One incrementally-extended shadow run serves every offset
            # query; FIFO makes both the queries and the insertions monotone.
            if self._prefix_oracle is None:
                self._prefix_oracle = self.context.prefix_oracle(power=self.power)
            for jid, (r, rho) in self._released.items():
                if r < release and jid not in self._in_oracle:
                    if jid not in self._completed:
                        raise SimulationError(
                            f"FIFO invariant broken: job {jid} released before {release} "
                            "has not completed when its successor starts"
                        )
                    self._prefix_oracle.add_job(jid, r, rho, self._completed[jid])
                    self._in_oracle.add(jid)
            return self._prefix_oracle.weight_at(release)

        prefix_jobs = []
        for jid, (r, rho) in self._released.items():
            if r < release:
                if jid not in self._completed:
                    raise SimulationError(
                        f"FIFO invariant broken: job {jid} released before {release} "
                        "has not completed when its successor starts"
                    )
                prefix_jobs.append(Job(jid, r, self._completed[jid], rho))
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
