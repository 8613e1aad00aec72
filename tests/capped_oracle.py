"""Test oracle for the speed-bounded model: the dedicated capped simulators.

Algorithm C and Algorithm NC under a :class:`~repro.extensions.bounded_speed.
CappedPowerLaw` used to have their own drivers, separate from the uncapped
``simulate_clairvoyant`` / ``simulate_nc_uniform``.  The shipped simulators
now read the cap off the power function; this module keeps the dedicated
drivers as an independent reference:

* :func:`simulate_clairvoyant_capped` — Algorithm C with the clipped speed
  rule, recording ``const`` pieces at the cap and ``decay`` pieces below it;
* :func:`simulate_nc_uniform_capped` — Algorithm NC with the clipped growth
  rule: growth up to ``P(s_max)``, then constant speed ``s_max``;
* :func:`max_observed_speed` — the peak of a schedule's speed profile,
  sampled on a uniform grid.

The differential tests pin the shipped simulators to these bit for bit:
segments, cost reports and trace events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.job import Instance
from repro.core.kernels import growth_time_between
from repro.core.schedule import (
    ConstantSegment,
    DecaySegment,
    GrowthSegment,
    Schedule,
    ScheduleBuilder,
)
from repro.core.shadow import ClairvoyantShadow, SimulationContext
from repro.extensions.bounded_speed import CappedPowerLaw


@dataclass(frozen=True)
class CappedRun:
    """Outcome of a capped reference simulation."""

    instance: Instance
    power: CappedPowerLaw
    schedule: Schedule
    clock: float
    remaining: dict[int, float]


def max_observed_speed(schedule: Schedule, samples: int = 512) -> float:
    """The largest speed of ``schedule`` on ``samples`` grid points of
    ``[0, end]``."""
    end = schedule.end_time
    return max(schedule.speed_at(end * k / (samples - 1)) for k in range(samples))


def simulate_clairvoyant_capped(
    instance: Instance,
    power: CappedPowerLaw,
    *,
    until: float | None = None,
    context: SimulationContext | None = None,
) -> CappedRun:
    """Algorithm C with speed clipped at ``s_max`` (exact, event-driven)."""
    if not isinstance(power, CappedPowerLaw):
        raise TypeError("the capped reference needs a CappedPowerLaw")
    alpha = power.alpha
    horizon = math.inf if until is None else float(until)
    builder = ScheduleBuilder()

    def record(kind: str, t0: float, t1: float, jid: int, value: float) -> None:
        if kind == "const":
            builder.append(ConstantSegment(t0, t1, jid, value))
        else:
            builder.append(DecaySegment(t0, t1, jid, value, instance[jid].density, alpha))

    shadow = ClairvoyantShadow(
        alpha,
        s_max=power.s_max,
        record=record,
        counters=context.counters if context is not None else None,
        recorder=context.recorder if context is not None else None,
        component="C_capped",
    )
    for job in instance.jobs:
        shadow.insert_job(job.job_id, job.release, job.density, job.volume)
    shadow.advance(horizon)
    shadow.materialize()
    return CappedRun(
        instance=instance,
        power=power,
        schedule=builder.build(),
        clock=shadow.clock,
        remaining=shadow.remaining_dict(),
    )


def simulate_nc_uniform_capped(
    instance: Instance,
    power: CappedPowerLaw,
    *,
    context: SimulationContext | None = None,
) -> CappedRun:
    """Algorithm NC (uniform densities) with speed clipped at ``s_max``.

    While processing job ``j`` the driver ``U = W^C(r[j]-) + W̆[j]`` grows;
    once ``U`` exceeds ``P(s_max)`` the machine saturates and ``U`` grows
    linearly to the job's end.  ``W^C(r[j]-)`` is read from one capped
    incremental clairvoyant prefix run; the first job's offset is ``0.0``
    without a query.
    """
    if not isinstance(power, CappedPowerLaw):
        raise TypeError("the capped reference needs a CappedPowerLaw")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("the §3 algorithm requires uniform densities")
    alpha = power.alpha
    u_sat = power.saturation_weight
    if context is None:
        context = SimulationContext(power)
    oracle = context.prefix_oracle(component="NC_capped.prefix")
    rec = context.recorder if context.recorder.enabled else None
    jobs = list(instance.jobs)
    revealed = 0
    builder = ScheduleBuilder()
    t = 0.0
    for job in instance:  # FIFO
        start = max(t, job.release)
        rho = job.density
        while revealed < len(jobs) and jobs[revealed].release < job.release:
            prev = jobs[revealed]
            oracle.add_job(prev.job_id, prev.release, prev.density, prev.volume)
            revealed += 1
        offset = oracle.weight_at(job.release) if revealed else 0.0

        if rec is not None:
            rec.emit(
                "release", job.release, "NC_capped", job=job.job_id, density=rho, offset=offset
            )
        u_end = offset + job.weight
        cursor = start
        if offset < u_sat:
            # Growth phase up to the cap (or the job's end).
            u_stop = min(u_end, u_sat)
            tau = growth_time_between(offset, u_stop, rho, alpha)
            if tau > 0:
                builder.append(GrowthSegment(cursor, cursor + tau, job.job_id, offset, rho, alpha))
                if rec is not None:
                    rec.emit(
                        "kernel_eval",
                        cursor,
                        "NC_capped",
                        profile="growth",
                        t0=cursor,
                        t1=cursor + tau,
                        job=job.job_id,
                        x0=offset,
                        rho=rho,
                        alpha=alpha,
                    )
                cursor += tau
            reached = u_stop
        else:
            reached = offset
        if u_end > reached:
            # Saturated phase: constant speed to the finish line.
            tau = (u_end - reached) / (rho * power.s_max)
            builder.append(ConstantSegment(cursor, cursor + tau, job.job_id, power.s_max))
            if rec is not None:
                rec.emit(
                    "kernel_eval",
                    cursor,
                    "NC_capped",
                    profile="const",
                    t0=cursor,
                    t1=cursor + tau,
                    job=job.job_id,
                    speed=power.s_max,
                    rho=rho,
                    alpha=alpha,
                )
            cursor += tau
        if cursor <= start:
            raise SimulationError(f"job {job.job_id} made no progress")
        if rec is not None:
            rec.emit("completion", cursor, "NC_capped", job=job.job_id)
        t = cursor
    return CappedRun(
        instance=instance, power=power, schedule=builder.build(), clock=t, remaining={}
    )
