"""Algorithm C — the clairvoyant baseline (Bansal, Chan, Pruhs; SODA 2009).

Scheduling rule: **highest density first** (HDF), ties broken FIFO (the
paper's §4 convention).  Speed rule: **power equals remaining weight**,
``P(s(t)) = W(t)`` where ``W(t) = Σ_j rho[j]·V[j](t)`` over active jobs.

Theorem 1: Algorithm C is 2-competitive for fractional weighted flow-time plus
energy, and its total fractional flow-time *equals* its total energy — both
are ``∫ W(t) dt``.

This module simulates Algorithm C *exactly* for ``P(s)=s**alpha`` by driving
the incremental :class:`~repro.core.shadow.ClairvoyantShadow` — the closed-form
weight decay between scheduler events (releases and completions); see
:mod:`repro.core.kernels` — and recording one :class:`DecaySegment` per event
(plus saturated :class:`ConstantSegment` pieces under a speed cap).
For general power functions use :class:`ClairvoyantPolicy` on the numeric
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.engine import SchedulingPolicy
from ..core.job import Instance, Job
from ..core.power import PowerFunction, PowerLaw
from ..core.schedule import ConstantSegment, DecaySegment, Schedule, ScheduleBuilder
from ..core.shadow import ClairvoyantShadow, SimulationContext, shadow_params

__all__ = ["ClairvoyantRun", "simulate_clairvoyant", "ClairvoyantPolicy", "hdf_key"]


def hdf_key(job: Job) -> tuple[float, float, int]:
    """Sort key for highest-density-first with FIFO tie-breaking."""
    return (-job.density, job.release, job.job_id)


@dataclass(frozen=True)
class ClairvoyantRun:
    """The outcome of an exact Algorithm C simulation.

    ``clock`` is the time the simulation stopped: the last completion, or the
    ``until`` horizon if one was given.  ``remaining`` maps job id to remaining
    volume at ``clock`` (empty when the run finished all jobs).
    """

    instance: Instance
    power: PowerLaw
    schedule: Schedule
    clock: float
    remaining: dict[int, float]

    def remaining_weight_at(self, t: float, *, include_release_at_t: bool = True) -> float:
        """Total remaining fractional weight ``W(t)`` at time ``t``.

        With ``include_release_at_t=False`` this is the left limit
        ``W(t-)`` — the quantity Algorithm NC reads at a release instant.
        """
        total = 0.0
        for job in self.instance:
            if job.release > t or (not include_release_at_t and job.release >= t):
                continue
            done = self.schedule.processed_volume_until(job.job_id, t)
            left = job.volume - done
            # Clamp float residue from completed jobs: a 1e-16 leftover gets
            # amplified by the 1/beta exponent wherever this feeds a kernel.
            if left <= 1e-15 * job.volume:
                left = 0.0
            total += job.density * left
        return total

    def remaining_volume_at(self, job_id: int, t: float) -> float:
        job = self.instance[job_id]
        if job.release > t:
            return job.volume
        return max(job.volume - self.schedule.processed_volume_until(job_id, t), 0.0)

    def completion_time(self, job_id: int) -> float:
        return self.schedule.completion_time(job_id, self.instance[job_id].volume)

    def weight_profile(self, samples: int = 256) -> tuple[list[float], list[float]]:
        """``(times, W(t))`` sampled densely over the run — Fig. 1a / Fig. 2b
        material."""
        end = self.schedule.end_time
        times = [end * k / (samples - 1) for k in range(samples)]
        return times, [self.remaining_weight_at(t) for t in times]


def simulate_clairvoyant(
    instance: Instance,
    power: PowerLaw,
    *,
    until: float | None = None,
    context: SimulationContext | None = None,
    component: str | None = None,
) -> ClairvoyantRun:
    """Exact event-driven simulation of Algorithm C under ``P(s)=s**alpha``.

    A :class:`~repro.core.power.CappedPowerLaw` clips the speed
    rule at its ``s_max``: while the remaining weight exceeds ``P(s_max)``
    the machine saturates (one :class:`ConstantSegment` per piece, weight
    falling linearly), then the ordinary decay takes over.

    With ``until`` given, the simulation stops at that time (useful for the
    shadow simulations of Algorithm NC, which only need the state of C at the
    current moment); otherwise it runs to the last completion.

    ``context`` — if given — routes the shadow's counters and trace events
    into that :class:`~repro.core.shadow.SimulationContext`.  ``component``
    tags the trace events; it defaults to ``"C"``, or ``"C_capped"`` under a
    cap.
    """
    if not isinstance(power, PowerLaw):
        raise TypeError("analytic Algorithm C requires a PowerLaw; use ClairvoyantPolicy otherwise")
    alpha, s_max = shadow_params(power)
    horizon = math.inf if until is None else float(until)

    builder = ScheduleBuilder()

    if s_max is None:

        def record(kind: str, t0: float, t1: float, jid: int, w0: float) -> None:
            builder.append(DecaySegment(t0, t1, jid, w0, instance[jid].density, alpha))

    else:

        def record(kind: str, t0: float, t1: float, jid: int, w0: float) -> None:
            if kind == "const":
                builder.append(ConstantSegment(t0, t1, jid, w0))
            else:
                builder.append(DecaySegment(t0, t1, jid, w0, instance[jid].density, alpha))

    if component is None:
        component = "C" if s_max is None else "C_capped"
    shadow = ClairvoyantShadow(
        alpha,
        s_max=s_max,
        record=record,
        counters=context.counters if context is not None else None,
        recorder=context.recorder if context is not None else None,
        component=component,
    )
    for job in instance.jobs:
        shadow.insert_job(job.job_id, job.release, job.density, job.volume)
    shadow.advance(horizon)
    shadow.materialize()
    return ClairvoyantRun(
        instance=instance,
        power=power,
        schedule=builder.build(),
        clock=shadow.clock,
        remaining=shadow.remaining_dict(),
    )


class ClairvoyantPolicy(SchedulingPolicy):
    """Algorithm C as a policy for the generic numeric engine.

    Being clairvoyant, it is constructed with the true instance (this is the
    *baseline*, not a non-clairvoyant algorithm) and works for any power
    function.
    """

    def __init__(self, instance: Instance, power: PowerFunction) -> None:
        self.instance = instance
        self.power = power
        self._active: set[int] = set()

    def on_release(self, t: float, job_id: int, density: float) -> None:
        self._active.add(job_id)

    def on_completion(self, t: float, job_id: int, volume: float) -> None:
        self._active.discard(job_id)

    def select_job(self, t: float) -> int | None:
        if not self._active:
            return None
        return min((self.instance[j] for j in self._active), key=hdf_key).job_id

    def speed(self, t: float, processed: dict[int, float]) -> float:
        w = sum(
            self.instance[j].density * max(self.instance[j].volume - processed.get(j, 0.0), 0.0)
            for j in self._active
        )
        return self.power.speed(w)
