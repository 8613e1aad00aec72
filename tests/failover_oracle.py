"""Test oracle for NC-PAR's machine-failure model: the dedicated failover twin.

NC-PAR under the lost-work machine-failure model used to have its own driver,
a copy of ``simulate_nc_par``'s loop.  The shipped simulator now takes
``failure=(machine, time)``; this module keeps the dedicated driver as an
independent reference, exactly as it shipped.  It emits no
``release``/``kernel_eval``/``completion`` events and ignores
``context.volume_filter`` — the merged simulator does both, so the
differential compares assignments and segments on unfaulted reveals.
"""

from __future__ import annotations

import heapq
import math

from repro.core.errors import InvalidInstanceError
from repro.core.job import Instance, Job
from repro.core.kernels import growth_time_between
from repro.core.power import PowerLaw
from repro.core.schedule import GrowthSegment, ScheduleBuilder
from repro.core.shadow import SimulationContext, uncapped_alpha
from repro.faults.injector import FaultInjector
from repro.parallel.cluster import ClusterRun


def simulate_nc_par_with_failure(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    dead_machine: int,
    fail_time: float,
    context: SimulationContext | None = None,
    injector: FaultInjector | None = None,
) -> ClusterRun:
    """NC-PAR under the lost-work machine-failure model.

    Machine ``dead_machine`` dies at ``fail_time``: a job whose processing on
    it would extend past the failure is killed there (its partial work is
    lost and *not* recorded — the surviving schedule alone must account for
    its full volume) and re-enters the global FIFO queue at
    ``max(release, fail_time)``; after the failure the machine accepts
    nothing.  Emits a ``fault_injected`` event at the kill and a ``recovery``
    event when the last re-released job lands on a survivor.
    """
    if machines < 2:
        raise InvalidInstanceError("machine failure needs at least 2 machines")
    if not 0 <= dead_machine < machines:
        raise InvalidInstanceError(f"dead_machine {dead_machine} out of range")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("NC-PAR (§6) is defined for uniform densities")
    alpha = uncapped_alpha(power, "NC-PAR")
    if context is None:
        context = SimulationContext(power)
    survivors = [i for i in range(machines) if i != dead_machine]
    free = [0.0] * machines
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    oracles = [
        context.prefix_oracle(component=f"nc_par.m{i}.prefix") for i in range(machines)
    ]
    dead_alive = True
    requeued: list[int] = []

    def mark_dead(job_id: int | None) -> None:
        # First moment the failure takes effect (mid-flight kill or
        # dead-on-arrival): record it exactly once, through the injector's
        # budget when one is attached.
        context.metrics.increment("machine_failures")
        if injector is not None:
            injector.fire_external(
                "machine_failure", fail_time, machine=dead_machine, job=job_id
            )
        else:
            context.emit(
                "fault_injected",
                fail_time,
                "faults",
                fault="machine_failure",
                machine=dead_machine,
                job=job_id,
                at_time=fail_time,
            )

    todo: list[tuple[float, int, Job]] = [(j.release, j.job_id, j) for j in instance]
    heapq.heapify(todo)
    while todo:
        rel_eff, _, job = heapq.heappop(todo)
        cands = list(range(machines)) if dead_alive else survivors
        idle = [i for i in cands if free[i] <= rel_eff]
        chosen = min(idle) if idle else min(cands, key=lambda i: (free[i], i))
        start = max(rel_eff, free[chosen])
        if chosen == dead_machine and start >= fail_time:
            # Found dead on arrival: requeue among survivors only.
            dead_alive = False
            free[dead_machine] = math.inf
            mark_dead(None)
            heapq.heappush(todo, (rel_eff, job.job_id, job))
            continue
        offset = oracles[chosen].weight_at(rel_eff) if assignments[chosen] else 0.0
        tau = growth_time_between(offset, offset + job.weight, job.density, alpha)
        if chosen == dead_machine and start + tau > fail_time:
            # Killed mid-flight: lost work, machine gone, job re-released.
            dead_alive = False
            free[dead_machine] = math.inf
            requeued.append(job.job_id)
            mark_dead(job.job_id)
            heapq.heappush(
                todo, (max(job.release, fail_time), job.job_id, job)
            )
            continue
        builders[chosen].append(
            GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha)
        )
        assignments[chosen].append(job.job_id)
        oracles[chosen].add_job(job.job_id, rel_eff, job.density, job.volume)
        free[chosen] = start + tau
        if requeued and job.job_id == requeued[-1]:
            context.emit(
                "recovery",
                start + tau,
                "faults",
                action="machine_failover",
                job=job.job_id,
                machine=chosen,
                from_machine=dead_machine,
            )
    schedules = {i: builders[i].build() for i in range(machines) if assignments[i]}
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
