"""Test oracle for the parallel-machine families: the four separate loops.

``repro.parallel`` used to implement each of its two parallel rules twice:
greedy immediate dispatch as C-PAR (re-simulating Algorithm C from ``t = 0``
for every (job, machine) pair) and as C-HDF-PAR (incremental prefix
oracles), and the global queue as NC-PAR (a FIFO heap) and as NC-HDF-PAR (a
clock loop that re-sorts its queue at every decision).  The shipped package
now has one loop per rule; this module keeps the four drivers as they
shipped, as independent references:

* :func:`remaining_weight_on_machine` / :func:`simulate_c_par` — C-PAR;
* :func:`simulate_c_hdf_par` — C-HDF-PAR;
* :func:`simulate_nc_par` — NC-PAR without a machine failure (the failover
  driver is ``failover_oracle.py``), with its ``nc_par.m{i}`` trace events
  and ``context.volume_filter``;
* :func:`simulate_nc_hdf_par` — NC-HDF-PAR, with its ``+ 1e-15`` clock
  slack;
* :func:`cluster_from_assignments` — the per-machine Algorithm C / NC block
  the dispatchers and the §6 adversary's benchmark each wrote out.

The differential tests pin the shipped families to these with ``==``.
"""

from __future__ import annotations

import heapq
import math

from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.density_rounding import round_density_down
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.job import Instance, Job
from repro.core.kernels import growth_time_between
from repro.core.power import PowerLaw
from repro.core.schedule import GrowthSegment, ScheduleBuilder
from repro.core.shadow import SimulationContext, uncapped_alpha
from repro.parallel.cluster import ClusterRun


def cluster_from_assignments(
    instance: Instance,
    power: PowerLaw,
    assignments: dict[int, list[int]],
    per_machine: str = "C",
    *,
    context: SimulationContext | None = None,
    component: str | None = None,
) -> ClusterRun:
    """Each loaded machine's jobs through Algorithm C (or NC)."""
    simulate = simulate_clairvoyant if per_machine == "C" else simulate_nc_uniform
    schedules = {}
    for i in range(len(assignments)):
        if assignments[i]:
            sub = instance.subset(assignments[i])
            assert sub is not None
            name = None if component is None else f"{component}.m{i}.{per_machine}"
            schedules[i] = simulate(sub, power, context=context, component=name).schedule
    return ClusterRun(
        instance=instance,
        power=power,
        machines=len(assignments),
        assignments=assignments,
        schedules=schedules,
    )


def remaining_weight_on_machine(
    assigned: list[int], instance: Instance, power: PowerLaw, at: float
) -> float:
    """Remaining fractional weight at time ``at`` of Algorithm C run on the
    machine-local instance ``assigned`` (empty machines weigh nothing)."""
    if not assigned:
        return 0.0
    sub = instance.subset(assigned)
    assert sub is not None
    run = simulate_clairvoyant(sub, power, until=at)
    return sum(sub[jid].density * v for jid, v in run.remaining.items())


def c_par_assignments(
    instance: Instance, power: PowerLaw, machines: int
) -> dict[int, list[int]]:
    """C-PAR's greedy least-remaining-weight dispatch, by re-simulation."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    for job in instance:  # release order; dispatch is immediate
        weights = [
            (remaining_weight_on_machine(assignments[i], instance, power, job.release), i)
            for i in range(machines)
        ]
        _, chosen = min(weights)  # least weight, ties by machine index
        assignments[chosen].append(job.job_id)
    return assignments


def simulate_c_par(instance: Instance, power: PowerLaw, machines: int) -> ClusterRun:
    """C-PAR: greedy dispatch + per-machine Algorithm C."""
    return cluster_from_assignments(instance, power, c_par_assignments(instance, power, machines))


def simulate_c_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """C-HDF-PAR: greedy dispatch on same-or-higher rounded-density weight."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    rounded = {j.job_id: round_density_down(j.density, beta) for j in instance}
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    if context is None:
        context = SimulationContext(power)
    oracles = [context.prefix_oracle() for _ in range(machines)]

    def high_density_weight(machine: int, jid: int, at: float) -> float:
        if not assignments[machine]:
            return 0.0
        cls = rounded[jid]
        return sum(
            rho * v
            for k, rho, v in oracles[machine].remaining_items_at(at)
            if rounded[k] >= cls
        )

    for job in instance:
        weights = [
            (high_density_weight(i, job.job_id, job.release), i) for i in range(machines)
        ]
        _, chosen = min(weights)
        assignments[chosen].append(job.job_id)
        oracles[chosen].add_job(job.job_id, job.release, job.density, job.volume)
    return cluster_from_assignments(instance, power, assignments)


def simulate_nc_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """NC-PAR: a global FIFO heap, one machine-local prefix oracle each."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("NC-PAR (§6) is defined for uniform densities")
    alpha = uncapped_alpha(power, "NC-PAR")
    if context is None:
        context = SimulationContext(power)

    free = [0.0] * machines
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    oracles = [
        context.prefix_oracle(component=f"nc_par.m{i}.prefix") for i in range(machines)
    ]
    recorder = context.recorder
    rec = recorder if recorder.enabled else None
    filt = context.volume_filter

    queue: list[tuple[float, int, Job]] = [(j.release, j.job_id, j) for j in instance]
    while queue:
        rel, _, job = heapq.heappop(queue)
        idle = [i for i in range(machines) if free[i] <= rel]
        chosen = min(idle) if idle else min(range(machines), key=lambda i: (free[i], i))
        start = max(rel, free[chosen])
        offset = oracles[chosen].weight_at(rel) if assignments[chosen] else 0.0
        tau = growth_time_between(offset, offset + job.weight, job.density, alpha)
        builders[chosen].append(
            GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha)
        )
        if rec is not None:
            comp = f"nc_par.m{chosen}"
            rec.emit(
                "release", rel, comp,
                job=job.job_id, density=job.density, machine=chosen, offset=offset,
            )
            rec.emit(
                "kernel_eval", start, comp,
                profile="growth", t0=start, t1=start + tau, job=job.job_id,
                x0=offset, rho=job.density, alpha=alpha,
            )
            rec.emit("completion", start + tau, comp, job=job.job_id)
        assignments[chosen].append(job.job_id)
        vol = job.volume
        if filt is not None:
            vol = filt(job.job_id, vol)
            if not (math.isfinite(vol) and vol > 0.0):
                raise SimulationError(
                    f"revealed volume of job {job.job_id} corrupted to {vol}",
                    time=start + tau,
                    job=job.job_id,
                    value=vol,
                )
        oracles[chosen].add_job(job.job_id, rel, job.density, vol)
        free[chosen] = start + tau

    schedules = {i: builders[i].build() for i in range(machines) if assignments[i]}
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )


def simulate_nc_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """NC-HDF-PAR: a clock loop re-sorting its queue at every decision."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    alpha = uncapped_alpha(power, "NC-HDF-PAR")
    rounded = {j.job_id: round_density_down(j.density, beta) for j in instance}
    if context is None:
        context = SimulationContext(power)

    free = [0.0] * machines
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    oracles = [context.prefix_oracle() for _ in range(machines)]
    waiting: list[int] = []
    pending = list(instance.jobs)
    next_rel = 0
    clock = 0.0

    def queue_key(jid: int) -> tuple[float, float, int]:
        return (-rounded[jid], instance[jid].release, jid)

    while next_rel < len(pending) or waiting:
        while next_rel < len(pending) and pending[next_rel].release <= clock + 1e-15:
            waiting.append(pending[next_rel].job_id)
            next_rel += 1
        idle = [i for i in range(machines) if free[i] <= clock + 1e-15]
        if not waiting or not idle:
            candidates = []
            if next_rel < len(pending):
                candidates.append(pending[next_rel].release)
            if waiting:
                candidates.append(min(f for f in free if f > clock + 1e-15))
            if not candidates:
                break
            clock = min(candidates)
            continue
        waiting.sort(key=queue_key)
        jid = waiting.pop(0)
        job = instance[jid]
        machine = idle[0]
        start = max(clock, job.release)
        offset = oracles[machine].weight_at(job.release) if assignments[machine] else 0.0
        rho = rounded[jid]
        w = rho * job.volume
        tau = growth_time_between(offset, offset + w, rho, alpha)
        builders[machine].append(GrowthSegment(start, start + tau, jid, offset, rho, alpha))
        assignments[machine].append(jid)
        oracles[machine].add_job(jid, job.release, job.density, job.volume)
        free[machine] = start + tau

    schedules = {i: builders[i].build() for i in range(machines) if assignments[i]}
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
