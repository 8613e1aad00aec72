"""§7 open problem: non-uniform densities on parallel machines — a prototype.

The paper closes by asking whether its results extend to non-uniform
densities on identical machines, and sketches the natural candidates:

* a **non-clairvoyant** policy that "follows HDF (probably with rounded
  densities) and dispatches only as needed to follow this rule", and
* a **clairvoyant** comparator whose greedy dispatch "considers only jobs of
  equal or higher density to calculate the increase in the cost".

It also explains why the Lemma-20 equivalence should break: "jobs released
later could affect the machine a job is assigned to in the non-clairvoyant
algorithm whereas they do not in the clairvoyant algorithm."

This module implements both candidates faithfully enough to *probe* that
question empirically (see ``benchmarks/bench_open_problem.py``):

* :func:`simulate_nc_hdf_par` — NC-HDF-PAR: densities rounded down to powers
  of ``beta``; a global queue ordered by (rounded density desc, release);
  whenever a machine has completed everything assigned to it, it takes the
  current queue head.  While a machine processes job ``j`` it uses Algorithm
  NC's speed rule on its machine-local history (``P(s) = W^C(r[j]-) + W̆[j]``
  with the shadow run over the machine's previously completed jobs).
* :func:`simulate_c_hdf_par` — C-HDF-PAR: immediate dispatch of each arrival
  to the machine with the least remaining *same-or-higher rounded density*
  weight; per-machine Algorithm C.

These are research prototypes of a conjectured algorithm, not proved-
competitive ones — exactly the status the paper gives them.
"""

from __future__ import annotations

from ..algorithms.clairvoyant import simulate_clairvoyant
from ..algorithms.density_rounding import round_density_down
from ..core.errors import InvalidInstanceError
from ..core.job import Instance
from ..core.kernels import growth_time_between
from ..core.power import PowerLaw
from ..core.schedule import GrowthSegment, ScheduleBuilder
from ..core.shadow import SimulationContext, uncapped_alpha
from .cluster import ClusterRun

__all__ = ["simulate_nc_hdf_par", "simulate_c_hdf_par"]


def simulate_nc_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """The §7 non-clairvoyant candidate NC-HDF-PAR (event-driven, exact)."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    alpha = uncapped_alpha(power, "NC-HDF-PAR")
    rounded = {j.job_id: round_density_down(j.density, beta) for j in instance}
    if context is None:
        context = SimulationContext(power)

    free = [0.0] * machines
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    # Per-machine shadow runs of Algorithm C.  Unlike NC-PAR the HDF queue is
    # *not* FIFO, so a machine's offset queries can regress in time; the
    # oracle then rebuilds from scratch (counted in ``counters.rebuilds``),
    # which is exactly the legacy per-query fresh simulation.
    oracles = [context.prefix_oracle() for _ in range(machines)]
    waiting: list[int] = []  # job ids, re-sorted on every decision point
    pending = list(instance.jobs)  # release order
    next_rel = 0
    clock = 0.0

    def queue_key(jid: int) -> tuple[float, float, int]:
        return (-rounded[jid], instance[jid].release, jid)

    while next_rel < len(pending) or waiting:
        # Admit releases up to the current clock.
        while next_rel < len(pending) and pending[next_rel].release <= clock + 1e-15:
            waiting.append(pending[next_rel].job_id)
            next_rel += 1
        idle = [i for i in range(machines) if free[i] <= clock + 1e-15]
        if not waiting or not idle:
            # Advance to the next decision point: a release or a machine
            # becoming free.
            candidates = []
            if next_rel < len(pending):
                candidates.append(pending[next_rel].release)
            if waiting:
                candidates.append(min(f for f in free if f > clock + 1e-15))
            if not candidates:
                break
            clock = min(candidates)
            continue
        # Assign the HDF head of the queue to the lowest-index idle machine.
        waiting.sort(key=queue_key)
        jid = waiting.pop(0)
        job = instance[jid]
        machine = idle[0]
        start = max(clock, job.release)

        offset = oracles[machine].weight_at(job.release) if assignments[machine] else 0.0
        # Speed rule on the *rounded* density, matching NC-general's rounding.
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


def simulate_c_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """The §7 clairvoyant comparator C-HDF-PAR (immediate dispatch)."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    rounded = {j.job_id: round_density_down(j.density, beta) for j in instance}
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    if context is None:
        context = SimulationContext(power)
    # Immediate dispatch queries every machine at each release, in release
    # order — a monotone stream, so each per-machine shadow advances once.
    oracles = [context.prefix_oracle() for _ in range(machines)]

    def high_density_weight(machine: int, jid: int, at: float) -> float:
        """Remaining weight on ``machine`` at time ``at``, counting only jobs
        of the same or higher rounded density than ``jid``."""
        if not assignments[machine]:
            return 0.0
        cls = rounded[jid]
        return sum(
            rho * v
            for k, rho, v in oracles[machine].remaining_items_at(at)
            if rounded[k] >= cls
        )

    for job in instance:  # immediate dispatch in release order
        weights = [
            (high_density_weight(i, job.job_id, job.release), i) for i in range(machines)
        ]
        _, chosen = min(weights)
        assignments[chosen].append(job.job_id)
        oracles[chosen].add_job(job.job_id, job.release, job.density, job.volume)

    schedules = {}
    for i in range(machines):
        if assignments[i]:
            sub = instance.subset(assignments[i])
            assert sub is not None
            schedules[i] = simulate_clairvoyant(sub, power).schedule
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
