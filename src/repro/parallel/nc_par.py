"""Algorithm NC-PAR — non-clairvoyant parallel scheduling without immediate
dispatch (§6, uniform densities).

The algorithm keeps a single **global FIFO queue** of unassigned jobs.
Whenever a machine is *available* — all jobs previously assigned to it are
complete — it takes the head of the queue (so each machine processes one job
at a time).  The machine's instantaneous speed follows Algorithm NC on its
*machine-local* instance: while it processes job ``j``,
``P(s) = W^C(r[j]-) + W̆[j](t)`` where the shadow clairvoyant run is over the
jobs previously assigned to this machine (all completed, hence of known
volume, and all released before ``r[j]`` because the global queue is FIFO).

Lemma 20: NC-PAR's assignment is *identical* to C-PAR's greedy immediate
dispatch (machine availability order coincides with least-remaining-weight
order, via Lemma 2's monotonicity and Lemma 6's speed-profile equivalence) —
reproduced here as an exact property test.  Combined with Lemmas 21/22
(energy equality, flow ratio ``1/(1-1/alpha)`` per machine), Theorem 17 gives
an ``O(alpha + 1/(alpha-1))`` competitive ratio.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance, Job
from ..core.kernels import growth_time_between
from ..core.power import PowerLaw
from ..core.schedule import GrowthSegment, ScheduleBuilder
from ..core.shadow import SimulationContext, uncapped_alpha
from .cluster import ClusterRun

__all__ = ["simulate_nc_par"]


def simulate_nc_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    context: SimulationContext | None = None,
    failure: tuple[int, float] | None = None,
    on_failure: Callable[..., None] | None = None,
) -> ClusterRun:
    """Run NC-PAR exactly (closed-form per-job growth segments).

    ``failure=(machine, time)`` is the lost-work failure model: the machine
    dies at ``time``, a job it would still be processing then is killed (its
    work lost, unrecorded) and re-enters the queue at ``max(release, time)``.
    The failure is recorded once, when it takes effect, through
    ``on_failure(time, machine=..., job=...)`` (the supervisor's fault
    budget) or else a ``fault_injected`` event; ``recovery`` marks the last
    re-released job's landing.
    """
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    if failure is None:
        dead, fail_time = -1, math.inf
    else:
        dead, fail_time = failure
        if machines < 2:
            raise InvalidInstanceError("machine failure needs at least 2 machines")
        if not 0 <= dead < machines:
            raise InvalidInstanceError(f"dead machine {dead} out of range")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("NC-PAR (§6) is defined for uniform densities")
    alpha = uncapped_alpha(power, "NC-PAR")
    if context is None:
        context = SimulationContext(power)

    cands = list(range(machines))  # machines that can still take work
    free = [0.0] * machines  # time each machine completes its assigned work
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    # One incremental shadow run of Algorithm C per machine: the global queue
    # is FIFO, so each machine's offset queries arrive in nondecreasing time
    # and the oracle never has to rebuild.
    oracles = [
        context.prefix_oracle(component=f"nc_par.m{i}.prefix") for i in range(machines)
    ]
    recorder = context.recorder
    rec = recorder if recorder.enabled else None  # zero-overhead hoist
    filt = context.volume_filter  # fault reveal channel; None when unfaulted
    requeued: list[int] = []

    def kill(job_id: int | None) -> None:
        # The failure takes effect: retire the machine, record it once.
        cands.remove(dead)
        free[dead] = math.inf
        context.metrics.increment("machine_failures")
        if on_failure is not None:
            on_failure(fail_time, machine=dead, job=job_id)
        else:
            context.emit(
                "fault_injected",
                fail_time,
                "faults",
                fault="machine_failure",
                machine=dead,
                job=job_id,
                at_time=fail_time,
            )

    # The global FIFO queue, keyed by (effective release, job id).  The
    # instance is sorted by (release, job_id), so it is already a heap and,
    # without a failure, pops in instance order.
    queue: list[tuple[float, int, Job]] = [(j.release, j.job_id, j) for j in instance]
    while queue:
        rel, _, job = heapq.heappop(queue)
        # Pick the machine that is (or first becomes) available.  Among
        # machines already idle at the release, the fixed total order (index)
        # breaks the tie — the same order C-PAR uses.
        idle = [i for i in cands if free[i] <= rel]
        chosen = min(idle) if idle else min(cands, key=lambda i: (free[i], i))
        start = max(rel, free[chosen])
        if chosen == dead and start >= fail_time:
            # Found dead on arrival: requeue among the survivors.
            kill(None)
            heapq.heappush(queue, (rel, job.job_id, job))
            continue

        # Speed-rule offset: Algorithm C's remaining weight just before r[j]
        # on the machine-local instance of previously assigned (completed,
        # hence known) jobs.
        offset = oracles[chosen].weight_at(rel) if assignments[chosen] else 0.0

        tau = growth_time_between(offset, offset + job.weight, job.density, alpha)
        if chosen == dead and start + tau > fail_time:
            # Killed mid-flight: the work is lost, the job re-released.
            kill(job.job_id)
            requeued.append(job.job_id)
            heapq.heappush(queue, (max(job.release, fail_time), job.job_id, job))
            continue
        builders[chosen].append(
            GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha)
        )
        if rec is not None:
            comp = f"nc_par.m{chosen}"
            rec.emit(
                "release",
                rel,
                comp,
                job=job.job_id,
                density=job.density,
                machine=chosen,
                offset=offset,
            )
            rec.emit(
                "kernel_eval",
                start,
                comp,
                profile="growth",
                t0=start,
                t1=start + tau,
                job=job.job_id,
                x0=offset,
                rho=job.density,
                alpha=alpha,
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
        if requeued and job.job_id == requeued[-1]:
            context.emit(
                "recovery",
                start + tau,
                "faults",
                action="machine_failover",
                job=job.job_id,
                machine=chosen,
                from_machine=dead,
            )

    schedules = {i: builders[i].build() for i in range(machines) if assignments[i]}
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
