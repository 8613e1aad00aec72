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

import math

from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance
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
) -> ClusterRun:
    """Run NC-PAR exactly (closed-form per-job growth segments)."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    if not instance.is_uniform_density():
        raise InvalidInstanceError("NC-PAR (§6) is defined for uniform densities")
    alpha = uncapped_alpha(power, "NC-PAR")
    if context is None:
        context = SimulationContext(power)

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

    for job in instance:  # global FIFO queue == release order
        # Pick the machine that is (or first becomes) available.  Among
        # machines already idle at the release, the fixed total order (index)
        # breaks the tie — the same order C-PAR uses.
        idle = [i for i in range(machines) if free[i] <= job.release]
        chosen = min(idle) if idle else min(range(machines), key=lambda i: (free[i], i))
        start = max(job.release, free[chosen])

        # Speed-rule offset: Algorithm C's remaining weight just before r[j]
        # on the machine-local instance of previously assigned (completed,
        # hence known) jobs.
        offset = oracles[chosen].weight_at(job.release) if assignments[chosen] else 0.0

        tau = growth_time_between(offset, offset + job.weight, job.density, alpha)
        builders[chosen].append(
            GrowthSegment(start, start + tau, job.job_id, offset, job.density, alpha)
        )
        if rec is not None:
            comp = f"nc_par.m{chosen}"
            rec.emit(
                "release",
                job.release,
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
        oracles[chosen].add_job(job.job_id, job.release, job.density, vol)
        free[chosen] = start + tau

    schedules = {i: builders[i].build() for i in range(machines) if assignments[i]}
    return ClusterRun(
        instance=instance,
        power=power,
        machines=machines,
        assignments=assignments,
        schedules=schedules,
    )
