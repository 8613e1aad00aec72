"""The global queue: NC-PAR (§6) and NC-HDF-PAR (§7).

Algorithm NC-PAR — non-clairvoyant parallel scheduling without immediate
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

NC-HDF-PAR is the non-clairvoyant candidate the paper sketches for its §7
open problem: it "follows HDF (probably with rounded densities) and
dispatches only as needed to follow this rule".  Densities are rounded down
to powers of ``beta``; the queue is ordered by (rounded density desc,
release); the speed rule runs on the rounded density while the machine's
shadow keeps the true ones.  The paper expects the Lemma-20 equivalence to
break here — "jobs released later could affect the machine a job is assigned
to in the non-clairvoyant algorithm" — which ``bench_open_problem.py``
probes.  A research prototype, not a proved-competitive algorithm.

Both run on one event loop (:func:`global_queue`): NC-PAR is its FIFO case,
NC-HDF-PAR its rounded-density case.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..algorithms.density_rounding import round_density_down
from ..core.errors import InvalidInstanceError, SimulationError
from ..core.job import Instance, Job
from ..core.kernels import growth_time_between
from ..core.power import PowerLaw
from ..core.schedule import GrowthSegment, ScheduleBuilder, trace_payload
from ..core.shadow import SimulationContext, uncapped_alpha
from .cluster import ClusterRun

__all__ = ["simulate_nc_par", "simulate_nc_hdf_par"]


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
    return global_queue(
        instance, power, machines,
        context=context, failure=failure, on_failure=on_failure, component="nc_par",
    )


def simulate_nc_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """The §7 non-clairvoyant candidate NC-HDF-PAR (event-driven, exact)."""
    return global_queue(instance, power, machines, beta=beta, context=context)


def global_queue(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float | None = None,
    context: SimulationContext | None = None,
    failure: tuple[int, float] | None = None,
    on_failure: Callable[..., None] | None = None,
    component: str | None = None,
) -> ClusterRun:
    """One global queue feeding every machine that has finished its work.

    Whenever a machine has completed everything assigned to it, the
    lowest-index such machine takes the head of the queue: the earliest
    (effective) release first, or with ``beta`` the highest rounded density
    first.  While it processes job ``j`` it follows Algorithm NC's speed rule
    on its machine-local history, ``P(s) = W^C(r[j]-) + W̆[j](t)``, with the
    shadow run over the jobs it completed before.  ``beta=None`` is NC-PAR
    and needs uniform densities; ``failure`` and ``on_failure`` are NC-PAR's
    (see :func:`simulate_nc_par`).  With ``component`` the run traces
    ``release`` / ``kernel_eval`` / ``completion`` under
    ``{component}.m{i}``.
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
    if beta is None and not instance.is_uniform_density():
        raise InvalidInstanceError("NC-PAR (§6) is defined for uniform densities")
    alpha = uncapped_alpha(power, "NC-PAR" if beta is None else "NC-HDF-PAR")
    # Rounded density class of every job; one class for all without beta.
    rank = {
        j.job_id: 0.0 if beta is None else round_density_down(j.density, beta)
        for j in instance
    }
    if context is None:
        context = SimulationContext(power)

    cands = list(range(machines))  # machines that can still take work
    free = [0.0] * machines  # time each machine completes its assigned work
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    builders = {i: ScheduleBuilder() for i in range(machines)}
    # One incremental shadow run of Algorithm C per machine.  Under FIFO a
    # machine's offset queries arrive in nondecreasing time and the oracle
    # never rebuilds; the HDF order can regress in time, and the oracle then
    # rebuilds from scratch (counted in ``counters.rebuilds``).
    oracles = [
        context.prefix_oracle(component=f"{component}.m{i}.prefix")
        if component is not None
        else context.prefix_oracle()
        for i in range(machines)
    ]
    recorder = context.recorder
    rec = recorder if recorder.enabled and component is not None else None
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

    # Jobs not yet released, keyed by (effective release, job id).  The
    # instance is sorted by (release, job_id), so it is already a heap.
    pending: list[tuple[float, int, Job]] = [(j.release, j.job_id, j) for j in instance]
    # Released jobs waiting for a machine, head first.
    waiting: list[tuple[float, float, int, Job]] = []
    clock = 0.0
    while pending or waiting:
        while pending and pending[0][0] <= clock:
            rel, jid, job = heapq.heappop(pending)
            heapq.heappush(waiting, (-rank[jid], rel, jid, job))
        idle = [i for i in cands if free[i] <= clock]
        if not waiting or not idle:
            # Advance to the next decision point: a release or, with work
            # waiting, a machine becoming free.
            clock = pending[0][0] if pending else math.inf
            if waiting:
                clock = min(clock, min(free[i] for i in cands))
            continue
        chosen = idle[0]
        if chosen == dead and clock >= fail_time:
            # Found dead on arrival: the survivors take the queue.
            kill(None)
            continue
        _, rel, jid, job = heapq.heappop(waiting)
        start = clock

        # Speed-rule offset: Algorithm C's remaining weight just before r[j]
        # on the machine-local instance of previously assigned (completed,
        # hence known) jobs.
        offset = oracles[chosen].weight_at(rel) if assignments[chosen] else 0.0
        # The speed rule runs on the rounded density, as NC-general's does.
        rho = job.density if beta is None else rank[jid]
        tau = growth_time_between(offset, offset + rho * job.volume, rho, alpha)
        if chosen == dead and start + tau > fail_time:
            # Killed mid-flight: the work is lost, the job re-released.
            kill(jid)
            requeued.append(jid)
            heapq.heappush(pending, (max(job.release, fail_time), jid, job))
            continue
        builders[chosen].append(GrowthSegment(start, start + tau, jid, offset, rho, alpha))
        if rec is not None:
            comp = f"{component}.m{chosen}"
            rec.emit(
                "release",
                rel,
                comp,
                job=jid,
                density=job.density,
                machine=chosen,
                offset=offset,
            )
            rec.emit(
                "kernel_eval",
                start,
                comp,
                **trace_payload("growth", start, start + tau, jid, offset, rho, alpha),
            )
            rec.emit("completion", start + tau, comp, job=jid)
        assignments[chosen].append(jid)
        vol = job.volume
        if filt is not None:
            vol = filt(jid, vol)
            if not (math.isfinite(vol) and vol > 0.0):
                raise SimulationError(
                    f"revealed volume of job {jid} corrupted to {vol}",
                    time=start + tau,
                    job=jid,
                    value=vol,
                )
        oracles[chosen].add_job(jid, rel, job.density, vol)
        free[chosen] = start + tau
        if requeued and jid == requeued[-1]:
            context.emit(
                "recovery",
                start + tau,
                "faults",
                action="machine_failover",
                job=jid,
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
