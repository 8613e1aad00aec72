"""Greedy immediate dispatch: C-PAR (§6) and C-HDF-PAR (§7).

Algorithm C-PAR — the clairvoyant parallel baseline (§6, after [12]).
Immediate dispatch: each arriving job is assigned, at its release instant, to
the machine whose assignment *minimises the increase in the fractional
objective*.  Lemma 19 shows this is exactly the machine with the **least
remaining fractional weight** at the release (energy-to-finish is a convex
increasing function of remaining weight, and flow equals energy for Algorithm
C).  Ties are broken by a fixed total order — machine index — matching the
assumption used by Lemma 20.  Each machine then runs Algorithm C on its own
jobs.  Theorem 18 ([12]): O(alpha)-competitive for the fractional objective.

C-HDF-PAR is the clairvoyant comparator the paper sketches for its §7 open
problem (non-uniform densities on identical machines): densities rounded down
to powers of ``beta``, and the greedy dispatch "considers only jobs of equal
or higher density to calculate the increase in the cost".  It is a research
prototype of a conjectured algorithm, not a proved-competitive one — exactly
the status the paper gives it (see ``benchmarks/bench_open_problem.py``).
"""

from __future__ import annotations

from ..algorithms.density_rounding import round_density_down
from ..core.errors import InvalidInstanceError
from ..core.job import Instance, Job
from ..core.power import PowerLaw
from ..core.shadow import SimulationContext
from .cluster import ClusterRun, run_machines

__all__ = ["simulate_c_par", "simulate_c_hdf_par"]


def greedy_dispatch(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float | None = None,
    context: SimulationContext | None = None,
) -> dict[int, list[int]]:
    """Assign each job, at its release, to the machine with the least
    remaining weight of Algorithm C over the jobs already assigned to it
    (ties by machine index).  With ``beta`` only jobs whose rounded density
    is at least the arriving job's count towards that weight."""
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    # Rounded density class of every job; one class for all without beta.
    rank = {
        j.job_id: 0.0 if beta is None else round_density_down(j.density, beta)
        for j in instance
    }
    if machines == 1:
        # One machine takes every job; there is no weight to compare.
        return {0: [j.job_id for j in instance]}
    if context is None:
        context = SimulationContext(power)
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    # Immediate dispatch queries every machine at each release, in release
    # order — a monotone stream, so each per-machine shadow advances once.
    oracles = [context.prefix_oracle() for _ in range(machines)]

    def weight(machine: int, job: Job) -> float:
        if not assignments[machine]:
            return 0.0
        cls = rank[job.job_id]
        items = oracles[machine].remaining_items_at(job.release)
        return sum(rho * v for k, rho, v in items if rank[k] >= cls)

    for job in instance:  # immediate dispatch in release order
        _, chosen = min((weight(i, job), i) for i in range(machines))
        assignments[chosen].append(job.job_id)
        oracles[chosen].add_job(job.job_id, job.release, job.density, job.volume)
    return assignments


def simulate_c_par(instance: Instance, power: PowerLaw, machines: int) -> ClusterRun:
    """Run C-PAR: greedy least-remaining-weight immediate dispatch + per-machine
    Algorithm C."""
    return run_machines(instance, power, greedy_dispatch(instance, power, machines))


def simulate_c_hdf_par(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    beta: float = 5.0,
    context: SimulationContext | None = None,
) -> ClusterRun:
    """The §7 clairvoyant comparator C-HDF-PAR (immediate dispatch)."""
    assignments = greedy_dispatch(instance, power, machines, beta=beta, context=context)
    return run_machines(instance, power, assignments)
