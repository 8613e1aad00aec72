"""Identical parallel machines: shared result container, runner and evaluation.

A cluster run is, per machine, an ordinary single-machine schedule over the
jobs assigned to it (the paper's model forbids migration, so each job lives
entirely on one machine).  :func:`run_machines` turns an assignment into a
cluster run by running Algorithm C or NC on each machine's jobs; costs are
evaluated per machine with the exact single-machine machinery and merged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Literal

from ..algorithms.registry import algorithm_spec
from ..core.errors import ScheduleError
from ..core.job import Instance
from ..core.metrics import CostReport, evaluate
from ..core.power import PowerFunction, PowerLaw
from ..core.schedule import Schedule
from ..core.shadow import SimulationContext

__all__ = ["ClusterRun", "run_machines"]


@dataclass(frozen=True)
class ClusterRun:
    """Assignments and per-machine schedules of a parallel-machine algorithm."""

    instance: Instance
    power: PowerFunction
    machines: int
    #: machine index -> job ids in assignment order
    assignments: dict[int, list[int]]
    #: machine index -> that machine's schedule
    schedules: dict[int, Schedule]
    #: job id -> machine index, precomputed in ``__post_init__``
    _machine_by_job: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        assigned = [j for jobs in self.assignments.values() for j in jobs]
        if sorted(assigned) != sorted(self.instance.job_ids):
            raise ScheduleError("assignments must partition the instance's jobs")
        # Reverse map for machine_of: dispatch evaluation calls it per job in
        # a loop, so the lookup must not rescan every assignment list.
        reverse = {
            j: machine for machine, jobs in self.assignments.items() for j in jobs
        }
        object.__setattr__(self, "_machine_by_job", reverse)

    def machine_of(self, job_id: int) -> int:
        machine = self._machine_by_job.get(job_id)
        if machine is None:
            raise KeyError(f"job {job_id} not assigned")
        return machine

    def machine_instance(self, machine: int) -> Instance | None:
        jobs = self.assignments.get(machine, [])
        return self.instance.subset(jobs) if jobs else None

    def report(self, *, validate: bool = True) -> CostReport:
        """Exact combined cost report over all machines."""
        merged: CostReport | None = None
        for machine, jobs in self.assignments.items():
            if not jobs:
                continue
            sub = self.instance.subset(jobs)
            assert sub is not None
            rep = evaluate(self.schedules[machine], sub, self.power, validate=validate)
            merged = rep if merged is None else merged.merged_with(rep)
        if merged is None:
            raise ScheduleError("cluster run assigned no jobs")
        return merged


def run_machines(
    instance: Instance,
    power: PowerLaw,
    assignments: dict[int, list[int]],
    per_machine: Literal["C", "NC"] = "C",
    *,
    context: SimulationContext | None = None,
    component: str | None = None,
) -> ClusterRun:
    """Run Algorithm C (or NC) on each machine's assigned jobs.

    ``assignments`` holds every machine index, empty machines included, in
    index order.  With ``component`` given, machine ``i`` traces under
    ``{component}.m{i}.{per_machine}``; otherwise under the simulator's own
    component.
    """
    spec = algorithm_spec(per_machine, ("C", "NC"))
    schedules = {}
    for machine, jobs in assignments.items():
        if not jobs:
            continue
        sub = instance.subset(jobs)
        assert sub is not None
        name = None if component is None else f"{component}.m{machine}.{per_machine}"
        run = spec.simulate(sub, power, context=context, component=name)
        schedules[machine] = run.schedule
    return ClusterRun(
        instance=instance,
        power=power,
        machines=len(assignments),
        assignments=assignments,
        schedules=schedules,
    )
