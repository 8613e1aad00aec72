"""Immediate-dispatch rules for parallel machines.

These are the *volume-oblivious* dispatchers the §6 lower bound applies to: a
deterministic immediate-dispatch algorithm in the non-clairvoyant model sees
only (release, density) at assignment time, so the adversary can choose which
jobs are heavy *after* seeing the assignment.  Each rule maps a job stream to
machine assignments; per-machine processing is then delegated to a
single-machine algorithm (Algorithm C by default — giving the dispatcher the
best possible processing only strengthens the lower bound).
"""

from __future__ import annotations

from typing import Callable, Literal

from ..core.errors import InvalidInstanceError
from ..core.job import Instance
from ..core.power import PowerLaw
from ..core.shadow import SimulationContext
from ..algorithms.registry import algorithm_spec
from .cluster import ClusterRun, run_machines

__all__ = [
    "DISPATCH_RULES",
    "simulate_immediate_dispatch",
    "round_robin",
    "least_count",
    "seeded_random_rule",
]

#: A dispatch rule sees the machine count and the *observable* part of the job
#: stream so far (ids in release order) and returns the machine for each job.
DispatchRule = Callable[[int, list[int]], list[int]]


def round_robin(machines: int, job_ids: list[int]) -> list[int]:
    """Job i -> machine i mod k."""
    return [i % machines for i in range(len(job_ids))]


def least_count(machines: int, job_ids: list[int]) -> list[int]:
    """Each job goes to the machine with the fewest jobs so far (ties by
    index).  With equal-looking jobs this is the canonical 'balanced'
    volume-oblivious dispatcher."""
    counts = [0] * machines
    out = []
    for _ in job_ids:
        chosen = min(range(machines), key=lambda i: (counts[i], i))
        out.append(chosen)
        counts[chosen] += 1
    return out


def seeded_random_rule(seed: int) -> DispatchRule:
    """A *randomized* volume-oblivious dispatcher (uniform machine choice).

    Randomisation does not escape the §6 lower bound against an *adaptive*
    adversary: the adversary observes the realised assignment and still finds
    a machine with at least ``k`` jobs (the maximum load of k² balls in k
    bins is ``k + Θ(sqrt(k log k)) >= k``), so the measured ratio matches the
    deterministic rules' — demonstrated in ``bench_lower_bound.py``.
    """
    import numpy as np

    def rule(machines: int, job_ids: list[int]) -> list[int]:
        rng = np.random.default_rng(seed)
        return [int(m) for m in rng.integers(0, machines, size=len(job_ids))]

    return rule


DISPATCH_RULES: dict[str, DispatchRule] = {
    "round_robin": round_robin,
    "least_count": least_count,
}


def simulate_immediate_dispatch(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    rule: str | DispatchRule = "least_count",
    per_machine: Literal["C", "NC"] = "C",
    context: SimulationContext | None = None,
    exclude_machines: frozenset[int] | set[int] | None = None,
) -> ClusterRun:
    """Dispatch with a volume-oblivious rule, then run each machine's jobs
    with Algorithm C (``per_machine='C'``) or Algorithm NC (``'NC'``, uniform
    densities only).  ``context`` — if given — routes per-machine shadow
    counters and trace events (one ``release`` per dispatch decision,
    component ``"dispatch"``) through its recorder.

    ``exclude_machines`` marks machines known-dead at dispatch time (the
    machine-failure fault model of :mod:`repro.faults`): the rule still sees
    the full machine count, but any assignment landing on a dead machine is
    remapped to the next surviving index, preserving the rule's determinism.
    """
    if machines < 1:
        raise InvalidInstanceError(f"machines must be >= 1, got {machines}")
    algorithm_spec(per_machine, ("C", "NC"))  # an unknown name fails before dispatch
    excluded = frozenset(exclude_machines) if exclude_machines else frozenset()
    survivors = [i for i in range(machines) if i not in excluded]
    if not survivors:
        raise InvalidInstanceError("exclude_machines leaves no machine alive")
    rule_fn = DISPATCH_RULES[rule] if isinstance(rule, str) else rule
    job_ids = list(instance.job_ids)
    targets = rule_fn(machines, job_ids)
    if len(targets) != len(job_ids) or any(not 0 <= m < machines for m in targets):
        raise InvalidInstanceError("dispatch rule returned an invalid assignment")
    if excluded:
        targets = [m if m not in excluded else survivors[m % len(survivors)] for m in targets]

    rec = None
    if context is not None and context.recorder.enabled:
        rec = context.recorder
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    for jid, m in zip(job_ids, targets):
        assignments[m].append(jid)
        if rec is not None:
            rec.emit(
                "release", instance[jid].release, "dispatch", job=jid, machine=m
            )
    return run_machines(
        instance, power, assignments, per_machine, context=context, component="dispatch"
    )
