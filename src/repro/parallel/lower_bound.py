"""The §6 immediate-dispatch lower bound: ``Ω(k**(1-1/alpha))``.

Construction: release ``k**2`` unit-density jobs at time 0.  A deterministic
volume-oblivious dispatcher cannot distinguish them, so some machine receives
at least ``k`` jobs.  The adversary then declares those ``k`` jobs *heavy*
(volume ``heavy``) and the rest negligible (volume ``light``).  The
dispatcher's cost is dominated by one machine doing ``k`` heavy jobs; the
benchmark schedule puts one heavy job per machine.  Under ``P = s**alpha``
the cost of processing weight ``W`` on one machine scales as ``W**(2-1/alpha)``,
so the ratio grows as ``k**(2-1/alpha)/k = k**(1-1/alpha)``.

:func:`adversarial_ratio` builds the instance, plays the adversary against a
given dispatch rule, evaluates both the dispatcher's schedule and the
benchmark schedule *exactly*, and returns their ratio — a certified lower
bound on the rule's competitive ratio (the benchmark is feasible, hence
costs at least OPT).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.job import Instance, Job
from ..core.power import PowerLaw
from .cluster import run_machines
from .dispatch import DISPATCH_RULES, DispatchRule, simulate_immediate_dispatch

__all__ = ["AdversaryOutcome", "adversarial_instance", "adversarial_ratio"]


@dataclass(frozen=True)
class AdversaryOutcome:
    """One round of the lower-bound game."""

    machines: int
    instance: Instance
    algorithm_cost: float
    benchmark_cost: float
    loaded_machine: int
    heavy_on_loaded: int

    @property
    def ratio(self) -> float:
        """Certified lower bound on the dispatcher's competitive ratio."""
        return self.algorithm_cost / self.benchmark_cost


def adversarial_instance(
    machines: int, assignment: list[int], *, heavy: float = 1.0, light: float = 1e-6
) -> tuple[Instance, int]:
    """Given the dispatcher's assignment of ``machines**2`` indistinguishable
    jobs, make the jobs on the most-loaded machine heavy.  Returns the
    instance and the targeted machine."""
    counts = Counter(assignment)
    loaded = max(range(machines), key=lambda i: (counts.get(i, 0), -i))
    jobs = []
    heavy_left = machines  # the adversary only needs k heavy jobs
    for jid, m in enumerate(assignment):
        if m == loaded and heavy_left > 0:
            jobs.append(Job(jid, 0.0, heavy, 1.0))
            heavy_left -= 1
        else:
            jobs.append(Job(jid, 0.0, light, 1.0))
    return Instance(jobs), loaded


def adversarial_ratio(
    machines: int,
    power: PowerLaw,
    rule: str | DispatchRule = "least_count",
    *,
    heavy: float = 1.0,
    light: float = 1e-6,
    objective: str = "fractional",
) -> AdversaryOutcome:
    """Play the §6 adversary against ``rule`` on ``machines`` machines."""
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    rule_fn = DISPATCH_RULES[rule] if isinstance(rule, str) else rule
    n = machines * machines
    # The dispatcher sees only ids/releases; volumes are chosen afterwards.
    assignment = rule_fn(machines, list(range(n)))
    instance, loaded = adversarial_instance(machines, assignment, heavy=heavy, light=light)

    algo = simulate_immediate_dispatch(instance, power, machines, rule_fn, per_machine="C")
    algo_report = algo.report()

    # Benchmark: one heavy job per machine, light jobs spread round-robin.
    heavy_ids = [j.job_id for j in instance if j.volume == heavy]
    light_ids = [j.job_id for j in instance if j.volume != heavy]
    bench_assignment: dict[int, list[int]] = {i: [] for i in range(machines)}
    for i, jid in enumerate(heavy_ids):
        bench_assignment[i % machines].append(jid)
    for i, jid in enumerate(light_ids):
        bench_assignment[i % machines].append(jid)
    bench = run_machines(instance, power, bench_assignment)
    bench_report = bench.report()

    if objective == "fractional":
        a_cost, b_cost = algo_report.fractional_objective, bench_report.fractional_objective
    elif objective == "integral":
        a_cost, b_cost = algo_report.integral_objective, bench_report.integral_objective
    else:
        raise ValueError(f"unknown objective {objective!r}")
    heavy_on_loaded = sum(
        1 for jid in algo.assignments[loaded] if instance[jid].volume == heavy
    )
    return AdversaryOutcome(
        machines=machines,
        instance=instance,
        algorithm_cost=a_cost,
        benchmark_cost=b_cost,
        loaded_machine=loaded,
        heavy_on_loaded=heavy_on_loaded,
    )
