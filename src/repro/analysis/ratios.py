"""Empirical competitive ratios.

A measured ratio is ``algorithm cost / certified lower bound on OPT``; since
the denominator never exceeds OPT, the measurement *upper-bounds* the
instance's true ratio — a measured value below the paper's theoretical bound
is consistent, above it would expose a bug.

`run_algorithm` runs any single-machine algorithm of the registry
(:data:`repro.algorithms.ALGORITHMS`) by name with uniform semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..algorithms import DEFAULT_MAX_STEP, algorithm_names, algorithm_spec, convert
from ..core.job import Instance
from ..core.metrics import CostReport, evaluate
from ..core.power import PowerLaw
from ..offline.bounds import OptBound, opt_fractional_lower_bound, opt_integral_lower_bound

__all__ = ["RatioResult", "run_algorithm", "empirical_ratio"]


@dataclass(frozen=True)
class RatioResult:
    """One measured competitive ratio."""

    algorithm: str
    objective: str  # "fractional" | "integral"
    cost: float
    bound: OptBound

    @property
    def ratio(self) -> float:
        return self.cost / self.bound.value


def run_algorithm(
    name: str,
    instance: Instance,
    power: PowerLaw,
    *,
    max_step: float = DEFAULT_MAX_STEP,
    conversion_epsilon: float = 0.5,
    **kwargs: Any,
) -> CostReport:
    """Run a single-machine algorithm by name and return its exact cost report.

    ``kwargs`` go to the simulator (``eta``/``beta``/``epsilon`` for
    NC-general, ``constant_speed`` for ``CONSTANT_SPEED``).  ``NC_INT`` /
    ``NC_GENERAL_INT`` apply the §5 black-box conversion (with
    ``conversion_epsilon``) on top of the fractional algorithm and report the
    *converted* schedule's costs.
    """
    spec = algorithm_spec(name, algorithm_names(machines=False))
    run = spec.simulate(instance, power, max_step=max_step, **kwargs)
    schedule = getattr(run, "schedule", run)  # the baselines return a Schedule
    if spec.integral:
        return convert(schedule, instance, power, conversion_epsilon).integral_report
    return evaluate(schedule, instance, power)


def empirical_ratio(
    name: str,
    instance: Instance,
    power: PowerLaw,
    *,
    objective: str = "fractional",
    slots: int = 400,
    iterations: int = 3000,
    **run_kwargs,
) -> RatioResult:
    """Measured cost of ``name`` on ``instance`` over the best certified OPT
    lower bound for the chosen objective."""
    report = run_algorithm(name, instance, power, **run_kwargs)
    if objective == "fractional":
        cost = report.fractional_objective
        bound = opt_fractional_lower_bound(instance, power, slots=slots, iterations=iterations)
    elif objective == "integral":
        cost = report.integral_objective
        bound = opt_integral_lower_bound(instance, power, slots=slots, iterations=iterations)
    else:
        raise ValueError(f"objective must be 'fractional' or 'integral', got {objective!r}")
    return RatioResult(algorithm=name, objective=objective, cost=cost, bound=bound)
