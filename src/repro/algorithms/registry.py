"""The algorithm registry: one table from an algorithm's name to its simulator.

Every entry point that runs an algorithm by name reads :data:`ALGORITHMS` —
``run_algorithm`` and the CLI, service sessions, the supervisor and the chaos
campaign — so a name means one simulator, cap rule, trace component and
default step everywhere.  Which names a caller accepts is a filter over the
table (:func:`algorithm_names`); caller-only behaviour (the supervisor's
degraded path, power wrapping and guards) stays with the caller.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

from ..core.job import Instance
from ..core.power import CappedPowerLaw, PowerFunction
from ..core.schedule import Schedule
from ..core.shadow import SimulationContext
from . import baselines

__all__ = ["DEFAULT_MAX_STEP", "AlgorithmSpec", "ALGORITHMS", "algorithm_names", "algorithm_spec"]

#: The engine step of the engine-based algorithms unless a caller passes one.
DEFAULT_MAX_STEP = 1e-2


@dataclass(frozen=True)
class AlgorithmSpec:
    """How to run one algorithm by name.

    ``simulator`` is the simulator's dotted path under ``repro``.  It is
    looked up on every call, not captured, so whatever that module attribute
    is bound to at the time (an instrumentation shim, say) is what runs.
    """

    name: str
    simulator: str
    #: honours a :class:`CappedPowerLaw`'s ``s_max`` (otherwise refuses it)
    capped: bool = False
    #: takes a machine count after the power
    machines: bool = False
    #: runs on the numeric engine and takes ``max_step``
    engine: bool = False
    #: reports the §5 integral conversion of the simulator's schedule
    integral: bool = False
    #: trace component of an uncapped run; ``None`` for the untraced
    #: baselines, which take no context
    component: str | None = None

    @property
    def traced(self) -> bool:
        return self.component is not None

    def trace_component(self, power: PowerFunction) -> str:
        """The component a run under ``power`` traces under (the one a
        supervisor ``retry`` names): ``C`` / ``C_capped`` and so on."""
        suffix = "_capped" if isinstance(power, CappedPowerLaw) else ""
        return f"{self.component}{suffix}"

    def check_power(self, power: PowerFunction) -> None:
        """``TypeError`` naming the cap if ``power`` has one this algorithm
        cannot honour."""
        if not self.capped and isinstance(power, CappedPowerLaw):
            raise TypeError(f"{self.name} cannot honour the speed cap s_max={power.s_max}")

    def simulate(
        self,
        instance: Instance,
        power: PowerFunction,
        *,
        context: SimulationContext | None = None,
        machines: int | None = None,
        max_step: float = DEFAULT_MAX_STEP,
        **kwargs: Any,
    ) -> Any:
        """Run the simulator and return its run object.  ``context`` reaches
        traced simulators, ``machines`` parallel ones and ``max_step`` engine
        ones; ``kwargs`` pass through.  The §5 conversion is the caller's."""
        self.check_power(power)
        module, _, function = self.simulator.rpartition(".")
        simulator = getattr(importlib.import_module(f"repro.{module}"), function)
        args: tuple[Any, ...] = (instance, power)
        if self.machines:
            args += (machines,)
        if self.traced:
            kwargs["context"] = context
        if self.engine:
            kwargs["max_step"] = max_step
        return simulator(*args, **kwargs)


def _constant_speed_fifo(
    instance: Instance, power: PowerFunction, *, constant_speed: float = 1.0
) -> Schedule:
    """FIFO at ``constant_speed`` under the table's ``(instance, power)`` call."""
    return baselines.simulate_constant_speed_fifo(instance, constant_speed)


_SPECS = (
    AlgorithmSpec("C", "algorithms.clairvoyant.simulate_clairvoyant", capped=True, component="C"),
    AlgorithmSpec("NC", "algorithms.nc_uniform.simulate_nc_uniform", capped=True, component="NC"),
    AlgorithmSpec(
        "NC_GENERAL",
        "algorithms.nc_general.simulate_nc_general",
        engine=True,
        component="nc_general",
    ),
    AlgorithmSpec(
        "NC_INT", "algorithms.nc_uniform.simulate_nc_uniform", integral=True, component="NC"
    ),
    AlgorithmSpec(
        "NC_GENERAL_INT",
        "algorithms.nc_general.simulate_nc_general",
        engine=True,
        integral=True,
        component="nc_general",
    ),
    AlgorithmSpec("NC_PAR", "parallel.nc_par.simulate_nc_par", machines=True, component="nc_par"),
    AlgorithmSpec("ACTIVE_COUNT", "algorithms.baselines.simulate_active_count"),
    AlgorithmSpec("CONSTANT_SPEED", "algorithms.registry._constant_speed_fifo"),
)

#: Every algorithm runnable by name, in presentation order.
ALGORITHMS: Mapping[str, AlgorithmSpec] = MappingProxyType({s.name: s for s in _SPECS})


def algorithm_names(**fields: object) -> tuple[str, ...]:
    """Names of the specs whose attributes equal ``fields``, in table order."""
    return tuple(
        name
        for name, spec in ALGORITHMS.items()
        if all(getattr(spec, key) == value for key, value in fields.items())
    )


def algorithm_spec(name: str, names: tuple[str, ...] | None = None) -> AlgorithmSpec:
    """The spec of ``name``; ``ValueError`` unless it is among ``names``
    (default: the whole table)."""
    allowed = tuple(ALGORITHMS) if names is None else names
    if name not in allowed:
        raise ValueError(f"unknown algorithm {name!r}; choose from {allowed}")
    return ALGORITHMS[name]
