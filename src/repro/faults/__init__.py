"""Deterministic fault injection for the speed-scaling simulators.

``plan`` describes *what* goes wrong (seeded, immutable
:class:`~repro.faults.plan.FaultPlan`); ``injector`` makes it happen against
a concrete run through the :class:`~repro.core.shadow.SimulationContext`
hooks.  The supervised runtime (:mod:`repro.runtime`) consumes both.
"""

from .injector import FaultInjector, FaultyVolumeOracle, FlakyPowerFunction
from .plan import (
    FAULT_KINDS,
    PROCESS_KINDS,
    SERVICE_KINDS,
    FaultPlan,
    FaultSpec,
    generate_plan,
)

__all__ = [
    "FAULT_KINDS",
    "PROCESS_KINDS",
    "SERVICE_KINDS",
    "FaultPlan",
    "FaultSpec",
    "generate_plan",
    "FaultInjector",
    "FaultyVolumeOracle",
    "FlakyPowerFunction",
]
