"""Core substrate: jobs, power functions, analytic kernels, schedules,
metrics, the non-clairvoyance oracle and the generic numeric engine."""

from .errors import (
    ClairvoyanceViolationError,
    ConvergenceError,
    InvalidInstanceError,
    InvalidPowerFunctionError,
    KernelDomainError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from .engine import EngineResult, NumericEngine, SchedulingPolicy
from .job import Instance, Job
from .metrics import CostReport, evaluate, validate_schedule
from .oracle import ReleaseInfo, VolumeOracle
from .power import CUBE_LAW, PowerFunction, PowerLaw, TabulatedPower
from .schedule import (
    ConstantSegment,
    DecaySegment,
    GrowthSegment,
    IdleSegment,
    ScaledSegment,
    Schedule,
    ScheduleBuilder,
    Segment,
)
from .shadow import (
    ClairvoyantShadow,
    PrefixWeightOracle,
    ShadowCheckpoint,
    ShadowCounters,
    SimulationContext,
)
from .tracing import (
    EVENT_KINDS,
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    read_jsonl,
)

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidPowerFunctionError",
    "KernelDomainError",
    "ScheduleError",
    "ClairvoyanceViolationError",
    "SimulationError",
    "ConvergenceError",
    "Job",
    "Instance",
    "PowerFunction",
    "PowerLaw",
    "TabulatedPower",
    "CUBE_LAW",
    "Segment",
    "IdleSegment",
    "ConstantSegment",
    "DecaySegment",
    "GrowthSegment",
    "ScaledSegment",
    "Schedule",
    "ScheduleBuilder",
    "CostReport",
    "evaluate",
    "validate_schedule",
    "VolumeOracle",
    "ReleaseInfo",
    "SchedulingPolicy",
    "NumericEngine",
    "EngineResult",
    "SimulationContext",
    "ClairvoyantShadow",
    "PrefixWeightOracle",
    "ShadowCheckpoint",
    "ShadowCounters",
    "EVENT_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MemoryRecorder",
    "JsonlRecorder",
    "MetricsRegistry",
    "read_jsonl",
]
