"""Analysis harness: empirical competitive ratios, figure curve extraction,
preemption-interval structure, standard instance suites, Table-1 building and
plain-text rendering.

The package resolves its attributes lazily: ``from repro.analysis import
gantt_chart`` loads :mod:`repro.analysis.gantt` alone, so the service and the
trace verifier never load numpy-backed modules such as the curves or the
report renderer.  Nothing is cached in this module's namespace — every lookup
reads the submodule's current attribute, so a name rebound there (an
instrumentation shim, say) is what callers get.
"""

from __future__ import annotations

import importlib
from typing import Any

__all__ = [
    "Curve",
    "power_curve",
    "speed_curve",
    "remaining_weight_curve",
    "processed_weight_curve",
    "speed_quantile_gap",
    "PreemptionInterval",
    "preemption_intervals",
    "RatioResult",
    "empirical_ratio",
    "run_algorithm",
    "format_table",
    "format_ascii_chart",
    "uniform_suite",
    "nonuniform_suite",
    "Table1Row",
    "build_table1",
    "render_table1",
    "theoretical_bound",
    "SweepPoint",
    "sweep",
    "alpha_grid",
    "ClaimCheck",
    "verify_paper_claims",
    "JobStats",
    "FleetStats",
    "job_statistics",
    "fleet_statistics",
    "gantt_line",
    "gantt_chart",
    "cluster_gantt",
    "Section4Trace",
    "shadow_properties",
    "TraceReport",
    "InvariantCheck",
    "ComponentStats",
    "build_report",
    "format_report",
    "StreamOrderError",
    "StreamingReportBuilder",
    "IncrementalScheduleReplayer",
]

#: submodule -> the public names it defines.
_EXPORTS = {
    "curves": (
        "Curve",
        "power_curve",
        "processed_weight_curve",
        "remaining_weight_curve",
        "speed_curve",
        "speed_quantile_gap",
    ),
    "gantt": ("cluster_gantt", "gantt_chart", "gantt_line"),
    "preemption": ("PreemptionInterval", "preemption_intervals"),
    "ratios": ("RatioResult", "empirical_ratio", "run_algorithm"),
    "report": ("format_ascii_chart", "format_table"),
    "section4": ("Section4Trace", "shadow_properties"),
    "statistics": ("FleetStats", "JobStats", "fleet_statistics", "job_statistics"),
    "suites": ("nonuniform_suite", "uniform_suite"),
    "sweeps": ("SweepPoint", "alpha_grid", "sweep"),
    "streaming": ("IncrementalScheduleReplayer", "StreamingReportBuilder", "StreamOrderError"),
    "trace_report": (
        "ComponentStats",
        "InvariantCheck",
        "TraceReport",
        "build_report",
        "format_report",
    ),
    "verification": ("ClaimCheck", "verify_paper_claims"),
    "tables": ("Table1Row", "build_table1", "render_table1", "theoretical_bound"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
