"""Analysis harness: empirical competitive ratios, figure curve extraction,
preemption-interval structure, standard instance suites, Table-1 building and
plain-text rendering."""

from .curves import (
    Curve,
    power_curve,
    processed_weight_curve,
    remaining_weight_curve,
    speed_curve,
    speed_quantile_gap,
)
from .gantt import cluster_gantt, gantt_chart, gantt_line
from .preemption import PreemptionInterval, preemption_intervals
from .ratios import RatioResult, empirical_ratio, run_algorithm
from .report import format_ascii_chart, format_table
from .section4 import Section4Trace, shadow_properties
from .statistics import FleetStats, JobStats, fleet_statistics, job_statistics
from .suites import nonuniform_suite, uniform_suite
from .sweeps import SweepPoint, alpha_grid, sweep
from .streaming import (
    IncrementalScheduleReplayer,
    StreamingReportBuilder,
    StreamOrderError,
)
from .trace_report import (
    ComponentStats,
    InvariantCheck,
    TraceReport,
    build_report,
    format_report,
)
from .verification import ClaimCheck, verify_paper_claims
from .tables import Table1Row, build_table1, render_table1, theoretical_bound

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
