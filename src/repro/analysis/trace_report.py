"""Reports and invariant checks over structured traces.

A trace produced through :mod:`repro.core.tracing` is *self-contained*: the
``run_meta`` header carries the instance and power function, and every
``kernel_eval`` event carries the full closed-form parameters of the piece it
describes (``profile``, ``t0``/``t1``, ``x0`` or ``speed``, ``rho``,
``alpha``).  This module replays those events — one forward pass through
:mod:`repro.analysis.streaming` — and checks the paper's invariants *from
the trace alone*, with no access to the original run objects:

* **Lemma 3** — ``energy(NC) == energy(C)``: both replayed schedules are
  evaluated as :func:`repro.core.metrics.evaluate` would and compared.
* **Lemma 4** — ``frac_flow(NC) == frac_flow(C) / (1 - 1/alpha)``.
* **Ordering** — per ``(component, kind)`` stream, ``sim_time`` is
  nondecreasing except across a ``shadow_rollback`` / ``shadow_rebuild``
  boundary on that component (the events that mark a clock rewind), or a
  supervisor ``retry`` (which restarts a whole attempt, rewinding every
  stream).

Supervised runs (:mod:`repro.runtime.supervisor`) may retry a failed
attempt: a ``retry`` event on component ``X`` means every ``kernel_eval``
previously emitted by ``X`` (and its ``X.*`` children) belongs to a
discarded attempt.  The replay honors this by restarting that component at
the boundary, so post-recovery invariant checks see only the surviving
attempt.

:func:`build_report` computes all of the above plus a per-component
wall-time/event breakdown; :func:`format_report` renders it for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..algorithms.clairvoyant import simulate_clairvoyant
from ..algorithms.nc_uniform import simulate_nc_uniform
from ..core.job import Instance
from ..core.power import PowerLaw
from ..core.shadow import SimulationContext
from ..core.tracing import TraceEvent

__all__ = [
    "InvariantCheck",
    "ComponentStats",
    "TraceReport",
    "build_report",
    "format_report",
    "trace_lemma_pair",
]

#: Acceptance tolerance for the replayed Lemma 3 / Lemma 4 equalities.
REL_TOL = 1e-9

#: Components whose kernel_eval streams are replayed into schedules and fed
#: to the invariant checks (single-machine C vs NC; the capped variants obey
#: the same energy equality, see extensions.bounded_speed).
_PAIRS = (("C", "NC"), ("C_capped", "NC_capped"))


def trace_lemma_pair(
    instance: Instance,
    power: PowerLaw,
    context: SimulationContext,
    component: str,
    **extra: Any,
) -> None:
    """Trace what :func:`build_report` replays onto ``context``.

    First a ``run_meta`` header on ``component`` carrying ``alpha``, the
    instance rows ``[id, release, volume, density]`` and ``extra``; then
    Algorithm C and Algorithm NC run traced on the instance — the Lemma 3/4
    pair.  NC needs uniform densities, so any other instance gets the
    header alone.
    """
    context.emit(
        "run_meta",
        0.0,
        component,
        alpha=power.alpha,
        instance=[[j.job_id, j.release, j.volume, j.density] for j in instance],
        **extra,
    )
    if instance.is_uniform_density():
        simulate_clairvoyant(instance, power, context=context)
        simulate_nc_uniform(instance, power, context=context)


@dataclass(frozen=True)
class InvariantCheck:
    """One replayed paper invariant."""

    name: str
    holds: bool
    lhs: float
    rhs: float
    detail: str


@dataclass(frozen=True)
class ComponentStats:
    """Per-component breakdown of one trace."""

    component: str
    events: int
    by_kind: dict[str, int]
    wall_start: float
    wall_end: float

    @property
    def wall_span(self) -> float:
        return self.wall_end - self.wall_start


@dataclass(frozen=True)
class TraceReport:
    """Everything :func:`build_report` extracts from one event stream."""

    n_events: int
    components: list[ComponentStats]
    checks: list[InvariantCheck]
    order_violations: list[str]
    energies: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.order_violations and all(c.holds for c in self.checks)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def build_report(events: Iterable[TraceEvent], *, rel_tol: float = REL_TOL) -> TraceReport:
    """Replay one trace and check every invariant it can support.

    Lemma 3 / Lemma 4 checks run for each ``(C, NC)`` component pair present
    in the trace (plain and capped); components with kernel events but no
    paired counterpart contribute their replayed energy informationally.

    ``events`` may be any iterable — a list, :func:`~repro.core.tracing.iter_jsonl`
    over a (possibly gzip-compressed) file, :func:`~repro.core.tracing.iter_trace`
    over rotated segments, or a live :func:`~repro.core.tracing.follow_jsonl`
    tail.  The report is computed in a **single pass with memory bounded by
    the number of jobs**, never the number of events; see
    :mod:`repro.analysis.streaming` for its parity contract with the
    list-materializing replay kept in ``tests/trace_oracle.py``.
    """
    from .streaming import StreamingReportBuilder

    builder = StreamingReportBuilder(rel_tol=rel_tol)
    for event in events:
        builder.feed(event)
    return builder.finish()


def format_report(report: TraceReport) -> str:
    """Human-readable rendering of a :class:`TraceReport`."""
    lines = [f"trace: {report.n_events} events, {len(report.components)} components"]
    lines.append("")
    lines.append(f"{'component':<20} {'events':>7} {'wall span (ms)':>15}  kinds")
    for cs in report.components:
        kinds = ", ".join(f"{k}={v}" for k, v in cs.by_kind.items())
        lines.append(
            f"{cs.component:<20} {cs.events:>7} {cs.wall_span * 1e3:>15.3f}  {kinds}"
        )
    if report.energies:
        lines.append("")
        for comp, e in sorted(report.energies.items()):
            lines.append(f"replayed energy[{comp}] = {e:.12g}")
    lines.append("")
    if report.checks:
        for c in report.checks:
            mark = "PASS" if c.holds else "FAIL"
            lines.append(f"[{mark}] {c.name}")
            lines.append(f"       lhs={c.lhs:.12g}  rhs={c.rhs:.12g}  ({c.detail})")
    else:
        lines.append("no invariant checks (trace has no run_meta or no C/NC pair)")
    if report.order_violations:
        lines.append("")
        lines.append(f"ORDER VIOLATIONS ({len(report.order_violations)}):")
        lines.extend(f"  {v}" for v in report.order_violations)
    else:
        lines.append("event ordering: OK (per-component monotone sim_time)")
    return "\n".join(lines)
