"""Test oracle for the streaming trace verifier: the list-materializing replay.

:func:`repro.analysis.trace_report.build_report` verifies a trace in one
forward pass (:mod:`repro.analysis.streaming`).  This module keeps the
straightforward implementation it replaced — materialize the event list,
rebuild each component's :class:`~repro.core.schedule.Schedule` through a
:class:`~repro.core.schedule.ScheduleBuilder` and score it with the
full-scan ``evaluate`` of ``schedule_oracle.py`` — as an independent
reference:

* :func:`instance_from_meta` — the first ``run_meta`` header's instance and
  power law;
* :func:`replay_schedule` — one component's schedule, restarted at each
  ``retry`` boundary on that component;
* :func:`check_event_order` — the per-``(component, kind)`` monotone
  ``sim_time`` contract;
* :func:`build_report_in_memory` — the whole
  :class:`~repro.analysis.trace_report.TraceReport`.

The differential tests require the streaming report to be ``==`` to this
one (and to raise the same :class:`~repro.core.errors.ScheduleError`
message), and ``benchmarks/bench_trace_scale.py`` times it as the
in-memory comparison.  Memory is proportional to the trace.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.trace_report import (
    _PAIRS,
    REL_TOL,
    ComponentStats,
    InvariantCheck,
    TraceReport,
    _close,
)
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.core.schedule import (
    ConstantSegment,
    DecaySegment,
    GrowthSegment,
    Schedule,
    ScheduleBuilder,
)
from repro.core.tracing import TraceEvent
from schedule_oracle import evaluate

__all__ = [
    "instance_from_meta",
    "replay_schedule",
    "check_event_order",
    "build_report_in_memory",
]


def instance_from_meta(events: list[TraceEvent]) -> tuple[Instance, PowerLaw] | None:
    """Recover ``(instance, power)`` from the trace's ``run_meta`` header."""
    for e in events:
        if e.kind == "run_meta":
            spec = e.payload.get("instance")
            alpha = e.payload.get("alpha")
            if spec is None or alpha is None:
                return None
            inst = Instance(
                [Job(int(j), float(r), float(v), float(d)) for j, r, v, d in spec]
            )
            return inst, PowerLaw(float(alpha))
    return None


def replay_schedule(events: list[TraceEvent], component: str) -> Schedule | None:
    """Rebuild a component's schedule from its ``kernel_eval`` events.

    A ``retry`` event on ``component`` discards everything replayed so far —
    those kernel pieces belong to a failed, rolled-back attempt."""
    builder = ScheduleBuilder()
    n = 0
    for e in events:
        if e.kind == "retry" and e.component == component:
            builder = ScheduleBuilder()
            n = 0
            continue
        if e.kind != "kernel_eval" or e.component != component:
            continue
        p = e.payload
        t0, t1, job = float(p["t0"]), float(p["t1"]), int(p["job"])
        profile = p["profile"]
        if profile == "decay":
            builder.append(
                DecaySegment(t0, t1, job, float(p["x0"]), float(p["rho"]), float(p["alpha"]))
            )
        elif profile == "growth":
            builder.append(
                GrowthSegment(t0, t1, job, float(p["x0"]), float(p["rho"]), float(p["alpha"]))
            )
        elif profile == "const":
            builder.append(ConstantSegment(t0, t1, job, float(p["speed"])))
        else:
            raise ValueError(f"unknown kernel profile {profile!r} in trace")
        n += 1
    return builder.build() if n else None


def check_event_order(events: list[TraceEvent]) -> list[str]:
    """Violations of the per-``(component, kind)`` monotonicity contract.

    A ``shadow_rollback`` or ``shadow_rebuild`` on a component rewinds that
    component's clock, so it resets the watermark for *all* kinds of that
    component.  A supervisor ``retry`` restarts a whole attempt from a
    checkpoint, so it resets every watermark.
    """
    last: dict[tuple[str, str], float] = {}
    violations: list[str] = []
    for i, e in enumerate(events):
        if e.kind == "retry":
            last.clear()
            continue
        if e.kind in ("shadow_rollback", "shadow_rebuild"):
            for key in [k for k in last if k[0] == e.component]:
                del last[key]
            continue
        key = (e.component, e.kind)
        prev = last.get(key)
        if prev is not None and e.sim_time < prev:
            violations.append(
                f"event {i}: {e.component}/{e.kind} at sim_time={e.sim_time} "
                f"after {prev} with no rollback boundary"
            )
        last[key] = e.sim_time
    return violations


def _component_stats(events: list[TraceEvent]) -> list[ComponentStats]:
    by_comp: dict[str, list[TraceEvent]] = {}
    for e in events:
        by_comp.setdefault(e.component, []).append(e)
    out = []
    for comp in sorted(by_comp):
        evs = by_comp[comp]
        kinds: dict[str, int] = {}
        for e in evs:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        out.append(
            ComponentStats(
                component=comp,
                events=len(evs),
                by_kind=dict(sorted(kinds.items())),
                wall_start=min(e.wall_time for e in evs),
                wall_end=max(e.wall_time for e in evs),
            )
        )
    return out


def build_report_in_memory(
    events: Iterable[TraceEvent], *, rel_tol: float = REL_TOL
) -> TraceReport:
    """The list-materializing twin of
    :func:`~repro.analysis.trace_report.build_report`."""
    events = list(events)
    meta = instance_from_meta(events)
    checks: list[InvariantCheck] = []
    energies: dict[str, float] = {}
    if meta is not None:
        inst, power = meta
        for c_comp, nc_comp in _PAIRS:
            sched_c = replay_schedule(events, c_comp)
            sched_nc = replay_schedule(events, nc_comp)
            rep_c = evaluate(sched_c, inst, power) if sched_c is not None else None
            rep_nc = evaluate(sched_nc, inst, power) if sched_nc is not None else None
            if rep_c is not None:
                energies[c_comp] = rep_c.energy
            if rep_nc is not None:
                energies[nc_comp] = rep_nc.energy
            if rep_c is None or rep_nc is None:
                continue
            checks.append(
                InvariantCheck(
                    name=f"Lemma 3: energy({nc_comp}) == energy({c_comp})",
                    holds=_close(rep_nc.energy, rep_c.energy, rel_tol),
                    lhs=rep_nc.energy,
                    rhs=rep_c.energy,
                    detail=f"replayed from kernel_eval events, rel_tol={rel_tol:g}",
                )
            )
            if c_comp == "C":
                # Lemma 4's exact ratio holds only uncapped (the capped ratio
                # degrades with the cap; see extensions.bounded_speed).
                factor = 1.0 / (1.0 - 1.0 / power.alpha)
                expected = rep_c.fractional_flow * factor
                checks.append(
                    InvariantCheck(
                        name="Lemma 4: flow(NC) == flow(C) / (1 - 1/alpha)",
                        holds=_close(rep_nc.fractional_flow, expected, rel_tol),
                        lhs=rep_nc.fractional_flow,
                        rhs=expected,
                        detail=f"alpha={power.alpha:g}, factor={factor:.6g}",
                    )
                )
    return TraceReport(
        n_events=len(events),
        components=_component_stats(events),
        checks=checks,
        order_violations=check_event_order(events),
        energies=energies,
    )
