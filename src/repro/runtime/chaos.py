"""Seeded chaos campaigns: inject faults, supervise, re-verify the paper.

A campaign (``repro chaos``) runs ``n`` seeded runs of one
:class:`Scenario`.  Each run either

* completes **clean** (no fault fired on its surviving attempt),
* completes **recovered** (faults fired; the supervisor rolled back and the
  surviving attempt passes every guard and every named check — Lemma 3 /
  Lemma 4 re-verified *from the trace* at ``1e-9``, bit-identity with a
  clean twin, Lemma 20 dispatch identity), or
* **fails structurally** with an error naming the fault (and, for
  supervised runs, the last good checkpoint).

No fourth outcome exists: no hangs, no silent NaN, no negative weights —
that is the campaign's contract, asserted by ``tests/test_chaos.py``.  The
no-hang half is enforced mechanically: with ``run_timeout`` set, a run that
exceeds its wall-clock budget is abandoned (a ``run_timeout`` event marks
it in the trace) and counted as **failed**, so one wedged run cannot wedge
the campaign.

Three scenarios share the one loop (:func:`run_campaign`), outcome, report
and formatter:

* :class:`FamilyScenario` (the default) rotates in-process runs through the
  algorithm families under the :class:`~repro.runtime.supervisor.Supervisor`;
* :class:`ShardScenario` (``repro chaos --shards``) runs the parallel family
  *sharded* on a supervised worker pool (:mod:`repro.runtime.pool`) while the
  fault plan SIGKILLs workers mid-shard, and requires the merged report
  **bit-identical** to the serial :class:`~repro.parallel.cluster.ClusterRun`
  path plus Lemma 20 and the Lemma 3/4 replay;
* :class:`ServiceScenario` (``repro chaos --service``) SIGKILLs live
  ``repro serve`` processes, damages their journals, evicts sessions and
  drops connections, and byte-compares every recovery against a twin
  service that never saw the fault.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterable, Iterator, Mapping, Protocol, Sequence

from ..analysis.trace_report import REL_TOL, TraceReport, build_report, trace_lemma_pair
from ..core.errors import ReproError, ScheduleError
from ..core.job import Instance
from ..core.shadow import SimulationContext
from ..core.tracing import (
    MemoryRecorder,
    TraceEvent,
    TraceSink,
    corrupt_line,
    iter_trace,
    make_sink,
)
from ..algorithms.clairvoyant import simulate_clairvoyant
from ..algorithms.registry import ALGORITHMS, DEFAULT_MAX_STEP
from ..core.power import CappedPowerLaw, PowerLaw
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, FaultSpec, generate_plan
from ..parallel.c_par import simulate_c_par
from ..parallel.nc_par import simulate_nc_par
from ..parallel.shard import run_sharded
from ..workloads.random_instances import random_instance
from .pool import PoolPolicy
from .supervisor import RecoveryPolicy, SupervisedResult, Supervisor

__all__ = [
    "Outcome",
    "CampaignReport",
    "Scenario",
    "FamilyScenario",
    "ShardScenario",
    "ServiceScenario",
    "run_pair_verified",
    "run_campaign",
    "format_campaign",
    "iter_campaign_runs",
    "RunVerification",
    "verify_campaign_trace",
]

#: Tolerance for trace-replayed Lemma 3 / Lemma 4 on pair runs.
PAIR_REL_TOL = 1e-9

#: One table column: ``(header, format spec, key)``; the key names an
#: :class:`Outcome` field, one of the scenario's checks, or one of its counts.
Column = tuple[str, str, str]


@dataclass(frozen=True)
class Outcome:
    """One chaos run's verdict.

    ``checks`` maps each of the scenario's named checks to ``True`` /
    ``False``, or ``None`` when the run had nothing to check (a failed run,
    a family without a pair replay, a quarantined session); ``counts`` maps
    each named counter to its tally for this run.
    """

    run_id: int
    family: str
    seed: int
    plan: str
    status: str  # "clean" | "recovered" | "failed"
    faults_fired: int
    error: str | None
    checkpoint: str | None
    n_events: int
    checks: Mapping[str, bool | None]
    counts: Mapping[str, int]


class Scenario(Protocol):
    """What a campaign runs: the per-run work and how the table shows it.

    ``plan`` names run ``run_id`` without running it (the loop needs the
    name for a run it abandons); ``run`` executes, verifies and classifies
    the run, returning its :class:`Outcome` — carrying exactly the
    scenario's ``checks`` and ``counts`` keys — and its trace events.  A
    structured failure is a ``failed`` outcome, never an exception.

    ``heading`` is a :meth:`str.format` template over ``seed``,
    ``n_runs``, ``clean``, ``recovered``, ``failed``, ``survived`` and
    every count summed over the runs; ``detail`` is one over the outcome's
    fields, shown when the run has no error; ``verdicts`` is the
    ``(ok, failed)`` closing line.
    """

    @property
    def heading(self) -> str: ...
    @property
    def columns(self) -> tuple[Column, ...]: ...
    @property
    def detail(self) -> str: ...
    @property
    def verdicts(self) -> tuple[str, str]: ...
    @property
    def checks(self) -> tuple[str, ...]: ...
    @property
    def counts(self) -> tuple[str, ...]: ...

    def plan(self, run_id: int, seed: int) -> tuple[str, str]:
        """``(family, plan description)`` of run ``run_id``."""
        ...

    def run(self, run_id: int, seed: int) -> tuple[Outcome, Sequence[TraceEvent]]:
        """Execute, verify and classify run ``run_id``."""
        ...


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    n_runs: int
    outcomes: tuple[Outcome, ...]
    scenario: Scenario

    @property
    def n_clean(self) -> int:
        return sum(o.status == "clean" for o in self.outcomes)

    @property
    def n_recovered(self) -> int:
        return sum(o.status == "recovered" for o in self.outcomes)

    @property
    def n_failed(self) -> int:
        return sum(o.status == "failed" for o in self.outcomes)

    def total(self, count: str) -> int:
        """One named count summed over every run."""
        return sum(o.counts.get(count, 0) for o in self.outcomes)

    @property
    def ok(self) -> bool:
        """Every run survived (clean or recovered) and no check failed.

        Structured failures count against the campaign even though they
        satisfy the no-silent-failure contract.  A ``None`` check is not a
        failure: it marks a run with nothing to check.
        """
        return all(
            o.status in ("clean", "recovered") and False not in o.checks.values()
            for o in self.outcomes
        )


def run_campaign(
    seed: int,
    n_runs: int,
    *,
    scenario: Scenario | None = None,
    out: str | Path | None = None,
    sink_spec: str = "plain",
    run_timeout: float | None = None,
) -> CampaignReport:
    """Run a seeded campaign of ``n_runs`` runs of ``scenario``
    (default: :class:`FamilyScenario`); run ``i`` gets the derived seed
    ``seed * 1_000_003 + i``.

    With ``out`` given, every run's full trace (including ``fault_injected``
    and ``recovery`` events) is appended to one JSONL sink — plain, gzip, or
    rotating segments per ``sink_spec`` (see
    :func:`~repro.core.tracing.make_sink`) — behind a ``campaign`` header
    carrying ``run_id``/``family``/``seed``/``plan``/``status``, so the file
    partitions cleanly on re-read (:func:`iter_campaign_runs`).

    ``run_timeout`` (seconds) bounds each run's wall clock.  A run that
    exceeds it is abandoned where it stands, marked **failed** with a
    ``run_timeout`` event in its trace slot, and the campaign moves on —
    the timed-out run's thread can never touch the sink, because all sink
    writes happen here after the verdict.  Python threads cannot be
    preempted, so the abandoned thread keeps running until it finishes or
    the process exits: use a budget only with scenarios whose runs own no
    child processes or worker pools (the CLI allows ``--timeout`` only for
    the in-process campaign).
    """
    scenario = FamilyScenario() if scenario is None else scenario
    outcomes: list[Outcome] = []
    sink = make_sink(out, sink_spec) if out is not None else None
    try:
        for i in range(n_runs):
            outcome, events = _execute_run(scenario, i, seed * 1_000_003 + i, run_timeout)
            outcomes.append(outcome)
            if sink is not None:
                _write_run(sink, outcome, events)
                sink.flush()
    finally:
        if sink is not None:
            sink.close()
    return CampaignReport(seed=seed, n_runs=n_runs, outcomes=tuple(outcomes), scenario=scenario)


def _execute_run(
    scenario: Scenario, run_id: int, seed: int, run_timeout: float | None
) -> tuple[Outcome, Sequence[TraceEvent]]:
    """Run one scenario run, optionally under a wall-clock budget; a
    timed-out run's results and trace are never read — the campaign's
    record of it is the ``run_timeout`` failure built here."""
    if run_timeout is None:
        return scenario.run(run_id, seed)

    box: list[tuple[Outcome, Sequence[TraceEvent]] | BaseException] = []

    def target() -> None:
        try:
            box.append(scenario.run(run_id, seed))
        except BaseException as err:  # noqa: BLE001 — re-raised below
            box.append(err)

    thread = threading.Thread(target=target, daemon=True, name=f"chaos-run-{run_id}")
    thread.start()
    thread.join(run_timeout)
    if thread.is_alive() or not box:
        family, plan = scenario.plan(run_id, seed)
        rec = MemoryRecorder()
        rec.emit(
            "run_timeout", 0.0, "chaos",
            run_id=run_id, family=family, timeout_s=float(run_timeout),
        )
        outcome = Outcome(
            run_id=run_id,
            family=family,
            seed=seed,
            plan=plan,
            status="failed",
            faults_fired=0,
            error=f"RunTimeout: run exceeded {run_timeout:.3g}s wall clock",
            checkpoint="run_timeout",
            n_events=len(rec.events),
            checks=dict.fromkeys(scenario.checks),
            counts=dict.fromkeys(scenario.counts, 0),
        )
        return outcome, rec.events
    result = box[0]
    if isinstance(result, BaseException):
        raise result
    return result


def format_campaign(report: CampaignReport) -> str:
    """The campaign as its scenario's table: heading, one row per run, and
    the verdict line."""
    sc = report.scenario
    heading = sc.heading.format(
        seed=report.seed,
        n_runs=report.n_runs,
        clean=report.n_clean,
        recovered=report.n_recovered,
        failed=report.n_failed,
        survived=report.n_runs - report.n_failed,
        **{name: report.total(name) for name in sc.counts},
    )
    header = " ".join(format(title, spec) for title, spec, _ in sc.columns)
    lines = [heading, "", f"{'run':>4} {header}  detail"]
    for o in report.outcomes:
        cells = " ".join(format(_cell(sc, o, key), spec) for _, spec, key in sc.columns)
        lines.append(f"{o.run_id:>4} {cells}  {o.error or sc.detail.format_map(vars(o))}")
    lines += ["", sc.verdicts[0] if report.ok else sc.verdicts[1]]
    return "\n".join(lines)


def _cell(scenario: Scenario, outcome: Outcome, key: str) -> object:
    if key in scenario.checks:
        flag = outcome.checks.get(key)
        return "-" if flag is None else ("PASS" if flag else "FAIL")
    if key in scenario.counts:
        return outcome.counts.get(key, 0)
    return getattr(outcome, key)


def _failure(err: ReproError) -> tuple[str, str | None]:
    """``(error, checkpoint)`` of a structured failure."""
    checkpoint = err.context.get("checkpoint")
    return f"{type(err).__name__}: {err}", str(checkpoint) if checkpoint else None


def _write_run(sink: TraceSink, outcome: Outcome, events: Iterable[TraceEvent]) -> None:
    """One run's slot in a campaign trace: a ``campaign`` header naming the
    run, then the run's own events (whose first event is its ``run_meta``)."""
    header = {
        "run_id": outcome.run_id,
        "family": outcome.family,
        "seed": outcome.seed,
        "plan": outcome.plan,
        "status": outcome.status,
    }
    header_event = TraceEvent(
        kind="run_meta", sim_time=0.0, wall_time=0.0, component="campaign", payload=header
    )
    sink.write("run_meta", header_event.to_json())
    for event in events:
        sink.write(event.kind, event.to_json())


def _campaign_events(
    source: str | Path | Iterable[TraceEvent],
) -> Iterator[TraceEvent]:
    if isinstance(source, (str, Path)):
        return iter_trace(source)
    return iter(source)


def iter_campaign_runs(
    source: str | Path | Iterable[TraceEvent],
) -> Iterator[tuple[dict[str, Any], list[TraceEvent]]]:
    """Split a campaign trace back into its per-run slots.

    Yields ``(header, events)`` for every ``campaign`` ``run_meta`` header in
    the stream; ``source`` may be a written trace path (plain or gzip) or any
    event iterable.  Memory is bounded by the largest single run, not the
    campaign.
    """
    header: dict[str, Any] | None = None
    events: list[TraceEvent] = []
    for event in _campaign_events(source):
        if event.kind == "run_meta" and event.component == "campaign":
            if header is not None:
                yield header, events
            header = dict(event.payload)
            events = []
            continue
        if header is not None:
            events.append(event)
    if header is not None:
        yield header, events


@dataclass(frozen=True)
class RunVerification:
    """Streaming re-verification verdict for one run slot of a campaign trace."""

    header: dict[str, Any]
    report: TraceReport | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None and self.report is not None and self.report.ok


def verify_campaign_trace(
    source: str | Path | Iterable[TraceEvent], *, rel_tol: float = REL_TOL
) -> list[RunVerification]:
    """Re-verify every run of a written campaign trace in one streaming pass.

    Each run slot gets its own
    :class:`~repro.analysis.streaming.StreamingReportBuilder`, so memory
    stays bounded by one run's job count no matter how long the campaign
    file is.  A run whose replay raises :class:`ScheduleError` (a failed
    run's torn schedule) or ``ValueError`` (a malformed payload) is reported
    with the error instead of a report — the same judgement the live
    campaign makes.
    """
    from ..analysis.streaming import StreamingReportBuilder

    results: list[RunVerification] = []
    header: dict[str, Any] | None = None
    builder: StreamingReportBuilder | None = None

    def _finish(hdr: dict[str, Any], b: StreamingReportBuilder) -> None:
        try:
            results.append(RunVerification(header=hdr, report=b.finish(), error=None))
        except (ScheduleError, ValueError) as err:
            results.append(RunVerification(header=hdr, report=None, error=str(err)))

    for event in _campaign_events(source):
        if event.kind == "run_meta" and event.component == "campaign":
            if header is not None and builder is not None:
                _finish(header, builder)
            header = dict(event.payload)
            builder = StreamingReportBuilder(rel_tol=rel_tol)
            continue
        if builder is not None:
            try:
                builder.feed(event)
            except (ScheduleError, ValueError) as err:
                if header is not None:
                    results.append(
                        RunVerification(header=header, report=None, error=str(err))
                    )
                header = None
                builder = None
    if header is not None and builder is not None:
        _finish(header, builder)
    return results


# -- in-process families ------------------------------------------------------


#: Family rotation of a campaign (index ``i % len``): the single-machine NC
#: pair twice (it carries the lemma re-verification), the capped pair, the
#: engine-driven general-density family, and the parallel family.
_ROTATION = ("NC_PAIR", "NC_PAIR", "CAPPED_PAIR", "NC_GENERAL", "NC_PAR")

#: Fault pools per family: pair runs get reveal/release faults (their lies
#: surface as lemma failures); the engine family gets the numeric faults;
#: the parallel family gets machine failures.
_POOLS = {
    "NC_PAIR": ("oracle_lie", "release_jitter", "release_duplicate", "release_drop"),
    "CAPPED_PAIR": ("oracle_lie", "release_drop"),
    "NC_GENERAL": ("power_transient", "power_nan", "step_corruption", "oracle_lie"),
    "NC_PAR": ("machine_failure",),
}


def _meta_payload(instance: Instance, alpha: float) -> dict[str, Any]:
    return {
        "instance": [[j.job_id, j.release, j.volume, j.density] for j in instance],
        "alpha": alpha,
    }


def _lemmas_hold(events: Iterable[TraceEvent]) -> bool:
    """Lemma 3 / Lemma 4 replayed from a run's trace at :data:`PAIR_REL_TOL`."""
    try:
        report = build_report(events, rel_tol=PAIR_REL_TOL)
    except ScheduleError:
        # A phantom/dropped job makes the replayed NC schedule
        # inconsistent with the instance — a lemma failure in disguise.
        return False
    return bool(report.checks) and all(c.holds for c in report.checks)


def run_pair_verified(
    instance: Instance,
    power: PowerLaw,
    plan: FaultPlan,
    recorder: MemoryRecorder,
    *,
    policy: RecoveryPolicy | None = None,
) -> tuple[bool, SupervisedResult]:
    """Run the (C, NC) pair traced, NC under supervision, and re-verify
    Lemma 3 / Lemma 4 from the trace at :data:`PAIR_REL_TOL`.

    A lie that slips past the local guards (a scaled volume reveal, a
    jittered release) produces a *valid-looking* NC run whose lemma replay
    fails against C; the harness then emits ``guard_violation`` + ``retry``
    and re-runs NC — the injector's budgets are spent, so the retried
    attempt is clean — and re-verifies.  Returns ``(lemmas_ok, result)``.
    """
    context = SimulationContext(power, recorder=recorder)
    context.emit("run_meta", 0.0, "chaos", **_meta_payload(instance, power.alpha))
    supervisor = Supervisor(power, plan=plan, context=context, policy=policy)
    simulate_clairvoyant(instance, power, context=context)
    result = supervisor.run("NC", instance)
    ok = _lemmas_hold(recorder.events)
    if not ok:
        # The surviving attempt is self-consistent but wrong against C:
        # escalate to a pair-level retry (fault budgets are spent by now).
        context.emit(
            "guard_violation", 0.0, "supervisor",
            guard="lemma_replay", algorithm="NC",
        )
        context.emit("retry", 0.0, ALGORITHMS["NC"].trace_component(power), reason="lemma_replay")
        result = supervisor.run("NC", instance)
        ok = _lemmas_hold(recorder.events)
    return ok, result


@dataclass(frozen=True)
class FamilyScenario:
    """In-process runs rotating through the algorithm families, one seeded
    fault each, under the supervisor (``repro chaos``).  Pair runs carry
    the ``lemmas`` check: Lemma 3/4 replayed from the surviving trace."""

    jobs: int = 8
    alpha: float = 3.0
    machines: int = 3
    policy: RecoveryPolicy | None = None

    heading: ClassVar[str] = (
        "chaos campaign: seed={seed}, {n_runs} runs — "
        "{clean} clean, {recovered} recovered, {failed} failed"
    )
    columns: ClassVar[tuple[Column, ...]] = (
        ("family", "<12", "family"),
        ("status", "<10", "status"),
        ("attempts", ">8", "attempts"),
        ("faults", ">6", "faults_fired"),
        ("lemmas", ">7", "lemmas"),
    )
    detail: ClassVar[str] = "{plan}"
    verdicts: ClassVar[tuple[str, str]] = (
        "CAMPAIGN OK: every run survived with guarantees intact",
        "CAMPAIGN FAILED: at least one run failed or broke a replayed lemma",
    )
    checks: ClassVar[tuple[str, ...]] = ("lemmas",)
    counts: ClassVar[tuple[str, ...]] = ("attempts",)

    def _size(self, family: str) -> int:
        return self.jobs if family != "NC_GENERAL" else max(3, self.jobs // 2)

    def _fault_plan(self, run_id: int, seed: int) -> tuple[str, FaultPlan]:
        family = _ROTATION[run_id % len(_ROTATION)]
        plan = generate_plan(
            seed,
            n_faults=1,
            kinds=_POOLS[family],
            n_jobs=self._size(family),
            machines=self.machines if family == "NC_PAR" else None,
        )
        return family, plan

    def plan(self, run_id: int, seed: int) -> tuple[str, str]:
        family, plan = self._fault_plan(run_id, seed)
        return family, plan.describe()

    def run(self, run_id: int, seed: int) -> tuple[Outcome, Sequence[TraceEvent]]:
        family, plan = self._fault_plan(run_id, seed)
        recorder = MemoryRecorder()
        instance = random_instance(self._size(family), seed=seed, volume="uniform")
        lemmas: bool | None = None
        status, attempts, faults_fired = "failed", 0, 0
        error: str | None = None
        checkpoint: str | None = None
        try:
            if family in ("NC_PAIR", "CAPPED_PAIR"):
                capped = family == "CAPPED_PAIR"
                power = CappedPowerLaw(self.alpha, s_max=2.5) if capped else PowerLaw(self.alpha)
                lemmas, result = run_pair_verified(
                    instance, power, plan, recorder, policy=self.policy
                )
            else:
                power = PowerLaw(self.alpha)
                context = SimulationContext(power, recorder=recorder)
                context.emit("run_meta", 0.0, "chaos", **_meta_payload(instance, self.alpha))
                supervisor = Supervisor(power, plan=plan, context=context, policy=self.policy)
                # The engine family integrates coarsely, a choice of this
                # campaign rather than the registry's default step.
                result = supervisor.run(
                    family, instance, machines=self.machines,
                    max_step=5e-2 if ALGORITHMS[family].engine else DEFAULT_MAX_STEP,
                )
            attempts, faults_fired = result.attempts, len(result.faults)
            status = "recovered" if (result.recovered or result.faults) else "clean"
        except ReproError as err:
            # Structured terminal failure: the fault and checkpoint are named.
            error, checkpoint = _failure(err)
            tried = err.context.get("attempts")
            attempts = tried if isinstance(tried, int) else 0
        outcome = Outcome(
            run_id=run_id,
            family=family,
            seed=seed,
            plan=plan.describe(),
            status=status,
            faults_fired=faults_fired,
            error=error,
            checkpoint=checkpoint,
            n_events=len(recorder.events),
            checks={"lemmas": lemmas},
            counts={"attempts": attempts},
        )
        return outcome, recorder.events


# -- the shard-kill campaign --------------------------------------------------


@dataclass(frozen=True)
class ShardScenario:
    """Shard-kill runs against the supervised pool (``repro chaos --shards``).

    Every run SIGKILLs ``kills`` workers mid-shard (the ``shard_hold``
    synthetic shard duration guarantees the kill lands while the shard is
    computing, so work is genuinely lost and re-dispatched); every third
    run also wedges a shard (``shard_hang``), and — when ``checkpoint_dir``
    is given — every fourth run corrupts a durable checkpoint.  After the
    pool recovers the run checks ``bitid`` (exact equality of the merged
    report with the serial ``ClusterRun.report()``, no tolerance), ``L20``
    (NC-PAR and C-PAR made identical assignments) and ``lemmas`` (the Lemma
    3/4 replay of the traced single-machine pair on the same instance).
    """

    jobs: int = 16
    alpha: float = 3.0
    machines: int = 4
    workers: int = 2
    kills: int = 2
    shard_hold: float = 0.15
    checkpoint_dir: str | Path | None = None

    heading: ClassVar[str] = (
        "shard-kill campaign: seed={seed}, {n_runs} runs — "
        "{survived} survived, {failed} failed, {killed} workers SIGKILLed"
    )
    columns: ClassVar[tuple[Column, ...]] = (
        ("status", "<10", "status"),
        ("shards", ">6", "shards"),
        ("killed", ">6", "killed"),
        ("redisp", ">6", "redisp"),
        ("resume", ">6", "resume"),
        ("bitid", ">6", "bitid"),
        ("L20", ">4", "L20"),
        ("L3/4", ">5", "lemmas"),
    )
    detail: ClassVar[str] = "{plan}"
    verdicts: ClassVar[tuple[str, str]] = (
        "SHARD CAMPAIGN OK: every kill recovered, reports bit-identical, "
        "dispatch identity and lemma replay intact",
        "SHARD CAMPAIGN FAILED: a run failed, diverged from serial, or "
        "broke dispatch identity / lemma replay",
    )
    checks: ClassVar[tuple[str, ...]] = ("bitid", "L20", "lemmas")
    counts: ClassVar[tuple[str, ...]] = (
        "shards", "killed", "lost", "redisp", "fallback", "degraded", "resume",
    )

    def _fault_plan(self, run_id: int, seed: int) -> FaultPlan:
        """The ``kills`` worker kills target dispatch ordinals ``1..kills``
        — the first shards handed out, which land on distinct workers while
        every worker is still busy with its first shard."""
        faults = [FaultSpec(kind="worker_kill", after_calls=k + 1) for k in range(self.kills)]
        if run_id % 3 == 2:
            faults.append(FaultSpec(kind="shard_hang", after_calls=self.kills + 1))
        if self.checkpoint_dir is not None and run_id % 4 == 3:
            faults.append(FaultSpec(kind="checkpoint_corruption", after_calls=1))
        return FaultPlan(seed=seed, faults=tuple(faults))

    def plan(self, run_id: int, seed: int) -> tuple[str, str]:
        return "NC_PAR_SHARDED", self._fault_plan(run_id, seed).describe()

    def run(self, run_id: int, seed: int) -> tuple[Outcome, Sequence[TraceEvent]]:
        recorder = MemoryRecorder()
        power = PowerLaw(self.alpha)
        instance = random_instance(self.jobs, seed=seed, volume="uniform")
        plan = self._fault_plan(run_id, seed)
        context = SimulationContext(power, recorder=recorder)
        injector = FaultInjector(plan, context)
        checks: dict[str, bool | None] = dict.fromkeys(self.checks)
        counts = dict.fromkeys(self.counts, 0)
        status = "failed"
        error: str | None = None
        checkpoint: str | None = None
        try:
            # The traced single-machine pair on the same instance: the
            # material the Lemma 3/4 replay audits.
            trace_lemma_pair(instance, power, context, "chaos")

            # Serial references, computed without faults or tracing.
            serial_report = simulate_nc_par(instance, power, self.machines).report()
            c_par_assignments = simulate_c_par(instance, power, self.machines).assignments

            policy = PoolPolicy(
                workers=self.workers,
                heartbeat_interval=0.05,
                heartbeat_timeout=10.0,
                shard_timeout=max(2.0, self.shard_hold * 10.0),
                poll_interval=0.01,
            )
            result = run_sharded(
                instance, power, self.machines,
                context=context, injector=injector, policy=policy,
                checkpoint_dir=self.checkpoint_dir, shard_hold=self.shard_hold,
            )
            counts.update(shards=len(result.shards), resume=result.resumed)
            if result.stats is not None:
                counts.update(
                    lost=result.stats.workers_lost,
                    redisp=result.stats.redispatched,
                    fallback=result.stats.serial_fallback,
                    degraded=int(result.stats.degraded),
                )
            checks.update(
                bitid=result.report == serial_report,
                L20=result.cluster.assignments == c_par_assignments,
                lemmas=_lemmas_hold(recorder.events),
            )
            status = "recovered" if injector.fired else "clean"
        except ReproError as err:
            error, checkpoint = _failure(err)
        counts["killed"] = sum(1 for s, _ in injector.fired if s.kind == "worker_kill")
        outcome = Outcome(
            run_id=run_id,
            family="NC_PAR_SHARDED",
            seed=seed,
            plan=plan.describe(),
            status=status,
            faults_fired=len(injector.fired),
            error=error,
            checkpoint=checkpoint,
            n_events=len(recorder.events),
            checks=checks,
            counts=counts,
        )
        return outcome, recorder.events


# -- the service chaos campaign -----------------------------------------------


#: Scenario rotation of the service campaign (index ``i % len``): two live
#: SIGKILL-and-restart scenarios bracketing a torn journal tail, an interior
#: journal corruption, an LRU eviction cycle, and the two HTTP-level faults.
_SERVICE_ROTATION = (
    "kill_restart",
    "torn_tail",
    "corruption",
    "evict",
    "slow_handler",
    "connection_drop",
)

#: The query endpoints whose response bodies define a session's fingerprint;
#: bit-identity is exact byte equality across all of them.
_FINGERPRINT_PATHS = ("/speeds", "/schedule", "/metrics", "/report")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


def _http(
    port: int,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
    *,
    timeout: float = 10.0,
) -> tuple[int, bytes]:
    """One HTTP exchange against localhost; returns ``(status, body_bytes)``."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"content-type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _spawn_server(
    port: int,
    journal_dir: str | Path,
    *,
    extra: tuple[str, ...] = (),
    timeout: float = 30.0,
) -> subprocess.Popen[bytes]:
    """Start a real ``repro serve`` subprocess and wait until it is healthy."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--journal-dir", str(journal_dir), *extra,
    ]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server on port {port} exited with {proc.returncode} before healthy"
            )
        try:
            status, _ = _http(port, "GET", "/health", timeout=1.0)
            if status == 200:
                return proc
        except OSError:
            pass
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    raise RuntimeError(f"server on port {port} not healthy within {timeout:.0f}s")


def _stop_server(proc: subprocess.Popen[bytes] | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _service_batches(jobs: int, derived_seed: int) -> list[list[dict[str, Any]]]:
    """The deterministic arrival batches of one scenario (unit density, so
    the verified-report lemma replay is servable)."""
    instance = random_instance(jobs, derived_seed, density="unit")
    ordered = sorted(instance, key=lambda j: (j.release, j.job_id))
    return [
        [
            {"id": j.job_id, "release": j.release, "volume": j.volume,
             "density": j.density}
            for j in ordered[i : i + 2]
        ]
        for i in range(0, len(ordered), 2)
    ]


def _expect(status: int, want: int, what: str, body: bytes = b"") -> None:
    if status != want:
        detail = body[:200].decode(errors="replace")
        raise RuntimeError(f"{what}: expected {want}, got {status} ({detail})")


def _fingerprint(port: int, session_id: str) -> dict[str, tuple[int, bytes]]:
    return {
        path: _http(port, "GET", f"/sessions/{session_id}{path}")
        for path in _FINGERPRINT_PATHS
    }


def _lemmas_from_report(fingerprint: dict[str, tuple[int, bytes]]) -> bool:
    status, body = fingerprint["/report"]
    if status != 200:
        return False
    return bool(json.loads(body).get("ok"))


def _restore_counts(port: int) -> tuple[int, int]:
    """(restored, quarantined) from the freshly-restarted server's health."""
    status, body = _http(port, "GET", "/health")
    _expect(status, 200, "health after restart", body)
    restore = json.loads(body).get("restore") or {}
    return int(restore.get("restored", 0)), int(restore.get("quarantined", 0))


def _submit(port: int, session_id: str, batch: list[dict[str, Any]]) -> None:
    status, body = _http(
        port, "POST", f"/sessions/{session_id}/jobs", {"jobs": batch}
    )
    _expect(status, 202, f"submit to {session_id!r}", body)


def _create_session(port: int, session_id: str, alpha: float) -> None:
    status, body = _http(
        port, "POST", "/sessions",
        {"session_id": session_id, "alpha": alpha, "algorithm": "NC"},
    )
    _expect(status, 201, f"create {session_id!r}", body)


@dataclass(frozen=True)
class ServiceScenario:
    """Runs against live scheduling services (``repro chaos --service``).

    Rotates through :data:`_SERVICE_ROTATION`: real ``repro serve``
    subprocesses are SIGKILLed mid-workload (plain, with a torn journal
    tail, and with interior journal corruption), a bounded store is driven
    through an LRU eviction cycle, and in-thread socket servers absorb
    injected slow handlers and connection drops.  Every recovery is
    verified **differentially**: ``bitid`` is exact byte equality of the
    surviving session's speeds/schedule/metrics/verified-report bodies with
    a twin service that never saw the fault (``None`` when the scenario has
    no twin, e.g. a quarantined corruption), and ``lemmas`` is the Lemma
    3/4 replay served by ``GET /report`` on the surviving session.  The
    counts ``rest``/``quar`` are the restarted server's restored and
    quarantined sessions.
    """

    jobs: int = 6
    alpha: float = 3.0

    heading: ClassVar[str] = (
        "service chaos campaign: seed={seed}, {n_runs} runs — "
        "{survived} survived, {failed} failed"
    )
    columns: ClassVar[tuple[Column, ...]] = (
        ("scenario", "<16", "plan"),
        ("status", "<10", "status"),
        ("faults", ">6", "faults_fired"),
        ("bitid", ">6", "bitid"),
        ("L3/4", ">5", "lemmas"),
        ("rest", ">5", "rest"),
        ("quar", ">5", "quar"),
    )
    detail: ClassVar[str] = "seed={seed}"
    verdicts: ClassVar[tuple[str, str]] = (
        "SERVICE CAMPAIGN OK: every crash/evict/drop recovered bit-identical "
        "with lemma replays intact",
        "SERVICE CAMPAIGN FAILED: a scenario failed, diverged from its "
        "twin, or broke a lemma replay",
    )
    checks: ClassVar[tuple[str, ...]] = ("bitid", "lemmas")
    counts: ClassVar[tuple[str, ...]] = ("rest", "quar")

    def plan(self, run_id: int, seed: int) -> tuple[str, str]:
        name = _SERVICE_ROTATION[run_id % len(_SERVICE_ROTATION)]
        return f"SERVICE_{name.upper()}", name

    def run(self, run_id: int, seed: int) -> tuple[Outcome, Sequence[TraceEvent]]:
        family, name = self.plan(run_id, seed)
        jobs, alpha = self.jobs, self.alpha
        recorder = MemoryRecorder()
        recorder.emit(
            "run_meta", 0.0, "chaos",
            run_id=run_id, scenario=name, seed=seed, alpha=alpha, jobs=jobs,
        )
        checks: dict[str, bool | None] = dict.fromkeys(self.checks)
        counts = dict.fromkeys(self.counts, 0)
        faults_fired = 0
        status = "failed"
        error: str | None = None
        tmp = Path(tempfile.mkdtemp(prefix="repro-service-chaos-"))
        try:
            if name in ("kill_restart", "torn_tail", "corruption"):
                result = _scenario_kill(name, seed, tmp, recorder, jobs=jobs, alpha=alpha)
            elif name == "evict":
                result = _scenario_evict(seed, tmp, recorder, jobs=jobs, alpha=alpha)
            else:  # slow_handler | connection_drop
                result = _scenario_gate(name, seed, recorder, jobs=jobs, alpha=alpha)
            faults_fired, checks["bitid"], checks["lemmas"], counts["rest"], counts["quar"] = result
            status = "recovered" if faults_fired else "clean"
            recorder.emit(
                "recovery", 0.0, "service.chaos",
                scenario=name, restored=counts["rest"], quarantined=counts["quar"],
            )
        except Exception as err:  # noqa: BLE001 — every breakage is a failed run
            error = f"{type(err).__name__}: {err}"
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        outcome = Outcome(
            run_id=run_id,
            family=family,
            seed=seed,
            plan=name,
            status=status,
            faults_fired=faults_fired,
            error=error,
            checkpoint=None,
            n_events=len(recorder.events),
            checks=checks,
            counts=counts,
        )
        return outcome, recorder.events


def _scenario_kill(
    scenario: str,
    derived_seed: int,
    tmp: Path,
    recorder: MemoryRecorder,
    *,
    jobs: int,
    alpha: float,
) -> tuple[int, bool | None, bool | None, int, int]:
    """SIGKILL a live journaled server mid-workload, optionally damage the
    journal post-mortem, restart, and differentially compare against a twin.

    ``kill_restart`` — plain crash: the restarted server must serve the
    committed prefix bit-identically, then absorb the rest of the workload
    exactly like a server that never died.

    ``torn_tail`` — the crash additionally tears the journal's final line
    (a write that never completed, hence never acked): restore must drop
    exactly that line and recover the committed prefix.

    ``corruption`` — an *interior* journal line is damaged: restore must
    quarantine the session (404 + health ``quarantined``), never silently
    restore a wrong session.
    """
    from ..service.journal import journal_path

    live_dir, twin_dir = tmp / "live", tmp / "twin"
    batches = _service_batches(jobs, derived_seed)
    half = max(1, len(batches) // 2)
    faults = 1
    proc = twin = None
    try:
        port = _free_port()
        proc = _spawn_server(port, live_dir)
        _create_session(port, "chaos", alpha)
        for batch in batches[:half]:
            _submit(port, "chaos", batch)
        proc.kill()  # SIGKILL: no flush, no shutdown hooks — a real crash
        proc.wait()
        proc = None
        recorder.emit(
            "fault_injected", 0.0, "service.chaos",
            fault="server_sigkill", scenario=scenario, committed_batches=half,
        )

        jpath = journal_path(live_dir, "chaos")
        if scenario == "torn_tail":
            with open(jpath, "a", encoding="utf-8") as fh:
                fh.write('{"body": "{\\"record\\": \\"arrival_batch')  # torn
            recorder.emit(
                "fault_injected", 0.0, "service.chaos",
                fault="torn_journal_write", scenario=scenario,
            )
            faults += 1
        elif scenario == "corruption":
            lines = jpath.read_text(encoding="utf-8").splitlines()
            lines[0] = corrupt_line(lines[0])  # interior: more lines follow
            jpath.write_text("\n".join(lines) + "\n", encoding="utf-8")
            recorder.emit(
                "fault_injected", 0.0, "service.chaos",
                fault="journal_corruption", scenario=scenario,
            )
            faults += 1

        port2 = _free_port()
        proc = _spawn_server(port2, live_dir)
        restored, quarantined = _restore_counts(port2)

        if scenario == "corruption":
            if restored != 0 or quarantined != 1:
                raise RuntimeError(
                    f"corrupt journal not quarantined: restored={restored}, "
                    f"quarantined={quarantined}"
                )
            status, body = _http(port2, "GET", "/sessions/chaos")
            _expect(status, 404, "quarantined session lookup", body)
            return faults, None, None, restored, quarantined

        if restored != 1:
            raise RuntimeError(f"expected 1 restored session, got {restored}")
        # kill_restart absorbs the rest of the workload after recovery; the
        # torn-tail run stops at the committed prefix (the torn batch was
        # never acked, so the client's replay would resubmit it — here the
        # twin simply never sends it).
        tail = batches[half:] if scenario == "kill_restart" else []
        for batch in tail:
            _submit(port2, "chaos", batch)

        twin_port = _free_port()
        twin = _spawn_server(twin_port, twin_dir)
        _create_session(twin_port, "chaos", alpha)
        for batch in batches[:half] + tail:
            _submit(twin_port, "chaos", batch)

        live_fp = _fingerprint(port2, "chaos")
        twin_fp = _fingerprint(twin_port, "chaos")
        return (
            faults,
            live_fp == twin_fp,
            _lemmas_from_report(live_fp),
            restored,
            quarantined,
        )
    finally:
        _stop_server(proc)
        _stop_server(twin)


def _scenario_evict(
    derived_seed: int,
    tmp: Path,
    recorder: MemoryRecorder,
    *,
    jobs: int,
    alpha: float,
) -> tuple[int, bool | None, bool | None, int, int]:
    """Drive an LRU eviction on a bounded live store, then SIGKILL/restart:
    the evicted id's 410 tombstone must survive the crash (journaled
    ``session_evicted``), and the surviving session must restore to the
    exact pre-crash fingerprint."""
    live_dir = tmp / "live"
    batches = _service_batches(jobs, derived_seed)
    extra = ("--max-sessions", "1", "--evict-lru")
    proc = None
    try:
        port = _free_port()
        proc = _spawn_server(port, live_dir, extra=extra)
        _create_session(port, "victim", alpha)
        _submit(port, "victim", batches[0])
        _create_session(port, "survivor", alpha)  # store full -> evicts victim
        recorder.emit(
            "fault_injected", 0.0, "service.chaos",
            fault="lru_eviction", evicted="victim",
        )
        status, body = _http(port, "GET", "/sessions/victim")
        _expect(status, 410, "evicted session lookup", body)
        for batch in batches:
            _submit(port, "survivor", batch)
        before = _fingerprint(port, "survivor")

        proc.kill()
        proc.wait()
        proc = None
        recorder.emit(
            "fault_injected", 0.0, "service.chaos", fault="server_sigkill",
        )

        port2 = _free_port()
        proc = _spawn_server(port2, live_dir, extra=extra)
        restored, quarantined = _restore_counts(port2)
        if restored != 1:
            raise RuntimeError(f"expected 1 restored session, got {restored}")
        status, body = _http(port2, "GET", "/sessions/victim")
        _expect(status, 410, "evicted tombstone after restart", body)
        after = _fingerprint(port2, "survivor")
        return 2, before == after, _lemmas_from_report(after), restored, quarantined
    finally:
        _stop_server(proc)


def _scenario_gate(
    scenario: str,
    derived_seed: int,
    recorder: MemoryRecorder,
    *,
    jobs: int,
    alpha: float,
) -> tuple[int, bool | None, bool | None, int, int]:
    """Inject an HTTP-level fault (stalled handler past its deadline, or a
    connection dropped mid-response) into an in-thread live socket server,
    then verify the faulted request left no partial state: the retried
    workload ends bit-identical to a twin that never saw the fault."""
    import asyncio

    from ..service.app import create_app
    from ..service.asgi import serve
    from ..service.sessions import SessionManager

    plan = FaultPlan(
        seed=derived_seed,
        faults=(FaultSpec(kind=scenario, after_calls=2, magnitude=0.75),),
    )
    context = SimulationContext(PowerLaw(alpha), recorder=recorder)
    injector = FaultInjector(plan, context)
    batches = _service_batches(jobs, derived_seed)

    def _threaded(app: Any) -> tuple[threading.Thread, dict[str, Any]]:
        started = threading.Event()
        box: dict[str, Any] = {}

        def run() -> None:
            async def main() -> None:
                ready = asyncio.Event()
                trigger = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                box["trigger"] = trigger
                task = asyncio.ensure_future(
                    serve(
                        app, "127.0.0.1", box["port"],
                        ready=ready, shutdown_trigger=trigger, drain_timeout=2.0,
                    )
                )
                await ready.wait()
                started.set()
                await task

            asyncio.run(main())

        box["port"] = _free_port()
        thread = threading.Thread(target=run, daemon=True, name=f"svc-{scenario}")
        thread.start()
        if not started.wait(10.0):
            raise RuntimeError(f"{scenario} server thread not ready")
        return thread, box

    def _stop(thread: threading.Thread, box: dict[str, Any]) -> None:
        box["loop"].call_soon_threadsafe(box["trigger"].set)
        thread.join(10.0)

    # Faulted server: a tight request deadline turns the stalled handler
    # into a clean 504 (slow_handler); the gate's ConnectionAborted tears
    # the response off mid-status-line (connection_drop).
    app = create_app(SessionManager(), request_timeout=0.25)
    app.gates.append(injector.service_gate())
    thread, box = _threaded(app)
    try:
        port = box["port"]
        _create_session(port, "chaos", alpha)  # gated call 1: clean
        status: int | None = None
        try:
            status, _ = _http(
                port, "POST", "/sessions/chaos/jobs", {"jobs": batches[0]},
                timeout=5.0,
            )
        except Exception as err:  # noqa: BLE001 — torn response
            if scenario != "connection_drop":
                raise
            recorder.emit(
                "retry", 0.0, "service.chaos",
                reason=f"torn response: {type(err).__name__}",
            )
        if scenario == "slow_handler":
            _expect(status or 0, 504, "deadline on stalled handler")
        elif status is not None and status != 202:
            raise RuntimeError(
                f"connection_drop produced a whole {status} response"
            )
        if not injector.fired:
            raise RuntimeError(f"{scenario} fault never fired")
        # Budget spent: the identical retry and the rest of the workload
        # must commit cleanly, exactly once each.
        for batch in batches:
            _submit(port, "chaos", batch)
        live_fp = _fingerprint(port, "chaos")
    finally:
        _stop(thread, box)

    twin_app = create_app(SessionManager(), request_timeout=0.25)
    twin_thread, twin_box = _threaded(twin_app)
    try:
        twin_port = twin_box["port"]
        _create_session(twin_port, "chaos", alpha)
        for batch in batches:
            _submit(twin_port, "chaos", batch)
        twin_fp = _fingerprint(twin_port, "chaos")
    finally:
        _stop(twin_thread, twin_box)

    return len(injector.fired), live_fp == twin_fp, _lemmas_from_report(live_fp), 0, 0
