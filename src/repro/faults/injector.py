"""Fault injectors: interpret a :class:`~repro.faults.plan.FaultPlan` against
a concrete run.

One :class:`FaultInjector` is created per supervised run and *shared across
retry attempts*: firing budgets (``FaultSpec.max_firings``) persist, so a
transient fault that fired on attempt 1 stays quiet on attempt 2 — which is
exactly what makes it transient.  Every firing is emitted as a typed
``fault_injected`` trace event through the run's
:class:`~repro.core.shadow.SimulationContext`, so chaos reports can
reconstruct the full fault timeline from the trace alone.

Injection channels
------------------

* instance perturbation — ``release_jitter`` / ``release_duplicate`` /
  ``release_drop`` rewrite the instance before a run starts
  (:meth:`FaultInjector.perturb_instance`);
* volume reveals — ``oracle_lie`` wraps both reveal paths: the analytic
  simulators' ``context.volume_filter`` and the engine's
  :class:`FaultyVolumeOracle` (via ``context.oracle_factory``);
* power queries — ``power_transient`` / ``power_nan`` wrap the power function
  in a :class:`FlakyPowerFunction` (:meth:`FaultInjector.wrap_power`);
* engine steps — ``step_corruption`` installs ``context.step_interceptor``;
* machines — ``machine_failure`` drives ``simulate_nc_par(..., failure=)``,
  the lost-work failover model, spending its budget via :meth:`fire_external`.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from ..core.errors import ConvergenceError, SimulationError
from ..core.job import Instance, Job
from ..core.oracle import VolumeOracle
from ..core.power import PowerLaw
from ..core.shadow import SimulationContext
from ..core.tracing import corrupt_line
from .plan import INSTANCE_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FaultInjector",
    "FaultyVolumeOracle",
    "FlakyPowerFunction",
]


class FaultyVolumeOracle(VolumeOracle):
    """A :class:`VolumeOracle` whose completion-time reveals can lie.

    The engine's trusted accessors (``_true_volume``, ``_mark_completed``)
    stay honest — physics is not negotiable — but the volume *reported to the
    policy* at the completion instant goes through the injector's lie filter,
    modelling a telemetry channel that mis-reports how much work a finished
    job contained.
    """

    def __init__(
        self, instance: Instance, lie: Callable[[int, float], float]
    ) -> None:
        super().__init__(instance)
        self._lie = lie

    def _reveal_on_completion(self, job_id: int) -> float:
        return self._lie(job_id, self._instance[job_id].volume)


class FlakyPowerFunction(PowerLaw):
    """A :class:`PowerLaw` whose ``speed`` query transiently fails.

    Counts ``speed`` calls; on the scheduled call it either raises
    :class:`~repro.core.errors.ConvergenceError` (mode ``power_transient``)
    or returns NaN (mode ``power_nan`` — which the engine converts into a
    structured ``SimulationError``, never a silent NaN schedule).  The call
    counter lives on the *injector* budget, so a retry does not re-trip the
    same fault.
    """

    __slots__ = ("_on_speed",)

    def __init__(
        self, alpha: float, on_speed: Callable[[float], float | None]
    ) -> None:
        super().__init__(alpha)
        self._on_speed = on_speed

    def speed(self, power_value: float) -> float:
        override = self._on_speed(power_value)
        if override is not None:
            return override
        return super().speed(power_value)


class FaultInjector:
    """Stateful interpreter of a :class:`FaultPlan` for one supervised run.

    ``install`` wires the context hooks; ``perturb_instance`` /
    ``wrap_power`` transform the run inputs.  ``fired`` records every firing
    as ``(spec, sim_time)`` in order, for reports and assertions.
    """

    def __init__(
        self,
        plan: FaultPlan,
        context: SimulationContext,
        *,
        component: str = "faults",
    ) -> None:
        self.plan = plan
        self.context = context
        self.component = component
        self.fired: list[tuple[FaultSpec, float]] = []
        self._budget: dict[int, int] = {
            i: spec.max_firings for i, spec in enumerate(plan.faults)
        }
        self._power_calls = 0
        self._sim_time = 0.0  # best-effort clock for call-triggered faults

    # -- bookkeeping ----------------------------------------------------------

    def _armed(self, *kinds: str) -> list[tuple[int, FaultSpec]]:
        return [
            (i, spec)
            for i, spec in enumerate(self.plan.faults)
            if spec.kind in kinds and self._budget[i] > 0
        ]

    def _fire(self, index: int, spec: FaultSpec, sim_time: float, **extra: object) -> None:
        self._budget[index] -= 1
        self.fired.append((spec, sim_time))
        self.context.metrics.increment("faults_fired")
        payload = spec.as_payload()
        payload.update(extra)
        self.context.emit("fault_injected", sim_time, self.component, **payload)

    @property
    def exhausted(self) -> bool:
        """True when no fault can fire any more (retries will run clean)."""
        return all(b <= 0 for b in self._budget.values())

    def armed_specs(self, *kinds: str) -> tuple[FaultSpec, ...]:
        """The still-armed specs of the given kinds (budget not yet spent)."""
        return tuple(spec for _, spec in self._armed(*kinds))

    def fire_external(self, kind: str, sim_time: float, **extra: object) -> None:
        """Consume the first armed spec of ``kind`` for a fault realised by
        external machinery (e.g. NC-PAR's ``failure`` model),
        emitting the usual ``fault_injected`` event and spending its budget."""
        for index, spec in self._armed(kind):
            self._fire(index, spec, sim_time, **extra)
            return

    # -- channel: instance perturbation ---------------------------------------

    def perturb_instance(self, instance: Instance) -> Instance:
        """Apply release-stream faults, rebuilding the instance.

        ``release_jitter`` shifts a release by ``magnitude`` (floored at 0);
        ``release_duplicate`` injects a phantom copy under a fresh job id;
        ``release_drop`` removes a job — the drop consumes its budget, so the
        supervisor's retry sees the job again (drop-and-retry).
        """
        specs = self._armed(*INSTANCE_KINDS)
        if not specs:
            return instance
        jobs = list(instance.jobs)
        next_id = max(j.job_id for j in jobs) + 1 if jobs else 0
        for index, spec in specs:
            target = self._pick_job(spec, jobs)
            if target is None:
                continue
            if spec.kind == "release_jitter":
                shifted = max(0.0, target.release + spec.magnitude)
                jobs = [
                    Job(j.job_id, shifted, j.volume, j.density)
                    if j.job_id == target.job_id
                    else j
                    for j in jobs
                ]
                self._fire(index, spec, shifted, target=target.job_id)
            elif spec.kind == "release_duplicate":
                phantom = Job(next_id, target.release, target.volume, target.density)
                jobs.append(phantom)
                self._fire(
                    index, spec, target.release, target=target.job_id, phantom=next_id
                )
                next_id += 1
            elif spec.kind == "release_drop":
                if len(jobs) <= 1:
                    continue  # dropping the only job makes the run vacuous
                jobs = [j for j in jobs if j.job_id != target.job_id]
                self._fire(index, spec, target.release, target=target.job_id)
        return Instance(jobs)

    @staticmethod
    def _pick_job(spec: FaultSpec, jobs: list[Job]) -> Job | None:
        if not jobs:
            return None
        if spec.job_id is not None:
            for j in jobs:
                if j.job_id == spec.job_id:
                    return j
            return jobs[spec.job_id % len(jobs)]
        return jobs[0]

    # -- channel: volume reveals ----------------------------------------------

    def _lie(self, job_id: int, volume: float) -> float:
        for index, spec in self._armed("oracle_lie"):
            if spec.job_id is not None and spec.job_id != job_id:
                continue
            if spec.mode == "withhold":
                self._fire(index, spec, self._sim_time, target=job_id)
                raise SimulationError(
                    f"volume reveal for job {job_id} withheld by fault injection",
                    time=self._sim_time,
                    job=job_id,
                    fault=spec.describe(),
                )
            if spec.mode == "nan":
                self._fire(index, spec, self._sim_time, target=job_id)
                return math.nan
            self._fire(index, spec, self._sim_time, target=job_id)
            return volume * (1.0 + spec.magnitude)
        return volume

    # -- channel: power queries -----------------------------------------------

    def wrap_power(self, power: PowerLaw) -> PowerLaw:
        """Wrap ``power`` in a :class:`FlakyPowerFunction` if any power fault
        is planned (otherwise return it untouched, so the unfaulted path uses
        the exact same object)."""
        if not self._armed("power_transient", "power_nan"):
            return power

        def on_speed(power_value: float) -> float | None:
            self._power_calls += 1
            for index, spec in self._armed("power_transient", "power_nan"):
                if self._power_calls < max(spec.after_calls, 1):
                    continue
                self._fire(index, spec, self._sim_time, call=self._power_calls)
                if spec.kind == "power_transient":
                    raise ConvergenceError(
                        "power function failed to converge (injected)",
                        time=self._sim_time,
                        call=self._power_calls,
                        fault=spec.describe(),
                    )
                return math.nan
            return None

        return FlakyPowerFunction(power.alpha, on_speed)

    # -- channel: session journal ---------------------------------------------

    def journal_filter(self):
        """A line filter for :class:`~repro.service.journal.SessionJournal`.

        Counts journal appends; on the scheduled append it either tears the
        write (``torn_journal_write`` — a ``magnitude``-fraction prefix of
        the line reaches the sink, then :class:`JournalWriteAborted` models
        the crash; the session fails closed and recovers through
        ``SessionManager.restore``, which drops the torn tail) or flips a
        body character post-checksum (``journal_corruption`` — detected as
        interior corruption on the next read and quarantined).  Budgets are
        shared with every other channel.
        """
        from ..service.journal import JournalWriteAborted

        calls = {"n": 0}

        def line_filter(seq: int, line: str) -> str:
            calls["n"] += 1
            for index, spec in self._armed("torn_journal_write"):
                if calls["n"] < max(spec.after_calls, 1):
                    continue
                self._fire(index, spec, self._sim_time, seq=seq)
                cut = max(1, int(len(line) * min(max(spec.magnitude, 0.05), 0.95)))
                raise JournalWriteAborted(line[:cut])
            for index, spec in self._armed("journal_corruption"):
                if calls["n"] < max(spec.after_calls, 1):
                    continue
                self._fire(index, spec, self._sim_time, seq=seq)
                return corrupt_line(line)
            return line

        return line_filter

    # -- channel: HTTP request gate -------------------------------------------

    def service_gate(self):
        """An async request gate for :class:`~repro.service.asgi.App`.

        Counts gated requests; on the scheduled one it either stalls the
        handler for ``magnitude`` seconds (``slow_handler`` — with a request
        deadline configured, the caller sees 504 and the handler is
        cancelled cleanly) or aborts the connection mid-response
        (``connection_drop`` — the socket server tears the response off).
        """
        import asyncio

        from ..service.asgi import ConnectionAborted

        calls = {"n": 0}

        async def gate(request: object) -> None:
            calls["n"] += 1
            for index, spec in self._armed("slow_handler"):
                if calls["n"] < max(spec.after_calls, 1):
                    continue
                self._fire(index, spec, self._sim_time, call=calls["n"])
                await asyncio.sleep(spec.magnitude)
            for index, spec in self._armed("connection_drop"):
                if calls["n"] < max(spec.after_calls, 1):
                    continue
                self._fire(index, spec, self._sim_time, call=calls["n"])
                raise ConnectionAborted(
                    f"connection dropped mid-response (injected, {spec.describe()})"
                )

        return gate

    # -- channel: engine steps ------------------------------------------------

    def _intercept_step(self, t: float, job_id: int, processed: float) -> float:
        self._sim_time = t
        for index, spec in self._armed("step_corruption"):
            if spec.job_id is not None and spec.job_id != job_id:
                continue
            if spec.at_time is not None and t < spec.at_time:
                continue
            rng = random.Random(self.plan.seed * 1_000_003 + index * 8191 + job_id)
            noise = spec.magnitude * (2.0 * rng.random() - 1.0)
            self._fire(index, spec, t, target=job_id, noise=noise)
            return processed * (1.0 + noise)
        return processed

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Wire this injector's channels into the context.

        Only channels the plan actually uses are installed — an empty plan
        leaves every hook ``None``, keeping the unfaulted path bit-identical
        to a context that never met an injector.
        """
        ctx = self.context
        if self.plan.of_kind("oracle_lie"):
            ctx.volume_filter = self._lie
            ctx.oracle_factory = lambda inst: FaultyVolumeOracle(inst, self._lie)
        if self.plan.of_kind("step_corruption"):
            ctx.step_interceptor = self._intercept_step

    def uninstall(self) -> None:
        ctx = self.context
        ctx.volume_filter = None
        ctx.oracle_factory = None
        ctx.step_interceptor = None
