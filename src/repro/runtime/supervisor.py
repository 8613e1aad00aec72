"""Supervised execution runtime: guards, checkpoints, recovery.

:class:`Supervisor` runs any of the repo's algorithm families under online
invariant *guards* and a :class:`RecoveryPolicy`.  An attempt that raises a
structured error (injected fault, engine stall, convergence failure) or
breaks a guard is rolled back — the shared
:class:`~repro.core.shadow.SimulationContext` is restored to its pre-attempt
:class:`~repro.core.shadow.ContextCheckpoint` — and retried with bounded
exponential backoff and tightened tolerances; after ``degrade_after``
failures an analytic family degrades to the :class:`NumericEngine` path.
The whole story is narrated through trace events (``guard_violation``,
``retry``, ``recovery``, ``degraded_mode``) so
:mod:`repro.analysis.trace_report` can rebuild the fault timeline and
re-verify the paper's guarantees on the surviving attempt.

Differential contract: with an empty fault plan a supervised run is
**bit-identical** (schedule, costs, counters) to the unsupervised run —
checkpoints never bump counters, hooks stay ``None``, and the guards only
read.  ``tests/test_supervisor.py`` enforces this on the golden corpus;
``benchmarks/bench_supervisor_overhead.py`` holds the overhead under 5%.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..algorithms.clairvoyant import ClairvoyantPolicy
from ..algorithms.nc_uniform import NCUniformPolicy
from ..algorithms.registry import DEFAULT_MAX_STEP, AlgorithmSpec, algorithm_names, algorithm_spec
from ..core.engine import NumericEngine, SchedulingPolicy
from ..core.errors import (
    ConvergenceError,
    GuardViolationError,
    RecoveryExhaustedError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from ..core.job import Instance
from ..core.metrics import CostReport, evaluate
from ..core.power import PowerLaw
from ..core.schedule import DecaySegment, GrowthSegment, Schedule
from ..core.shadow import ContextCheckpoint, SimulationContext
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan

__all__ = ["RecoveryPolicy", "SupervisedResult", "Supervisor"]

#: The families the supervisor drives: the registry's traced fractional
#: algorithms (C and NC, capped or not; NC-general; NC-PAR).
_SUPERVISED = algorithm_names(traced=True, integral=False)

#: The engine policies the analytic single-machine families degrade to.
_DEGRADED_POLICIES: dict[str, Callable[[Instance, PowerLaw], SchedulingPolicy]] = {
    "C": ClairvoyantPolicy,
    "NC": lambda instance, power: NCUniformPolicy(power),
}

#: Errors an attempt may raise that the supervisor treats as recoverable.
_RECOVERABLE = (SimulationError, ConvergenceError, ScheduleError, GuardViolationError)

#: Relative tolerance of the per-segment power/weight guard.
_GUARD_REL_TOL = 1e-9


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the supervisor reacts to a failed attempt.

    ``backoff_base == 0`` disables sleeping (the default: in-process retries
    are already isolated by the checkpoint restore); a positive base gives
    bounded exponential backoff ``min(base * factor**k, max_backoff)``.
    ``tighten_factor`` shrinks the engine ``max_step`` on each retry —
    tightened tolerances for numeric families.  After ``degrade_after``
    failures, analytic families fall back to the :class:`NumericEngine`
    policy path (``degraded_mode``).
    """

    max_retries: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 0.25
    tighten_factor: float = 0.5
    degrade_after: int = 2


@dataclass(frozen=True)
class SupervisedResult:
    """Outcome of a successful supervised run."""

    algorithm: str
    instance: Instance
    #: the family-specific run/result object of the surviving attempt
    run: Any
    schedule: Schedule | None
    report: CostReport
    attempts: int
    recovered: bool
    degraded: bool
    #: ``(fault description, sim_time)`` for every fault that fired
    faults: tuple[tuple[str, float], ...]
    #: labels of the checkpoints taken, in order
    checkpoints: tuple[str, ...]
    context: SimulationContext = field(repr=False)


class Supervisor:
    """Run simulations under guards with checkpoint-based recovery.

    One supervisor owns one :class:`SimulationContext`, one
    :class:`~repro.faults.plan.FaultPlan` and one
    :class:`~repro.faults.injector.FaultInjector` whose firing budgets
    persist across retries — the transient-fault model.
    """

    def __init__(
        self,
        power: PowerLaw,
        *,
        plan: FaultPlan | None = None,
        policy: RecoveryPolicy | None = None,
        context: SimulationContext | None = None,
        component: str = "supervisor",
    ) -> None:
        self.power = power
        self.plan = plan if plan is not None else FaultPlan.empty()
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.context = context if context is not None else SimulationContext(power)
        self.component = component
        self.injector = FaultInjector(self.plan, self.context)

    # -- the supervised loop --------------------------------------------------

    def run(
        self,
        algorithm: str,
        instance: Instance,
        *,
        machines: int = 2,
        max_step: float = DEFAULT_MAX_STEP,
        nc_general_kwargs: dict[str, Any] | None = None,
    ) -> SupervisedResult:
        """Run ``algorithm`` on ``instance`` under supervision.

        Returns a :class:`SupervisedResult` on success (possibly after
        recovery); raises :class:`RecoveryExhaustedError` — naming the fault
        and the last good checkpoint — when the retry budget is spent.
        """
        spec = algorithm_spec(algorithm, _SUPERVISED)
        # Before any attempt: wrapping the power for faults drops its cap.
        spec.check_power(self.power)
        context = self.context
        policy = self.policy
        injector = self.injector
        injector.install()
        checkpoints: list[str] = []
        last_good: ContextCheckpoint = context.checkpoint(label="pre-run", sim_time=0.0)
        checkpoints.append(last_good.label)
        attempts = 0
        failures = 0
        degraded = False
        cur_max_step = max_step
        backoff = policy.backoff_base
        last_error: ReproError | None = None
        try:
            while attempts <= policy.max_retries:
                attempts += 1
                try:
                    run_inst = injector.perturb_instance(instance)
                    run, schedule = self._attempt(
                        spec, run_inst, degraded=degraded,
                        max_step=cur_max_step, machines=machines,
                        nc_general_kwargs=nc_general_kwargs,
                    )
                    report = self._check_guards(algorithm, run_inst, run, schedule)
                except _RECOVERABLE as err:
                    failures += 1
                    last_error = err
                    t_err = float(err.context.get("time", 0.0)) if err.context else 0.0
                    if not isinstance(err, GuardViolationError):
                        context.emit(
                            "guard_violation",
                            t_err,
                            self.component,
                            guard="exception",
                            error=type(err).__name__,
                            detail=str(err),
                        )
                    if attempts > policy.max_retries:
                        break
                    # Roll back to the last good checkpoint and retry.
                    context.restore(last_good)
                    if backoff > 0.0:
                        time.sleep(min(backoff, policy.max_backoff))
                        backoff = min(backoff * policy.backoff_factor, policy.max_backoff)
                    cur_max_step *= policy.tighten_factor
                    if (
                        not degraded
                        and failures >= policy.degrade_after
                        and algorithm in _DEGRADED_POLICIES
                    ):
                        degraded = True
                        context.emit(
                            "degraded_mode",
                            0.0,
                            self.component,
                            algorithm=algorithm,
                            reason=type(err).__name__,
                            after_failures=failures,
                        )
                    context.emit(
                        "retry",
                        0.0,
                        spec.trace_component(self.power),
                        attempt=attempts + 1,
                        checkpoint=last_good.label,
                        error=type(err).__name__,
                        max_step=cur_max_step,
                    )
                    ckpt_label = f"attempt-{attempts + 1}"
                    last_good = context.checkpoint(label=ckpt_label, sim_time=0.0)
                    checkpoints.append(ckpt_label)
                    continue
                # Success.
                if failures:
                    context.emit(
                        "recovery",
                        0.0,
                        self.component,
                        algorithm=algorithm,
                        attempts=attempts,
                        degraded=degraded,
                        faults=[s.describe() for s, _ in injector.fired],
                    )
                return SupervisedResult(
                    algorithm=algorithm,
                    instance=run_inst,
                    run=run,
                    schedule=schedule,
                    report=report,
                    attempts=attempts,
                    recovered=failures > 0,
                    degraded=degraded,
                    faults=tuple((s.describe(), t) for s, t in injector.fired),
                    checkpoints=tuple(checkpoints),
                    context=context,
                )
        finally:
            injector.uninstall()
        fault_name = (
            injector.fired[-1][0].describe() if injector.fired
            else type(last_error).__name__ if last_error is not None else "unknown"
        )
        raise RecoveryExhaustedError(
            f"supervised {algorithm} run failed after {attempts} attempts: {last_error}",
            algorithm=algorithm,
            attempts=attempts,
            fault=fault_name,
            checkpoint=last_good.label,
            error=type(last_error).__name__ if last_error is not None else None,
        )

    # -- one attempt ----------------------------------------------------------

    def _attempt(
        self,
        spec: AlgorithmSpec,
        instance: Instance,
        *,
        degraded: bool,
        max_step: float,
        machines: int,
        nc_general_kwargs: dict[str, Any] | None,
    ) -> tuple[Any, Schedule | None]:
        context = self.context
        power = self.power
        if degraded:
            engine = NumericEngine(power, max_step=max_step, context=context)
            result = engine.run(instance, _DEGRADED_POLICIES[spec.name](instance, power))
            return result, result.schedule
        kwargs: dict[str, Any] = {}
        if spec.engine:
            # Power faults reach the engine's speed queries.
            power = self.injector.wrap_power(power)
            kwargs = dict(nc_general_kwargs or {})
            max_step = kwargs.pop("max_step", max_step)
        failure = self.injector.armed_specs("machine_failure") if spec.machines else ()
        if failure:
            # An armed machine failure runs the failover model (a retry after
            # the budget is spent runs the plain algorithm).
            fault = failure[0]
            at_time = fault.at_time if fault.at_time is not None else 0.5
            kwargs["failure"] = ((fault.machine or 0) % machines, at_time)
            kwargs["on_failure"] = functools.partial(self.injector.fire_external, "machine_failure")
        run = spec.simulate(
            instance, power, context=context, machines=machines, max_step=max_step, **kwargs
        )
        return run, None if spec.machines else run.schedule

    # -- guards ---------------------------------------------------------------

    def _check_guards(
        self,
        algorithm: str,
        instance: Instance,
        run: Any,
        schedule: Schedule | None,
    ) -> CostReport:
        """Online invariant guards over a completed attempt.

        All guards are *reads*: the single :func:`evaluate` call doubles as
        the non-negative-remaining-weight check (``validate=True`` rejects
        any schedule whose processed volumes disagree with the instance), so
        the no-fault path pays one evaluation it needed anyway.
        """
        try:
            if schedule is None:
                # Parallel run: per-machine evaluation, merged.
                report = run.report(validate=True)
            else:
                report = evaluate(schedule, instance, self.power, validate=True)
        except ScheduleError as err:
            raise GuardViolationError(
                f"schedule validation failed: {err}",
                guard="non_negative_remaining",
                algorithm=algorithm,
            ) from err
        self._guard_finite(algorithm, report)
        if schedule is not None:
            self._guard_segments(algorithm, schedule)
        if algorithm == "NC":
            self._guard_fifo(algorithm, instance, report)
        return report

    def _guard_finite(self, algorithm: str, report: CostReport) -> None:
        for name, value in (
            ("energy", report.energy),
            ("fractional_flow", report.fractional_flow),
        ):
            if not math.isfinite(value) or value < 0.0:
                raise GuardViolationError(
                    f"{name} of supervised {algorithm} run is {value}",
                    guard="finite_cost",
                    algorithm=algorithm,
                    metric=name,
                    value=value,
                )

    def _guard_segments(self, algorithm: str, schedule: Schedule) -> None:
        """One pass over the segments for both per-segment guards.

        ``sim_time_monotone`` — segment times never run backwards.

        ``power_weight_relation`` — the speed rules' power/weight coupling,
        checked per closed-form segment: a decay piece starts at ``P(s) ==
        x0`` (C's remaining weight), a growth piece likewise (NC's
        offset-plus-processed weight); the segment's start speed is
        ``x0**(1/alpha)`` by the rule, so the round trip ``(x0**(1/alpha))
        **alpha == x0`` is exactly the relation (and rejects NaN, negative,
        or infinite weights).  Engine-produced constant segments carry no
        closed form — their correctness is covered by the finite-cost and
        validation guards.
        """
        closed_form = (DecaySegment, GrowthSegment)
        inv_exps: dict[float, float] = {}
        prev_end = 0.0
        for seg in schedule.segments:
            t0, t1 = seg.t0, seg.t1
            if t0 < prev_end - 1e-12 * max(1.0, prev_end) or t1 < t0:
                raise GuardViolationError(
                    f"non-monotone schedule time at segment [{t0}, {t1}]",
                    guard="sim_time_monotone",
                    algorithm=algorithm,
                    time=t0,
                )
            prev_end = t1
            if isinstance(seg, closed_form):
                alpha = seg.alpha
                inv = inv_exps.get(alpha)
                if inv is None:
                    inv = inv_exps[alpha] = 1.0 / alpha
                expected = seg.x0
                got = (expected**inv) ** alpha
                if not (abs(got - expected) <= _GUARD_REL_TOL * max(1.0, abs(expected))):
                    raise GuardViolationError(
                        f"power/weight relation broken on segment at t={t0}: "
                        f"P(s)={got} vs weight {expected}",
                        guard="power_weight_relation",
                        algorithm=algorithm,
                        time=t0,
                        job=seg.job_id,
                    )

    def _guard_fifo(self, algorithm: str, instance: Instance, report: CostReport) -> None:
        """NC is FIFO: completion order must follow (release, job_id) order."""
        order = [j.job_id for j in instance]
        prev = -math.inf
        for jid in order:
            ct = report.completion_times.get(jid)
            if ct is None:
                continue
            if ct < prev * (1.0 - 1e-12):
                raise GuardViolationError(
                    f"FIFO order broken: job {jid} completed at {ct} before its "
                    f"predecessor at {prev}",
                    guard="fifo_order",
                    algorithm=algorithm,
                    job=jid,
                    time=ct,
                )
            prev = ct

