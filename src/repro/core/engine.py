"""Generic numeric single-machine simulation engine.

The analytic simulators in :mod:`repro.algorithms` integrate the scheduling
dynamics in closed form, but only for ``P(s) = s**alpha`` and only for speed
rules whose dynamics reduce to the two kernels.  This engine is the general
path: it drives any :class:`SchedulingPolicy` with a midpoint (RK2) integrator
and event detection for releases and completions, emitting fine
:class:`~repro.core.schedule.ConstantSegment` s.

It serves two roles:

1. it runs algorithms with no closed form (Algorithm NC for non-uniform
   densities, §4, and arbitrary power functions), and
2. it cross-validates the analytic simulators — property tests drive
   Algorithm C through both paths and require agreement, guarding against
   algebra slips in the closed forms.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import SimulationError
from .job import Instance
from .oracle import VolumeOracle
from .power import PowerFunction
from .schedule import ConstantSegment, Schedule, ScheduleBuilder
from .shadow import SimulationContext

__all__ = ["SchedulingPolicy", "EngineResult", "NumericEngine"]

#: Default bound on steps without progress while jobs are active (a policy
#: running at speed 0 forever); override per engine via ``stall_limit``.
_STALL_LIMIT_STEPS = 200_000


class SchedulingPolicy(ABC):
    """Callbacks a scheduling algorithm implements to run on the engine.

    The engine guarantees:

    * ``bind`` is called once per run, before any other callback, with the
      run's shared :class:`~repro.core.shadow.SimulationContext`;
    * ``on_release`` is called in (release, job_id) order, before any query at
      or after that time;
    * ``on_completion`` is called the moment a job's processed volume reaches
      its true volume (the engine learns this from the oracle; the policy
      receives the now-revealed volume);
    * ``select_job`` / ``speed`` are called with monotonically non-decreasing
      times and reflect the policy's current view.
    """

    def bind(self, context: SimulationContext) -> None:
        """Attach the run's shared context (shadow factories + counters).

        The default just stores it; policies that keep shadow oracles route
        them through the context so their activity shows up in the run's
        counters."""
        self.context = context

    @abstractmethod
    def on_release(self, t: float, job_id: int, density: float) -> None: ...

    @abstractmethod
    def on_completion(self, t: float, job_id: int, volume: float) -> None: ...

    @abstractmethod
    def select_job(self, t: float) -> int | None:
        """The job to run at time ``t`` (``None`` = idle)."""

    @abstractmethod
    def speed(self, t: float, processed: dict[int, float]) -> float:
        """Machine speed at time ``t`` given per-job processed volumes.

        ``processed`` is the engine's own map, lent for the call: read it,
        never mutate or keep it.  Its values are valid only during the call
        (the RK2 midpoint probe sets the selected job's entry to the probe
        state and restores it afterwards)."""


@dataclass(frozen=True)
class EngineResult:
    schedule: Schedule
    oracle: VolumeOracle
    steps: int
    #: the run's shared context; ``context.counters`` holds the step and
    #: shadow-traffic counters for observability.
    context: SimulationContext | None = None


class NumericEngine:
    """Fixed-max-step RK2 integrator with release/completion event handling.

    ``max_step`` bounds the local truncation error; completions within a step
    are located assuming the midpoint speed holds across the step (error
    ``O(max_step**2)`` per event, matching the integrator order).

    After every event (release or completion) the step size restarts at
    ``min_step`` and doubles each step up to ``max_step``.  This geometric
    ramp costs only ``log2(max_step/min_step)`` extra steps per event but is
    essential for stiff bootstraps: Algorithm NC-general's ``epsilon`` rule
    ignites its shadow simulation inside an ``O(epsilon**2)`` window after a
    release, which a fixed ``max_step`` would overshoot entirely (the run
    would then crawl at speed ``epsilon`` forever).
    """

    def __init__(
        self,
        power: PowerFunction,
        max_step: float = 1e-2,
        min_step: float = 1e-14,
        *,
        stall_limit: int = _STALL_LIMIT_STEPS,
        context: SimulationContext | None = None,
    ) -> None:
        if max_step <= 0:
            raise ValueError(f"max_step must be positive, got {max_step}")
        if not 0 < min_step <= max_step:
            raise ValueError(f"need 0 < min_step <= max_step, got {min_step}")
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1, got {stall_limit}")
        self.power = power
        self.max_step = max_step
        self.min_step = min_step
        self.stall_limit = stall_limit
        self._context = context

    def run(self, instance: Instance, policy: SchedulingPolicy) -> EngineResult:
        context = self._context if self._context is not None else SimulationContext(self.power)
        factory = context.oracle_factory
        oracle = VolumeOracle(instance) if factory is None else factory(instance)
        context.oracle = oracle
        policy.bind(context)
        recorder = context.recorder
        rec = recorder if recorder.enabled else None  # zero-overhead hoist
        interceptor = context.step_interceptor  # fault hook; None when unfaulted
        releases = list(oracle.releases())  # FIFO order
        next_release = 0
        processed: dict[int, float] = {}
        active: set[int] = set()
        builder = ScheduleBuilder()
        t = 0.0
        t_phase = 0.0  # time of the last event; the step ramp restarts here
        steps = 0
        stall = 0
        budget = self.stall_limit + len(releases)  # total steps, progress included
        last_speed = 0.0  # last nonzero speed (speed_change events, budget error)
        last_job: int | None = None

        def fire_releases(now: float) -> None:
            nonlocal next_release, t_phase
            while next_release < len(releases) and releases[next_release].release <= now + 1e-15:
                info = releases[next_release]
                processed[info.job_id] = 0.0
                active.add(info.job_id)
                policy.on_release(info.release, info.job_id, info.density)
                if rec is not None:
                    rec.emit(
                        "release",
                        info.release,
                        "engine",
                        job=info.job_id,
                        density=info.density,
                    )
                next_release += 1
                t_phase = now

        fire_releases(t)
        while active or next_release < len(releases):
            steps += 1
            if steps > budget:
                raise SimulationError(
                    f"engine exceeded its step budget of {budget} (stall_limit="
                    f"{self.stall_limit} + {len(releases)} releases) at t={t}; "
                    f"last nonzero speed {last_speed:g}",
                    time=t,
                    steps=steps,
                    budget=budget,
                    speed=last_speed,
                )
            if not active:
                # Idle until the next release.
                t_next = releases[next_release].release
                builder.append(ConstantSegment(t, t_next, None, 0.0))
                t = t_next
                fire_releases(t)
                continue

            job_id = policy.select_job(t)
            horizon = (
                releases[next_release].release if next_release < len(releases) else math.inf
            )
            if job_id is None:
                # Policy idles despite active jobs (legal, e.g. A_int).
                t_next = min(horizon, t + self.max_step)
                if not math.isfinite(t_next):
                    raise SimulationError(
                        f"policy idles forever with active jobs at t={t}", time=t
                    )
                builder.append(ConstantSegment(t, t_next, None, 0.0))
                t = t_next
                fire_releases(t)
                continue
            if job_id not in active:
                raise SimulationError(
                    f"policy selected inactive job {job_id} at t={t}", time=t, job=job_id
                )

            # Geometric step ramp: restart small after each event, double up
            # to max_step.  The floor respects float resolution at large t.
            floor = max(self.min_step, 32.0 * math.ulp(max(1.0, t)))
            h = min(self.max_step, max(floor, t - t_phase))
            if math.isfinite(horizon):
                h = min(h, horizon - t)
            if h <= 0:
                fire_releases(t)
                continue

            # RK2 midpoint: probe speed, re-evaluate at the midpoint state.
            # The probe is clamped to the job's true volume so a coarse step
            # near completion cannot present the policy with an overshot state.
            # It is written into ``processed`` in place and restored after
            # the call, so a step costs O(1) rather than a copy of the map.
            true_volume = oracle._true_volume(job_id)
            s0 = policy.speed(t, processed)
            held = processed[job_id]
            processed[job_id] = min(held + s0 * h / 2.0, true_volume)
            try:
                s_mid = policy.speed(t + h / 2.0, processed)
            finally:
                processed[job_id] = held
            if s_mid < 0 or not math.isfinite(s_mid):
                raise SimulationError(
                    f"policy returned invalid speed {s_mid} at t={t}",
                    time=t,
                    job=job_id,
                    speed=s_mid,
                )
            if s_mid <= 0.0 < s0:
                # The half-step probe already finished the job, so the
                # midpoint sees an empty machine; the step straddles the
                # completion.  Fall back to the start-of-step speed — the
                # completion cut below then lands within O(h^2) of the truth.
                s_mid = s0
            if s_mid <= 0:
                stall += 1
                if rec is not None:
                    rec.emit("stall_guard_tick", t, "engine", stall=stall, limit=self.stall_limit)
                if stall > self.stall_limit:
                    raise SimulationError(
                        f"policy stalled at zero speed near t={t}",
                        time=t,
                        job=job_id,
                        stall_steps=stall,
                    )
                builder.append(ConstantSegment(t, t + h, None, 0.0))
                t += h
                fire_releases(t)
                continue
            stall = 0
            if s_mid != last_speed or job_id != last_job:
                if rec is not None:
                    rec.emit(
                        "speed_change", t, "engine", job=job_id, speed=s_mid,
                        prev_speed=last_speed,
                    )
                last_speed = s_mid
                last_job = job_id

            room = true_volume - processed[job_id]
            if s_mid * h >= room - 1e-15 * max(1.0, true_volume):
                # Completion inside this step: cut the step at the crossing.
                # ``room`` is positive on the unfaulted path; the floor at 0
                # keeps a corrupted processed volume from producing a
                # backwards segment.
                dt = max(room, 0.0) / s_mid
                builder.append(ConstantSegment(t, t + dt, job_id, s_mid))
                processed[job_id] = true_volume
                t += dt
                t_phase = t
                active.discard(job_id)
                oracle._mark_completed(job_id)
                policy.on_completion(t, job_id, oracle._reveal_on_completion(job_id))
                if rec is not None:
                    rec.emit("completion", t, "engine", job=job_id, volume=true_volume)
            else:
                builder.append(ConstantSegment(t, t + h, job_id, s_mid))
                processed[job_id] += s_mid * h
                if interceptor is not None:
                    corrupted = interceptor(t + h, job_id, processed[job_id])
                    if not math.isfinite(corrupted) or corrupted < 0.0:
                        raise SimulationError(
                            f"processed volume of job {job_id} corrupted to "
                            f"{corrupted} at t={t + h}",
                            time=t + h,
                            job=job_id,
                            value=corrupted,
                        )
                    processed[job_id] = corrupted
                t += h
            fire_releases(t)

        context.counters.engine_steps += steps
        return EngineResult(
            schedule=builder.build(), oracle=oracle, steps=steps, context=context
        )
