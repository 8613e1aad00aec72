"""Test oracles for the clairvoyant shadow: the O(n)-scan reference loop.

The shipped :class:`~repro.core.shadow.ClairvoyantShadow` finds the HDF job
from a heap and the total weight from an incremental accumulator.  This
module keeps the straightforward loop it replaced — an ``min`` over the
active set and a fresh ``sum`` of weights at every event — as an
independent reference:

* :func:`run_c` — one-shot Algorithm C from a set of jobs (optionally
  warm-started from a checkpoint) to a horizon, splitting the piece the
  horizon cuts;
* :func:`simulate_c` — the same over an :class:`~repro.core.job.Instance`,
  building the schedule the way ``simulate_clairvoyant`` does;
* :class:`ReferenceNCGeneralPolicy` / :func:`simulate_nc_general_reference`
  — Algorithm NC-general whose shadow speed ``s^C_{I(t)}(t)`` comes from a
  fresh warm-started :func:`simulate_c` run per engine query;
* :func:`scratch_base` / :class:`ScratchRebuildNCGeneralPolicy` /
  :func:`simulate_nc_general_scratch` — NC-general's epoch shadow rebuilt
  from ``t = 0`` at every epoch and queried by restore-and-loop only: the
  shipped :class:`~repro.core.shadow.EpochShadow` must match it bit for
  bit, base by base and segment by segment.

The differential tests pin the shipped loop against these, and the
benchmarks time the shipped code against them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Callable

from repro.algorithms.nc_general import NCGeneralPolicy, NCGeneralRun
from repro.core.engine import NumericEngine
from repro.core.errors import SimulationError
from repro.core.job import Instance
from repro.core.kernels import decay_time_between, decay_weight_after
from repro.core.power import PowerLaw
from repro.core.schedule import DecaySegment, Schedule, ScheduleBuilder
from repro.core.shadow import ClairvoyantShadow, ShadowCheckpoint, ShadowCounters

__all__ = [
    "OracleRun",
    "run_c",
    "simulate_c",
    "ReferenceNCGeneralPolicy",
    "simulate_nc_general_reference",
    "scratch_base",
    "ScratchRebuildNCGeneralPolicy",
    "simulate_nc_general_scratch",
]

_TIE_TOL = 1e-12

#: ``record(kind, t0, t1, job_id, value)`` — ``value`` is the piece's
#: starting total weight (``"decay"``) or the cap speed (``"const"``).
Recorder = Callable[[str, float, float, int, float], None]


@dataclass(frozen=True)
class OracleRun:
    """Where a reference run stopped: its clock, the remaining volumes of
    the uncompleted jobs (in admission order) and the committed events."""

    clock: float
    remaining: dict[int, float]
    events: int


def run_c(
    jobs: Iterable[tuple[int, float, float, float]],
    alpha: float,
    *,
    until: float = math.inf,
    resume: tuple[float, dict[int, float]] | None = None,
    s_max: float | None = None,
    record: Recorder | None = None,
) -> OracleRun:
    """Algorithm C over ``(job_id, release, density, volume)`` rows.

    ``resume=(t0, remaining)`` starts the clock at ``t0`` with the given
    remaining volumes already admitted; rows in ``remaining`` are never
    re-admitted, and rows released before ``t0`` that are absent from it
    count as completed.  ``s_max`` caps the speed (saturated linear phase
    above ``s_max**alpha`` total weight).
    """
    rho_of: dict[int, float] = {}
    key_of: dict[int, tuple[float, float, int]] = {}
    rem: dict[int, float] = {}
    pending: list[tuple[float, int, float, float]] = []
    t = 0.0
    covered: set[int] = set()
    if resume is not None:
        t, ckpt = resume
        covered = set(ckpt)
    rows = list(jobs)
    for jid, rel, rho, _ in rows:
        rho_of[jid] = rho
        key_of[jid] = (-rho, rel, jid)
    if resume is not None:
        rem.update((jid, v) for jid, v in ckpt.items() if v > 0.0)
    bound = t * (1.0 + _TIE_TOL)
    for jid, rel, rho, vol in rows:
        if jid in covered or rel < t * (1.0 - _TIE_TOL) - 1e-300:
            continue
        if rel <= bound:
            rem[jid] = vol
        else:
            pending.append((rel, jid, rho, vol))
    pending.sort()
    w_sat = math.inf if s_max is None else s_max**alpha
    n_pending = len(pending)
    nxt = 0
    events = 0
    while t < until and (rem or nxt < n_pending):
        if not rem:
            t = min(pending[nxt][0], until)
            bound = t * (1.0 + _TIE_TOL)
            while nxt < n_pending and pending[nxt][0] <= bound:
                rem[pending[nxt][1]] = pending[nxt][3]
                nxt += 1
            continue
        cur = min(rem, key=key_of.__getitem__)
        rho = rho_of[cur]
        w_total = sum(rho_of[j] * v for j, v in rem.items())
        if w_total <= 0:
            raise SimulationError("active set with zero weight")
        t_next = pending[nxt][0] if nxt < n_pending else math.inf
        if s_max is not None and rho * rem[cur] <= 1e-15 * w_total:
            # Underflow against the total: finish instantly.
            del rem[cur]
            events += 1
            continue
        w_end = w_total - rho * rem[cur]

        if w_total > w_sat * (1.0 + _TIE_TOL):
            # Saturated phase: constant speed s_max, weight falls linearly.
            target = max(w_sat, w_end)
            tau_phase = (w_total - target) / (rho * s_max)
            t_stop = min(t + tau_phase, t_next, until)
            if t_stop <= t:
                # tau_phase underflows against t: apply the sliver instantly.
                rem[cur] = max(rem[cur] - (w_total - target) / rho, 0.0)
                if rem[cur] <= 0.0:
                    del rem[cur]
                events += 1
                continue
            tau = t_stop - t
            if tau > 0:
                if record is not None:
                    record("const", t, t_stop, cur, s_max)
                rem[cur] = max(rem[cur] - s_max * tau, 0.0)
                if rem[cur] <= 0.0:
                    del rem[cur]
                events += 1
            t = t_stop
        else:
            tau_complete = decay_time_between(w_total, max(w_end, 0.0), rho, alpha)
            t_stop = min(t + tau_complete, t_next, until)
            if t_stop >= t + tau_complete * (1.0 - _TIE_TOL):
                # The current job completes first.
                if record is not None:
                    record("decay", t, t + tau_complete, cur, w_total)
                t = t + tau_complete
                del rem[cur]
                events += 1
            else:
                tau = t_stop - t
                if tau > 0:
                    w_after = decay_weight_after(w_total, rho, tau, alpha)
                    dv = (w_total - w_after) / rho
                    if record is not None:
                        record("decay", t, t_stop, cur, w_total)
                    rem[cur] = max(rem[cur] - dv, 0.0)
                    # Only drop exact zeros — a 1e-15 remainder is usually the
                    # analytically correct value.
                    if rem[cur] <= 0.0:
                        del rem[cur]
                    events += 1
                t = t_stop
        bound = t * (1.0 + _TIE_TOL)
        while nxt < n_pending and pending[nxt][0] <= bound:
            rem[pending[nxt][1]] = pending[nxt][3]
            nxt += 1
    return OracleRun(clock=t, remaining=rem, events=events)


def simulate_c(
    instance: Instance,
    power: PowerLaw,
    *,
    until: float = math.inf,
    resume: tuple[float, dict[int, float]] | None = None,
) -> tuple[Schedule, OracleRun]:
    """:func:`run_c` over an instance, with its schedule of decay segments."""
    alpha = power.alpha
    builder = ScheduleBuilder()

    def record(kind: str, t0: float, t1: float, jid: int, w0: float) -> None:
        builder.append(DecaySegment(t0, t1, jid, w0, instance[jid].density, alpha))

    run = run_c(
        ((j.job_id, j.release, j.density, j.volume) for j in instance.jobs),
        alpha,
        until=until,
        resume=resume,
        record=record,
    )
    return builder.build(), run


class ReferenceNCGeneralPolicy(NCGeneralPolicy):
    """NC-general with a per-query reference C run as its shadow.

    While NC processes one job ``j*``, only that job's weight in ``I(t)``
    changes and it enters C's run at its own release ``r*``, so C's state
    at ``r*`` over the other jobs is cached per ``j*`` and every query
    warm-starts a fresh :func:`simulate_c` run from it.  Boundary states
    (nothing of ``j*`` processed yet) and ``use_checkpoints=False`` run the
    shadow from time zero instead.
    """

    def __init__(self, power: PowerLaw, *, use_checkpoints: bool = True, **kwargs: Any) -> None:
        super().__init__(power, **kwargs)
        self.use_checkpoints = use_checkpoints
        #: (j*, r*, C's remaining volumes at r* over the other jobs)
        self._ckpt: tuple[int, float, dict[int, float]] | None = None

    def on_release(self, t: float, job_id: int, density: float) -> None:
        super().on_release(t, job_id, density)
        self._ckpt = None

    def on_completion(self, t: float, job_id: int, volume: float) -> None:
        super().on_completion(t, job_id, volume)
        self._ckpt = None

    def _shadow_speed(self, t: float, processed: dict[int, float]) -> float:
        inst = self.current_instance(processed)
        if inst is None:
            return 0.0
        j_star = self.select_job(t)
        if (
            not self.use_checkpoints
            or j_star is None
            or processed.get(j_star, 0.0) <= 0.0
            or j_star not in inst
        ):
            _, run = simulate_c(inst, self.power, until=t)
        else:
            r_star = self._released[j_star][0]
            if self._ckpt is None or self._ckpt[0] != j_star:
                others = [j for j in inst if j.job_id != j_star]
                ck: dict[int, float] = {}
                if others:
                    _, pre = simulate_c(Instance(others), self.power, until=r_star)
                    ck = dict(pre.remaining)
                self._ckpt = (j_star, r_star, ck)
            _, t0, ck = self._ckpt
            _, run = simulate_c(inst, self.power, until=t, resume=(t0, ck))
        w_rem = sum(inst[jid].density * v for jid, v in run.remaining.items())
        return self.power.speed(w_rem)


def simulate_nc_general_reference(
    instance: Instance,
    power: PowerLaw,
    *,
    eta: float | None = None,
    beta: float = 5.0,
    epsilon: float = 1e-6,
    max_step: float = 1e-2,
    use_checkpoints: bool = True,
) -> NCGeneralRun:
    """``simulate_nc_general`` driven by :class:`ReferenceNCGeneralPolicy`."""
    policy = ReferenceNCGeneralPolicy(
        power, eta=eta, beta=beta, epsilon=epsilon, use_checkpoints=use_checkpoints
    )
    min_step = min(1e-14, epsilon**2 / 16.0)
    engine = NumericEngine(power, max_step=max_step, min_step=max(min_step, 1e-300))
    result = engine.run(instance, policy)
    return NCGeneralRun(
        instance=instance,
        power=power,
        schedule=result.schedule,
        eta=policy.eta,
        beta=policy.beta,
        epsilon=policy.epsilon,
        engine_steps=result.steps,
        counters=result.context.counters if result.context is not None else None,
    )


def scratch_base(
    released: dict[int, tuple[float, float]],
    processed: dict[int, float],
    j_star: int | None,
    r_star: float,
    alpha: float,
    *,
    counters: ShadowCounters | None = None,
) -> tuple[ClairvoyantShadow, ShadowCheckpoint]:
    """NC-general's epoch base rebuilt from scratch: a fresh shadow fed
    every released job but ``j_star`` that NC has processed
    (``released`` maps id -> (release, rounded density), in release order),
    advanced to ``r_star`` and checkpointed."""
    shadow = ClairvoyantShadow(alpha, counters=counters)
    for jid, (rel, rho) in released.items():
        if jid != j_star and processed.get(jid, 0.0) > 0.0:
            shadow.insert_job(jid, rel, rho, processed[jid])
    shadow.advance(r_star)
    return shadow, shadow.checkpoint()


class ScratchRebuildNCGeneralPolicy(NCGeneralPolicy):
    """NC-general with the from-scratch epoch base of :func:`scratch_base`
    and every query a ``query_with_job`` restore-and-loop."""

    def _shadow_speed(self, t: float, processed: dict[int, float]) -> float:
        epoch = self._epoch
        if epoch is None:
            j_star = self.select_job(t)
            r_star, rho_star = self._released[j_star] if j_star is not None else (t, 0.0)
            shadow, base = scratch_base(
                self._released, processed, j_star, r_star, self.power.alpha,
                counters=self.counters,
            )
            self.counters.rebuilds += 1
            epoch = self._epoch = (j_star, r_star, rho_star)
            self._scratch = (shadow, base)
        j_star, r_star, rho_star = epoch
        shadow, base = self._scratch
        v_star = processed.get(j_star, 0.0) if j_star is not None else 0.0
        if v_star > 0.0:
            w_rem = shadow.query_with_job(base, t, j_star, r_star, rho_star, v_star)
        else:
            w_rem = shadow.query_with_job(base, t, None, 0.0, 0.0, 0.0)
        if w_rem <= 0.0:
            return 0.0
        return self.power.speed(w_rem)


def simulate_nc_general_scratch(
    instance: Instance,
    power: PowerLaw,
    *,
    eta: float | None = None,
    beta: float = 5.0,
    epsilon: float = 1e-6,
    max_step: float = 1e-2,
) -> NCGeneralRun:
    """``simulate_nc_general`` driven by :class:`ScratchRebuildNCGeneralPolicy`."""
    policy = ScratchRebuildNCGeneralPolicy(power, eta=eta, beta=beta, epsilon=epsilon)
    min_step = min(1e-14, epsilon**2 / 16.0)
    engine = NumericEngine(power, max_step=max_step, min_step=max(min_step, 1e-300))
    result = engine.run(instance, policy)
    return NCGeneralRun(
        instance=instance,
        power=power,
        schedule=result.schedule,
        eta=policy.eta,
        beta=policy.beta,
        epsilon=policy.epsilon,
        engine_steps=result.steps,
        counters=result.context.counters if result.context is not None else None,
    )
