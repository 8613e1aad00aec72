"""Baseline schedulers the paper's Table 1 is measured against.

* :func:`simulate_constant_speed_fifo` — the naive non-clairvoyant strategy: a
  fixed machine speed, FIFO order.  Not competitive (its ratio diverges as the
  adversary scales load), which the benches demonstrate.
* :func:`simulate_active_count` — the known-*weight* non-clairvoyant strategy
  in the spirit of Chan et al. [11] / Albers–Fujiwara [2]: speed set so that
  power equals the number of active jobs, FIFO order.  For unit-weight jobs
  this is the classic ``P = n(t)`` rule; it needs to know weights (here: that
  they are all 1), which the known-density model does not grant — it is the
  *other* non-clairvoyant model of Table 1.
* :func:`simulate_round_robin` — the same ``P = n(t)`` speed rule but with
  round-robin (quantum-based) time sharing, the classical non-clairvoyant
  job-selection rule of Motwani–Phillips–Torng; as the quantum shrinks this
  approaches the processor-sharing algorithm analysed in [11].

All are exact event-driven simulations emitting constant-speed segments
(speeds only change at releases/completions/quantum boundaries).
"""

from __future__ import annotations

import math

from ..core.errors import InvalidInstanceError
from ..core.job import Instance
from ..core.power import PowerFunction
from ..core.schedule import ConstantSegment, Schedule, ScheduleBuilder

__all__ = ["simulate_constant_speed_fifo", "simulate_active_count", "simulate_round_robin"]

_TIE_TOL = 1e-12


def simulate_constant_speed_fifo(instance: Instance, speed: float) -> Schedule:
    """FIFO at a fixed speed.  Exact; independent of the power function."""
    if speed <= 0 or not math.isfinite(speed):
        raise InvalidInstanceError(f"speed must be finite > 0, got {speed}")
    builder = ScheduleBuilder()
    t = 0.0
    for job in instance:  # FIFO order
        start = max(t, job.release)
        dur = job.volume / speed
        builder.append(ConstantSegment(start, start + dur, job.job_id, speed))
        t = start + dur
    return builder.build()


def simulate_active_count(instance: Instance, power: PowerFunction) -> Schedule:
    """FIFO with the power-equals-active-job-count speed rule.

    Between consecutive events (release or completion) the active count is
    constant, so the speed ``P^{-1}(n)`` is too; each event re-evaluates it.
    This is round-robin with a quantum that never expires.
    """
    return _active_count_loop(instance, power, math.inf)


def simulate_round_robin(
    instance: Instance, power: PowerFunction, quantum: float = 0.05
) -> Schedule:
    """Round-robin time sharing with the power-equals-active-count speed rule.

    The head of the active queue runs for at most ``quantum`` time, then
    rotates to the back; releases and completions also end a slice.  With the
    ``P(s) = n(t)`` rule this discretises the processor-sharing algorithm of
    Chan et al. [11] for unit-weight jobs (exact in the quantum -> 0 limit).
    """
    if quantum <= 0 or not math.isfinite(quantum):
        raise InvalidInstanceError(f"quantum must be finite > 0, got {quantum}")
    return _active_count_loop(instance, power, quantum)


def _active_count_loop(instance: Instance, power: PowerFunction, quantum: float) -> Schedule:
    """The head of the FIFO active queue runs at ``P^{-1}(n)`` until it
    completes, a job is released or ``quantum`` expires (then it rotates to
    the back)."""
    releases = list(instance.jobs)
    next_rel = 0
    remaining: dict[int, float] = {}
    order: list[int] = []  # FIFO queue of active job ids
    builder = ScheduleBuilder()
    t = 0.0

    def admit(now: float) -> None:
        nonlocal next_rel
        while next_rel < len(releases) and releases[next_rel].release <= now + _TIE_TOL:
            remaining[releases[next_rel].job_id] = releases[next_rel].volume
            order.append(releases[next_rel].job_id)
            next_rel += 1

    admit(t)
    while order or next_rel < len(releases):
        if not order:
            t = releases[next_rel].release
            admit(t)
            continue
        job_id = order[0]
        s = power.speed(float(len(order)))
        if s <= 0:
            raise InvalidInstanceError("power function gives zero speed for positive load")
        t_complete = t + remaining[job_id] / s
        t_next_rel = releases[next_rel].release if next_rel < len(releases) else math.inf
        t_stop = min(t_complete, t_next_rel, t + quantum)
        builder.append(ConstantSegment(t, t_stop, job_id, s))
        remaining[job_id] -= s * (t_stop - t)
        if remaining[job_id] <= _TIE_TOL * max(1.0, instance[job_id].volume):
            del remaining[job_id]
            order.pop(0)
        elif t_stop == t + quantum and t_stop < t_next_rel:
            order.append(order.pop(0))  # quantum expiry: rotate
        t = t_stop
        admit(t)
    return builder.build()
