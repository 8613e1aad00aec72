"""Test oracle for schedule queries and scoring: the full-scan reference.

:class:`~repro.core.schedule.Schedule` indexes its segments by job and
bisects into each query's time window, and :func:`repro.core.metrics.evaluate`
integrates each job over its own ``[release, completion]`` window only.
This module keeps the straightforward versions they replaced — every query
scans every segment — as an independent reference:

* :func:`job_segments`, :func:`processed_volume`,
  :func:`processed_volume_until`, :func:`completion_time`,
  :func:`speed_at`, :func:`job_at` — the ``Schedule`` queries;
* :func:`validate_schedule` and :func:`evaluate` — the scorer.

The differential tests require the shipped results to be ``==`` to these
(same floats, same :class:`~repro.core.errors.ScheduleError` messages): the
index only skips segments a full scan would skip too.  Every query here is
O(segments), so scoring is O(jobs x segments).
"""

from __future__ import annotations

from repro.core.errors import ScheduleError
from repro.core.job import Instance
from repro.core.metrics import CostReport
from repro.core.power import PowerFunction
from repro.core.schedule import Schedule, Segment

__all__ = [
    "job_segments",
    "processed_volume",
    "processed_volume_until",
    "completion_time",
    "speed_at",
    "job_at",
    "validate_schedule",
    "evaluate",
]

_VOL_TOL = 1e-6


def job_segments(schedule: Schedule, job_id: int) -> tuple[Segment, ...]:
    return tuple(s for s in schedule.segments if s.job_id == job_id)


def processed_volume(schedule: Schedule, job_id: int) -> float:
    return sum(s.volume() for s in job_segments(schedule, job_id))


def processed_volume_until(schedule: Schedule, job_id: int, t: float) -> float:
    total = 0.0
    for s in schedule.segments:
        if s.job_id != job_id:
            continue
        if s.t1 <= t:
            total += s.volume()
        elif s.t0 < t:
            total += s.volume_until(t - s.t0)
    return total


def completion_time(schedule: Schedule, job_id: int, volume: float) -> float:
    remaining = volume
    last_end: float | None = None
    for s in schedule.segments:
        if s.job_id != job_id:
            continue
        v = s.volume()
        if v >= remaining * (1 - 1e-9):
            return s.t0 + s.time_to_volume(min(remaining, v))
        remaining -= v
        last_end = s.t1
    if last_end is not None and remaining <= 1e-6 * max(1.0, volume):
        return last_end
    raise ScheduleError(
        f"job {job_id} never accumulates volume {volume} "
        f"(processed {processed_volume(schedule, job_id)})"
    )


def speed_at(schedule: Schedule, t: float) -> float:
    """The first segment with ``t0 <= t <= t1`` decides."""
    for s in schedule.segments:
        if s.t0 <= t <= s.t1:
            return s.speed_at(t)
    return 0.0


def job_at(schedule: Schedule, t: float) -> int | None:
    """The last segment with ``t0 <= t < t1`` decides."""
    answer: int | None = None
    for s in schedule.segments:
        if s.t0 <= t < s.t1:
            answer = s.job_id
    return answer


def validate_schedule(schedule: Schedule, instance: Instance, vol_tol: float = _VOL_TOL) -> None:
    for seg in schedule.segments:
        if seg.job_id is None:
            continue
        if seg.job_id not in instance:
            raise ScheduleError(f"segment references unknown job {seg.job_id}")
        release = instance[seg.job_id].release
        if seg.t0 < release - 1e-9 * max(1.0, release):
            raise ScheduleError(
                f"job {seg.job_id} processed at {seg.t0} before release {release}"
            )
    for job in instance:
        got = processed_volume(schedule, job.job_id)
        if abs(got - job.volume) > vol_tol * max(1.0, job.volume):
            raise ScheduleError(
                f"job {job.job_id} processed volume {got}, requires {job.volume}"
            )


def evaluate(
    schedule: Schedule,
    instance: Instance,
    power: PowerFunction,
    *,
    validate: bool = True,
) -> CostReport:
    if validate:
        validate_schedule(schedule, instance)
    energy = sum(seg.energy(power) for seg in schedule.segments)
    completions: dict[int, float] = {}
    frac: dict[int, float] = {}
    integ: dict[int, float] = {}
    for job in instance:
        c = completion_time(schedule, job.job_id, job.volume)
        completions[job.job_id] = c
        integ[job.job_id] = job.weight * (c - job.release)
        frac[job.job_id] = job.density * _remaining_volume_integral(
            schedule, job.job_id, job.release, c, job.volume
        )
    return CostReport(
        energy=energy,
        fractional_flow_by_job=frac,
        integral_flow_by_job=integ,
        completion_times=completions,
    )


def _remaining_volume_integral(
    schedule: Schedule, job_id: int, release: float, completion: float, volume: float
) -> float:
    total = 0.0
    remaining = volume
    cursor = release
    for seg in schedule.segments:
        if seg.t1 <= cursor or seg.t0 >= completion:
            continue
        a = max(seg.t0, cursor)
        b = min(seg.t1, completion)
        if b <= a:
            continue
        if a > cursor:
            total += remaining * (a - cursor)
        if seg.job_id != job_id:
            total += remaining * (b - a)
        else:
            la, lb = a - seg.t0, b - seg.t0
            v_la = seg.volume_until(la)
            v_lb = seg.volume_until(lb)
            inner = (seg.flow_integral(lb) - seg.flow_integral(la)) - v_la * (lb - la)
            total += remaining * (lb - la) - inner
            remaining = max(remaining - (v_lb - v_la), 0.0)
        cursor = b
    if cursor < completion:
        total += remaining * (completion - cursor)
    return total
