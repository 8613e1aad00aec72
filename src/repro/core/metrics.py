"""Objective evaluation: energy, fractional and integral weighted flow-time.

Definitions follow §2 of the paper exactly:

* energy             ``E = ∫ P(s(t)) dt``
* fractional flow    ``F[j] = rho[j] * ∫_{r[j]}^{∞} V[j](t) dt``
* integral flow      ``F_int[j] = W[j] * (c[j] - r[j])``
* objectives         ``G_frac = E + Σ F[j]``,  ``G_int = E + Σ F_int[j]``

Because segments carry analytic profiles, everything here is closed-form; the
only numerics are sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScheduleError
from .job import Instance, Job
from .power import PowerFunction
from .schedule import Schedule

__all__ = ["CostReport", "evaluate", "validate_schedule"]

_VOL_TOL = 1e-6


@dataclass(frozen=True)
class CostReport:
    """Per-job and aggregate costs of one schedule on one instance."""

    energy: float
    fractional_flow_by_job: dict[int, float]
    integral_flow_by_job: dict[int, float]
    completion_times: dict[int, float]

    @property
    def fractional_flow(self) -> float:
        return sum(self.fractional_flow_by_job.values())

    @property
    def integral_flow(self) -> float:
        return sum(self.integral_flow_by_job.values())

    @property
    def fractional_objective(self) -> float:
        """``G_frac`` — fractional weighted flow-time plus energy."""
        return self.energy + self.fractional_flow

    @property
    def integral_objective(self) -> float:
        """``G_int`` — integral weighted flow-time plus energy."""
        return self.energy + self.integral_flow

    @property
    def makespan(self) -> float:
        return max(self.completion_times.values())

    def merged_with(self, other: "CostReport") -> "CostReport":
        """Combine reports of disjoint job sets (e.g. per-machine reports)."""
        overlap = set(self.completion_times) & set(other.completion_times)
        if overlap:
            raise ScheduleError(f"cannot merge reports sharing jobs {sorted(overlap)}")
        return CostReport(
            energy=self.energy + other.energy,
            fractional_flow_by_job={**self.fractional_flow_by_job, **other.fractional_flow_by_job},
            integral_flow_by_job={**self.integral_flow_by_job, **other.integral_flow_by_job},
            completion_times={**self.completion_times, **other.completion_times},
        )


def validate_schedule(schedule: Schedule, instance: Instance, vol_tol: float = _VOL_TOL) -> None:
    """Check the schedule is feasible for the instance.

    * every segment's job belongs to the instance,
    * no job is processed before its release,
    * every job receives exactly its volume (relative tolerance ``vol_tol``).

    Raises :class:`ScheduleError` on any violation.
    """
    for seg in schedule:
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
        got = schedule.processed_volume(job.job_id)
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
    """Exact costs of ``schedule`` on ``instance`` under ``power``."""
    if validate:
        validate_schedule(schedule, instance)

    energy = sum(seg.energy(power) for seg in schedule)

    completions: dict[int, float] = {}
    frac: dict[int, float] = {}
    integ: dict[int, float] = {}
    for job in instance:
        jid = job.job_id
        completions[jid], integ[jid], frac[jid] = _job_costs(schedule, job)

    return CostReport(
        energy=energy,
        fractional_flow_by_job=frac,
        integral_flow_by_job=integ,
        completion_times=completions,
    )


def _job_costs(schedule: Schedule, job: Job) -> tuple[float, float, float]:
    """``(completion time, integral flow, fractional flow)`` of one job.

    Reads only the job's own segments and the segments in its window
    ``[release, completion]``, so any schedule holding those scores the job
    exactly as the full one does."""
    c = schedule.completion_time(job.job_id, job.volume)
    integ = job.weight * (c - job.release)
    frac = job.density * _remaining_volume_integral(
        schedule, job.job_id, job.release, c, job.volume
    )
    return c, integ, frac


def _remaining_volume_integral(
    schedule: Schedule, job_id: int, release: float, completion: float, volume: float
) -> float:
    """``∫_{release}^{completion} V_j(t) dt`` computed exactly segment by segment.

    Only the job's window is visited: every segment outside it would take
    the ``continue`` below, so the float operations are those of a full scan.
    """
    total = 0.0
    remaining = volume
    cursor = release
    for seg in schedule.window(release, completion):
        if seg.t1 <= cursor or seg.t0 >= completion:
            continue
        a = max(seg.t0, cursor)
        b = min(seg.t1, completion)
        if b <= a:
            continue
        # Gap (idle or unsorted coverage) before this segment: V_j constant.
        if a > cursor:
            total += remaining * (a - cursor)
        if seg.job_id != job_id:
            total += remaining * (b - a)
        else:
            la, lb = a - seg.t0, b - seg.t0
            v_la = seg.volume_until(la)
            v_lb = seg.volume_until(lb)
            # ∫_{la}^{lb} (remaining - (vol(u) - vol(la))) du, all closed form.
            inner = (seg.flow_integral(lb) - seg.flow_integral(la)) - v_la * (lb - la)
            total += remaining * (lb - la) - inner
            remaining = max(remaining - (v_lb - v_la), 0.0)
        cursor = b
    if cursor < completion:
        total += remaining * (completion - cursor)
    return total
