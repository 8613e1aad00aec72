"""Exact schedule representation.

A :class:`Schedule` is a time-ordered sequence of non-overlapping
:class:`Segment` s on one machine.  Each segment records *which job* ran and
the *analytic speed profile* it ran with, so downstream metrics (energy,
volume, fractional flow-time) are computed in closed form instead of by
re-sampling a trajectory:

* :class:`IdleSegment` — machine off.
* :class:`ConstantSegment` — constant speed (the numeric engine emits these).
* :class:`DecaySegment` — the Algorithm C profile: speed ``X(t)**(1/alpha)``
  with the weight-like quantity ``X`` *decaying* as ``dX/dt = -rho X**(1/alpha)``.
* :class:`GrowthSegment` — the Algorithm NC profile: same but *growing*.
* :class:`ScaledSegment` — a base segment's speed times a constant factor.

Decay/Growth segments are only meaningful under ``P(s) = s**alpha`` with the
matching ``alpha`` (the profile embeds the power-equals-weight rule); their
``energy`` methods verify this and fall back to quadrature for other power
functions.

The module also owns the one segment format, in two forms.  The file/API
form (:func:`segment_to_dict` / :func:`segment_from_dict`, used by
:mod:`repro.io` and the service's ``/schedule``) names the class in
``kind``; the trace form (:func:`trace_payload` / :func:`segment_from_trace`)
is the payload of a ``kernel_eval`` event, which names the closed-form
``profile`` and carries the job's ``rho`` and ``alpha`` even on a
constant-speed piece.  Both decoders return a segment or raise
:class:`~repro.core.errors.ScheduleError`.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from . import kernels
from .errors import ScheduleError
from .power import PowerFunction, PowerLaw

__all__ = [
    "Segment",
    "IdleSegment",
    "ConstantSegment",
    "DecaySegment",
    "GrowthSegment",
    "ScaledSegment",
    "Schedule",
    "ScheduleBuilder",
    "segment_to_dict",
    "segment_from_dict",
    "trace_payload",
    "segment_from_trace",
]

_REL_TOL = 1e-9


def _quadrature_energy(seg: Segment, power: PowerFunction) -> float:
    """``∫ P(s(t)) dt`` over ``seg`` by adaptive quadrature, for a power
    function with no closed form on the segment's profile.

    scipy is imported here rather than with the module: under ``s**alpha``
    every segment energy is closed form (Lemma 3), so only a run under
    another power function (a :class:`~repro.core.power.TabulatedPower`)
    pays for loading it.
    """
    from scipy.integrate import quad

    val, _ = quad(lambda t: power.power(seg.speed_at(seg.t0 + t)), 0.0, seg.duration, limit=200)
    return float(val)


@dataclass(frozen=True)
class Segment(ABC):
    """A maximal interval ``[t0, t1]`` during which one job (or nothing) runs
    with a single analytic speed profile."""

    t0: float
    t1: float
    job_id: int | None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ScheduleError(f"segment endpoints must be finite: [{self.t0}, {self.t1}]")
        if self.t1 < self.t0:
            raise ScheduleError(f"segment must have t1 >= t0: [{self.t0}, {self.t1}]")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @abstractmethod
    def speed_at(self, t: float) -> float:
        """Machine speed at absolute time ``t`` in ``[t0, t1]``."""

    @abstractmethod
    def volume(self) -> float:
        """Total volume processed over the whole segment (``∫ s dt``)."""

    @abstractmethod
    def volume_until(self, tau: float) -> float:
        """Volume processed in the first ``tau`` time units of the segment."""

    @abstractmethod
    def time_to_volume(self, v: float) -> float:
        """Local time offset at which the segment has processed volume ``v``."""

    @abstractmethod
    def energy(self, power: PowerFunction) -> float:
        """Energy ``∫ P(s(t)) dt`` over the segment."""

    @abstractmethod
    def flow_integral(self, tau: float) -> float:
        """``∫_0^tau volume_until(t) dt`` — the double integral needed for
        exact fractional flow-time accounting within the segment."""

    @abstractmethod
    def subsegment(self, la: float, lb: float) -> "Segment":
        """The restriction of this segment to local times ``[la, lb]`` as a
        standalone segment (absolute times preserved)."""

    def _local(self, t: float) -> float:
        if t < self.t0 - _REL_TOL * max(1.0, abs(self.t0)) or t > self.t1 + _REL_TOL * max(1.0, abs(self.t1)):
            raise ScheduleError(f"time {t} outside segment [{self.t0}, {self.t1}]")
        return min(max(t - self.t0, 0.0), self.duration)

    def _clip(self, la: float, lb: float) -> tuple[float, float]:
        la = min(max(la, 0.0), self.duration)
        lb = min(max(lb, 0.0), self.duration)
        if lb < la:
            raise ScheduleError(f"invalid subsegment window [{la}, {lb}]")
        return la, lb


@dataclass(frozen=True)
class IdleSegment(Segment):
    """The machine is off: speed 0, no job. ``job_id`` is always ``None``."""

    job_id: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.job_id is not None:
            raise ScheduleError("IdleSegment cannot carry a job")

    def speed_at(self, t: float) -> float:
        self._local(t)
        return 0.0

    def volume(self) -> float:
        return 0.0

    def volume_until(self, tau: float) -> float:
        return 0.0

    def time_to_volume(self, v: float) -> float:
        if v > 0:
            raise ScheduleError("idle segment processes no volume")
        return 0.0

    def energy(self, power: PowerFunction) -> float:
        return 0.0

    def flow_integral(self, tau: float) -> float:
        return 0.0

    def subsegment(self, la: float, lb: float) -> "IdleSegment":
        la, lb = self._clip(la, lb)
        return IdleSegment(self.t0 + la, self.t0 + lb, None)


@dataclass(frozen=True)
class ConstantSegment(Segment):
    """Constant speed ``s`` on one job."""

    speed: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.speed < 0 or not math.isfinite(self.speed):
            raise ScheduleError(f"speed must be finite >= 0, got {self.speed}")
        if self.job_id is None and self.speed > 0:
            raise ScheduleError("positive speed requires a job")

    def speed_at(self, t: float) -> float:
        self._local(t)
        return self.speed

    def volume(self) -> float:
        return self.speed * self.duration

    def volume_until(self, tau: float) -> float:
        return self.speed * min(max(tau, 0.0), self.duration)

    def time_to_volume(self, v: float) -> float:
        if v < 0 or v > self.volume() * (1 + 1e-9):
            raise ScheduleError(f"volume {v} outside segment range {self.volume()}")
        if self.speed == 0:
            return 0.0
        return min(v / self.speed, self.duration)

    def energy(self, power: PowerFunction) -> float:
        return power.power(self.speed) * self.duration

    def flow_integral(self, tau: float) -> float:
        tau = min(max(tau, 0.0), self.duration)
        return 0.5 * self.speed * tau * tau

    def subsegment(self, la: float, lb: float) -> "ConstantSegment":
        la, lb = self._clip(la, lb)
        return ConstantSegment(self.t0 + la, self.t0 + lb, self.job_id, self.speed)


@dataclass(frozen=True)
class _PowerLawSegment(Segment):
    """Shared plumbing for the decay/growth profiles."""

    x0: float = 0.0  # weight-like state at t0
    rho: float = 1.0  # density of the job driving the dynamics
    alpha: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.x0 < 0 or not math.isfinite(self.x0):
            raise ScheduleError(f"x0 must be finite >= 0, got {self.x0}")
        if not (0 < self.rho < math.inf and 1 < self.alpha < math.inf):
            raise ScheduleError(
                f"need finite rho > 0 and alpha > 1, got rho={self.rho}, alpha={self.alpha}"
            )
        if self.job_id is None:
            raise ScheduleError("power-law segments must process a job")

    def _matches(self, power: PowerFunction) -> bool:
        return isinstance(power, PowerLaw) and math.isclose(power.alpha, self.alpha, rel_tol=1e-12)


@dataclass(frozen=True)
class DecaySegment(_PowerLawSegment):
    """Algorithm C's profile: ``X`` decays from ``x0``; speed ``X**(1/alpha)``.

    ``X`` is the machine's total remaining weight under the power-equals-weight
    rule; the processed job has density ``rho``.
    """

    def weight_at(self, t: float) -> float:
        """The weight-like state ``X`` at absolute time ``t``."""
        return kernels.decay_weight_after(self.x0, self.rho, self._local(t), self.alpha)

    def speed_at(self, t: float) -> float:
        return kernels.speed_at(self.weight_at(t), self.alpha)

    def volume(self) -> float:
        return self.volume_until(self.duration)

    def volume_until(self, tau: float) -> float:
        tau = min(max(tau, 0.0), self.duration)
        x = kernels.decay_weight_after(self.x0, self.rho, tau, self.alpha)
        return (self.x0 - x) / self.rho

    def time_to_volume(self, v: float) -> float:
        if v < 0 or v > self.volume() * (1 + 1e-9):
            raise ScheduleError(f"volume {v} outside segment range {self.volume()}")
        target = max(self.x0 - self.rho * v, 0.0)
        return min(kernels.decay_time_between(self.x0, target, self.rho, self.alpha), self.duration)

    def energy(self, power: PowerFunction) -> float:
        if self._matches(power):
            x_end = kernels.decay_weight_after(self.x0, self.rho, self.duration, self.alpha)
            return kernels.decay_energy_between(self.x0, x_end, self.rho, self.alpha)
        return _quadrature_energy(self, power)

    def flow_integral(self, tau: float) -> float:
        tau = min(max(tau, 0.0), self.duration)
        return kernels.decay_flow_integral(self.x0, self.rho, tau, self.alpha)

    def subsegment(self, la: float, lb: float) -> "DecaySegment":
        la, lb = self._clip(la, lb)
        x_la = kernels.decay_weight_after(self.x0, self.rho, la, self.alpha)
        return DecaySegment(self.t0 + la, self.t0 + lb, self.job_id, x_la, self.rho, self.alpha)


@dataclass(frozen=True)
class GrowthSegment(_PowerLawSegment):
    """Algorithm NC's profile: ``X`` grows from ``x0``; speed ``X**(1/alpha)``.

    ``X`` is the paper's ``W^C(r[j]-) + W̆[j](t)``; the processed job has
    density ``rho``.
    """

    def weight_at(self, t: float) -> float:
        return kernels.growth_weight_after(self.x0, self.rho, self._local(t), self.alpha)

    def speed_at(self, t: float) -> float:
        return kernels.speed_at(self.weight_at(t), self.alpha)

    def volume(self) -> float:
        return self.volume_until(self.duration)

    def volume_until(self, tau: float) -> float:
        tau = min(max(tau, 0.0), self.duration)
        x = kernels.growth_weight_after(self.x0, self.rho, tau, self.alpha)
        return (x - self.x0) / self.rho

    def time_to_volume(self, v: float) -> float:
        if v < 0 or v > self.volume() * (1 + 1e-9):
            raise ScheduleError(f"volume {v} outside segment range {self.volume()}")
        return min(
            kernels.growth_time_between(self.x0, self.x0 + self.rho * v, self.rho, self.alpha),
            self.duration,
        )

    def energy(self, power: PowerFunction) -> float:
        if self._matches(power):
            x_end = kernels.growth_weight_after(self.x0, self.rho, self.duration, self.alpha)
            return kernels.growth_energy_between(self.x0, x_end, self.rho, self.alpha)
        return _quadrature_energy(self, power)

    def flow_integral(self, tau: float) -> float:
        tau = min(max(tau, 0.0), self.duration)
        return kernels.growth_flow_integral(self.x0, self.rho, tau, self.alpha)

    def subsegment(self, la: float, lb: float) -> "GrowthSegment":
        la, lb = self._clip(la, lb)
        x_la = kernels.growth_weight_after(self.x0, self.rho, la, self.alpha)
        return GrowthSegment(self.t0 + la, self.t0 + lb, self.job_id, x_la, self.rho, self.alpha)


@dataclass(frozen=True)
class ScaledSegment(Segment):
    """A segment whose speed is ``factor`` times a base segment's speed at the
    same wall-clock instant.

    This is exactly the schedule transformation of the §5 black-box reduction
    (Lemma 15): ``A_int`` runs at ``(1+eps)`` times ``A_frac``'s speed over the
    same time window.  The base segment must span the same ``[t0, t1]``.
    """

    base: Segment = None  # type: ignore[assignment]
    factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.base is None:
            raise ScheduleError("ScaledSegment requires a base segment")
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise ScheduleError(f"factor must be finite > 0, got {self.factor}")
        if not (
            math.isclose(self.base.t0, self.t0, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(self.base.t1, self.t1, rel_tol=1e-12, abs_tol=1e-12)
        ):
            raise ScheduleError("ScaledSegment must span the same window as its base")

    def speed_at(self, t: float) -> float:
        return self.factor * self.base.speed_at(t)

    def volume(self) -> float:
        return self.factor * self.base.volume()

    def volume_until(self, tau: float) -> float:
        return self.factor * self.base.volume_until(tau)

    def time_to_volume(self, v: float) -> float:
        return self.base.time_to_volume(v / self.factor)

    def energy(self, power: PowerFunction) -> float:
        if isinstance(power, PowerLaw):
            # P(c*s) = c**alpha * P(s), so the energy scales by c**alpha.
            return self.factor**power.alpha * self.base.energy(power)
        return _quadrature_energy(self, power)

    def flow_integral(self, tau: float) -> float:
        return self.factor * self.base.flow_integral(tau)

    def subsegment(self, la: float, lb: float) -> "ScaledSegment":
        la, lb = self._clip(la, lb)
        sub = self.base.subsegment(la, lb)
        return ScaledSegment(sub.t0, sub.t1, self.job_id, sub, self.factor)


class Schedule:
    """An immutable, time-ordered, gap-explicit sequence of segments.

    Gaps between consecutive segments are permitted (treated as idle); overlap
    is not, beyond the ``1e-9`` relative slack the overlap check allows.  Use
    :class:`ScheduleBuilder` to construct one incrementally.

    Construction also indexes the segments, so every query costs the size of
    what it answers rather than the size of the schedule: each job's own
    segments (in schedule order), the sorted ``t0`` array, and the running
    maximum of ``t1``.  ``t1`` alone is not monotone — a segment may end a
    sliver after the next one starts — but its running maximum is, and every
    segment before the first index whose running maximum exceeds ``t`` ends
    at or before ``t``.
    """

    def __init__(self, segments: Iterable[Segment]) -> None:
        segs = [s for s in segments if s.duration > 0]
        segs.sort(key=lambda s: s.t0)
        by_job: dict[int | None, list[Segment]] = {}
        t0s: list[float] = []
        t1_max: list[float] = []
        reach = -math.inf
        prev: Segment | None = None
        for s in segs:
            if prev is not None and s.t0 < prev.t1 - _REL_TOL * max(1.0, abs(prev.t1)):
                raise ScheduleError(
                    f"segments overlap: [{prev.t0},{prev.t1}] then [{s.t0},{s.t1}]"
                )
            prev = s
            by_job.setdefault(s.job_id, []).append(s)
            t0s.append(s.t0)
            reach = max(reach, s.t1)
            t1_max.append(reach)
        self._segments: tuple[Segment, ...] = tuple(segs)
        self._by_job = {job: tuple(group) for job, group in by_job.items()}
        self._t0s = t0s
        self._t1_max = t1_max

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def end_time(self) -> float:
        return self._segments[-1].t1 if self._segments else 0.0

    # -- queries -------------------------------------------------------------

    def window(self, start: float, end: float) -> tuple[Segment, ...]:
        """The segments, in schedule order, that can reach into ``(start, end)``.

        Every segment left out ends at or before ``start`` or starts at or
        after ``end``; a segment kept may still miss the interval (an
        earlier, longer one can carry the running maximum of ``t1``)."""
        lo = bisect_right(self._t1_max, start)
        hi = bisect_left(self._t0s, end)
        return self._segments[lo:hi]

    def job_segments(self, job_id: int) -> tuple[Segment, ...]:
        return self._by_job.get(job_id, ())

    def processed_volume(self, job_id: int) -> float:
        return sum(s.volume() for s in self.job_segments(job_id))

    def processed_volume_until(self, job_id: int, t: float) -> float:
        """Volume of ``job_id`` processed by absolute time ``t``."""
        total = 0.0
        for s in self.job_segments(job_id):
            if s.t1 <= t:
                total += s.volume()
            elif s.t0 < t:
                total += s.volume_until(t - s.t0)
        return total

    def completion_time(self, job_id: int, volume: float) -> float:
        """The time at which cumulative processed volume of ``job_id`` first
        reaches ``volume`` (within relative tolerance)."""
        remaining = volume
        last_end: float | None = None
        for s in self.job_segments(job_id):
            v = s.volume()
            if v >= remaining * (1 - 1e-9):
                return s.t0 + s.time_to_volume(min(remaining, v))
            remaining -= v
            last_end = s.t1
        if last_end is not None and remaining <= 1e-6 * max(1.0, volume):
            # Accumulated float shortfall across many segments; the job is
            # complete for every practical purpose at its last touch.
            return last_end
        raise ScheduleError(
            f"job {job_id} never accumulates volume {volume} "
            f"(processed {self.processed_volume(job_id)})"
        )

    def speed_at(self, t: float) -> float:
        """Machine speed at absolute time ``t`` (0 in gaps / outside).

        At a boundary shared by two segments the *earlier* segment wins: the
        speed is that of the first segment in schedule order with
        ``t0 <= t <= t1``.
        """
        lo = bisect_left(self._t1_max, t)
        hi = bisect_right(self._t0s, t)
        for s in self._segments[lo:hi]:
            if s.t0 <= t <= s.t1:
                return s.speed_at(t)
        return 0.0

    def job_at(self, t: float) -> int | None:
        """The job running at absolute time ``t`` (``None`` when idle).

        At a boundary shared by two segments the *later* segment wins — the
        last segment in schedule order with ``t0 <= t < t1`` — matching the
        convention that completions happen at the instant the boundary is
        reached.  So :meth:`speed_at` and ``job_at`` disagree exactly at
        boundaries.
        """
        lo = bisect_right(self._t1_max, t)
        hi = bisect_right(self._t0s, t)
        for s in reversed(self._segments[lo:hi]):
            if s.t0 <= t < s.t1:
                return s.job_id
        return None


class ScheduleBuilder:
    """Incremental, append-only construction of a :class:`Schedule`."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self._clock = 0.0

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def segments(self) -> list[Segment]:
        """The segments kept so far, in append order (a live list: read it,
        do not mutate it)."""
        return self._segments

    def append(self, segment: Segment) -> None:
        if segment.t0 < self._clock - _REL_TOL * max(1.0, self._clock):
            raise ScheduleError(
                f"segment starts at {segment.t0} before builder clock {self._clock}"
            )
        if segment.duration > 0:
            self._segments.append(segment)
        self._clock = max(self._clock, segment.t1)

    def build(self) -> Schedule:
        return Schedule(self._segments)


# -- the segment format -------------------------------------------------------


def segment_to_dict(seg: Segment) -> dict[str, Any]:
    """The file/API form of ``seg``: ``t0``, ``t1``, ``job``, then ``kind``
    and the closed-form parameters verbatim (a scaled segment nests its
    base), so a decoded segment evaluates to bit-equal costs."""
    out: dict[str, Any] = {"t0": seg.t0, "t1": seg.t1, "job": seg.job_id}
    if isinstance(seg, IdleSegment):
        out["kind"] = "idle"
    elif isinstance(seg, ConstantSegment):
        out["kind"] = "constant"
        out["speed"] = seg.speed
    elif isinstance(seg, (DecaySegment, GrowthSegment)):
        out["kind"] = "decay" if isinstance(seg, DecaySegment) else "growth"
        out.update(x0=seg.x0, rho=seg.rho, alpha=seg.alpha)
    elif isinstance(seg, ScaledSegment):
        out["kind"] = "scaled"
        out["factor"] = seg.factor
        out["base"] = segment_to_dict(seg.base)
    else:
        raise ScheduleError(f"cannot serialise segment type {type(seg).__name__}")
    return out


def segment_from_dict(data: Any) -> Segment:
    """Decode :func:`segment_to_dict`'s form; fields a kind does not use are
    ignored (the API form carries them as nulls)."""
    data = _object(data)
    kind = _text(data, "kind")
    t0, t1 = _number(data, "t0"), _number(data, "t1")
    if kind == "idle":
        return IdleSegment(t0, t1, _job(data, optional=True))
    if kind == "constant":
        # The numeric engine renders idle gaps as constant speed-0 segments
        # with no job, so ``job`` may be null here.
        return ConstantSegment(t0, t1, _job(data, optional=True), _number(data, "speed"))
    if kind == "decay" or kind == "growth":
        return _power_law(kind, t0, t1, _job(data), data)
    if kind == "scaled":
        if data.get("base") is None:
            raise ScheduleError("a scaled segment needs a 'base' segment")
        base = segment_from_dict(data["base"])
        return ScaledSegment(t0, t1, _job(data, optional=True), base, _number(data, "factor"))
    raise ScheduleError(f"unknown segment kind {kind!r}")


def trace_payload(
    profile: str, t0: float, t1: float, job: int, value: float, rho: float, alpha: float
) -> dict[str, Any]:
    """The ``kernel_eval`` payload of one closed-form piece of ``job``:
    ``profile`` is ``"decay"``, ``"growth"`` or ``"const"``, and ``value`` is
    the piece's starting ``x0``, or its ``speed`` for ``"const"``."""
    return {
        "profile": profile,
        "t0": t0,
        "t1": t1,
        "job": job,
        "speed" if profile == "const" else "x0": value,
        "rho": rho,
        "alpha": alpha,
    }


def segment_from_trace(payload: Any) -> Segment:
    """Decode a :func:`trace_payload` back into the segment it describes."""
    data = _object(payload)
    profile = _text(data, "profile")
    t0, t1, job = _number(data, "t0"), _number(data, "t1"), _job(data)
    if profile == "decay" or profile == "growth":
        return _power_law(profile, t0, t1, job, data)
    if profile == "const":
        return ConstantSegment(t0, t1, job, _number(data, "speed"))
    raise ScheduleError(f"unknown kernel profile {profile!r} in trace")


def _power_law(kind: str, t0: float, t1: float, job: int | None, data: dict[str, Any]) -> Segment:
    x0, rho, alpha = _number(data, "x0"), _number(data, "rho"), _number(data, "alpha")
    if kind == "decay":
        return DecaySegment(t0, t1, job, x0, rho, alpha)
    return GrowthSegment(t0, t1, job, x0, rho, alpha)


# The field readers return the common type at once and check anything else.


def _object(data: Any) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise ScheduleError(f"a segment must be an object, got {type(data).__name__}")
    return data


def _bad_field(data: dict[str, Any], name: str, expected: str) -> ScheduleError:
    if name not in data:
        return ScheduleError(f"segment has no {name!r} field")
    got = type(data[name]).__name__
    return ScheduleError(f"segment field {name!r} must be {expected}, got {got}")


def _text(data: dict[str, Any], name: str) -> str:
    value = data.get(name)
    if type(value) is str:
        return value
    raise _bad_field(data, name, "a string")


def _number(data: dict[str, Any], name: str) -> float:
    value = data.get(name)
    if type(value) is float:
        return value
    if not isinstance(value, (str, bytes, bool)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise _bad_field(data, name, "a number")


def _job(data: dict[str, Any], *, optional: bool = False) -> int | None:
    value = data.get("job")
    if type(value) is int:
        return value
    if value is None and optional and "job" in data:
        return None
    if value is not None and not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise _bad_field(data, "job", "an integer")
