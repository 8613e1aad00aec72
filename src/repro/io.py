"""Serialization: save and load instances, schedules and cost reports.

Experiment artifacts should be reproducible *and* archivable: the bench
harness stores text renderings, and this module provides the structured
counterpart — JSON-friendly dictionaries with exact round-tripping of the
analytic segment parameters (so a re-loaded schedule evaluates to bit-equal
costs).  The segment form itself lives in :mod:`repro.core.schedule`.
"""

from __future__ import annotations

import json
from typing import Any

from .core.errors import InvalidInstanceError, ScheduleError
from .core.job import Instance, Job
from .core.metrics import CostReport
from .core.schedule import Schedule, segment_from_dict, segment_to_dict

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "report_to_dict",
    "dump_run",
    "load_run",
]

_SCHEMA_VERSION = 1


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "schema": _SCHEMA_VERSION,
        "jobs": [
            {"id": j.job_id, "release": j.release, "volume": j.volume, "density": j.density}
            for j in instance
        ],
    }


def instance_from_dict(data: Any) -> Instance:
    """Decode :func:`instance_to_dict`'s form; a malformed payload raises
    :class:`~repro.core.errors.InvalidInstanceError` naming the field."""
    jobs = data.get("jobs") if isinstance(data, dict) else None
    if not isinstance(jobs, list):
        raise InvalidInstanceError("an instance must be an object with a 'jobs' list")
    return Instance(_job_from_dict(i, item) for i, item in enumerate(jobs))


def _job_from_dict(index: int, item: Any) -> Job:
    if not isinstance(item, dict):
        raise InvalidInstanceError(f"jobs[{index}] must be an object, got {type(item).__name__}")
    fields = {"density": 1.0, **item}
    for name in ("id", "release", "volume", "density"):
        value = fields.get(name)
        expected = (int,) if name == "id" else (int, float)
        if not isinstance(value, expected) or isinstance(value, bool):
            got = type(value).__name__ if name in fields else "nothing"
            kind = "an integer" if name == "id" else "a number"
            raise InvalidInstanceError(f"jobs[{index}] field {name!r} must be {kind}, got {got}")
    try:
        return Job(fields["id"], *(float(fields[n]) for n in ("release", "volume", "density")))
    except OverflowError:
        raise InvalidInstanceError(f"jobs[{index}] holds a number too large for a float") from None


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "schema": _SCHEMA_VERSION,
        "segments": [segment_to_dict(s) for s in schedule],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Decode :func:`schedule_to_dict`'s form; a malformed payload raises
    :class:`~repro.core.errors.ScheduleError`."""
    segments = data.get("segments") if isinstance(data, dict) else None
    if not isinstance(segments, list):
        raise ScheduleError("a schedule must be an object with a 'segments' list")
    return Schedule(segment_from_dict(s) for s in segments)


def report_to_dict(report: CostReport) -> dict[str, Any]:
    """One-way export of a cost report (reports are derived data; reload by
    re-evaluating the schedule)."""
    return {
        "schema": _SCHEMA_VERSION,
        "energy": report.energy,
        "fractional_flow": report.fractional_flow,
        "integral_flow": report.integral_flow,
        "fractional_objective": report.fractional_objective,
        "integral_objective": report.integral_objective,
        "completion_times": {str(k): v for k, v in report.completion_times.items()},
        "fractional_flow_by_job": {str(k): v for k, v in report.fractional_flow_by_job.items()},
        "integral_flow_by_job": {str(k): v for k, v in report.integral_flow_by_job.items()},
    }


def dump_run(
    path: str, instance: Instance, schedule: Schedule, *, meta: dict[str, Any] | None = None
) -> None:
    """Write an (instance, schedule) pair as JSON."""
    payload = {
        "schema": _SCHEMA_VERSION,
        "meta": meta or {},
        "instance": instance_to_dict(instance),
        "schedule": schedule_to_dict(schedule),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_run(path: str) -> tuple[Instance, Schedule, dict[str, Any]]:
    """Read an (instance, schedule, meta) triple written by :func:`dump_run`."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidInstanceError(f"{path}: a run file must be a JSON object")
    return (
        instance_from_dict(payload.get("instance")),
        schedule_from_dict(payload.get("schedule")),
        payload.get("meta", {}),
    )
