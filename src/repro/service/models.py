"""Typed request/response models of the scheduling service.

Every payload crossing the HTTP boundary is a pydantic ``BaseModel`` —
validated on the way in, serialized with exact shortest-repr floats on the
way out.  The instance/schedule/report models mirror :mod:`repro.io` field
for field, and the round-trip is *bit-stable*: an
``Instance -> InstanceModel -> JSON -> InstanceModel -> Instance`` cycle
reproduces the identical floats (pinned by ``tests/test_service_models.py``
against the :mod:`repro.io` dictionaries), so schedules computed from
API-fed jobs are bit-identical to schedules computed from the original
objects.
"""

from __future__ import annotations

from typing import Annotated, Any, Literal, Optional

from pydantic import AfterValidator, BaseModel, ConfigDict, Field

from ..algorithms import DEFAULT_MAX_STEP, algorithm_names
from ..core.job import Instance, Job
from ..core.metrics import CostReport
from ..core.schedule import Schedule, segment_from_dict, segment_to_dict
from .journal import check_session_id

__all__ = [
    "JobModel",
    "InstanceModel",
    "SegmentModel",
    "ScheduleModel",
    "ReportModel",
    "SessionCreateRequest",
    "SessionInfo",
    "ArrivalRequest",
    "ArrivalAck",
    "SpeedsResponse",
    "ActiveJobModel",
    "ScheduleResponse",
    "MetricsResponse",
    "GanttResponse",
    "InvariantCheckModel",
    "VerifiedReportResponse",
    "CampaignRequest",
    "CampaignStatus",
    "ErrorModel",
]


class JobModel(BaseModel):
    """One job as it crosses the API boundary (mirrors ``repro.io``)."""

    id: int
    release: float = Field(ge=0.0)
    volume: float = Field(gt=0.0)
    density: float = Field(default=1.0, gt=0.0)

    @classmethod
    def from_job(cls, job: Job) -> "JobModel":
        return cls(id=job.job_id, release=job.release, volume=job.volume, density=job.density)

    def to_job(self) -> Job:
        return Job(self.id, self.release, self.volume, self.density)


class InstanceModel(BaseModel):
    """A full instance; ``schema_version`` matches ``repro.io``'s payloads."""

    schema_version: int = 1
    jobs: list[JobModel]

    @classmethod
    def from_instance(cls, instance: Instance) -> "InstanceModel":
        return cls(jobs=[JobModel.from_job(j) for j in instance])

    def to_instance(self) -> Instance:
        return Instance(j.to_job() for j in self.jobs)


class SegmentModel(BaseModel):
    """One analytic schedule segment, the closed-form parameters verbatim:
    :func:`~repro.core.schedule.segment_to_dict`'s form, with the fields a
    kind does not use served as nulls."""

    kind: Literal["idle", "constant", "decay", "growth", "scaled"]
    t0: float
    t1: float
    job: Optional[int] = None
    speed: Optional[float] = None
    x0: Optional[float] = None
    rho: Optional[float] = None
    alpha: Optional[float] = None
    factor: Optional[float] = None
    base: Optional["SegmentModel"] = None


class ScheduleModel(BaseModel):
    schema_version: int = 1
    segments: list[SegmentModel]

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "ScheduleModel":
        return cls.model_validate({"segments": [segment_to_dict(s) for s in schedule]})

    def to_schedule(self) -> Schedule:
        return Schedule(segment_from_dict(s.model_dump()) for s in self.segments)


class ReportModel(BaseModel):
    """A :class:`~repro.core.metrics.CostReport`, aggregates precomputed."""

    energy: float
    fractional_flow: float
    integral_flow: float
    fractional_objective: float
    integral_objective: float
    completion_times: dict[int, float]
    fractional_flow_by_job: dict[int, float]
    integral_flow_by_job: dict[int, float]

    @classmethod
    def from_report(cls, report: CostReport) -> "ReportModel":
        return cls(
            energy=report.energy,
            fractional_flow=report.fractional_flow,
            integral_flow=report.integral_flow,
            fractional_objective=report.fractional_objective,
            integral_objective=report.integral_objective,
            completion_times=dict(report.completion_times),
            fractional_flow_by_job=dict(report.fractional_flow_by_job),
            integral_flow_by_job=dict(report.integral_flow_by_job),
        )

    def to_report(self) -> CostReport:
        return CostReport(
            energy=self.energy,
            fractional_flow_by_job=dict(self.fractional_flow_by_job),
            integral_flow_by_job=dict(self.integral_flow_by_job),
            completion_times=dict(self.completion_times),
        )


# -- session lifecycle --------------------------------------------------------

#: Algorithms a session can run: the registry's traced single-machine
#: fractional ones — ``C``, ``NC`` and ``NC_GENERAL`` (on the engine).
SESSION_ALGORITHMS = algorithm_names(traced=True, machines=False, integral=False)


class SessionCreateRequest(BaseModel):
    """Create a live scheduling session.

    ``session_id=None`` lets the service mint one.  ``jobs`` seeds the
    session with an initial batch of arrivals (equivalent to streaming them
    immediately after creation).  A ``session_id`` must also fit a journal
    file name once percent-encoded (:func:`~repro.service.journal.
    check_session_id`), journaled or not.  ``queue_limit`` bounds one arrival
    batch — the backpressure knob; a longer batch is rejected with 429.
    ``trace_path`` attaches a per-session
    :class:`~repro.core.tracing.JsonlRecorder` (``sink``: ``plain`` | ``gzip``
    | ``rotate:N`` with ``N >= 1``; anything else is a 422), flushed on
    session close and on service shutdown.
    """

    model_config = ConfigDict(extra="forbid")

    session_id: Optional[
        Annotated[str, Field(min_length=1, max_length=128), AfterValidator(check_session_id)]
    ] = None
    alpha: float = Field(default=3.0, gt=1.0)
    algorithm: Literal[SESSION_ALGORITHMS] = "NC"  # type: ignore[valid-type]
    max_step: float = Field(default=DEFAULT_MAX_STEP, gt=0.0)
    queue_limit: int = Field(default=256, ge=1, le=65536)
    jobs: list[JobModel] = Field(default_factory=list)
    trace_path: Optional[str] = None
    sink: str = Field(default="plain", pattern=r"^(plain|gzip|rotate:0*[1-9][0-9]*)$")


class SessionInfo(BaseModel):
    """Public state of one session."""

    session_id: str
    algorithm: str
    alpha: float
    clock: float
    jobs_accepted: int
    #: always 0: an accepted batch commits within its request
    queue_depth: int
    queue_limit: int
    closed: bool
    trace_paths: list[str] = Field(default_factory=list)


class ArrivalRequest(BaseModel):
    """A batch of online arrivals streamed into a live session.

    Releases must be nondecreasing across the session's lifetime — an
    arrival released before the session's committed clock is the online
    model's contradiction and is rejected with 409.
    """

    model_config = ConfigDict(extra="forbid")

    jobs: list[JobModel] = Field(min_length=1)


class ArrivalAck(BaseModel):
    session_id: str
    accepted: int
    jobs_accepted: int
    clock: float
    #: always 0: an accepted batch commits within its request
    queue_depth: int


class ActiveJobModel(BaseModel):
    """One live job in the clairvoyant shadow at query time."""

    id: int
    density: float
    remaining_volume: float


class SpeedsResponse(BaseModel):
    """The session's live speed view at ``t`` (from the incremental shadow).

    ``speed`` is Algorithm C's instantaneous speed ``P^{-1}(W^C(t))`` —
    the power-equals-remaining-weight rule the paper's algorithms all build
    on; ``remaining_weight`` is ``W^C(t)`` itself.
    """

    session_id: str
    t: float
    remaining_weight: float
    speed: float
    active_jobs: list[ActiveJobModel]


class ScheduleResponse(BaseModel):
    session_id: str
    algorithm: str
    n_jobs: int
    schedule: ScheduleModel


class MetricsResponse(BaseModel):
    session_id: str
    algorithm: str
    n_jobs: int
    report: ReportModel
    counters: dict[str, int]


class GanttResponse(BaseModel):
    session_id: str
    width: int
    end_time: float
    chart: str


class InvariantCheckModel(BaseModel):
    """One replayed paper invariant (Lemma 3 / Lemma 4)."""

    name: str
    holds: bool
    lhs: float
    rhs: float
    detail: str


class VerifiedReportResponse(BaseModel):
    """A verified report: the session's traced (C, NC) pair replayed through
    the streaming verifier, Lemma 3/4 checked from the trace alone."""

    session_id: str
    ok: bool
    n_events: int
    checks: list[InvariantCheckModel]
    energies: dict[str, float]
    order_violations: list[str]


# -- sharded campaigns --------------------------------------------------------


class CampaignRequest(BaseModel):
    """Launch a sharded parallel-machine campaign on the worker pool.

    The instance is generated deterministically from ``(n_jobs, seed)`` via
    :func:`repro.workloads.random_instance` unless explicit ``jobs`` are
    given.  ``force_serial`` computes shards in-process (the default: cheap
    and deterministic for API use); ``force_serial=False`` dispatches to the
    supervised multiprocessing pool of :mod:`repro.runtime.pool`.
    """

    model_config = ConfigDict(extra="forbid")

    campaign_id: Optional[str] = Field(default=None, min_length=1, max_length=128)
    algorithm: Literal["nc_par", "c_par"] = "nc_par"
    machines: int = Field(default=4, ge=1, le=4096)
    n_jobs: int = Field(default=20, ge=1, le=200000)
    seed: int = 1
    alpha: float = Field(default=3.0, gt=1.0)
    jobs: list[JobModel] = Field(default_factory=list)
    n_shards: Optional[int] = Field(default=None, ge=1)
    workers: int = Field(default=2, ge=1, le=64)
    force_serial: bool = True


class CampaignStatus(BaseModel):
    """Lifecycle of one campaign: ``running`` -> ``done`` | ``failed``."""

    campaign_id: str
    state: Literal["running", "done", "failed"]
    algorithm: str
    machines: int
    n_jobs: int
    shards: Optional[int] = None
    resumed: Optional[int] = None
    bit_identical: Optional[bool] = None
    report: Optional[ReportModel] = None
    error: Optional[str] = None


class ErrorModel(BaseModel):
    detail: str


def error_payload(detail: str) -> dict[str, Any]:
    return ErrorModel(detail=detail).model_dump()
