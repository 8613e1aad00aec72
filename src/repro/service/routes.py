"""HTTP routes of the scheduling service.

Thin translation layer: parse/validate the pydantic request model, call the
:class:`~repro.service.sessions.SessionManager`, wrap the result in the
response model.  Domain errors map onto stable statuses:

========================================  ======
condition                                 status
========================================  ======
unknown session / campaign id             404
duplicate id, closed session,             409
out-of-order release, empty session,
non-uniform verified report
evicted session, pruned campaign          410
arrival batch longer than queue_limit     429
session-create rate limit exceeded        429 (+ Retry-After)
pydantic validation failure               422
session store at admission limit          503
request exceeded its deadline             504
========================================  ======

404 vs 410 is a real distinction for clients: 404 means the id was never
here (typo, wrong server), 410 means it *was* here and is durably gone
(evicted, or a campaign pruned past retention) — retrying will never help,
recreate instead.
"""

from __future__ import annotations

import math

from ..analysis.gantt import gantt_chart
from ..core.errors import InvalidInstanceError, SimulationError
from ..core.metrics import CostReport
from .asgi import App, HTTPError, Request, Response
from .models import (
    SESSION_ALGORITHMS,
    ActiveJobModel,
    ArrivalAck,
    ArrivalRequest,
    CampaignRequest,
    CampaignStatus,
    GanttResponse,
    InvariantCheckModel,
    JobModel,
    MetricsResponse,
    ReportModel,
    ScheduleModel,
    ScheduleResponse,
    SessionCreateRequest,
    SessionInfo,
    SpeedsResponse,
    VerifiedReportResponse,
)
from .sessions import (
    Backpressure,
    Campaign,
    CampaignPruned,
    RateLimited,
    Session,
    SessionClosed,
    SessionGone,
    SessionManager,
    StoreFull,
)

__all__ = ["register_routes"]


def _session_info(session: Session) -> SessionInfo:
    return SessionInfo(
        session_id=session.session_id,
        algorithm=session.algorithm,
        alpha=session.power.alpha,
        clock=session.clock,
        jobs_accepted=session.jobs_accepted,
        queue_depth=0,
        queue_limit=session.queue_limit,
        closed=session.closed,
        trace_paths=session.trace_paths,
    )


def _campaign_status(campaign: Campaign) -> CampaignStatus:
    result = campaign.result or {}
    report = result.get("report")
    return CampaignStatus(
        campaign_id=campaign.campaign_id,
        state=campaign.state,  # type: ignore[arg-type]
        algorithm=campaign.request.algorithm,
        machines=campaign.request.machines,
        n_jobs=result.get("n_jobs", campaign.request.n_jobs),
        shards=result.get("shards"),
        resumed=result.get("resumed"),
        bit_identical=result.get("bit_identical"),
        report=ReportModel.from_report(report) if isinstance(report, CostReport) else None,
        error=campaign.error,
    )


def register_routes(app: App, manager: SessionManager) -> None:
    """Attach every service route to ``app`` against ``manager``."""

    def get_session(request: Request) -> Session:
        sid = request.path_params["session_id"]
        try:
            return manager.get_session(sid)
        except SessionGone as exc:
            raise HTTPError(410, str(exc)) from exc
        except KeyError as exc:
            raise HTTPError(404, exc.args[0]) from exc

    # -- service meta ---------------------------------------------------------

    @app.route("GET", "/health")
    async def health(request: Request) -> Response:
        await manager.sweep()
        payload: dict[str, object] = {
            "status": "ok",
            "sessions": len(manager.sessions),
            "campaigns": len(manager.campaigns),
            "evicted": len(manager.evicted),
            "pruned_campaigns": len(manager.pruned_campaigns),
        }
        if manager.last_restore is not None:
            payload["restore"] = {
                "restored": len(manager.last_restore.restored),
                "closed": len(manager.last_restore.closed),
                "evicted": len(manager.last_restore.evicted),
                "quarantined": len(manager.last_restore.skipped),
            }
        return Response(payload)

    @app.route("GET", "/algorithms")
    async def algorithms(request: Request) -> Response:
        return Response(
            {
                "session": list(SESSION_ALGORITHMS),
                "campaign": ["nc_par", "c_par"],
            }
        )

    # -- sessions -------------------------------------------------------------

    @app.route("POST", "/sessions")
    async def create_session(request: Request) -> Response:
        spec = SessionCreateRequest.model_validate(request.json())
        client_key = request.headers.get("x-client-key", "anonymous")
        try:
            session = await manager.create_session(spec, client_key=client_key)
        except RateLimited as exc:
            raise HTTPError(
                429,
                str(exc),
                headers={"retry-after": str(max(1, math.ceil(exc.retry_after)))},
            ) from exc
        except StoreFull as exc:
            raise HTTPError(503, str(exc)) from exc
        except KeyError as exc:
            raise HTTPError(409, exc.args[0]) from exc
        except (SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(_session_info(session), status=201)

    @app.route("GET", "/sessions")
    async def list_sessions(request: Request) -> Response:
        return Response(
            {
                "sessions": [
                    _session_info(s).model_dump() for s in manager.sessions.values()
                ]
            }
        )

    @app.route("GET", "/sessions/{session_id}")
    async def session_info(request: Request) -> Response:
        return Response(_session_info(get_session(request)))

    @app.route("DELETE", "/sessions/{session_id}")
    async def delete_session(request: Request) -> Response:
        sid = request.path_params["session_id"]
        try:
            session = await manager.delete_session(sid)
        except SessionGone as exc:
            raise HTTPError(410, str(exc)) from exc
        except KeyError as exc:
            raise HTTPError(404, exc.args[0]) from exc
        return Response(_session_info(session))

    @app.route("POST", "/sessions/{session_id}/jobs")
    async def stream_jobs(request: Request) -> Response:
        session = get_session(request)
        batch = ArrivalRequest.model_validate(request.json())
        try:
            accepted = await session.submit([j.to_job() for j in batch.jobs])
        except Backpressure as exc:
            raise HTTPError(429, str(exc)) from exc
        except (SessionClosed, SimulationError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            ArrivalAck(
                session_id=session.session_id,
                accepted=accepted,
                jobs_accepted=session.jobs_accepted,
                clock=session.clock,
                queue_depth=0,
            ),
            status=202,
        )

    @app.route("GET", "/sessions/{session_id}/speeds")
    async def speeds(request: Request) -> Response:
        session = get_session(request)
        try:
            view = await session.speeds(request.query_float("t"))
        except (SessionClosed, SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            SpeedsResponse(
                session_id=session.session_id,
                t=view["t"],
                remaining_weight=view["remaining_weight"],
                speed=view["speed"],
                active_jobs=[
                    ActiveJobModel(id=jid, density=den, remaining_volume=rem)
                    for jid, den, rem in view["active"]
                ],
            )
        )

    @app.route("GET", "/sessions/{session_id}/schedule")
    async def schedule(request: Request) -> Response:
        session = get_session(request)
        try:
            sched, n_jobs = await session.schedule()
        except (SessionClosed, SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            ScheduleResponse(
                session_id=session.session_id,
                algorithm=session.algorithm,
                n_jobs=n_jobs,
                schedule=ScheduleModel.from_schedule(sched),
            )
        )

    @app.route("GET", "/sessions/{session_id}/metrics")
    async def metrics(request: Request) -> Response:
        session = get_session(request)
        try:
            report, counters, n_jobs = await session.metrics()
        except (SessionClosed, SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            MetricsResponse(
                session_id=session.session_id,
                algorithm=session.algorithm,
                n_jobs=n_jobs,
                report=ReportModel.from_report(report),
                counters=counters,
            )
        )

    @app.route("GET", "/sessions/{session_id}/gantt")
    async def gantt(request: Request) -> Response:
        session = get_session(request)
        width = request.query_int("width", 72)
        assert width is not None
        if not 8 <= width <= 1024:
            raise HTTPError(400, f"width must be in [8, 1024], got {width}")
        try:
            sched, _ = await session.schedule()
        except (SessionClosed, SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            GanttResponse(
                session_id=session.session_id,
                width=width,
                end_time=sched.end_time,
                chart=gantt_chart(sched, width=width),
            )
        )

    @app.route("GET", "/sessions/{session_id}/report")
    async def verified_report(request: Request) -> Response:
        session = get_session(request)
        try:
            trace_report = await session.verified_report()
        except (SessionClosed, SimulationError, InvalidInstanceError) as exc:
            raise HTTPError(409, str(exc)) from exc
        return Response(
            VerifiedReportResponse(
                session_id=session.session_id,
                ok=trace_report.ok,
                n_events=trace_report.n_events,
                checks=[
                    InvariantCheckModel(
                        name=c.name, holds=c.holds, lhs=c.lhs, rhs=c.rhs, detail=c.detail
                    )
                    for c in trace_report.checks
                ],
                energies=dict(trace_report.energies),
                order_violations=list(trace_report.order_violations),
            )
        )

    @app.route("GET", "/sessions/{session_id}/instance")
    async def session_instance(request: Request) -> Response:
        session = get_session(request)
        return Response({"jobs": [JobModel.from_job(j).model_dump() for j in session.jobs]})

    # -- campaigns ------------------------------------------------------------

    @app.route("POST", "/campaigns")
    async def launch_campaign(request: Request) -> Response:
        spec = CampaignRequest.model_validate(request.json())
        try:
            campaign = await manager.launch_campaign(spec)
        except KeyError as exc:
            raise HTTPError(409, exc.args[0]) from exc
        return Response(_campaign_status(campaign), status=202)

    @app.route("GET", "/campaigns/{campaign_id}")
    async def campaign_status(request: Request) -> Response:
        try:
            campaign = manager.get_campaign(request.path_params["campaign_id"])
        except CampaignPruned as exc:
            return Response({"detail": str(exc), "final": exc.summary}, status=410)
        except KeyError as exc:
            raise HTTPError(404, exc.args[0]) from exc
        return Response(_campaign_status(campaign))

    @app.route("GET", "/campaigns")
    async def list_campaigns(request: Request) -> Response:
        return Response(
            {
                "campaigns": [
                    _campaign_status(c).model_dump() for c in manager.campaigns.values()
                ]
            }
        )
