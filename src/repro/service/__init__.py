"""Scheduling-as-a-service: the paper's algorithms behind an async API.

The non-clairvoyant model made operational — multi-tenant sessions accept
jobs as online arrivals in bounded (backpressured) batches, journal
every committed batch to a per-session write-ahead log, and answer live
speed/schedule/metrics/Gantt queries, verified Lemma 3/4 reports, and
sharded parallel-machine campaigns.  Crashed services restore bit-identical
sessions by replaying their journals.  See ``docs/service.md``.

Requires the ``service`` extra (pydantic); the HTTP layer
(:mod:`repro.service.asgi`) and the journal (:mod:`repro.service.journal`)
are dependency-free, so this package resolves its attributes lazily —
importing a pydantic-free submodule never pulls pydantic in.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "create_app",
    "App",
    "ClientResponse",
    "ConnectionAborted",
    "HTTPError",
    "Request",
    "Response",
    "TestClient",
    "serve",
    "Backpressure",
    "Campaign",
    "CampaignPruned",
    "RateLimited",
    "RestoreReport",
    "Session",
    "SessionClosed",
    "SessionGone",
    "SessionJournal",
    "SessionManager",
    "StoreFull",
]

_ASGI = {
    "App",
    "ClientResponse",
    "ConnectionAborted",
    "HTTPError",
    "Request",
    "Response",
    "TestClient",
    "serve",
}
_SESSIONS = {
    "Backpressure",
    "Campaign",
    "CampaignPruned",
    "RateLimited",
    "RestoreReport",
    "Session",
    "SessionClosed",
    "SessionGone",
    "SessionManager",
    "StoreFull",
}


def __getattr__(name: str) -> Any:
    if name == "create_app":
        from .app import create_app

        return create_app
    if name in _ASGI:
        from . import asgi

        return getattr(asgi, name)
    if name in _SESSIONS:
        from . import sessions

        return getattr(sessions, name)
    if name == "SessionJournal":
        from .journal import SessionJournal

        return SessionJournal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
