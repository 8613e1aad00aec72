"""A dependency-free HTTP micro-framework for :mod:`repro.service`.

The service layer is written FastAPI-style — typed pydantic request/response
models, path-templated routes, JSON errors — but the HTTP plumbing underneath
is this module, not FastAPI: standard-library asyncio only, so the service
runs anywhere the core package runs.

Every request reaches the routes one way: as a :class:`Request` passed to
:meth:`App.handle`, which returns a :class:`Response`.  Three entry points
build that request:

* :func:`serve` — the built-in asyncio HTTP/1.1 server (one request per
  connection, ``Connection: close``).  :func:`read_request` is its one
  parser; malformed input, over-long lines included, is answered with a JSON
  400 by the same writer that sends every other response.
* :func:`call` — one in-process request, no sockets; the substrate of
  :class:`TestClient` and of the in-process service benchmarks.
* :meth:`App.__call__` — the ASGI adapter, so any ASGI server can host the
  app (``uvicorn --factory repro.service:create_app``).  It is the only code
  that reads or writes ASGI messages.

Paths stay percent-encoded until :meth:`App._match` splits them on ``/``
and decodes each segment exactly once, so a session id containing ``%``,
``/``, spaces or non-ASCII text is reachable through every entry point.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from functools import partialmethod
from http import HTTPStatus
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, quote, unquote

__all__ = [
    "ConnectionAborted",
    "HTTPError",
    "Request",
    "Response",
    "App",
    "call",
    "ClientResponse",
    "TestClient",
    "read_request",
    "serve",
]

class ConnectionAborted(Exception):
    """Tear the connection down without completing the response.

    The escape hatch the ``connection_drop`` service fault uses: unlike
    every other exception, :meth:`App.handle` re-raises it, the socket
    server answers with a torn partial response and closes, and
    :func:`call` propagates it to the in-process caller.  Session state
    is untouched — the request never reached (or never finished) its
    handler's commit point.
    """


class HTTPError(Exception):
    """Abort the current handler with an HTTP status and a JSON detail.

    ``headers`` ride onto the error response — how 429 carries
    ``Retry-After``.
    """

    def __init__(
        self, status: int, detail: str, *, headers: dict[str, str] | None = None
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers

    def response(self) -> Response:
        """The JSON error response this error stands for."""
        return Response({"detail": self.detail}, status=self.status, headers=self.headers)


@dataclass
class Request:
    """One parsed HTTP request.  ``path`` is still percent-encoded;
    ``path_params`` are bound (and decoded) by :meth:`App.handle`."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    path_params: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """The request body as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc

    def query_float(self, name: str, default: float | None = None) -> float | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise HTTPError(400, f"query parameter {name!r} must be a number, got {raw!r}") from exc

    def query_int(self, name: str, default: int | None = None) -> int | None:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise HTTPError(400, f"query parameter {name!r} must be an integer, got {raw!r}") from exc


class Response:
    """A JSON response.  ``payload`` may be a pydantic model, a dict/list, or
    ``None`` (empty body); models are serialized with ``model_dump_json`` so
    floats keep their shortest-repr exact round-trip.  ``headers`` are extra
    response headers (e.g. ``Retry-After`` on a 429)."""

    def __init__(
        self,
        payload: Any = None,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.status = status
        if payload is None:
            self.body = b""
        elif hasattr(payload, "model_dump_json"):
            self.body = payload.model_dump_json().encode("utf-8")
        else:
            self.body = json.dumps(payload).encode("utf-8")
        self.content_type = "application/json"
        self.headers = dict(headers) if headers else {}

    def header_fields(self) -> list[tuple[str, str]]:
        """Every header of this response, names lower-case, in wire order."""
        return [
            ("content-type", self.content_type),
            ("content-length", str(len(self.body))),
            *((k.lower(), v) for k, v in self.headers.items()),
        ]


Handler = Callable[[Request], Awaitable[Response]]
Message = dict[str, Any]


def _split(path: str) -> tuple[str, ...]:
    return tuple(p for p in path.split("/") if p)


class App:
    """Method + path-template router, also an ASGI ``http``/``lifespan`` app.

    Routes are registered with ``@app.route("GET", "/sessions/{session_id}")``;
    ``{name}`` segments bind into ``request.path_params``.  Handler errors map
    to JSON bodies: :class:`HTTPError` keeps its status, pydantic validation
    errors become 422, anything else a 500 with the exception text (an
    ``OSError``'s reason only, never the server path it names).

    ``request_timeout`` is the per-request deadline: a handler (plus the
    ``gates``) exceeding it is **cancelled cleanly** — ``asyncio.wait_for``
    cancels the handler task, its ``async with lock`` blocks unwind — and
    the client gets 504.  ``gates`` are awaited before every matched handler
    inside the same deadline; the service fault injector installs its
    ``slow_handler`` / ``connection_drop`` channels there.
    """

    def __init__(self, *, request_timeout: float | None = None) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []
        self.on_startup: list[Callable[[], Awaitable[None]]] = []
        self.on_shutdown: list[Callable[[], Awaitable[None]]] = []
        self.state: dict[str, Any] = {}
        self.request_timeout = request_timeout
        self.gates: list[Callable[[Request], Awaitable[None]]] = []

    def route(self, method: str, path: str) -> Callable[[Handler], Handler]:
        def register(handler: Handler) -> Handler:
            self._routes.append((method.upper(), _split(path), handler))
            return handler

        return register

    async def startup(self) -> None:
        for hook in self.on_startup:
            await hook()

    async def shutdown(self) -> None:
        for hook in self.on_shutdown:
            await hook()

    # -- routing --------------------------------------------------------------

    def _match(self, method: str, path: str) -> tuple[Handler, dict[str, str]]:
        # The one place a path is percent-decoded: per segment, after the
        # split, so an encoded "/" stays inside its segment.
        parts = tuple(unquote(p) for p in _split(path))
        path_found = False
        for route_method, pattern, handler in self._routes:
            if len(pattern) != len(parts):
                continue
            params: dict[str, str] = {}
            for pat, got in zip(pattern, parts):
                if pat.startswith("{") and pat.endswith("}"):
                    params[pat[1:-1]] = got
                elif pat != got:
                    break
            else:
                path_found = True
                if route_method == method:
                    return handler, params
        if path_found:
            raise HTTPError(405, f"method {method} not allowed on {path}")
        raise HTTPError(404, f"no route for {method} {path}")

    async def handle(self, request: Request) -> Response:
        """Dispatch one request to its handler, mapping errors to JSON."""
        try:
            handler, params = self._match(request.method, request.path)
            request.path_params = params

            async def _invoke() -> Response:
                for gate in self.gates:
                    await gate(request)
                return await handler(request)

            if self.request_timeout is not None:
                try:
                    return await asyncio.wait_for(_invoke(), self.request_timeout)
                except asyncio.TimeoutError:
                    return Response(
                        {
                            "detail": f"request exceeded the "
                            f"{self.request_timeout:g}s deadline; handler cancelled"
                        },
                        status=504,
                    )
            return await _invoke()
        except ConnectionAborted:
            raise  # the server layer tears the connection down
        except HTTPError as exc:
            return exc.response()
        except Exception as exc:  # noqa: BLE001 — the service must not crash
            errors = getattr(exc, "errors", None)
            if type(exc).__name__ == "ValidationError" and callable(errors):
                detail = "; ".join(
                    f"{'.'.join(str(p) for p in e.get('loc', ()))}: {e.get('msg', '?')}"
                    for e in errors()
                )
                return Response({"detail": f"validation failed: {detail}"}, status=422)
            reason = (exc.strerror or "I/O error") if isinstance(exc, OSError) else exc
            return Response({"detail": f"{type(exc).__name__}: {reason}"}, status=500)

    # -- ASGI adapter ---------------------------------------------------------

    async def __call__(
        self,
        scope: Message,
        receive: Callable[[], Awaitable[Message]],
        send: Callable[[Message], Awaitable[None]],
    ) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                if message["type"] == "lifespan.startup":
                    await self.startup()
                    await send({"type": "lifespan.startup.complete"})
                elif message["type"] == "lifespan.shutdown":
                    await self.shutdown()
                    await send({"type": "lifespan.shutdown.complete"})
                    return
        elif scope["type"] == "http":
            body = b""
            while True:
                message = await receive()
                body += message.get("body", b"")
                if not message.get("more_body", False):
                    break
            raw_path = scope.get("raw_path")
            # ``path`` arrives decoded; re-encode it so that _match's decode
            # is the only one (an encoded "/" is lost without ``raw_path``).
            path = raw_path.decode("latin-1") if raw_path else quote(scope["path"])
            request = Request(
                method=scope["method"].upper(),
                path=path,
                query=dict(parse_qsl(scope.get("query_string", b"").decode("latin-1"))),
                headers={
                    k.decode("latin-1").lower(): v.decode("latin-1")
                    for k, v in scope.get("headers", [])
                },
                body=body,
            )
            response = await self.handle(request)
            await send(
                {
                    "type": "http.response.start",
                    "status": response.status,
                    "headers": [
                        (k.encode("latin-1"), v.encode("latin-1"))
                        for k, v in response.header_fields()
                    ],
                }
            )
            await send({"type": "http.response.body", "body": response.body})
        else:  # pragma: no cover — websockets etc. are out of scope
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")


# -- in-process client --------------------------------------------------------


@dataclass
class ClientResponse:
    """What :func:`call` hands back for one request."""

    status_code: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body) if self.body else None


async def call(
    app: App,
    method: str,
    path: str,
    *,
    json_body: Any = None,
    query: str = "",
    headers: dict[str, str] | None = None,
) -> ClientResponse:
    """Run one request through ``app.handle`` without sockets.  ``path`` and
    ``query`` are taken as sent on the wire (percent-encoded)."""
    request = Request(
        method=method.upper(),
        path=path,
        query=dict(parse_qsl(query)),
        headers={k.lower(): v for k, v in (headers or {}).items()},
        body=b"" if json_body is None else json.dumps(json_body).encode("utf-8"),
    )
    response = await app.handle(request)
    return ClientResponse(response.status, dict(response.header_fields()), response.body)


class TestClient:
    """Synchronous in-process client over one private event loop.

    One loop for the client's whole lifetime, so the app's asyncio state
    (locks, queues, background campaign tasks) stays on a single loop across
    requests — the same invariant a real server provides.  Use as a context
    manager to get startup/shutdown.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, app: App) -> None:
        self.app = app
        self._loop = asyncio.new_event_loop()

    def __enter__(self) -> "TestClient":
        self._loop.run_until_complete(self.app.startup())
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._loop.run_until_complete(self.app.shutdown())
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    def request(
        self,
        method: str,
        path: str,
        *,
        json_body: Any = None,
        query: str = "",
        headers: dict[str, str] | None = None,
    ) -> ClientResponse:
        return self._loop.run_until_complete(
            call(self.app, method, path, json_body=json_body, query=query, headers=headers)
        )

    get = partialmethod(request, "GET")
    post = partialmethod(request, "POST")
    delete = partialmethod(request, "DELETE")


# -- minimal asyncio HTTP/1.1 server ------------------------------------------

#: Distinct header names one request may carry; each line is bounded by the
#: reader's line limit, so this bounds a request head's memory.
_MAX_HEADERS = 100
#: How long a connection whose request failed to parse drains the rest of
#: its input before closing.
_LINGER_S = 2.0
_CONTENT_LENGTH = re.compile(r"[0-9]{1,9}")


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # readline's error for a line over the reader's limit
        raise HTTPError(400, f"{what} too long: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one HTTP/1.1 request (head and ``Content-Length`` body).

    Returns ``None`` when the peer closed before sending a byte; malformed
    input raises :class:`HTTPError` with status 400.
    """
    line = await _read_line(reader, "request line")
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise HTTPError(400, f"malformed request line {line[:80]!r}") from None
    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise HTTPError(400, f"malformed header line {line[:80]!r}")
        if len(headers) == _MAX_HEADERS:
            raise HTTPError(400, f"more than {_MAX_HEADERS} distinct headers")
        headers[name.strip().decode("latin-1").lower()] = value.strip().decode("latin-1")
    if "transfer-encoding" in headers:
        raise HTTPError(400, "transfer-encoding is not supported; send content-length")
    length = headers.get("content-length", "0")
    if not _CONTENT_LENGTH.fullmatch(length):
        raise HTTPError(400, f"invalid content-length {length[:80]!r}")
    try:
        body = await reader.readexactly(int(length))
    except asyncio.IncompleteReadError as exc:
        raise HTTPError(
            400, f"body ended after {len(exc.partial)} of {length} bytes"
        ) from None
    path, _, query = target.partition("?")
    return Request(method.upper(), path, dict(parse_qsl(query)), headers, body)


def _encode(response: Response) -> bytes:
    lines = [f"HTTP/1.1 {response.status} {HTTPStatus(response.status).phrase}"]
    lines.extend(f"{k}: {v}" for k, v in response.header_fields())
    lines.append("connection: close\r\n\r\n")
    return "\r\n".join(lines).encode("latin-1") + response.body


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(1 << 16):
        pass


async def _handle_connection(
    app: App, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        try:
            request = await read_request(reader)
        except HTTPError as exc:
            # Part of the request may be unread.  Closing with unread input
            # resets the connection, which can destroy the 400 before the
            # client reads it, so half-close and drain the input first.
            writer.write(_encode(exc.response()))
            writer.write_eof()
            await asyncio.wait_for(_discard(reader), _LINGER_S)
            return
        if request is not None:
            try:
                writer.write(_encode(await app.handle(request)))
            except ConnectionAborted:
                # The connection_drop fault: tear the response off mid-status-
                # line so the client sees a truncated response, then close.
                writer.write(b"HTTP/1.1 ")
        await writer.drain()
    except (ConnectionError, asyncio.TimeoutError):  # pragma: no cover — peer gone or stalled
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass


async def serve(
    app: App,
    host: str = "127.0.0.1",
    port: int = 8176,
    *,
    ready: asyncio.Event | None = None,
    shutdown_trigger: asyncio.Event | None = None,
    drain_timeout: float = 5.0,
) -> None:
    """Serve ``app`` over a plain asyncio socket server until cancelled.

    Runs the app's startup hooks first and its shutdown hooks on the way out
    (including cancellation), so per-session trace sinks and journals are
    flushed whenever the server stops.  ``ready`` is set once the socket is
    listening; ``shutdown_trigger`` — when given — stops the server cleanly
    when set (``repro serve`` wires SIGTERM/SIGINT to it; tests use it
    instead of task cancellation).

    Orderly stop drains: once the trigger fires, the listener closes (no new
    connections) and every in-flight request gets up to ``drain_timeout``
    seconds to finish before the app's shutdown hooks run — an in-progress
    ``submit`` commits (or fails) completely, never half-journaled.
    """
    await app.startup()
    connections: set[asyncio.Task[Any]] = set()

    async def _connection(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            connections.add(task)
        try:
            await _handle_connection(app, r, w)
        finally:
            if task is not None:
                connections.discard(task)

    server = await asyncio.start_server(_connection, host, port)
    try:
        if ready is not None:
            ready.set()
        async with server:
            if shutdown_trigger is None:
                await server.serve_forever()
            else:
                await shutdown_trigger.wait()
    finally:
        server.close()
        pending = {t for t in connections if not t.done()}
        if pending:
            _done, still_running = await asyncio.wait(pending, timeout=drain_timeout)
            for task in still_running:
                task.cancel()
        await app.shutdown()
