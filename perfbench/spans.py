"""Span-recording shims around the public entry points of each layer.

``install()`` wraps the functions and methods listed in ``SHIMS`` so that
every call records one span: a count, the span's wall time, and its *self*
time (wall time minus the time of the spans it caused).  Spans stay in
memory; ``snapshot()`` returns the totals and ``reset()`` clears them.

Nothing in the package under test changes: module-level functions are
replaced in every loaded ``repro`` module that imported them by name, and
methods are replaced on their class.  The parent span is tracked in a
``ContextVar``, so the spans of concurrent asyncio tasks (one per HTTP
connection in the server) never adopt each other as children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

#: name -> [count, total seconds, self seconds]
_STATS: dict[str, list] = {}
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_INSTALLED: list[tuple[Any, str, Any]] = []


class _Frame:
    __slots__ = ("child", "name", "parent")

    def __init__(self, name: str, parent: "_Frame | None") -> None:
        self.child = 0.0
        self.name = name
        self.parent = parent


def _inside(name: str) -> bool:
    """Whether a span called ``name`` is open in the current context."""
    frame = _CURRENT.get()
    while frame is not None:
        if frame.name == name:
            return True
        frame = frame.parent
    return False


def _close(name: str, parent: _Frame | None, frame: _Frame, token: Any, t0: float) -> None:
    dt = time.perf_counter() - t0
    _CURRENT.reset(token)
    if parent is not None:
        parent.child += dt
    st = _STATS.get(name)
    if st is None:
        st = _STATS[name] = [0, 0.0, 0.0]
    st[0] += 1
    st[1] += dt
    st[2] += dt - frame.child


def _wrap(fn: Callable, name: str | Callable[..., str]) -> Callable:
    """Wrap ``fn`` (sync, async or generator); ``name`` may be computed
    from the call's arguments."""
    namer = name if callable(name) else (lambda *a, **k: name)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            label = namer(*args, **kwargs)
            parent = _CURRENT.get()
            frame = _Frame(label, parent)
            token = _CURRENT.set(frame)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _close(label, parent, frame, token, t0)

        return async_wrapper

    if inspect.isgeneratorfunction(fn):
        # One span per item pulled: the time is spent producing items, and
        # the consumer's own work between pulls is not this layer's.
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            label = namer(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                parent = _CURRENT.get()
                frame = _Frame(label, parent)
                token = _CURRENT.set(frame)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    _close(label, parent, frame, token, t0)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        label = namer(*args, **kwargs)
        parent = _CURRENT.get()
        frame = _Frame(label, parent)
        token = _CURRENT.set(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _close(label, parent, frame, token, t0)

    return wrapper


def request_class(method: str, path: str) -> str:
    """The benchmark's request classes, by route."""
    if method == "POST" and path.endswith("/jobs"):
        return "submit"
    if method == "GET" and path.endswith("/speeds"):
        return "speeds"
    if method == "GET" and path.endswith("/metrics"):
        return "metrics"
    if method == "POST" and path.rstrip("/") == "/sessions":
        return "create"
    return "other"


def _handle_name(app: Any, request: Any) -> str:
    return "asgi.handle." + request_class(request.method, request.path)


def _submit_name(*args: Any, **kwargs: Any) -> str:
    # Restore replays journals through Session.submit; keep that work apart
    # from the submits the HTTP path makes.
    return "sessions.restore_submit" if _inside("sessions.restore") else "sessions.submit"


#: (module, attribute, span name).  ``Class.method`` attributes are patched
#: on the class; plain functions in every ``repro`` module holding them.
SHIMS: tuple[tuple[str, str, Any], ...] = (
    ("repro.core.shadow", "ClairvoyantShadow.advance", "shadow.advance"),
    ("repro.core.shadow", "ClairvoyantShadow.query_with_job", "shadow.query"),
    ("repro.core.shadow", "PrefixWeightOracle.weight_at", "shadow.query"),
    ("repro.core.shadow", "ClairvoyantShadow.insert_job", "shadow.other"),
    ("repro.core.shadow", "ClairvoyantShadow.checkpoint", "shadow.other"),
    ("repro.core.shadow", "ClairvoyantShadow.rollback", "shadow.other"),
    ("repro.core.shadow", "ClairvoyantShadow.materialize", "shadow.other"),
    ("repro.core.engine", "NumericEngine.run", "engine.run"),
    ("repro.algorithms.nc_general", "NCGeneralPolicy.speed", "nc_general.policy"),
    ("repro.algorithms.clairvoyant", "simulate_clairvoyant", "clairvoyant.run"),
    ("repro.algorithms.nc_uniform", "simulate_nc_uniform", "nc_uniform.run"),
    ("repro.algorithms.nc_general", "simulate_nc_general", "nc_general.run"),
    ("repro.core.metrics", "evaluate", "metrics.evaluate"),
    ("repro.core.tracing", "JsonlRecorder.emit", "tracing.emit"),
    ("repro.core.tracing", "iter_trace", "tracing.decode"),
    ("repro.analysis.trace_report", "build_report", "verify.build_report"),
    ("repro.service.asgi", "App.handle", _handle_name),
    ("repro.service.models", "ArrivalRequest.model_validate", "models.validate"),
    ("repro.service.models", "SessionCreateRequest.model_validate", "models.validate"),
    ("repro.service.sessions", "Session.submit", _submit_name),
    ("repro.service.sessions", "Session.speeds", "sessions.speeds"),
    ("repro.service.sessions", "Session.metrics", "sessions.metrics"),
    ("repro.service.sessions", "SessionManager.restore", "sessions.restore"),
    ("repro.service.journal", "SessionJournal.append", "journal.append"),
    ("repro.service.journal", "read_journal", "journal.read"),
)


def _patch_function(module: Any, attr: str, name: Any) -> None:
    original = getattr(module, attr)
    wrapped = _wrap(original, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
                _INSTALLED.append((mod, key, original))


def _patch_method(cls: type, attr: str, name: Any) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, classmethod):
        bound = getattr(cls, attr)
        timed = _wrap(bound, name)
        setattr(cls, attr, classmethod(lambda _cls, *a, **k: timed(*a, **k)))
    else:
        setattr(cls, attr, _wrap(raw, name))
    _INSTALLED.append((cls, attr, raw))


def install() -> None:
    """Install every shim whose module is importable.  All modules are
    imported first, so every by-name import of a wrapped function exists
    by the time it is replaced."""
    if _INSTALLED:
        return
    modules = {}
    for module_name, _, _ in SHIMS:
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:  # e.g. the service extra (pydantic) is absent
            pass
    for module_name, attr, name in SHIMS:
        module = modules.get(module_name)
        if module is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            _patch_method(getattr(module, cls_name), meth, name)
        else:
            _patch_function(module, attr, name)


def uninstall() -> None:
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)


def reset() -> None:
    _STATS.clear()


def snapshot() -> dict[str, list]:
    """``{span name: [count, total_s, self_s]}`` recorded so far."""
    return {name: list(st) for name, st in sorted(_STATS.items())}
