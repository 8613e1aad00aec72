"""Structured tracing and metrics for the engine + shadow stack.

The speed rules of the paper are *state-coupled dynamics*: Algorithm C's
remaining weight drives NC-general's speed, NC-uniform's offsets are frozen
reads of a shadow C run, and one mis-ordered event silently changes every
number downstream.  The final :class:`~repro.core.engine.EngineResult` cannot
answer "which kernel fired at t=3.7, and why did NC diverge from C there" —
this module can.  It provides:

* :class:`TraceEvent` — one typed, timestamped record.  Every event carries
  the *simulation* time it describes, the *wall-clock* time it was emitted
  (relative to the recorder's creation, so per-phase wall-time breakdowns
  need no epoch bookkeeping), the emitting ``component`` (``"engine"``,
  ``"C"``, ``"NC"``, ``"shadow"``, ``"nc_general"``, ...) and a ``kind`` from
  :data:`EVENT_KINDS` with a kind-specific payload.
* :class:`TraceRecorder` — the protocol consumers emit through, with three
  implementations: :class:`NullRecorder` (the default; tracing off),
  :class:`MemoryRecorder` (in-process list, optionally a bounded ring
  buffer) and :class:`JsonlRecorder` (one JSON object per line, streamed to
  a pluggable :class:`TraceSink`).
* :class:`TraceSink` — where serialized events land.  :class:`FileSink`
  writes one plain JSONL file, :class:`GzipSink` a gzip-compressed one, and
  :class:`RotatingSink` a sequence of bounded segments.  Rotated segments
  are **self-contained**: the most recent ``run_meta`` header is replayed at
  the top of every new segment (flagged ``segment_header`` in its payload),
  so any single segment can be analyzed without its siblings, and
  :func:`iter_trace` reconstructs the original stream by skipping the
  replayed headers.
* :class:`MetricsRegistry` — a named-counter store.
  :class:`~repro.core.shadow.ShadowCounters` is a *view* over one of these,
  so ad-hoc counter ints and trace events share a single metrics substrate.

Durability contract
-------------------

``JsonlRecorder`` flushes and closes its sink on ``close()`` and on every
exit from its context manager — including exception exits — so a run that
dies mid-simulation leaves every fully emitted event on disk.  A process
killed outright (SIGKILL mid-shard) can still tear the *final* line; the
readers (:func:`iter_jsonl`, :func:`read_jsonl`, :func:`follow_jsonl`)
therefore tolerate one trailing partial line (and a truncated gzip stream),
yielding every complete event and dropping the torn tail — a truncated
trace is parseable, never poison.

Zero-overhead-when-off contract
-------------------------------

Hot loops must hoist the recorder once and guard every emission::

    rec = context.recorder
    rec = rec if rec.enabled else None
    ...
    if rec is not None:
        rec.emit("kernel_eval", t, "shadow", **trace_payload("decay", ...))

:class:`NullRecorder` advertises ``enabled = False``, so a run with tracing
off pays exactly one attribute read at setup — no event objects, no payload
dicts, no wall-clock calls.  ``benchmarks/bench_tracing_overhead.py`` holds
this to within a few percent of the untraced baseline.

Ordering contract
-----------------

Within one ``(component, kind)`` stream, events are emitted in nondecreasing
``sim_time`` order — except across a ``shadow_rollback`` / ``shadow_rebuild``
/ ``retry`` boundary, which by construction rewinds the emitting component's
clock (the whole point of those events is to mark exactly where time was
rewound; ``retry`` is the supervisor restarting a failed attempt from a
checkpoint).  ``tests/test_tracing.py`` enforces this.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    TextIO,
    runtime_checkable,
)

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "MemoryRecorder",
    "JsonlRecorder",
    "TraceSink",
    "FileSink",
    "GzipSink",
    "RotatingSink",
    "make_sink",
    "rotated_paths",
    "MetricsRegistry",
    "read_jsonl",
    "iter_jsonl",
    "iter_trace",
    "follow_jsonl",
]

#: The closed set of event kinds.  ``run_meta`` is the self-description header
#: a harness writes before a traced run (instance, alpha, algorithm) so a
#: JSONL trace is replayable without out-of-band context.
#: ``backend_selected`` is retired (kernel backends no longer exist and
#: nothing emits it) but stays in the set so traces that carry it still
#: parse and replay.  ``fault_injected``
#: marks every firing of a :mod:`repro.faults` injector, and
#: ``guard_violation`` / ``retry`` / ``recovery`` / ``degraded_mode`` narrate
#: the supervisor's response (:mod:`repro.runtime.supervisor`).
#:
#: The shard lifecycle kinds narrate the sharded parallel-machine layer
#: (:mod:`repro.runtime.pool`, :mod:`repro.parallel.shard`): a
#: ``shard_dispatch`` per shard handed to a worker, ``worker_heartbeat``
#: liveness ticks, ``worker_lost`` when a worker dies or times out,
#: ``shard_redispatch`` when its shard is retried elsewhere,
#: ``pool_degraded`` when the pool falls back to the serial path, and
#: ``shard_checkpoint`` for durable per-shard snapshot saves/loads.
#: ``run_timeout`` marks a chaos-campaign run cut off by its wall-clock
#: budget (:mod:`repro.runtime.chaos`).
#:
#: The service kinds narrate :mod:`repro.service` sessions: one ``arrival``
#: per job streamed into a live session and a final ``session_close`` when
#: the session's trace sink is flushed (DELETE or service shutdown).
EVENT_KINDS = frozenset(
    {
        "run_meta",
        "backend_selected",
        "release",
        "completion",
        "speed_change",
        "kernel_eval",
        "shadow_checkpoint",
        "shadow_rollback",
        "shadow_rebuild",
        "density_class_switch",
        "stall_guard_tick",
        "fault_injected",
        "guard_violation",
        "retry",
        "recovery",
        "degraded_mode",
        "shard_dispatch",
        "worker_heartbeat",
        "worker_lost",
        "shard_redispatch",
        "pool_degraded",
        "shard_checkpoint",
        "run_timeout",
        "arrival",
        "session_close",
        "session_evicted",
    }
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record.

    ``sim_time`` is the simulation clock the event describes; ``wall_time``
    is seconds since the recorder was created (monotone within a trace);
    ``component`` names the emitter; ``payload`` is kind-specific data, JSON
    representable by construction.
    """

    kind: str
    sim_time: float
    wall_time: float
    component: str
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "sim_time": self.sim_time,
                "wall_time": self.wall_time,
                "component": self.component,
                "payload": self.payload,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(
            kind=raw["kind"],
            sim_time=float(raw["sim_time"]),
            wall_time=float(raw["wall_time"]),
            component=raw["component"],
            payload=dict(raw.get("payload", {})),
        )


@runtime_checkable
class TraceRecorder(Protocol):
    """What the engine, shadow layer and algorithms emit through.

    ``enabled`` is the zero-overhead switch: consumers read it once per run
    (or per hot loop) and skip event construction entirely when it is False.
    ``emit`` stamps the wall clock and stores/serializes the event.
    """

    enabled: bool

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None: ...


class NullRecorder:
    """Tracing off: ``enabled`` is False and ``emit`` is a no-op.

    Consumers that honor the hoist-and-guard idiom never even call ``emit``;
    the method exists so un-hoisted call sites stay correct, just slower.
    """

    enabled: bool = False

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None:
        return None


#: Shared default recorder — stateless, so one instance serves every context.
NULL_RECORDER = NullRecorder()


class MemoryRecorder:
    """Collect events in an in-process list (tests, ad-hoc analysis).

    With ``maxlen`` set the store becomes a bounded ring buffer: the
    recorder keeps only the most recent ``maxlen`` events, so a long
    supervised session with in-process recording cannot grow without bound.
    Eviction silently drops the *oldest* events — replay-style consumers
    (schedule rebuild, lemma checks) need the full stream and should either
    leave ``maxlen`` unset or record through a :class:`JsonlRecorder`.
    ``dropped`` counts evictions so a consumer can tell a complete stream
    from a windowed one.
    """

    enabled: bool = True

    def __init__(self, maxlen: int | None = None) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        self.events: list[TraceEvent] | deque[TraceEvent] = (
            [] if maxlen is None else deque(maxlen=maxlen)
        )
        self.dropped = 0
        self._origin = time.perf_counter()

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        if self.maxlen is not None and len(self.events) == self.maxlen:
            self.dropped += 1
        self.events.append(
            TraceEvent(
                kind=kind,
                sim_time=float(sim_time),
                wall_time=time.perf_counter() - self._origin,
                component=component,
                payload=payload,
            )
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def events_of(self, kind: str, component: str | None = None) -> list[TraceEvent]:
        return [
            e
            for e in self.events
            if e.kind == kind and (component is None or e.component == component)
        ]


# -- sinks: where serialized events land --------------------------------------


@runtime_checkable
class TraceSink(Protocol):
    """Destination for serialized trace lines.

    ``write`` receives the event ``kind`` alongside the serialized line so
    structure-aware sinks (rotation) can honor the run_meta-per-segment
    contract without re-parsing every event.  ``flush``/``close`` are the
    explicit durability points; ``close`` must be idempotent.  ``paths``
    lists every file the sink has produced, in write order.
    """

    def write(self, kind: str, line: str) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...

    @property
    def paths(self) -> tuple[Path, ...]: ...


class FileSink:
    """One plain JSONL file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = self.path.open("w", encoding="utf-8")

    def write(self, kind: str, line: str) -> None:
        if self._fh is None:
            raise ValueError(f"FileSink({self.path}) is closed")
        self._fh.write(line + "\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def paths(self) -> tuple[Path, ...]:
        return (self.path,)


class GzipSink:
    """One gzip-compressed JSONL file (``*.jsonl.gz`` by convention).

    The readers autodetect compression from the gzip magic bytes, so the
    suffix is cosmetic; the path is used exactly as given.
    """

    def __init__(self, path: str | Path, *, compresslevel: int = 6) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = gzip.open(  # type: ignore[assignment]
            self.path, "wt", encoding="utf-8", compresslevel=compresslevel
        )

    def write(self, kind: str, line: str) -> None:
        if self._fh is None:
            raise ValueError(f"GzipSink({self.path}) is closed")
        self._fh.write(line + "\n")

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def paths(self) -> tuple[Path, ...]:
        return (self.path,)


class RotatingSink:
    """Bounded JSONL segments: ``trace.jsonl`` → ``trace.00000.jsonl``, ...

    A new segment starts once the current one holds ``max_events`` lines.
    Every segment after the first opens with a replay of the most recent
    ``run_meta`` event (its payload flagged ``"segment_header": true``), so
    each segment is *self-contained*: an analyzer holding only segment k
    still knows the instance and power function.  :func:`iter_trace` skips
    the flagged replays when stitching segments back into the original
    stream, so a report built over all segments is identical to one built
    over an unrotated file.
    """

    def __init__(self, path: str | Path, max_events: int) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.base = Path(path)
        self.max_events = max_events
        self._segment = -1
        self._count = 0
        self._fh: TextIO | None = None
        self._paths: list[Path] = []
        self._header: dict[str, Any] | None = None
        self._closed = False
        self._open_next()

    def _segment_path(self, index: int) -> Path:
        return self.base.with_name(f"{self.base.stem}.{index:05d}{self.base.suffix}")

    def _open_next(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._segment += 1
        path = self._segment_path(self._segment)
        self._fh = path.open("w", encoding="utf-8")
        self._paths.append(path)
        self._count = 0
        if self._segment > 0 and self._header is not None:
            replay = dict(self._header)
            replay["payload"] = {**dict(replay.get("payload", {})), "segment_header": True}
            self._fh.write(json.dumps(replay, sort_keys=True) + "\n")
            self._count = 1

    def write(self, kind: str, line: str) -> None:
        if self._closed or self._fh is None:
            raise ValueError(f"RotatingSink({self.base}) is closed")
        if kind == "run_meta":
            self._header = json.loads(line)
        if self._count >= self.max_events:
            self._open_next()
        self._fh.write(line + "\n")
        self._count += 1

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    @property
    def paths(self) -> tuple[Path, ...]:
        return tuple(self._paths)


def make_sink(path: str | Path, spec: str) -> TraceSink:
    """Build a sink from a CLI-style spec: ``plain`` | ``gzip`` | ``rotate:N``."""
    if spec == "plain":
        return FileSink(path)
    if spec == "gzip":
        return GzipSink(path)
    if spec.startswith("rotate:"):
        try:
            max_events = int(spec.split(":", 1)[1])
        except ValueError as err:
            raise ValueError(f"bad rotate spec {spec!r}: expected rotate:<int>") from err
        return RotatingSink(path, max_events)
    raise ValueError(f"unknown sink spec {spec!r} (expected plain, gzip, or rotate:N)")


def rotated_paths(base: str | Path) -> tuple[Path, ...]:
    """Segment files a :class:`RotatingSink` produced for ``base``, in order."""
    base = Path(base)
    pattern = f"{base.stem}.[0-9][0-9][0-9][0-9][0-9]{base.suffix}"
    return tuple(sorted(base.parent.glob(pattern)))


class JsonlRecorder:
    """Stream events as JSON lines through a :class:`TraceSink`.

    ``JsonlRecorder(path)`` keeps the historical behavior (one plain JSONL
    file); pass ``sink="gzip"``/``sink="rotate:N"`` (or a ready
    :class:`TraceSink`) for compressed or bounded-segment output.  Usable as
    a context manager — the sink is flushed and closed on *every* exit,
    exception paths included, so a crashed run still leaves a parseable
    trace.  :func:`read_jsonl` / :func:`iter_jsonl` round-trip the output
    back into :class:`TraceEvent` objects; for rotated output, read
    ``recorder.paths`` back through :func:`iter_trace`.
    """

    enabled: bool = True

    def __init__(self, path: str | Path, *, sink: TraceSink | str = "plain") -> None:
        self.path = Path(path)
        self._sink: TraceSink | None = (
            make_sink(path, sink) if isinstance(sink, str) else sink
        )
        self._origin = time.perf_counter()
        self._final_paths: tuple[Path, ...] = ()
        self.count = 0

    def emit(self, kind: str, sim_time: float, component: str, **payload: Any) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        if self._sink is None:
            raise ValueError(f"JsonlRecorder({self.path}) is closed")
        event = TraceEvent(
            kind=kind,
            sim_time=float(sim_time),
            wall_time=time.perf_counter() - self._origin,
            component=component,
            payload=payload,
        )
        self._sink.write(kind, event.to_json())
        self.count += 1

    @property
    def paths(self) -> tuple[Path, ...]:
        """Every file written (one, or the rotated segments); survives close."""
        if self._sink is None:
            return self._final_paths
        return self._sink.paths

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._final_paths = self._sink.paths
            self._sink.flush()
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- readers ------------------------------------------------------------------

_GZIP_MAGIC = b"\x1f\x8b"


def _open_trace(path: Path) -> TextIO:
    with path.open("rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        fh: TextIO = gzip.open(path, "rt", encoding="utf-8")  # type: ignore[assignment]
        return fh
    return path.open("r", encoding="utf-8")


def iter_jsonl(path: str | Path) -> Iterator[TraceEvent]:
    """Stream a trace file (plain or gzip) one :class:`TraceEvent` at a time.

    Tolerates exactly one torn *trailing* line (a process killed mid-write)
    and a truncated gzip stream — every complete event before the tear is
    yielded, the tear itself is dropped.  A malformed line *followed by more
    data* is corruption, not truncation, and raises ``ValueError``.
    """
    path = Path(path)
    with _open_trace(path) as fh:
        pending_error: Exception | None = None
        try:
            for line in fh:
                if pending_error is not None:
                    raise ValueError(
                        f"corrupt trace line in {path} (not a trailing tear)"
                    ) from pending_error
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    event = TraceEvent.from_json(stripped)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
                    pending_error = err
                    continue
                yield event
        except (EOFError, gzip.BadGzipFile):
            # Truncated gzip stream: a SIGKILLed writer never finished the
            # member. Everything decoded so far is intact; stop cleanly.
            return


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a trace written by :class:`JsonlRecorder` (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def iter_trace(paths: Sequence[str | Path] | str | Path) -> Iterator[TraceEvent]:
    """Stream one logical trace from one file or a sequence of rotated segments.

    Replayed segment headers (``run_meta`` events flagged
    ``segment_header``) are skipped, so the reconstructed stream is exactly
    the stream that was emitted — a report built over rotated segments is
    identical to one built over a single file.
    """
    seq: Sequence[str | Path]
    if isinstance(paths, (str, Path)):
        seq = [paths]
    else:
        seq = paths
    for i, path in enumerate(seq):
        for event in iter_jsonl(path):
            if i > 0 and event.kind == "run_meta" and event.payload.get("segment_header"):
                continue
            yield event


def follow_jsonl(
    path: str | Path,
    *,
    poll_interval: float = 0.2,
    idle_timeout: float | None = 2.0,
    stop: Callable[[], bool] | None = None,
) -> Iterator[TraceEvent]:
    """Tail a live (plain) JSONL trace, yielding events as they are written.

    Re-polls every ``poll_interval`` seconds; returns once no new bytes have
    arrived for ``idle_timeout`` seconds (``None`` tails forever) or once
    ``stop()`` goes true.  A follower may start before the writer has
    created the file — the wait for it to appear counts against the same
    idle budget.  A partial line at the current end of file is buffered
    until its newline arrives — or dropped at stop time, matching the
    torn-tail tolerance of :func:`iter_jsonl`.
    """
    path = Path(path)
    buf = ""
    idle = 0.0
    while not path.exists():
        if stop is not None and stop():
            return
        if idle_timeout is not None and idle >= idle_timeout:
            return
        time.sleep(poll_interval)
        idle += poll_interval
    idle = 0.0
    with path.open("r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read(65536)
            if chunk:
                idle = 0.0
                buf += chunk
                while True:
                    newline = buf.find("\n")
                    if newline < 0:
                        break
                    line = buf[:newline].strip()
                    buf = buf[newline + 1 :]
                    if line:
                        yield TraceEvent.from_json(line)
                continue
            if stop is not None and stop():
                return
            if idle_timeout is not None and idle >= idle_timeout:
                return
            time.sleep(poll_interval)
            idle += poll_interval


class MetricsRegistry:
    """Named integer/float counters shared by a run's observability surface.

    The registry is intentionally plain — a dict with increment semantics —
    so counter bumps in hot loops stay cheap.  Typed views (such as
    :class:`~repro.core.shadow.ShadowCounters`) expose curated subsets as
    attributes; ad-hoc metrics are welcome alongside them.
    """

    __slots__ = ("values",)

    def __init__(self, initial: dict[str, int | float] | None = None) -> None:
        self.values: dict[str, int | float] = dict(initial) if initial else {}

    def increment(self, name: str, amount: int | float = 1) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def get(self, name: str, default: int | float = 0) -> int | float:
        return self.values.get(name, default)

    def set(self, name: str, value: int | float) -> None:
        self.values[name] = value

    def as_dict(self, prefix: str | None = None) -> dict[str, int | float]:
        if prefix is None:
            return dict(self.values)
        return {k: v for k, v in self.values.items() if k.startswith(prefix)}

    def names(self) -> Iterable[str]:
        return self.values.keys()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"MetricsRegistry({inner})"
