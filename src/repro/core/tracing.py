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
  writes one plain or gzip JSONL file, :class:`RotatingSink` a sequence of
  bounded segments.  Rotated segments are **self-contained**: the most
  recent ``run_meta`` header is replayed at the top of every new segment
  (flagged ``segment_header`` in its payload), so any single segment can be
  analyzed without its siblings, and :func:`iter_trace` reconstructs the
  original stream by skipping the replayed headers.
* :func:`iter_lines` — the one reader of line files, traces and service
  journals alike: one gzip detection, one torn-tail rule.
* :func:`seal` / :func:`unseal` — the checksum envelope of session journals
  and shard checkpoints; :func:`corrupt_line` is the damage their faults write.
* :class:`MetricsRegistry` — a named-counter store.
  :class:`~repro.core.shadow.ShadowCounters` is a *view* over one of these,
  so ad-hoc counter ints and trace events share a single metrics substrate.

Durability contract
-------------------

``JsonlRecorder`` flushes and closes its sink on ``close()`` and on every
exit from its context manager — including exception exits — so a run that
dies mid-simulation leaves every fully emitted event on disk.  A process
killed outright (SIGKILL mid-shard) can still tear the *final* line; the
readers therefore drop the final line of a stream when it is not complete
JSON (and stop cleanly at a truncated gzip stream), yielding every complete
event before it — a truncated trace is parseable, never poison.  Damage
anywhere else, a damaged deflate stream included, raises ``ValueError``.

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

import functools
import glob
import gzip
import hashlib
import json
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    IO,
    Any,
    BinaryIO,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    TypeVar,
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
    "RotatingSink",
    "make_sink",
    "rotated_paths",
    "segment_base",
    "MetricsRegistry",
    "iter_lines",
    "read_jsonl",
    "iter_jsonl",
    "iter_trace",
    "follow_jsonl",
    "SealError",
    "seal",
    "unseal",
    "corrupt_line",
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
        try:
            return cls(
                kind=raw["kind"],
                sim_time=float(raw["sim_time"]),
                wall_time=float(raw["wall_time"]),
                component=raw["component"],
                payload=dict(raw.get("payload", {})),
            )
        except (KeyError, TypeError, OverflowError) as err:
            raise ValueError(f"not a trace event ({err!r})") from None


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
    """One JSONL file, opened as ``opener(path, "wt", encoding="utf-8")``:
    :func:`open`, or a gzip opener from :func:`make_sink`.  The readers detect
    gzip from the magic bytes, so a ``.gz`` suffix is cosmetic."""

    def __init__(self, path: str | Path, opener: Callable[..., Any] = open) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = opener(self.path, "wt", encoding="utf-8")

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


def _segment_path(base: Path, index: int) -> Path:
    return base.with_name(f"{base.stem}.{index:05d}{base.suffix}")


def segment_base(path: str | Path) -> Path:
    """The base path a :class:`RotatingSink` segment was named after
    (``t.00003.jsonl`` -> ``t.jsonl``); ``path`` itself when it is no segment."""
    path = Path(path)
    stem, dot, index = path.stem.rpartition(".")
    if dot and len(index) == 5 and index.isascii() and index.isdigit():
        return path.with_name(stem + path.suffix)
    return path


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
        self._count = 0
        self._file: FileSink | None = None
        self._paths: list[Path] = []
        self._header: dict[str, Any] | None = None
        self._open_next()

    def _open_next(self) -> None:
        if self._file is not None:
            self._file.close()
        self._file = FileSink(_segment_path(self.base, len(self._paths)))
        self._paths.append(self._file.path)
        self._count = 0
        if len(self._paths) > 1 and self._header is not None:
            replay = dict(self._header)
            replay["payload"] = {**dict(replay.get("payload", {})), "segment_header": True}
            self._file.write("run_meta", json.dumps(replay, sort_keys=True))
            self._count = 1

    def write(self, kind: str, line: str) -> None:
        if self._file is None:
            raise ValueError(f"RotatingSink({self.base}) is closed")
        if kind == "run_meta":
            self._header = json.loads(line)
        if self._count >= self.max_events:
            self._open_next()
        self._file.write(kind, line)
        self._count += 1

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def paths(self) -> tuple[Path, ...]:
        return tuple(self._paths)


def make_sink(path: str | Path, spec: str) -> TraceSink:
    """Build a sink from a CLI-style spec: ``plain`` | ``gzip`` | ``rotate:N``."""
    if spec == "plain":
        return FileSink(path)
    if spec == "gzip":
        return FileSink(path, functools.partial(gzip.open, compresslevel=6))
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
    # The base name is literal: a "[", "*" or "?" in it must not match others.
    pattern = f"{glob.escape(base.stem)}.[0-9][0-9][0-9][0-9][0-9]{glob.escape(base.suffix)}"
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

T = TypeVar("T")


def _open_lines(path: Path) -> gzip.GzipFile | BinaryIO:
    """``path`` opened for binary line reads, gunzipped if it is gzip."""
    with path.open("rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == _GZIP_MAGIC else path.open("rb")


def _torn(line: bytes) -> bool:
    """Whether ``line`` is no complete JSON text — what a write cut short leaves."""
    try:
        json.loads(line.decode("utf-8"))
    except ValueError:
        return True
    return False


def _parsed(
    held: tuple[Path, int, bytes],
    parse: Callable[[str], T],
    what: str,
    error: type[ValueError],
) -> tuple[Path, int, T]:
    path, number, line = held
    try:
        return path, number, parse(line.decode("utf-8"))
    except ValueError as err:
        torn = f"malformed {what} line away from the tail (not a trailing tear)"
        raise error(f"{path} line {number}: {torn if _torn(line) else err}") from err


def iter_lines(
    paths: Sequence[Path],
    parse: Callable[[str], T],
    *,
    what: str = "trace",
    error: type[ValueError] = ValueError,
) -> Iterator[tuple[Path, int, T]]:
    """Parse ``paths``, plain or gzip (by magic bytes), as one stream of
    ``(path, line number, parse(line))``; ``parse`` raises ``ValueError``.

    The torn-tail rule: only the *final* line of the *final* file may be
    dropped, when it is no complete JSON text (a writer killed mid-line), and
    a truncated gzip stream ends only the final file.  Any other bad line or
    a damaged gzip stream raises ``error`` naming the file and line.  One
    line of lookahead finds the final line, so nothing is buffered.
    """
    held: tuple[Path, int, bytes] | None = None
    for k, path in enumerate(paths):
        with _open_lines(path) as source:
            try:
                for number, line in enumerate(source, 1):
                    line = line.strip()
                    if line:
                        if held is not None:
                            yield _parsed(held, parse, what, error)
                        held = (path, number, line)
            except EOFError:  # a gzip member cut short: the writer was killed
                if k < len(paths) - 1:
                    raise error(f"{path}: truncated gzip stream (not a trailing tear)") from None
            except (gzip.BadGzipFile, zlib.error) as err:
                raise error(f"{path}: damaged gzip stream ({err})") from err
    if held is not None and not _torn(held[2]):
        yield _parsed(held, parse, what, error)


def iter_jsonl(path: str | Path) -> Iterator[TraceEvent]:
    """Stream a trace file (plain or gzip) one :class:`TraceEvent` at a time;
    :func:`iter_lines` drops a torn tail and raises ``ValueError`` on damage."""
    for _, _, event in iter_lines([Path(path)], TraceEvent.from_json):
        yield event


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a trace written by :class:`JsonlRecorder` (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def iter_trace(paths: Sequence[str | Path] | str | Path) -> Iterator[TraceEvent]:
    """Stream one logical trace from one file or a sequence of rotated segments.

    Replayed segment headers (``run_meta`` events flagged
    ``segment_header``) are skipped, so the reconstructed stream is exactly
    the stream that was emitted — a report built over rotated segments is
    identical to one built over a single file.  Only the final line of the
    final segment may be a dropped tear (:func:`iter_lines`).
    """
    seq = [Path(paths)] if isinstance(paths, (str, Path)) else [Path(p) for p in paths]
    for path, _, event in iter_lines(seq, TraceEvent.from_json):
        if (
            event.kind == "run_meta"
            and event.payload.get("segment_header")
            and path != seq[0]
        ):
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
    torn-tail rule of :func:`iter_lines`; a complete line is decoded and
    judged exactly as that reader judges it.
    """
    path = Path(path)
    idle = 0.0

    def waited() -> bool:
        """Sleep one poll interval, or False once the tail should end."""
        nonlocal idle
        if (stop is not None and stop()) or (
            idle_timeout is not None and idle >= idle_timeout
        ):
            return False
        time.sleep(poll_interval)
        idle += poll_interval
        return True

    while not path.exists():
        if not waited():
            return
    idle = 0.0
    buf, number = b"", 0
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(65536)
            if not chunk:
                if not waited():
                    return
                continue
            idle = 0.0
            *lines, buf = (buf + chunk).split(b"\n")
            for number, line in enumerate(lines, number + 1):
                if line.strip():
                    held = (path, number, line.strip())
                    yield _parsed(held, TraceEvent.from_json, "trace", ValueError)[2]


# -- checksum envelope --------------------------------------------------------


class SealError(ValueError):
    """Text that is no checksum envelope, or whose body fails its checksum."""


def seal(record: dict[str, Any]) -> str:
    """One line ``{"body": <canonical JSON>, "checksum": <SHA-256 of body>}``.

    Canonical (``sort_keys``, compact separators) so a record always gives
    the same bytes: a restored journal is byte-identical to what it replayed.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(
        {"body": body, "checksum": checksum}, sort_keys=True, separators=(",", ":")
    )


def unseal(text: str) -> dict[str, Any]:
    """The record sealed in ``text`` (canonical or not: the checksum is of
    the body as stored); :class:`SealError` for anything else."""
    try:
        envelope = json.loads(text)
    except ValueError as err:
        raise SealError(f"not JSON ({err})") from None
    body, checksum = (
        (envelope.get("body"), envelope.get("checksum"))
        if isinstance(envelope, dict)
        else (None, None)
    )
    if not (isinstance(body, str) and isinstance(checksum, str)):
        raise SealError("not a checksum envelope")
    # A damaged escape can decode to a lone surrogate; it then fails the
    # checksum rather than the encoding.
    digest = hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()
    if digest != checksum:
        raise SealError(
            f"checksum mismatch (expected {checksum[:12]}…, got {digest[:12]}…)"
        )
    try:
        record = json.loads(body)
    except ValueError:
        record = None
    if not isinstance(record, dict):
        raise SealError("checksummed body is not a JSON object")
    return record


def corrupt_line(line: str) -> str:
    """Flip the middle character of a sealed line: bit rot *after* the
    checksum was taken, the damage the ``journal_corruption`` and
    ``checkpoint_corruption`` faults write.  :func:`unseal` rejects it."""
    mid = len(line) // 2
    flipped = "X" if line[mid] != "X" else "Y"
    return line[:mid] + flipped + line[mid + 1 :]


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
