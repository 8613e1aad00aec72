"""Per-session write-ahead journals: durability for the scheduling service.

The non-clairvoyant model is what makes journaling *sufficient*: the paper's
NC algorithms consult only released weights, never remaining sizes, so a
session's entire observable state — speeds, schedules, metrics, verified
reports — is a deterministic function of its arrival log.  Journal the
arrivals, replay them through the normal :class:`~repro.service.sessions.
Session` drive, and the recovered session is **bit-identical** to one that
never crashed.

Format: one record per line, each line a canonical-JSON envelope

``{"body": "<canonical JSON of the record>", "checksum": "<sha256(body)>"}``

mirroring :class:`~repro.parallel.shard.ShardCheckpointStore` — the checksum
is taken over the exact serialized body, so any post-write corruption is
detected on read.  Records carry a monotonically increasing ``seq`` so a
missing or reordered line is also detected.  Lines land in any
:class:`~repro.core.tracing.TraceSink` (``plain | gzip | rotate:N``), flushed
after every append: a record is durable *before* ``submit`` acknowledges.

Read semantics mirror :func:`~repro.core.tracing.iter_jsonl`: exactly one
torn *trailing* line (a process SIGKILLed mid-write) is dropped — that write
was never acknowledged, so dropping it is correct, not lossy — while a
malformed or checksum-mismatching line *followed by more data* is interior
corruption and raises :class:`JournalCorruption`; recovery quarantines such
a journal instead of silently restoring a wrong session.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence
from urllib.parse import quote, unquote

from ..core.tracing import TraceSink, make_sink

__all__ = [
    "JOURNAL_SUFFIX",
    "RECORD_KINDS",
    "JournalError",
    "JournalCorruption",
    "JournalWriteAborted",
    "SessionJournal",
    "journal_path",
    "discover_journals",
    "read_journal",
    "encode_record",
    "corrupt_line",
]

#: Every journal file ends with this suffix; the stem is the URL-quoted
#: session id, so any legal session id maps to exactly one filename.
JOURNAL_SUFFIX = ".journal.jsonl"

#: The closed set of journal record kinds.
#:
#: ``session_create``  — the validated create request (seed jobs excluded:
#:                       they are journaled as a normal ``arrival_batch``).
#: ``arrival_batch``   — one committed batch, written *before* the ack.
#: ``session_close``   — explicit DELETE; the session is finished, not lost.
#: ``session_evicted`` — TTL/LRU eviction; the id answers 410 after restart.
RECORD_KINDS = frozenset(
    {"session_create", "arrival_batch", "session_close", "session_evicted"}
)


class JournalError(ValueError):
    """Structural problem with a journal file."""


class JournalCorruption(JournalError):
    """A journal line failed its checksum or integrity check away from the
    tail — corruption, not a torn write; the journal must be quarantined."""


class JournalWriteAborted(RuntimeError):
    """A journal append crashed mid-write (fault injection): ``partial`` is
    the prefix that reached the sink before the simulated crash.  The caller
    must treat the record as never written — nothing may be committed."""

    def __init__(self, partial: str) -> None:
        super().__init__(
            f"journal write torn after {len(partial)} bytes (injected crash)"
        )
        self.partial = partial


def journal_path(directory: str | Path, session_id: str) -> Path:
    """The canonical journal path for ``session_id`` under ``directory``."""
    return Path(directory) / f"{quote(session_id, safe='')}{JOURNAL_SUFFIX}"


def encode_record(record: dict[str, Any]) -> str:
    """One journal line: canonical-JSON body + its SHA-256, envelope sorted.

    Canonical means ``sort_keys`` + compact separators, so the same record
    always produces the same bytes — what makes a restore's re-journaled
    file byte-identical to the committed prefix it replayed.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(
        {"body": body, "checksum": checksum}, sort_keys=True, separators=(",", ":")
    )


def corrupt_line(line: str) -> str:
    """Flip one character inside the body *after* the checksum was taken —
    the same post-checksum bit-rot :class:`ShardCheckpointStore`'s
    ``checkpoint_corruption`` fault models."""
    mid = len(line) // 2
    flipped = "X" if line[mid] != "X" else "Y"
    return line[:mid] + flipped + line[mid + 1 :]


class SessionJournal:
    """Append-only WAL for one session over a :class:`TraceSink`.

    Every ``append`` serializes the record with its next ``seq``, runs the
    optional ``line_filter`` (the fault-injection seam: it may corrupt the
    line or raise :class:`JournalWriteAborted` after a partial write), then
    writes and **flushes** — the durability point the submit ack sits behind.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sink: TraceSink | str = "plain",
        line_filter: Callable[[int, str], str] | None = None,
    ) -> None:
        self.path = Path(path)
        self._sink: TraceSink | None = (
            make_sink(path, sink) if isinstance(sink, str) else sink
        )
        self.line_filter = line_filter
        self.seq = 0

    def append(self, record: dict[str, Any]) -> None:
        kind = record.get("record")
        if kind not in RECORD_KINDS:
            raise JournalError(f"unknown journal record kind {kind!r}")
        if self._sink is None:
            raise JournalError(f"journal {self.path} is closed")
        line = encode_record({**record, "seq": self.seq})
        if self.line_filter is not None:
            try:
                line = self.line_filter(self.seq, line)
            except JournalWriteAborted as tear:
                # The crash model: a prefix of the line reaches the disk,
                # then the process dies.  Flush the tear so the on-disk state
                # is exactly what a SIGKILL would leave, then propagate — the
                # caller never acks, so the torn record was never committed.
                self._sink.write(str(kind), tear.partial)
                self._sink.flush()
                raise
        self._sink.write(str(kind), line)
        self._sink.flush()
        self.seq += 1

    @property
    def paths(self) -> tuple[Path, ...]:
        return self._sink.paths if self._sink is not None else ()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.flush()
            self._sink.close()
            self._sink = None


# -- readers ------------------------------------------------------------------

_GZIP_MAGIC = b"\x1f\x8b"


def _iter_lines(path: Path) -> Iterator[bytes]:
    """Raw journal lines as bytes, tolerating a truncated gzip stream
    (SIGKILLed writer) the same way :func:`~repro.core.tracing.iter_jsonl`
    does.  Decoding is left to :func:`read_journal`, so a byte that is not
    UTF-8 is judged by the torn-tail rule like any other damage."""
    with path.open("rb") as probe:
        magic = probe.read(2)
    fh = gzip.open(path, "rb") if magic == _GZIP_MAGIC else path.open("rb")
    with fh:
        try:
            for line in fh:
                stripped = line.strip()
                if stripped:
                    yield stripped
        except (EOFError, gzip.BadGzipFile):
            return
        except zlib.error as err:  # a damaged deflate stream, not a cut one
            raise JournalCorruption(f"{path}: damaged gzip stream ({err})") from err


def read_journal(paths: Sequence[str | Path] | str | Path) -> list[dict[str, Any]]:
    """Decode a journal back into its records, verifying every line.

    Accepts one path or a sequence of rotated segments (in order).  Exactly
    one malformed *final* line — bad JSON or bytes that are not UTF-8 — is
    dropped as a torn tail; a malformed line, checksum mismatch, or ``seq``
    gap anywhere else raises :class:`JournalCorruption` naming the offending
    line.
    """
    seq: Sequence[str | Path] = (
        [paths] if isinstance(paths, (str, Path)) else list(paths)
    )
    lines: list[tuple[Path, bytes]] = []
    for p in seq:
        p = Path(p)
        lines.extend((p, line) for line in _iter_lines(p))
    records: list[dict[str, Any]] = []
    for i, (path, line) in enumerate(lines):
        is_last = i == len(lines) - 1
        try:
            envelope = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            if is_last:
                break  # torn tail: the write was never acked; drop it
            raise JournalCorruption(
                f"{path} line {i}: malformed journal line away from the tail"
            ) from None
        if (
            not isinstance(envelope, dict)
            or not isinstance(envelope.get("body"), str)
            or not isinstance(envelope.get("checksum"), str)
        ):
            raise JournalCorruption(f"{path} line {i}: not a journal envelope")
        body = envelope["body"]
        # A damaged escape can decode to a lone surrogate; it then fails the
        # checksum rather than the encoding.
        digest = hashlib.sha256(body.encode("utf-8", "surrogatepass")).hexdigest()
        if digest != envelope["checksum"]:
            raise JournalCorruption(
                f"{path} line {i}: checksum mismatch "
                f"(expected {envelope['checksum'][:12]}…, got {digest[:12]}…)"
            )
        try:
            record = json.loads(body)
        except json.JSONDecodeError as err:  # checksum passed ⇒ impossible tear
            raise JournalCorruption(f"{path} line {i}: unparseable body") from err
        if not isinstance(record, dict) or record.get("record") not in RECORD_KINDS:
            raise JournalCorruption(f"{path} line {i}: unknown record kind")
        if record.get("seq") != i:
            raise JournalCorruption(
                f"{path} line {i}: seq {record.get('seq')} out of order "
                "(missing or duplicated record)"
            )
        records.append(record)
    return records


def discover_journals(directory: str | Path) -> dict[str, tuple[Path, ...]]:
    """Map every session id journaled under ``directory`` to its file(s).

    Plain and gzip journals are single files named
    ``<quoted-id>.journal.jsonl``; rotating journals contribute their
    ``<quoted-id>.journal.NNNNN.jsonl`` segments, grouped and ordered.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return {}
    found: dict[str, tuple[Path, ...]] = {}
    for path in sorted(directory.glob(f"*{JOURNAL_SUFFIX}")):
        sid = unquote(path.name[: -len(JOURNAL_SUFFIX)])
        found[sid] = (path,)
    segment_glob = "*.journal.[0-9][0-9][0-9][0-9][0-9].jsonl"
    segments: dict[str, list[Path]] = {}
    for path in sorted(directory.glob(segment_glob)):
        stem = path.name.rsplit(".", 3)[0]  # "<quoted-id>" from "<id>.journal.NNNNN.jsonl"
        segments.setdefault(unquote(stem), []).append(path)
    for sid, paths in segments.items():
        if sid not in found:  # a plain journal under the same id wins
            found[sid] = tuple(paths)
    return found
