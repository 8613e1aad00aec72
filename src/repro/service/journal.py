"""Per-session write-ahead journals: durability for the scheduling service.

The non-clairvoyant model is what makes journaling *sufficient*: the paper's
NC algorithms consult only released weights, never remaining sizes, so a
session's entire observable state — speeds, schedules, metrics, verified
reports — is a deterministic function of its arrival log.  Journal the
arrivals, replay them through the normal :class:`~repro.service.sessions.
Session` drive, and the recovered session is **bit-identical** to one that
never crashed.

Format: one record per line, each the checksum envelope of
:func:`~repro.core.tracing.seal` (shard checkpoints store it too), so any
post-write corruption is detected on read.  Records carry a monotonically
increasing ``seq`` so a missing or reordered line is also detected.  Lines
land in any :class:`~repro.core.tracing.TraceSink` (``plain | gzip |
rotate:N``), flushed after every append: a record is durable *before*
``submit`` acknowledges.

Journals are read by the line reader of traces,
:func:`~repro.core.tracing.iter_lines`: a torn final line (a process
SIGKILLed mid-write) is dropped — that write was never acknowledged, so
dropping it is correct, not lossy — while a malformed line anywhere else, or
any line failing its checksum, is corruption and raises
:class:`JournalCorruption`; recovery quarantines such a journal instead of
silently restoring a wrong session.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence
from urllib.parse import quote, unquote

from ..core.tracing import (
    TraceSink,
    iter_lines,
    make_sink,
    rotated_paths,
    seal,
    segment_base,
    unseal,
)

__all__ = [
    "JOURNAL_SUFFIX",
    "RECORD_KINDS",
    "JournalError",
    "JournalCorruption",
    "JournalWriteAborted",
    "SessionJournal",
    "journal_path",
    "check_session_id",
    "discover_journals",
    "read_journal",
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


#: The longest suffix a journal file name gets: a rotated segment's.
_LONGEST_SUFFIX = ".journal.00000.jsonl"

#: The longest file name, in bytes, that common file systems accept.
NAME_MAX = 255


def journal_path(directory: str | Path, session_id: str) -> Path:
    """The canonical journal path for ``session_id`` under ``directory``."""
    return Path(directory) / f"{quote(session_id, safe='')}{JOURNAL_SUFFIX}"


def check_session_id(session_id: str) -> str:
    """``session_id`` unchanged if every journal file name it maps to fits
    in :data:`NAME_MAX` bytes; ``ValueError`` otherwise."""
    limit = NAME_MAX - len(_LONGEST_SUFFIX)
    size = len(quote(session_id, safe=""))  # percent-quoting leaves ASCII
    if size > limit:
        raise ValueError(
            f"session id is {size} bytes percent-encoded; at most {limit} fit "
            f"a {NAME_MAX}-byte journal file name"
        )
    return session_id


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
        line = seal({**record, "seq": self.seq})
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


def read_journal(paths: Sequence[str | Path] | str | Path) -> list[dict[str, Any]]:
    """Decode a journal back into its records, verifying every line.

    Accepts one path or a sequence of rotated segments (in order).  A torn
    final line — not UTF-8, or not complete JSON — is dropped; a malformed
    line anywhere else, a checksum mismatch, an unknown record kind or a
    ``seq`` gap raises :class:`JournalCorruption` naming the offending line.
    """
    seq = [Path(paths)] if isinstance(paths, (str, Path)) else [Path(p) for p in paths]
    records: list[dict[str, Any]] = []
    for path, number, record in iter_lines(
        seq, unseal, what="journal", error=JournalCorruption
    ):
        if record.get("record") not in RECORD_KINDS:
            raise JournalCorruption(f"{path} line {number}: unknown record kind")
        if record.get("seq") != len(records):
            raise JournalCorruption(
                f"{path} line {number}: seq {record.get('seq')} out of order "
                "(missing or duplicated record)"
            )
        records.append(record)
    return records


def discover_journals(directory: str | Path) -> dict[str, tuple[Path, ...]]:
    """Map every session id journaled under ``directory`` to its file(s).

    Plain and gzip journals are single files named
    ``<quoted-id>.journal.jsonl``; a rotating journal is that base name's
    ``<quoted-id>.journal.NNNNN.jsonl`` segments, in order.  A plain journal
    wins over segments under the same id.
    """
    found: dict[str, tuple[Path, ...]] = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        base = segment_base(path)
        if not base.name.endswith(JOURNAL_SUFFIX):
            continue
        sid = unquote(base.name[: -len(JOURNAL_SUFFIX)])
        if sid not in found:
            found[sid] = (base,) if base.exists() else rotated_paths(base)
    return found
