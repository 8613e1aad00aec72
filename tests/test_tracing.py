"""Tests for the structured tracing layer (`repro.core.tracing`) and the
trace replay/invariant machinery (`repro.analysis.trace_report`).

The contracts under test:

* recorders — NullRecorder is off and free, MemoryRecorder collects typed
  events, JsonlRecorder round-trips losslessly through `read_jsonl`;
* the line reader — plain, gzip and rotated traces read back every event
  before the first damaged line, drop only a torn final line of the final
  file, and raise `ValueError` on any other damage (hypothesis fuzz);
* the checksum envelope — `seal`/`unseal` round-trip canonically, and
  `unseal` raises `SealError` on every malformed or corrupted envelope;
* the metrics substrate — `ShadowCounters` is a view over one
  `MetricsRegistry`, so counter bumps and ad-hoc metrics share storage;
* emission — traced runs of C, NC, NC-general and the engine produce events
  in monotone per-(component, kind) sim-time order (rollback boundaries
  excepted) and tracing does not perturb the simulated trajectory;
* replay — a golden-corpus instance's JSONL trace rebuilds both schedules
  and passes the Lemma 3 energy equality at 1e-9 (the paper's invariant,
  checked *from the trace alone*).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib
import tempfile
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_general import simulate_nc_general
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.analysis.trace_report import build_report, trace_lemma_pair
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.power import PowerLaw
from repro.core.shadow import ClairvoyantShadow, ShadowCounters, SimulationContext
from repro.core.tracing import (
    EVENT_KINDS,
    NULL_RECORDER,
    FileSink,
    JsonlRecorder,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    RotatingSink,
    SealError,
    TraceEvent,
    TraceRecorder,
    TraceSink,
    corrupt_line,
    follow_jsonl,
    iter_jsonl,
    iter_trace,
    make_sink,
    read_jsonl,
    rotated_paths,
    seal,
    segment_base,
    unseal,
)
from repro.parallel.nc_par import simulate_nc_par
from repro.workloads import random_instance
from trace_oracle import check_event_order, instance_from_meta, replay_schedule

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"

ALPHA = 3.0


def _uniform_instance(n: int = 10, seed: int = 7) -> Instance:
    return random_instance(n, seed=seed, volume="exponential", density="unit")


class TestRecorders:
    def test_null_recorder_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert NullRecorder().emit("release", 0.0, "engine", job=1) is None

    def test_recorders_satisfy_protocol(self):
        assert isinstance(NULL_RECORDER, TraceRecorder)
        assert isinstance(MemoryRecorder(), TraceRecorder)

    def test_memory_recorder_collects(self):
        rec = MemoryRecorder()
        rec.emit("release", 1.0, "C", job=0, density=2.0)
        rec.emit("completion", 2.0, "C", job=0)
        assert len(rec) == 2
        assert [e.kind for e in rec] == ["release", "completion"]
        assert rec.events_of("release")[0].payload == {"job": 0, "density": 2.0}
        assert rec.events_of("completion", component="NC") == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            MemoryRecorder().emit("not_a_kind", 0.0, "C")

    def test_wall_time_is_monotone(self):
        rec = MemoryRecorder()
        for k in range(5):
            rec.emit("stall_guard_tick", float(k), "engine", stall=k)
        walls = [e.wall_time for e in rec]
        assert walls == sorted(walls)
        assert walls[0] >= 0.0

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("release", 0.5, "C", job=3, density=1.0)
            rec.emit("kernel_eval", 0.5, "C", profile="decay", t0=0.5, t1=1.0, job=3)
            assert rec.count == 2
        events = read_jsonl(path)
        assert len(events) == 2
        assert events[0] == TraceEvent(
            kind="release",
            sim_time=0.5,
            wall_time=events[0].wall_time,
            component="C",
            payload={"job": 3, "density": 1.0},
        )
        # Full JSON round trip: to_json -> from_json is the identity.
        for e in events:
            assert TraceEvent.from_json(e.to_json()) == e

    def test_jsonl_emit_after_close_raises(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "t.jsonl")
        rec.close()
        with pytest.raises(ValueError, match="closed"):
            rec.emit("release", 0.0, "C", job=0)

    def test_jsonl_validates_kind(self, tmp_path):
        with JsonlRecorder(tmp_path / "t.jsonl") as rec:
            with pytest.raises(ValueError, match="unknown trace event kind"):
                rec.emit("bogus", 0.0, "C")

    def test_memory_recorder_ring_buffer(self):
        rec = MemoryRecorder(maxlen=3)
        for k in range(5):
            rec.emit("stall_guard_tick", float(k), "engine", stall=k)
        assert len(rec) == 3
        assert [e.sim_time for e in rec] == [2.0, 3.0, 4.0]
        assert rec.dropped == 2
        with pytest.raises(ValueError, match="maxlen"):
            MemoryRecorder(maxlen=0)

    def test_jsonl_closed_on_exception(self, tmp_path):
        """The context manager flushes and closes even when the body raises,
        so everything emitted before the crash is durable on disk."""
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            with JsonlRecorder(path) as rec:
                rec.emit("release", 0.0, "C", job=0)
                raise RuntimeError("boom")
        assert len(read_jsonl(path)) == 1

    def test_torn_trailing_line_tolerated(self, tmp_path):
        """A writer killed mid-line leaves a torn tail; readers keep every
        complete event and stop cleanly at the tear."""
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("release", 0.0, "C", job=0)
            rec.emit("completion", 1.0, "C", job=0)
        full = path.read_bytes()
        path.write_bytes(full[: len(full) - 20])  # tear the final line
        events = read_jsonl(path)
        assert [e.kind for e in events] == ["release"]

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("release", 0.0, "C", job=0)
            rec.emit("completion", 1.0, "C", job=0)
        lines = path.read_text().splitlines()
        path.write_text(lines[0][:-10] + "\n" + lines[1] + "\n")
        with pytest.raises(ValueError, match="not a trailing tear"):
            read_jsonl(path)


class TestSinks:
    def _emit_n(self, rec: JsonlRecorder, n: int) -> None:
        for k in range(n):
            rec.emit("stall_guard_tick", float(k), "engine", stall=k)

    def test_sinks_satisfy_protocol(self, tmp_path):
        assert isinstance(FileSink(tmp_path / "a.jsonl"), TraceSink)
        assert isinstance(make_sink(tmp_path / "b.jsonl.gz", "gzip"), TraceSink)
        assert isinstance(RotatingSink(tmp_path / "c.jsonl", 10), TraceSink)

    def test_make_sink_specs(self, tmp_path):
        assert isinstance(make_sink(tmp_path / "x", "plain"), FileSink)
        assert isinstance(make_sink(tmp_path / "x", "gzip"), FileSink)
        rot = make_sink(tmp_path / "x.jsonl", "rotate:50")
        assert isinstance(rot, RotatingSink) and rot.max_events == 50
        with pytest.raises(ValueError, match="sink spec"):
            make_sink(tmp_path / "x", "tape")
        with pytest.raises(ValueError, match="max_events"):
            make_sink(tmp_path / "x", "rotate:0")
        with pytest.raises(ValueError, match="rotate"):
            make_sink(tmp_path / "x", "rotate:many")

    def test_gzip_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with JsonlRecorder(path, sink="gzip") as rec:
            self._emit_n(rec, 25)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        events = read_jsonl(path)  # gzip autodetected by magic bytes
        assert len(events) == 25

    def test_rotating_sink_segments_self_contained(self, tmp_path):
        """Each segment replays the run_meta header, so any single segment is
        independently interpretable; iter_trace strips the replayed headers
        and reconstructs exactly the original stream."""
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path, sink="rotate:10") as rec:
            rec.emit("run_meta", 0.0, "harness", alpha=3.0)
            self._emit_n(rec, 25)
        segments = rotated_paths(path)
        assert len(segments) == 3
        assert [p.name for p in segments] == [
            "t.00000.jsonl", "t.00001.jsonl", "t.00002.jsonl"
        ]
        assert rec.paths == tuple(segments)
        # Later segments open with a header copy flagged segment_header.
        seg1 = read_jsonl(segments[1])
        assert seg1[0].kind == "run_meta"
        assert seg1[0].payload.get("segment_header") is True
        merged = list(iter_trace(segments))
        assert len(merged) == 26
        assert sum(1 for e in merged if e.kind == "run_meta") == 1

    def test_rotating_sink_without_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path, sink="rotate:4") as rec:
            self._emit_n(rec, 9)
        merged = list(iter_trace(rotated_paths(path)))
        assert [e.payload["stall"] for e in merged] == list(range(9))

    @pytest.mark.parametrize("name", ["t[1].jsonl", "t*.jsonl", "t?.jsonl", "t[a-z].j[s]onl"])
    def test_rotating_sink_base_name_with_glob_characters(self, tmp_path, name):
        """A base name is matched literally: its segments are found, and a
        neighbour that the name would match as a glob pattern is not."""
        path = tmp_path / name
        with JsonlRecorder(path, sink="rotate:4") as rec:
            self._emit_n(rec, 9)
        with JsonlRecorder(tmp_path / "tx.jsonl", sink="rotate:4") as other:
            self._emit_n(other, 5)
        assert rotated_paths(path) == rec.paths
        assert len(rec.paths) == 3
        merged = list(iter_trace(rotated_paths(path)))
        assert [e.payload["stall"] for e in merged] == list(range(9))

    def test_truncated_gzip_stops_cleanly(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with JsonlRecorder(path, sink="gzip") as rec:
            self._emit_n(rec, 200)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 8])  # chop the gzip trailer
        events = read_jsonl(path)  # no exception; prefix recovered
        assert all(e.kind == "stall_guard_tick" for e in events)

    def test_flush_makes_events_visible_midstream(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = JsonlRecorder(path)
        try:
            self._emit_n(rec, 3)
            rec.flush()
            assert len(read_jsonl(path)) == 3
        finally:
            rec.close()

    def test_follow_jsonl_tails_a_finished_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            self._emit_n(rec, 12)
        events = list(follow_jsonl(path, poll_interval=0.01, idle_timeout=0.05))
        assert len(events) == 12

    def test_follow_jsonl_waits_for_file_to_appear(self, tmp_path):
        path = tmp_path / "late.jsonl"

        def write_late():
            time.sleep(0.05)
            with JsonlRecorder(path) as rec:
                self._emit_n(rec, 7)

        writer = threading.Thread(target=write_late)
        writer.start()
        try:
            events = list(follow_jsonl(path, poll_interval=0.01, idle_timeout=1.0))
        finally:
            writer.join()
        assert len(events) == 7

    def test_follow_jsonl_missing_file_times_out_empty(self, tmp_path):
        events = list(
            follow_jsonl(tmp_path / "never.jsonl", poll_interval=0.01, idle_timeout=0.05)
        )
        assert events == []

    def test_follow_jsonl_stop_callback(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            self._emit_n(rec, 5)
        seen: list[TraceEvent] = []
        for e in follow_jsonl(
            path, poll_interval=0.01, idle_timeout=5.0, stop=lambda: len(seen) >= 5
        ):
            seen.append(e)
        assert len(seen) == 5


def _write_trace(path: pathlib.Path, sink: str, n: int = 24) -> tuple[pathlib.Path, ...]:
    """A small trace: a run_meta header, then ``n`` events with non-ASCII text."""
    with JsonlRecorder(path, sink=sink) as rec:
        rec.emit("run_meta", 0.0, "harness", alpha=3.0, note="é")
        for k in range(n):
            rec.emit("release", float(k), "C", job=k, label="job-é" * (k % 3))
    return rec.paths


class TestLineReader:
    def test_torn_line_in_a_non_final_segment_raises(self, tmp_path):
        segments = _write_trace(tmp_path / "t.jsonl", "rotate:7")
        first = segments[0].read_bytes()
        segments[0].write_bytes(first[: len(first) - 15])  # tear its last line
        with pytest.raises(ValueError, match="not a trailing tear") as err:
            list(iter_trace(segments))
        assert str(segments[0]) in str(err.value)

    def test_torn_final_line_of_the_final_segment_is_dropped(self, tmp_path):
        segments = _write_trace(tmp_path / "t.jsonl", "rotate:7")
        full = list(iter_trace(segments))
        last = segments[-1].read_bytes()
        segments[-1].write_bytes(last[: len(last) - 15])
        assert list(iter_trace(segments)) == full[:-1]

    def test_non_utf8_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, "plain", n=3)
        with path.open("ab") as fh:
            fh.write(b'{"component": "\xe2\x82')  # a write cut inside a UTF-8 sequence
        assert len(read_jsonl(path)) == 4

    def test_complete_but_invalid_final_line_raises(self, tmp_path):
        """Only a write cut short is a tear: a whole JSON line that is no
        event is damage, even at the tail."""
        path = tmp_path / "t.jsonl"
        _write_trace(path, "plain", n=3)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "release"}\n')
        with pytest.raises(ValueError, match="not a trace event"):
            read_jsonl(path)

    def test_damaged_deflate_stream_raises_value_error(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        _write_trace(path, "gzip", n=200)
        raw = bytearray(path.read_bytes())
        for pos in range(20, len(raw) - 20, 7):
            raw[pos] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="damaged gzip stream"):
            read_jsonl(path)

    def test_truncated_gzip_in_a_non_final_file_raises(self, tmp_path):
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        _write_trace(first, "gzip", n=50)
        _write_trace(second, "gzip", n=5)
        data = first.read_bytes()
        first.write_bytes(data[: len(data) - 8])
        with pytest.raises(ValueError, match="truncated gzip stream"):
            list(iter_trace([first, second]))

    def test_follow_jsonl_rejects_a_corrupt_complete_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path, "plain", n=3)
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1][:-10]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match="not a trailing tear"):
            list(follow_jsonl(path, poll_interval=0.01, idle_timeout=0.05))

    def test_segment_base_inverts_the_segment_names(self, tmp_path):
        segments = _write_trace(tmp_path / "t.x.jsonl", "rotate:7")
        assert {segment_base(p) for p in segments} == {tmp_path / "t.x.jsonl"}
        assert segment_base(tmp_path / "t.0001.jsonl") == tmp_path / "t.0001.jsonl"
        assert segment_base(tmp_path / "t.jsonl") == tmp_path / "t.jsonl"


def _line_starts(data: bytes) -> list[int]:
    return [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A][:-1]


def _gunzip_prefix(data: bytes) -> bytes:
    """What a streaming gunzip recovers from ``data`` before it fails."""
    inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
    out = bytearray()
    for i in range(len(data)):
        try:
            out += inflate.decompress(data[i : i + 1])
        except zlib.error:
            break
    return bytes(out)


_FUZZ_TRACES: dict[str, tuple[list[bytes], list[TraceEvent], list[int]]] = {}


def _fuzz_trace(sink: str) -> tuple[list[bytes], list[TraceEvent], list[int]]:
    """(file bytes, logical events, events per line in stream order), cached."""
    if sink not in _FUZZ_TRACES:
        with tempfile.TemporaryDirectory() as tmp:
            suffix = ".jsonl.gz" if sink == "gzip" else ".jsonl"
            paths = _write_trace(pathlib.Path(tmp) / f"t{suffix}", sink)
            files = [p.read_bytes() for p in paths]
            events = list(iter_trace(paths))
        per_line = []
        for i, data in enumerate(files):
            text = gzip.decompress(data) if sink == "gzip" else data
            for k, line in enumerate(text.splitlines()):
                replayed = i > 0 and k == 0 and b"segment_header" in line
                per_line.append(0 if replayed else 1)
        _FUZZ_TRACES[sink] = (files, events, per_line)
    return _FUZZ_TRACES[sink]


@pytest.mark.parametrize("sink", ["plain", "gzip", "rotate:7"])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_trace_readers_survive_any_byte_damage(sink, data):
    """Overwrite bytes of a real trace and maybe truncate one file:
    ``iter_trace`` (and ``iter_jsonl`` on one file) yield events or raise
    ``ValueError``, and every event before the first damaged line comes back."""
    files, events, per_line = _fuzz_trace(sink)
    damaged = [bytearray(f) for f in files]
    n_files = len(files)
    hits = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n_files - 1), st.integers(0, 10**6), st.integers(0, 255)
            ),
            max_size=4,
        )
    )
    first_bad: list[tuple[int, int]] = []  # (file, byte offset) of each change
    for i, pos, byte in hits:
        pos %= len(damaged[i])
        if damaged[i][pos] != byte:
            damaged[i][pos] = byte
            first_bad.append((i, pos))
    cut = data.draw(st.none() | st.tuples(st.integers(0, n_files - 1), st.integers(0, 10**6)))
    if cut is not None:
        i, pos = cut
        pos %= len(damaged[i]) + 1
        if pos < len(damaged[i]):
            del damaged[i][pos:]
            first_bad.append((i, pos))
    # Events whose lines lie wholly before the first damaged byte.
    if sink == "gzip":
        plain = gzip.decompress(files[0])
        got = _gunzip_prefix(bytes(damaged[0]))
        same = next((k for k, (a, b) in enumerate(zip(plain, got)) if a != b), len(got))
        bad = (0, same) if same < len(plain) else None
        texts = [plain]
    else:
        bad = min(first_bad, default=None)
        texts = files
    intact = len(events)
    if bad is not None:
        lines_before = sum(len(_line_starts(t)) for t in texts[: bad[0]])
        lines_before += sum(1 for s in _line_starts(texts[bad[0]]) if s <= bad[1]) - 1
        intact = sum(per_line[:lines_before])
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, raw in enumerate(damaged):
            path = pathlib.Path(tmp) / f"t.{i:05d}.jsonl"
            path.write_bytes(bytes(raw))
            paths.append(path)
        readers = [lambda: iter_trace(paths)]
        if n_files == 1:
            readers.append(lambda: iter_jsonl(paths[0]))
        for read in readers:
            got_events: list[TraceEvent] = []
            try:
                for event in read():
                    assert isinstance(event, TraceEvent)
                    got_events.append(event)
            except ValueError:
                raised = True
            else:
                raised = False
            assert got_events[:intact] == events[: min(intact, len(got_events))]
            if sink != "gzip" or not raised:
                # A deflate error may cost the lines decoded in its chunk.
                assert len(got_events) >= intact


class TestEnvelope:
    def test_seal_round_trips_and_is_canonical(self):
        record = {"b": [1, 2.5], "a": "é"}
        line = seal(record)
        assert unseal(line) == record
        assert line == seal(dict(reversed(record.items())))
        assert line.startswith('{"body":"{\\"a\\":') and '"checksum":"' in line

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not json",
            "[1, 2]",
            '{"checksum": "x", "body": 5}',
            '{"checksum": 5, "body": "{}"}',
            '{"body": "{}"}',
            json.dumps({"body": "[1]", "checksum": None}),
        ],
    )
    def test_unseal_rejects_malformed_envelopes(self, text):
        with pytest.raises(SealError):
            unseal(text)

    def test_unseal_rejects_a_body_that_is_not_an_object(self):
        body = "[1]"
        with pytest.raises(SealError, match="not a JSON object"):
            unseal(json.dumps({"body": body, "checksum": _sha(body)}))

    @given(st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=8)))
    @settings(max_examples=60, deadline=None)
    def test_corrupt_line_is_always_caught(self, record):
        with pytest.raises(SealError):
            unseal(corrupt_line(seal(record)))


def _sha(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class TestMetricsRegistry:
    def test_increment_and_get(self):
        reg = MetricsRegistry()
        reg.increment("hits")
        reg.increment("hits", 4)
        assert reg.get("hits") == 5
        assert reg.get("misses") == 0
        reg.set("ratio", 0.5)
        assert reg.as_dict() == {"hits": 5, "ratio": 0.5}

    def test_prefix_filter(self):
        reg = MetricsRegistry({"shadow.events": 2, "engine.steps": 7})
        assert reg.as_dict("shadow.") == {"shadow.events": 2}

    def test_counters_are_a_registry_view(self):
        reg = MetricsRegistry()
        counters = ShadowCounters(reg)
        counters.events += 3
        counters.rebuilds = 2
        assert reg.values["events"] == 3
        assert reg.values["rebuilds"] == 2
        # Writes through the registry are visible through the view.
        reg.values["queries"] = 11
        assert counters.queries == 11
        assert counters.as_dict()["queries"] == 11

    def test_counters_share_context_registry(self):
        context = SimulationContext(PowerLaw(ALPHA))
        assert context.metrics is context.counters.registry
        context.counters.inserts += 1
        assert context.metrics.get("inserts") == 1

    def test_counters_equality_unchanged(self):
        a, b = ShadowCounters(), ShadowCounters()
        assert a == b
        a.queries += 1
        assert a != b


class TestEmission:
    def test_context_defaults_to_null_recorder(self):
        context = SimulationContext(PowerLaw(ALPHA))
        assert context.recorder is NULL_RECORDER
        # The shadow's hoisted guard must be None -> zero per-event work.
        shadow = context.shadow()
        assert shadow._rec is None

    def test_traced_run_emits_known_kinds_only(self):
        rec = MemoryRecorder()
        context = SimulationContext(PowerLaw(ALPHA), recorder=rec)
        inst = _uniform_instance()
        simulate_clairvoyant(inst, PowerLaw(ALPHA), context=context)
        simulate_nc_uniform(inst, PowerLaw(ALPHA), context=context)
        assert len(rec) > 0
        assert {e.kind for e in rec} <= EVENT_KINDS

    def test_monotone_sim_time_per_component(self):
        rec = MemoryRecorder()
        context = SimulationContext(PowerLaw(ALPHA), recorder=rec)
        inst = _uniform_instance(n=14, seed=21)
        simulate_clairvoyant(inst, PowerLaw(ALPHA), context=context)
        simulate_nc_uniform(inst, PowerLaw(ALPHA), context=context)
        assert check_event_order(rec.events) == []

    def test_releases_and_completions_counted(self):
        rec = MemoryRecorder()
        context = SimulationContext(PowerLaw(ALPHA), recorder=rec)
        inst = _uniform_instance(n=9, seed=5)
        simulate_clairvoyant(inst, PowerLaw(ALPHA), context=context)
        assert len(rec.events_of("release", component="C")) == len(inst)
        assert len(rec.events_of("completion", component="C")) == len(inst)

    def test_tracing_does_not_perturb_the_run(self):
        inst = _uniform_instance(n=12, seed=9)
        power = PowerLaw(ALPHA)
        plain = simulate_nc_uniform(inst, power)
        traced_ctx = SimulationContext(power, recorder=MemoryRecorder())
        traced = simulate_nc_uniform(inst, power, context=traced_ctx)
        assert plain.offsets == traced.offsets
        assert plain.starts == traced.starts

    def test_nc_general_emits_shadow_lifecycle_events(self):
        rec = MemoryRecorder()
        power = PowerLaw(ALPHA)
        context = SimulationContext(power, recorder=rec)
        inst = random_instance(4, seed=3, volume="uniform", density="loguniform")
        simulate_nc_general(inst, power, max_step=5e-2, context=context)
        kinds = {e.kind for e in rec}
        assert "shadow_checkpoint" in kinds
        assert "shadow_rollback" in kinds
        assert "shadow_rebuild" in kinds
        assert "density_class_switch" in kinds
        assert "speed_change" in kinds
        # Rollback boundaries excepted, the stream is still monotone.
        assert check_event_order(rec.events) == []
        # The engine and the epoch shadows both report through one channel.
        comps = {e.component for e in rec}
        assert "engine" in comps and "nc_general.shadow" in comps

    def test_nc_par_emits_per_machine_components(self):
        rec = MemoryRecorder()
        power = PowerLaw(ALPHA)
        context = SimulationContext(power, recorder=rec)
        inst = _uniform_instance(n=8, seed=13)
        simulate_nc_par(inst, power, machines=2, context=context)
        comps = {e.component for e in rec}
        assert "nc_par.m0" in comps and "nc_par.m1" in comps
        assert check_event_order(rec.events) == []

    def test_shadow_checkpoint_rollback_events(self):
        rec = MemoryRecorder()
        shadow = ClairvoyantShadow(ALPHA, recorder=rec, component="S")
        shadow.insert_job(0, 0.0, 1.0, 2.0)
        shadow.advance(0.5)
        ckpt = shadow.checkpoint()
        shadow.advance(1.0)
        shadow.rollback(ckpt)
        kinds = [e.kind for e in rec]
        assert "shadow_checkpoint" in kinds and "shadow_rollback" in kinds
        rb = rec.events_of("shadow_rollback", component="S")[0]
        assert rb.sim_time == ckpt.clock
        assert rb.payload["from_time"] == pytest.approx(1.0)


class TestReplay:
    def test_replayed_schedule_matches_live_energy(self):
        rec = MemoryRecorder()
        power = PowerLaw(ALPHA)
        context = SimulationContext(power, recorder=rec)
        inst = _uniform_instance(n=11, seed=17)
        live = simulate_clairvoyant(inst, power, context=context)
        replayed = replay_schedule(rec.events, "C")
        assert replayed is not None
        live_rep = evaluate(live.schedule, inst, power)
        replay_rep = evaluate(replayed, inst, power)
        assert replay_rep.energy == pytest.approx(live_rep.energy, rel=1e-12)

    def test_trace_lemma_pair_writes_header_then_pair(self):
        power = PowerLaw(ALPHA)
        inst = _uniform_instance(n=7, seed=3)
        rec = MemoryRecorder()
        trace_lemma_pair(inst, power, SimulationContext(power, recorder=rec), "harness", run=4)
        header = rec.events[0]
        assert (header.kind, header.component) == ("run_meta", "harness")
        assert header.payload == {
            "alpha": ALPHA,
            "instance": [[j.job_id, j.release, j.volume, j.density] for j in inst],
            "run": 4,
        }
        report = build_report(rec.events)
        assert report.ok
        assert {c.name.split(":")[0] for c in report.checks} == {"Lemma 3", "Lemma 4"}

        # NC needs uniform densities: a mixed instance gets the header alone.
        mixed = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 4.0)])
        rec = MemoryRecorder()
        trace_lemma_pair(mixed, power, SimulationContext(power, recorder=rec), "harness")
        assert [e.kind for e in rec.events] == ["run_meta"]

    def test_golden_corpus_jsonl_lemma3(self, tmp_path):
        """The acceptance path: golden instance -> JsonlRecorder -> read back
        -> trace_report with Lemma 3 (and 4) passing at 1e-9."""
        corpus = json.loads(CORPUS_PATH.read_text())
        key = sorted(k for k in corpus if k.startswith("nc_uniform/"))[0]
        entry = corpus[key]
        inst = Instance(
            [Job(int(j), r, v, d) for j, r, v, d in entry["instance"]]
        )
        power = PowerLaw(entry["alpha"])
        path = tmp_path / "golden.jsonl"
        with JsonlRecorder(path) as rec:
            context = SimulationContext(power, recorder=rec)
            context.emit(
                "run_meta",
                0.0,
                "harness",
                alpha=entry["alpha"],
                instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
            )
            simulate_clairvoyant(inst, power, context=context)
            simulate_nc_uniform(inst, power, context=context)
        events = read_jsonl(path)
        meta = instance_from_meta(events)
        assert meta is not None
        report = build_report(events)
        assert report.order_violations == []
        lemma3 = [c for c in report.checks if c.name.startswith("Lemma 3")]
        lemma4 = [c for c in report.checks if c.name.startswith("Lemma 4")]
        assert lemma3 and lemma3[0].holds, lemma3
        assert lemma4 and lemma4[0].holds, lemma4
        # And the replayed energy agrees with the recorded golden value.
        assert lemma3[0].rhs == pytest.approx(entry["energy"], rel=1e-9)

    def test_trace_with_retired_backend_selected_line_replays(self, tmp_path):
        """Traces recorded while kernel backends existed open with a
        ``backend_selected`` header; they still stream through
        ``iter_trace`` -> ``build_report`` with Lemma 3/4 holding."""
        inst = _uniform_instance(n=9, seed=5)
        power = PowerLaw(ALPHA)
        path = tmp_path / "legacy.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit(
                "backend_selected",
                0.0,
                "context",
                backend="numpy",
                vector_width=0,
                uses_numba=False,
                numba_available=False,
            )
            context = SimulationContext(power, recorder=rec)
            context.emit(
                "run_meta",
                0.0,
                "harness",
                alpha=ALPHA,
                instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
            )
            simulate_clairvoyant(inst, power, context=context)
            simulate_nc_uniform(inst, power, context=context)
        assert next(iter_trace(path)).kind == "backend_selected"
        report = build_report(iter_trace(path))
        assert report.order_violations == []
        for lemma in ("Lemma 3", "Lemma 4"):
            checks = [c for c in report.checks if c.name.startswith(lemma)]
            assert checks and checks[0].holds, checks

    def test_order_checker_flags_regressions(self):
        rec = MemoryRecorder()
        rec.emit("release", 2.0, "C", job=0)
        rec.emit("release", 1.0, "C", job=1)
        violations = check_event_order(rec.events)
        assert len(violations) == 1 and "C/release" in violations[0]

    def test_order_checker_allows_rollback_rewind(self):
        rec = MemoryRecorder()
        rec.emit("kernel_eval", 5.0, "S", profile="decay")
        rec.emit("shadow_rollback", 1.0, "S", from_time=5.0)
        rec.emit("kernel_eval", 1.5, "S", profile="decay")
        assert check_event_order(rec.events) == []
