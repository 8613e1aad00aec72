"""Differential tests for the one-pass streaming report pipeline.

`repro.analysis.streaming` computes `build_report` as a single forward pass
with memory bounded by the number of jobs; `trace_oracle.build_report_in_memory`
is the list-materializing replay it replaced.  The contract is
**bit-identity**, not approximation: on every trace whose kept segments do
not overlap once sorted, the two paths must return `==` TraceReports, and on
every invalid trace they must raise the *same* ScheduleError with the *same*
message.  These tests pin that contract on the golden corpus (all file
encodings: list, plain JSONL, gzip, rotated segments), across supervisor
retry boundaries, with shard lifecycle events mixed in, on the capped
(C_capped, NC_capped) pair, on random segment streams with sub-tolerance
`t0` regressions, and on every error class the replayer distinguishes —
and pin the one documented gap: a job completing inside an overlap that the
1e-9 tolerance admits.  They also pin that jobs join the replay at their
release: a never-admitted job fails as the oracle does, a `retry` restores
the unreleased list, and the replay's work is linear in the segments.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.analysis.streaming import (
    IncrementalScheduleReplayer,
    StreamingReportBuilder,
    StreamOrderError,
)
from repro.analysis.trace_report import REL_TOL, build_report
from repro.core.errors import ScheduleError
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.core.schedule import ConstantSegment, DecaySegment, Segment
from repro.core.shadow import SimulationContext
from repro.core.tracing import (
    JsonlRecorder,
    MemoryRecorder,
    TraceEvent,
    iter_jsonl,
    iter_trace,
    read_jsonl,
)
from repro.extensions.bounded_speed import CappedPowerLaw
from repro.workloads import random_instance
from trace_oracle import build_report_in_memory

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"


def _corpus_cases() -> list[tuple[str, Instance, float]]:
    corpus = json.loads(CORPUS_PATH.read_text())
    out = []
    for key in sorted(k for k in corpus if k.startswith("nc_uniform/")):
        entry = corpus[key]
        inst = Instance([Job(int(j), r, v, d) for j, r, v, d in entry["instance"]])
        out.append((key, inst, float(entry["alpha"])))
    return out


def _traced_pair(inst: Instance, alpha: float) -> list[TraceEvent]:
    """Record a run_meta header plus a full traced (C, NC) pair."""
    rec = MemoryRecorder()
    power = PowerLaw(alpha)
    context = SimulationContext(power, recorder=rec)
    context.emit(
        "run_meta",
        0.0,
        "harness",
        alpha=alpha,
        instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
    )
    simulate_clairvoyant(inst, power, context=context)
    simulate_nc_uniform(inst, power, context=context)
    return list(rec)


def _retry(component: str) -> TraceEvent:
    return TraceEvent(
        kind="retry", sim_time=0.0, wall_time=0.0, component=component,
        payload={"reason": "test"},
    )


def _assert_parity(events: list[TraceEvent]):
    """Streaming and in-memory reports must be `==` (bit-identical floats)."""
    streamed = build_report(iter(events))
    batch = build_report_in_memory(events)
    assert streamed == batch
    return streamed


def _assert_error_parity(events: list[TraceEvent]) -> None:
    with pytest.raises(ScheduleError) as stream_exc:
        build_report(iter(events))
    with pytest.raises(ScheduleError) as batch_exc:
        build_report_in_memory(events)
    assert str(stream_exc.value) == str(batch_exc.value)


class TestGoldenCorpusDifferential:
    @pytest.mark.parametrize(
        "key,inst,alpha", _corpus_cases(), ids=[k for k, _, _ in _corpus_cases()]
    )
    def test_streaming_matches_in_memory(self, key, inst, alpha):
        events = _traced_pair(inst, alpha)
        report = _assert_parity(events)
        assert report.ok
        assert any(c.name.startswith("Lemma 3") for c in report.checks)
        assert any(c.name.startswith("Lemma 4") for c in report.checks)

    def test_all_file_encodings_identical(self, tmp_path):
        """One trace, four sources — list, plain file, gzip, rotated segments —
        must all produce the same report (rotation headers are transparent)."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        reference = build_report_in_memory(events)

        sinks = {"plain": "p.jsonl", "gzip": "g.jsonl.gz", "rotate:16": "r.jsonl"}
        for spec, name in sinks.items():
            with JsonlRecorder(tmp_path / name, sink=spec) as rec:
                for e in events:
                    rec.emit(e.kind, e.sim_time, e.component, **e.payload)
            streamed = build_report(
                iter_trace(rec.paths), rel_tol=REL_TOL
            )
            # wall_time differs between recordings, so compare everything else.
            assert streamed.n_events == reference.n_events
            assert streamed.checks == reference.checks
            assert streamed.energies == reference.energies
            assert streamed.order_violations == reference.order_violations
            assert [
                (c.component, c.events, c.by_kind) for c in streamed.components
            ] == [(c.component, c.events, c.by_kind) for c in reference.components]

    def test_capped_pair_parity(self):
        inst = random_instance(8, seed=11, volume="exponential", density="unit")
        rec = MemoryRecorder()
        capped = CappedPowerLaw(3.0, 1.2)
        context = SimulationContext(capped, recorder=rec)
        context.emit(
            "run_meta", 0.0, "harness", alpha=3.0,
            instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
        )
        simulate_clairvoyant(inst, capped, context=context)
        simulate_nc_uniform(inst, capped, context=context)
        report = _assert_parity(list(rec))
        capped_checks = [c for c in report.checks if "capped" in c.name]
        assert capped_checks and all(c.holds for c in capped_checks)


class TestRetryBoundaries:
    def test_failed_attempt_discarded_identically(self):
        """A garbled first attempt followed by per-component retries and a
        clean attempt verifies — and matches the batch replay exactly."""
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        garbled = [
            e for e in clean[: len(clean) // 2] if e.kind == "kernel_eval"
        ]
        events = (
            clean[:1]  # run_meta
            + garbled
            + [_retry("C"), _retry("NC")]
            + clean[1:]
        )
        report = _assert_parity(events)
        assert report.ok

    def test_retry_resets_overlap_but_not_builder_poison(self):
        """A builder-clock violation (t0 before the builder clock) poisons the
        whole component even across a retry — matching replay_schedule, which
        scans every attempt through one builder per reset."""
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        bad = TraceEvent(
            kind="kernel_eval", sim_time=0.0, wall_time=0.0, component="C",
            payload={"profile": "const", "t0": -5.0, "t1": -4.0, "job": 0,
                     "speed": 1.0},
        )
        # Poison *after* the retry boundary: both paths must report it.
        events = clean + [_retry("C"), bad]
        _assert_error_parity(events)

    def test_shard_lifecycle_events_ride_along(self):
        _, inst, alpha = _corpus_cases()[0]
        clean = _traced_pair(inst, alpha)
        lifecycle = [
            TraceEvent(kind="worker_lost", sim_time=0.0, wall_time=0.0,
                       component="pool", payload={"worker": 1}),
            TraceEvent(kind="shard_redispatch", sim_time=0.0, wall_time=0.0,
                       component="pool", payload={"shard": 0, "to": 2}),
        ]
        events = clean[:5] + lifecycle + clean[5:]
        report = _assert_parity(events)
        assert report.ok
        pool = [c for c in report.components if c.component == "pool"]
        assert pool and pool[0].by_kind == {"shard_redispatch": 1, "worker_lost": 1}


class TestErrorParity:
    def test_missing_volume_message_identical(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        # Drop all NC kernel pieces for the last job: validate must fail with
        # the exact same "processed volume" message on both paths.
        last = max(j.job_id for j in inst)
        dropped = [
            e for e in events
            if not (
                e.kind == "kernel_eval"
                and e.component == "NC"
                and int(e.payload["job"]) == last
            )
        ]
        _assert_error_parity(dropped)

    def test_builder_clock_poison_message_identical(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        events.append(
            TraceEvent(
                kind="kernel_eval", sim_time=0.0, wall_time=0.0, component="NC",
                payload={"profile": "const", "t0": -1.0, "t1": 0.5, "job": 0,
                         "speed": 2.0},
            )
        )
        _assert_error_parity(events)

    def test_no_meta_and_bare_meta_parity(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        no_meta = [e for e in events if e.kind != "run_meta"]
        report = _assert_parity(no_meta)
        assert report.checks == [] and report.energies == {}
        bare = TraceEvent(
            kind="run_meta", sim_time=0.0, wall_time=0.0, component="harness",
            payload={"note": "no instance"},
        )
        report2 = _assert_parity([bare] + no_meta)
        assert report2.checks == []

    def test_order_violations_reported_identically(self):
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        events.append(
            TraceEvent(
                kind="release", sim_time=-3.0, wall_time=0.0, component="harness",
                payload={"job": 0},
            )
        )
        events.append(
            TraceEvent(
                kind="release", sim_time=-4.0, wall_time=0.0, component="harness",
                payload={"job": 1},
            )
        )
        streamed = build_report(iter(events))
        batch = build_report_in_memory(events)
        assert streamed.order_violations == batch.order_violations
        assert len(streamed.order_violations) == 1


class TestStreamOrderError:
    def test_swapped_kernel_events_fail_identically(self):
        """A hard t0 regression trips the builder-clock check in *both* paths
        (ScheduleBuilder.append enforces the same clock), so the contract here
        is error parity, not refusal."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        kernel_idx = [
            i for i, e in enumerate(events)
            if e.kind == "kernel_eval" and e.component == "C"
        ]
        i, j = kernel_idx[1], kernel_idx[2]
        events[i], events[j] = events[j], events[i]
        _assert_error_parity(events)

    def test_pre_meta_buffer_bounded(self):
        """kernel_eval events arriving before any run_meta are buffered only
        up to a fixed cap — unbounded buffering would defeat the point."""
        flood = [
            TraceEvent(
                kind="kernel_eval", sim_time=float(k), wall_time=0.0,
                component="C",
                payload={"profile": "const", "t0": float(k), "t1": k + 1.0,
                         "job": 0, "speed": 1.0},
            )
            for k in range(70_000)
        ]
        builder = StreamingReportBuilder(rel_tol=REL_TOL)
        with pytest.raises(StreamOrderError, match="before any run_meta"):
            for e in flood:
                builder.feed(e)


    def test_resort_list_bounded(self):
        """Segments held for re-sorting are capped like the pre-header
        buffer: a flood of slivers that never clears the clock tolerance
        cannot grow the pending list without bound."""
        inst = Instance([Job(0, 0.0, 10.0, 1.0)])
        replayer = IncrementalScheduleReplayer("C", inst, PowerLaw(3.0))
        sliver = {"profile": "const", "t0": 1.0, "t1": 1.0 + 1e-12, "job": 0,
                  "speed": 1.0}
        with pytest.raises(StreamOrderError, match="within the clock tolerance"):
            for _ in range(70_000):
                replayer.feed(sliver)


_TOL = 1e-9


def _meta(inst: Instance, alpha: float = 3.0) -> TraceEvent:
    return TraceEvent(
        kind="run_meta", sim_time=0.0, wall_time=0.0, component="harness",
        payload={
            "alpha": alpha,
            "instance": [[j.job_id, j.release, j.volume, j.density] for j in inst],
        },
    )


def _kernel(component: str, seg: Segment) -> TraceEvent:
    payload: dict = {"t0": seg.t0, "t1": seg.t1, "job": seg.job_id}
    if isinstance(seg, DecaySegment):
        payload.update(profile="decay", x0=seg.x0, rho=seg.rho, alpha=seg.alpha)
    else:
        payload.update(profile="const", speed=seg.speed)
    return TraceEvent(
        kind="kernel_eval", sim_time=seg.t0, wall_time=0.0, component=component,
        payload=payload,
    )


def _overlaps(segments: list[Segment]) -> bool:
    """Whether the kept segments overlap at all once stably sorted by t0."""
    kept = sorted((s for s in segments if s.duration > 0), key=lambda s: s.t0)
    return any(b.t0 < a.t1 for a, b in zip(kept, kept[1:]))


@st.composite
def _attempt(draw, n_jobs: int) -> list[Segment]:
    """One attempt's segments in arrival order: gaps, zero-length pieces,
    slivers shorter than the clock tolerance, and t0 regressions inside it
    (short ones can land wholly before the sliver they follow)."""
    clock = 0.0
    segments: list[Segment] = []
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from(["normal", "sliver", "zero", "regress"]))
        if step == "regress" and segments:
            t0 = clock - draw(st.floats(0.0, 0.99)) * _TOL * max(1.0, clock)
            t1 = t0 + draw(st.sampled_from([0.0, 1e-10, 2e-10, 0.3]))
        else:
            t0 = clock + draw(st.sampled_from([0.0, 0.25, 1.5]))
            durations = {"normal": [0.3, 1.0], "sliver": [2e-10, 7e-10]}.get(step, [0.0])
            t1 = t0 + draw(st.sampled_from(durations))
        job = draw(st.integers(0, n_jobs - 1))
        if draw(st.booleans()):
            seg: Segment = ConstantSegment(t0, t1, job, draw(st.floats(0.1, 3.0)))
        else:
            seg = DecaySegment(
                t0, t1, job, draw(st.floats(0.1, 5.0)), draw(st.floats(0.2, 4.0)), 3.0
            )
        segments.append(seg)
        clock = max(clock, seg.t1)
    return segments


@st.composite
def _sliver_traces(draw) -> tuple[list[TraceEvent], list[Segment]]:
    """A header plus the same attempts replayed as C and as NC, retries
    between attempts; the instance is whatever the surviving attempt
    processes, so the only invalid traces are the overlapping ones."""
    n_jobs = draw(st.integers(1, 3))
    attempts = [draw(_attempt(n_jobs)) for _ in range(draw(st.integers(1, 2)))]
    survivor = attempts[-1]
    volumes: dict[int, float] = {}
    starts: dict[int, float] = {}
    for seg in survivor:
        if seg.duration > 0:
            volumes[seg.job_id] = volumes.get(seg.job_id, 0.0) + seg.volume()
            starts[seg.job_id] = min(starts.get(seg.job_id, seg.t0), seg.t0)
    assume(volumes)
    from_zero = draw(st.booleans())
    inst = Instance([
        Job(j, 0.0 if from_zero else max(starts[j], 0.0), v, draw(st.sampled_from([1.0, 2.5])))
        for j, v in sorted(volumes.items())
    ])
    events = [_meta(inst)]
    for component in ("C", "NC"):
        for k, attempt in enumerate(attempts):
            if k:
                events.append(_retry(component))
            events.extend(_kernel(component, seg) for seg in attempt)
    return events, survivor


def _lemma4_flow(report) -> float:
    return next(c.lhs for c in report.checks if c.name.startswith("Lemma 4"))


class TestSliverReorder:
    def test_tolerance_sliver_regression_parity(self):
        """A t0 regression *inside* the builder-clock tolerance passes the
        clock check and is sorted into place; here the sorted segments
        overlap, and both paths reject the trace with the same message."""
        inst = Instance([Job(0, 0.0, 10.0, 1.0)])
        events = [
            _meta(inst),
            _kernel("C", ConstantSegment(1.0, 1.0 + 5e-10, 0, 1.0)),
            _kernel("C", ConstantSegment(1.0 - 2e-10, 2.0, 0, 1.0)),
        ]
        _assert_error_parity(events)

    @settings(max_examples=300, deadline=None)
    @given(_sliver_traces())
    def test_random_streams_match_oracle(self, case):
        events, survivor = case
        try:
            oracle = build_report_in_memory(events)
        except ScheduleError as err:
            with pytest.raises(ScheduleError) as exc:
                build_report(iter(events))
            assert str(exc.value) == str(err)
            return
        streamed = build_report(iter(events))
        if _overlaps(survivor):
            # Overlap the 1e-9 tolerance admits: see test below.
            assert streamed.energies == oracle.energies
        else:
            assert streamed == oracle

    def test_completion_inside_tolerated_overlap(self):
        """The parity contract's documented edge.  NC's second segment starts
        inside the first (within the overlap tolerance) and the job completes
        inside the overlap: the oracle clips the first segment's flow
        integral at the completion, the streaming replayer has already
        integrated it to its end.  Energies and verdicts agree; the Lemma 4
        flows differ in the last bits."""
        inst = Instance([Job(0, 0.0, 0.5000000006, 1.0)])
        events = [
            _meta(inst),
            _kernel("C", ConstantSegment(0.0, 0.5000000006, 0, 1.0)),
            _kernel("NC", ConstantSegment(0.0, 0.5, 0, 1.0)),
            _kernel(
                "NC",
                ConstantSegment(0.49999999933412914, 0.49999999963412917, 0, 2.0),
            ),
        ]
        streamed = build_report(iter(events))
        oracle = build_report_in_memory(events)
        assert streamed.energies == oracle.energies
        assert [c.holds for c in streamed.checks] == [c.holds for c in oracle.checks]
        assert _lemma4_flow(streamed) == 0.12500000030000002
        assert _lemma4_flow(oracle) == 0.1250000003


class TestBoundedMemory:
    def test_replayer_retires_completed_jobs(self):
        """The incremental replayer's live-job dict must shrink as jobs
        complete — that is the bounded-memory claim in miniature."""
        inst = random_instance(12, seed=4, volume="exponential", density="unit")
        power = PowerLaw(3.0)
        rec = MemoryRecorder()
        context = SimulationContext(power, recorder=rec)
        simulate_clairvoyant(inst, power, context=context)
        replayer = IncrementalScheduleReplayer("C", inst, power)
        for e in rec:
            if e.kind == "kernel_eval" and e.component == "C":
                replayer.feed(e.payload)
        # Every job completes in a clairvoyant run, so all are retired from
        # the active integral set before finalize.
        assert len(replayer._active) == 0
        replayer.finalize_replay()
        energy, _ = replayer.finalize_eval()
        assert energy > 0

    def test_generator_source_single_pass(self, tmp_path):
        """build_report consumes a generator exactly once (no list() inside)."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        pulls = 0

        def gen():
            nonlocal pulls
            for e in events:
                pulls += 1
                yield e

        report = build_report(gen())
        assert pulls == len(events)
        assert report.n_events == len(events)
        assert report.ok


def _replay(
    inst: Instance, events: list[TraceEvent], component: str
) -> IncrementalScheduleReplayer:
    replayer = IncrementalScheduleReplayer(component, inst, PowerLaw(3.0))
    for e in events:
        if e.kind == "kernel_eval" and e.component == component:
            replayer.feed(e.payload)
    return replayer


class TestAdmissionAtRelease:
    """Jobs join the replayer's per-segment update set at their release, so
    a segment costs O(live jobs) and a replay O(segments x live jobs)."""

    def test_job_released_after_last_segment_never_accumulates(self):
        """Never admitted, the job still fails exactly as the batch path
        does: its volume is under the conservation tolerance, so the error
        comes from the completion scan."""
        _, inst, alpha = _corpus_cases()[0]
        events = _traced_pair(inst, alpha)
        end = max(float(e.payload["t1"]) for e in events if e.kind == "kernel_eval")
        late = Instance(list(inst) + [Job(max(inst.job_ids) + 1, end + 1.0, 1e-7)])
        events[0] = _meta(late, alpha)
        with pytest.raises(ScheduleError, match="never accumulates volume 1e-07"):
            build_report(iter(events))
        _assert_error_parity(events)

    def test_retry_mid_stream_restores_unreleased(self):
        inst = random_instance(12, seed=4, volume="exponential", density="unit")
        events = _traced_pair(inst, 3.0)
        kernels = [e for e in events if e.kind == "kernel_eval" and e.component == "C"]
        half = kernels[: len(kernels) // 2]
        replayer = _replay(inst, half, "C")
        assert len(replayer._unreleased) < len(inst)
        replayer.reset()
        assert len(replayer._unreleased) == len(inst) and not replayer._active
        for e in kernels:
            replayer.feed(e.payload)
        fresh = _replay(inst, kernels, "C")
        for r in (replayer, fresh):
            r.finalize_replay()
        assert replayer.finalize_eval() == fresh.finalize_eval()
        # And through the report: the failed half-attempt leaves no trace.
        retried = [events[0], *half, _retry("C"), *events[1:]]
        assert build_report(iter(retried)).checks == build_report(iter(events)).checks
        _assert_parity(retried)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_integral_steps_linear_in_segments(self, n):
        """Steps per replayed segment is the mean number of live jobs, not
        the job count: 3.2x at both sizes here, where admitting every job
        up front took 251x and 998x (about n/2)."""
        inst = random_instance(n, seed=1, volume="uniform", density="unit")
        events = _traced_pair(inst, 3.0)
        steps = segments = 0
        for component in ("C", "NC"):
            replayer = _replay(inst, events, component)
            steps += replayer.integral_steps
            segments += sum(
                1 for e in events if e.kind == "kernel_eval" and e.component == component
            )
        assert steps <= 4 * segments
