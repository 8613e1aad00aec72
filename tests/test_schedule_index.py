"""Differential tests for the indexed ``Schedule`` queries and the windowed scorer.

``Schedule`` answers its queries from a per-job index and two bisect arrays,
and ``evaluate`` integrates each job over its own window only.  The contract
is **bit-identity** with the full-scan reference in ``schedule_oracle.py``:
the same floats and the same ``ScheduleError`` messages, on random schedules
with gaps, idle pieces, ``ScaledSegment`` s, sub-tolerance overlaps that make
``t1`` non-monotone, jobs that complete by the accumulated-shortfall
fallback, segments of an unknown job, and jobs processed before release.
"""

from __future__ import annotations

from typing import Any, Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PowerLaw
from repro.core.errors import ScheduleError
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.schedule import (
    ConstantSegment,
    DecaySegment,
    GrowthSegment,
    IdleSegment,
    ScaledSegment,
    Schedule,
    Segment,
)
import schedule_oracle as oracle

_TOL = 1e-9
KNOWN_JOBS = (0, 1, 2, 3)
UNKNOWN_JOB = 9


def _outcome(fn: Callable[[], Any]) -> tuple:
    """A call's value, or its error's type and message."""
    try:
        return ("ok", fn())
    except ScheduleError as err:
        return ("error", type(err), str(err))


class TestBoundaryConventions:
    """Pinned on the full-scan code before the index replaced it; ``curves``,
    ``gantt`` and ``bounded_speed`` sample these rules."""

    SCHEDULE = Schedule([ConstantSegment(0.0, 1.0, 1, 2.0), ConstantSegment(1.0, 2.0, 2, 3.0)])

    def test_speed_at_shared_boundary_takes_the_earlier_segment(self):
        assert self.SCHEDULE.speed_at(1.0) == 2.0

    def test_job_at_shared_boundary_takes_the_later_segment(self):
        assert self.SCHEDULE.job_at(1.0) == 2

    def test_outside_and_gaps(self):
        sched = Schedule([ConstantSegment(0.0, 1.0, 1, 2.0), ConstantSegment(2.0, 3.0, 2, 3.0)])
        for t in (-1.0, 1.5, 3.5):
            assert sched.job_at(t) is None
            assert sched.speed_at(t) == 0.0
        assert sched.speed_at(1.0) == 2.0 and sched.job_at(1.0) is None
        assert sched.speed_at(3.0) == 3.0 and sched.job_at(3.0) is None

    def test_non_monotone_t1(self):
        """A sliver inside the overlap tolerance ends before its predecessor."""
        long = ConstantSegment(0.0, 1.0, 1, 2.0)
        sliver = ConstantSegment(1.0 - 8e-10, 1.0 - 6e-10, 2, 3.0)
        after = ConstantSegment(1.0 - 6e-10, 2.0, 3, 4.0)
        sched = Schedule([long, sliver, after])
        for t in (1.0 - 7e-10, 1.0 - 6e-10, 1.0 - 5e-10, 1.0, 1.5):
            assert sched.speed_at(t) == oracle.speed_at(sched, t)
            assert sched.job_at(t) == oracle.job_at(sched, t)
        # The sliver ends before 1 - 5e-10 but sits under long's running
        # maximum of t1, so the window keeps it; nothing ends after 1.0
        # before ``after``.
        assert sched.window(1.0 - 5e-10, 2.0) == (long, sliver, after)
        assert sched.window(1.0, 2.0) == (after,)


@st.composite
def _segment(draw, t0: float, t1: float) -> Segment:
    kind = draw(st.sampled_from(["const", "decay", "growth", "scaled", "idle"]))
    job = draw(st.sampled_from(KNOWN_JOBS + (UNKNOWN_JOB,)))
    if kind == "idle":
        return IdleSegment(t0, t1)
    if kind == "const":
        return ConstantSegment(t0, t1, job, draw(st.floats(0.1, 3.0)))
    if kind in ("decay", "growth"):
        cls = DecaySegment if kind == "decay" else GrowthSegment
        return cls(
            t0, t1, job, draw(st.floats(0.5, 5.0)), draw(st.floats(0.2, 3.0)),
            draw(st.sampled_from([2.0, 3.0])),
        )
    base = draw(st.sampled_from([
        ConstantSegment(t0, t1, job, draw(st.floats(0.1, 3.0))),
        DecaySegment(t0, t1, job, draw(st.floats(0.5, 5.0)), draw(st.floats(0.2, 3.0)), 3.0),
    ]))
    return ScaledSegment(t0, t1, job, base, draw(st.floats(0.5, 2.0)))


@st.composite
def _segments(draw) -> list[Segment]:
    """Abutting pieces, gaps, and starts that regress into the previous
    piece by less than the overlap tolerance; a regressing piece may be a
    sliver that ends before its predecessor, so ``t1`` is non-monotone."""
    clock = draw(st.floats(0.0, 3.0))
    segments: list[Segment] = []
    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.sampled_from(["abut", "gap", "overlap"]))
        t0 = clock
        if step == "gap":
            t0 += draw(st.floats(1e-3, 1.5))
        elif step == "overlap" and segments:
            prev = segments[-1]
            room = min(_TOL * max(1.0, abs(prev.t1)), prev.duration)
            t0 = prev.t1 - draw(st.floats(0.05, 0.95)) * room
        duration = draw(st.one_of(st.floats(1e-3, 2.0), st.floats(1e-11, 5e-10)))
        seg = draw(_segment(t0, t0 + duration))
        segments.append(seg)
        clock = seg.t1
    return segments


@st.composite
def _cases(draw) -> tuple[Schedule, Instance]:
    sched = Schedule(draw(_segments()))
    jobs = []
    for job_id in KNOWN_JOBS:
        mine = oracle.job_segments(sched, job_id)
        got = oracle.processed_volume(sched, job_id)
        first = mine[0].t0 if mine else draw(st.floats(0.0, 5.0))
        release = draw(st.sampled_from(["before", "at", "after"]))
        if release == "before":
            release_t = max(first - draw(st.floats(0.0, 1.0)), 0.0)
        elif release == "at":
            release_t = max(first, 0.0)
        else:  # processed before its release
            release_t = first + draw(st.floats(1e-3, 1.0))
        if got > 0:
            factor = draw(st.sampled_from([
                1.0,
                1.0 + 5e-8,  # completes by the accumulated-shortfall fallback
                1.0 - 1e-7,  # completes inside its last segment
                0.5,
                2.0,  # never accumulates its volume
            ]))
            volume = got * factor
        else:
            volume = draw(st.floats(0.1, 2.0))
        jobs.append(Job(job_id, release_t, volume, draw(st.floats(0.2, 3.0))))
    return sched, Instance(jobs)


def _probe_times(sched: Schedule) -> list[float]:
    times = [-1.0, sched.end_time + 1.0]
    for seg in sched:
        times += [seg.t0, seg.t1, 0.5 * (seg.t0 + seg.t1), seg.t0 - 1e-12, seg.t1 + 1e-12]
    return times


class TestOracleDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_cases())
    def test_scoring_matches_full_scan(self, case):
        sched, inst = case
        power = PowerLaw(3.0)
        for validate in (True, False):
            assert _outcome(lambda: evaluate(sched, inst, power, validate=validate)) == _outcome(
                lambda: oracle.evaluate(sched, inst, power, validate=validate)
            )

    @settings(max_examples=200, deadline=None)
    @given(_cases())
    def test_queries_match_full_scan(self, case):
        sched, inst = case
        times = _probe_times(sched)
        for job_id in KNOWN_JOBS + (UNKNOWN_JOB,):
            assert sched.job_segments(job_id) == oracle.job_segments(sched, job_id)
            assert sched.processed_volume(job_id) == oracle.processed_volume(sched, job_id)
            for t in times:
                assert sched.processed_volume_until(job_id, t) == oracle.processed_volume_until(
                    sched, job_id, t
                )
        for job in inst:
            assert _outcome(lambda: sched.completion_time(job.job_id, job.volume)) == _outcome(
                lambda: oracle.completion_time(sched, job.job_id, job.volume)
            )
        for t in times:
            assert _outcome(lambda: sched.speed_at(t)) == _outcome(
                lambda: oracle.speed_at(sched, t)
            )
            assert sched.job_at(t) == oracle.job_at(sched, t)

    def test_scaled_and_fallback_by_hand(self):
        """A fixed case of the shapes above, so a strategy change cannot
        silently stop covering them."""
        base = DecaySegment(1.0, 2.0, 0, 2.0, 1.0, 3.0)
        sched = Schedule([
            ConstantSegment(0.0, 1.0, 0, 1.0),
            ScaledSegment(1.0, 2.0, 0, base, 1.5),
            IdleSegment(2.0, 2.5),
            ConstantSegment(2.5, 3.0, 1, 2.0),
        ])
        done = oracle.processed_volume(sched, 0)
        inst = Instance([Job(0, 0.0, done * (1 + 5e-8)), Job(1, 2.0, 1.0)])
        power = PowerLaw(3.0)
        report = evaluate(sched, inst, power)
        assert report == oracle.evaluate(sched, inst, power)
        assert report.completion_times[0] == 2.0  # the fallback: last touch

    def test_processed_before_release_by_hand(self):
        """Job 0 runs from 0.0 but is released at 0.5, beside an unknown job."""
        sched = Schedule([ConstantSegment(0.0, 1.0, 0, 1.0), ConstantSegment(1.0, 2.0, 7, 1.0)])
        inst = Instance([Job(0, 0.5, 1.0)])
        power = PowerLaw(3.0)
        outcomes = [
            _outcome(lambda: evaluate(sched, inst, power, validate=validate))
            for validate in (True, False)
        ]
        assert outcomes == [
            _outcome(lambda: oracle.evaluate(sched, inst, power, validate=validate))
            for validate in (True, False)
        ]
        assert outcomes[0][2] == "job 0 processed at 0.0 before release 0.5"
