"""Round-trip tests for serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PowerLaw
from repro.algorithms import (
    simulate_clairvoyant,
    simulate_nc_uniform,
    to_integral_schedule,
)
from repro.core import evaluate
from repro.core.errors import InvalidInstanceError, ScheduleError
from repro.core.job import Instance
from repro.core.schedule import (
    ConstantSegment,
    DecaySegment,
    GrowthSegment,
    IdleSegment,
    ScaledSegment,
    Segment,
    segment_from_dict,
    segment_from_trace,
    segment_to_dict,
    trace_payload,
)
from repro.io import (
    dump_run,
    instance_from_dict,
    instance_to_dict,
    load_run,
    report_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)

from conftest import general_instances, uniform_instances


class TestInstanceRoundTrip:
    @given(general_instances(max_jobs=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_exact(self, inst):
        again = instance_from_dict(instance_to_dict(inst))
        assert again.jobs == inst.jobs

    def test_json_serialisable(self, three_jobs):
        text = json.dumps(instance_to_dict(three_jobs))
        again = instance_from_dict(json.loads(text))
        assert again.jobs == three_jobs.jobs

    def test_default_density(self):
        data = {"jobs": [{"id": 0, "release": 0.0, "volume": 1.0}]}
        inst = instance_from_dict(data)
        assert inst[0].density == 1.0


class TestScheduleRoundTrip:
    @given(uniform_instances(max_jobs=5))
    @settings(max_examples=20, deadline=None)
    def test_clairvoyant_schedule_costs_survive(self, inst):
        """The analytic parameters round-trip exactly, so costs re-evaluate
        bit-for-bit."""
        power = PowerLaw(3.0)
        sched = simulate_clairvoyant(inst, power).schedule
        again = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched))))
        a = evaluate(sched, inst, power)
        b = evaluate(again, inst, power)
        assert b.fractional_objective == a.fractional_objective
        assert b.energy == a.energy

    def test_growth_segments(self, cube, three_jobs):
        sched = simulate_nc_uniform(three_jobs, cube).schedule
        again = schedule_from_dict(schedule_to_dict(sched))
        assert evaluate(again, three_jobs, cube).energy == evaluate(
            sched, three_jobs, cube
        ).energy

    def test_scaled_segments(self, cube, three_jobs):
        base = simulate_nc_uniform(three_jobs, cube).schedule
        integral = to_integral_schedule(base, three_jobs, 0.5)
        again = schedule_from_dict(schedule_to_dict(integral))
        assert evaluate(again, three_jobs, cube).integral_objective == pytest.approx(
            evaluate(integral, three_jobs, cube).integral_objective, rel=0
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict({"segments": [{"kind": "warp", "t0": 0, "t1": 1, "job": 0}]})


class TestReportExport:
    def test_fields(self, cube, three_jobs):
        rep = evaluate(simulate_clairvoyant(three_jobs, cube).schedule, three_jobs, cube)
        data = report_to_dict(rep)
        assert data["fractional_objective"] == pytest.approx(rep.fractional_objective)
        assert set(data["completion_times"]) == {"0", "1", "2"}
        json.dumps(data)  # JSON-clean


class TestDumpLoad:
    def test_file_roundtrip(self, cube, three_jobs, tmp_path):
        sched = simulate_nc_uniform(three_jobs, cube).schedule
        path = tmp_path / "run.json"
        dump_run(str(path), three_jobs, sched, meta={"algorithm": "NC", "alpha": 3.0})
        inst2, sched2, meta = load_run(str(path))
        assert inst2.jobs == three_jobs.jobs
        assert meta["algorithm"] == "NC"
        assert evaluate(sched2, inst2, cube).fractional_objective == pytest.approx(
            evaluate(sched, three_jobs, cube).fractional_objective, rel=0
        )


# -- the segment format: round trips and decoder fuzzing ---------------------

_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_alpha = st.floats(min_value=1.1, max_value=6.0, allow_nan=False)


@st.composite
def _windows(draw):
    t0 = draw(_times)
    return t0, t0 + draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))


@st.composite
def _base_segments(draw):
    t0, t1 = draw(_windows())
    job = draw(st.integers(min_value=0, max_value=50))
    kind = draw(st.sampled_from(["idle", "constant", "idle-gap", "decay", "growth"]))
    if kind == "idle":
        return IdleSegment(t0, t1)
    if kind == "idle-gap":  # the engine's speed-0 segment with no job
        return ConstantSegment(t0, t1, None, 0.0)
    if kind == "constant":
        return ConstantSegment(t0, t1, job, draw(_pos))
    cls = DecaySegment if kind == "decay" else GrowthSegment
    return cls(t0, t1, job, draw(_pos), draw(_pos), draw(_alpha))


@st.composite
def _segments(draw):
    seg = draw(_base_segments())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        seg = ScaledSegment(seg.t0, seg.t1, seg.job_id, seg, draw(_pos))
    return seg


#: JSON values: what a parsed file, request body or trace line can hold.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_fields = st.sampled_from(
    ["kind", "profile", "t0", "t1", "job", "speed", "x0", "rho", "alpha", "factor", "base"]
)
_values = (
    st.sampled_from(["idle", "constant", "decay", "growth", "scaled", "const", "warp"])
    | st.floats(min_value=-1.0, max_value=5.0)
    | st.integers(min_value=-1, max_value=5)
    | _json
)
#: Objects keyed mostly by the format's own field names, nested via ``base``.
_segment_like = st.recursive(
    st.dictionaries(_fields | st.text(max_size=3), _values, max_size=9),
    lambda inner: st.builds(
        lambda d, b: {**d, "base": b}, st.dictionaries(_fields, _values), inner
    ),
    max_leaves=4,
)


class TestSegmentFormat:
    @given(_segments())
    @settings(max_examples=150, deadline=None)
    def test_file_form_round_trips_every_kind(self, seg: Segment):
        assert segment_from_dict(segment_to_dict(seg)) == seg
        assert segment_from_dict(json.loads(json.dumps(segment_to_dict(seg)))) == seg

    @given(_base_segments(), _pos, _alpha)
    @settings(max_examples=100, deadline=None)
    def test_trace_form_round_trips_every_profile(self, seg: Segment, rho, alpha):
        if isinstance(seg, IdleSegment) or seg.job_id is None:
            return  # the trace form only carries a job's pieces
        if isinstance(seg, ConstantSegment):
            payload = trace_payload("const", seg.t0, seg.t1, seg.job_id, seg.speed, rho, alpha)
        else:
            profile = "decay" if isinstance(seg, DecaySegment) else "growth"
            payload = trace_payload(profile, seg.t0, seg.t1, seg.job_id, seg.x0, seg.rho, seg.alpha)
        assert segment_from_trace(json.loads(json.dumps(payload))) == seg

    @given(_segment_like | _json)
    @settings(max_examples=400, deadline=None)
    def test_file_decoder_returns_a_schedule_or_schedule_error(self, data):
        for payload in (data, {"segments": [data]}, {"segments": data}):
            try:
                schedule_from_dict(payload)
            except ScheduleError:
                pass

    @given(_segment_like | _json)
    @settings(max_examples=400, deadline=None)
    def test_trace_decoder_returns_a_segment_or_schedule_error(self, data):
        try:
            assert isinstance(segment_from_trace(data), Segment)
        except ScheduleError:
            pass

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"kind": "decay", "t0": 0.0, "t1": 1.0, "job": 0, "rho": 1.0, "alpha": 3.0}, "'x0'"),
            ({"kind": "constant", "t0": 0.0, "t1": 1.0, "job": 0, "speed": "1"}, "number"),
            ({"kind": "constant", "t0": 0.0, "t1": 1.0, "job": 0.5, "speed": 1.0}, "integer"),
            ({"kind": "scaled", "t0": 0.0, "t1": 1.0, "job": 0, "factor": 2.0}, "'base'"),
            ({"kind": None, "t0": 0.0, "t1": 1.0, "job": 0}, "string"),
            ({"kind": "idle", "t0": 10**400, "t1": 1.0, "job": None}, "'t0' must be a number"),
        ],
    )
    def test_file_decoder_names_the_bad_field(self, data, message):
        with pytest.raises(ScheduleError, match=message):
            schedule_from_dict({"segments": [data]})

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"profile": "const", "t1": 2.0, "job": 0, "speed": 1.0}, "'t0'"),
            ({"profile": "const", "t0": 0.0, "t1": 2.0, "job": None, "speed": 1.0}, "integer"),
            (
                {"profile": "growth", "t0": 0.0, "t1": 1.0, "job": 0, "x0": 0.0, "rho": 1.0},
                "'alpha'",
            ),
            ({"profile": "warp", "t0": 0.0, "t1": 1.0, "job": 0}, "unknown kernel profile"),
        ],
    )
    def test_trace_decoder_names_the_bad_field(self, payload, message):
        with pytest.raises(ScheduleError, match=message):
            segment_from_trace(payload)


_job_like = st.dictionaries(
    st.sampled_from(["id", "release", "volume", "density"]) | st.text(max_size=3),
    st.floats(min_value=-1.0, max_value=5.0) | st.integers(min_value=-1, max_value=5) | _json,
    max_size=5,
)


class TestInstanceFormat:
    @given(_job_like | _json)
    @settings(max_examples=400, deadline=None)
    def test_decoder_returns_an_instance_or_invalid_instance_error(self, data):
        for payload in (data, {"jobs": [data]}, {"jobs": data}):
            try:
                assert isinstance(instance_from_dict(payload), Instance)
            except InvalidInstanceError:
                pass

    @pytest.mark.parametrize(
        "data,message",
        [
            ({}, "'jobs' list"),
            ({"jobs": 3}, "'jobs' list"),
            ({"jobs": []}, "at least one job"),
            ({"jobs": [3]}, r"jobs\[0\] must be an object"),
            ({"jobs": [{}]}, r"jobs\[0\] field 'id' must be an integer, got nothing"),
            ({"jobs": [{"id": 0, "release": "1", "volume": 1.0}]}, "'release' must be a number"),
            ({"jobs": [{"id": 0, "release": 0.0, "volume": True}]}, "'volume' must be a number"),
            ({"jobs": [{"id": 0, "release": 0.0, "volume": 1.0, "density": None}]}, "'density'"),
            ({"jobs": [{"id": 1.0, "release": 0.0, "volume": 1.0}]}, "'id' must be an integer"),
            ({"jobs": [{"id": 0, "release": 10**400, "volume": 1.0}]}, "too large for a float"),
            ({"jobs": [{"id": 0, "release": -1.0, "volume": 1.0}]}, "release must be finite"),
        ],
    )
    def test_decoder_names_the_bad_field(self, data, message):
        with pytest.raises(InvalidInstanceError, match=message):
            instance_from_dict(data)

    def test_load_run_raises_the_typed_errors(self, cube, three_jobs, tmp_path):
        path = tmp_path / "run.json"
        dump_run(str(path), three_jobs, simulate_nc_uniform(three_jobs, cube).schedule)
        payload = json.loads(path.read_text())
        del payload["instance"]["jobs"][1]["volume"]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInstanceError, match=r"jobs\[1\] field 'volume' .* got nothing"):
            load_run(str(path))
        path.write_text("[]")
        with pytest.raises(InvalidInstanceError, match="JSON object"):
            load_run(str(path))
