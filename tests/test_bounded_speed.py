"""Tests for the speed-bounded extension.

The cap lives on the power function: ``simulate_clairvoyant`` and
``simulate_nc_uniform`` honour a :class:`CappedPowerLaw`, and every
simulator whose dynamics ignore ``s_max`` refuses one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.algorithms import simulate_clairvoyant, simulate_nc_general, simulate_nc_uniform
from repro.algorithms.nc_general import NCGeneralPolicy
from repro.core import evaluate
from repro.core.errors import InvalidInstanceError, InvalidPowerFunctionError
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.extensions import CappedPowerLaw
from repro.parallel.nc_par import simulate_nc_par
from repro.parallel.nc_par import simulate_nc_hdf_par
from repro.workloads.random_instances import random_instance

from capped_oracle import (
    max_observed_speed,
    simulate_clairvoyant_capped,
    simulate_nc_uniform_capped,
)
from conftest import uniform_instances


class TestCappedPowerLaw:
    def test_clip_inverse(self):
        p = CappedPowerLaw(3.0, 2.0)
        assert p.speed(1.0) == pytest.approx(1.0)
        assert p.speed(1000.0) == pytest.approx(2.0)

    def test_power_rejects_infeasible_speed(self):
        p = CappedPowerLaw(3.0, 2.0)
        with pytest.raises(ValueError):
            p.power(3.0)

    def test_saturation_weight(self):
        assert CappedPowerLaw(3.0, 2.0).saturation_weight == pytest.approx(8.0)

    def test_rejects_bad_cap(self):
        with pytest.raises(InvalidPowerFunctionError):
            CappedPowerLaw(3.0, 0.0)

    def test_equality(self):
        assert CappedPowerLaw(3.0, 2.0) == CappedPowerLaw(3.0, 2.0)
        assert CappedPowerLaw(3.0, 2.0) != CappedPowerLaw(3.0, 3.0)
        assert CappedPowerLaw(3.0, 2.0) != PowerLaw(3.0)


class TestCappedClairvoyant:
    def test_cap_respected(self, three_jobs):
        p = CappedPowerLaw(3.0, 1.1)
        run = simulate_clairvoyant(three_jobs, p)
        assert max_observed_speed(run.schedule) <= 1.1 + 1e-9

    def test_loose_cap_reduces_to_uncapped(self, three_jobs):
        p = CappedPowerLaw(3.0, 100.0)
        capped = evaluate(simulate_clairvoyant(three_jobs, p).schedule, three_jobs, p)
        plain = evaluate(
            simulate_clairvoyant(three_jobs, PowerLaw(3.0)).schedule, three_jobs, PowerLaw(3.0)
        )
        assert capped.fractional_objective == pytest.approx(plain.fractional_objective, rel=1e-12)

    def test_tight_cap_costs_more_flow(self, three_jobs):
        loose = CappedPowerLaw(3.0, 100.0)
        tight = CappedPowerLaw(3.0, 0.8)
        f_loose = evaluate(
            simulate_clairvoyant(three_jobs, loose).schedule, three_jobs, loose
        ).fractional_flow
        f_tight = evaluate(
            simulate_clairvoyant(three_jobs, tight).schedule, three_jobs, tight
        ).fractional_flow
        assert f_tight > f_loose

    def test_saturated_phase_is_linear(self):
        """While W > P(s_max), weight decreases at rate rho*s_max."""
        p = CappedPowerLaw(3.0, 1.0)  # saturation weight 1.0
        inst = Instance([Job(0, 0.0, 5.0)])
        run = simulate_clairvoyant(inst, p)
        # first 4 volume units at speed 1 -> 4 time units saturated
        seg = run.schedule.segments[0]
        assert seg.speed_at(seg.t0) == pytest.approx(1.0)
        assert seg.duration == pytest.approx(4.0, rel=1e-9)

    def test_until_horizon(self, three_jobs):
        p = CappedPowerLaw(3.0, 1.0)
        run = simulate_clairvoyant(three_jobs, p, until=1.0)
        assert run.clock == pytest.approx(1.0)
        assert sum(run.remaining.values()) > 0

    def test_plain_power_law_runs_uncapped(self, three_jobs):
        """Only a CappedPowerLaw saturates: a plain PowerLaw never records a
        constant-speed piece and its trace is tagged ``C``, not ``C_capped``."""
        rec = MemoryRecorder()
        power = PowerLaw(3.0)
        context = SimulationContext(power, recorder=rec)
        run = simulate_clairvoyant(three_jobs, power, context=context)
        assert max_observed_speed(run.schedule) > 1.1
        assert {type(s).__name__ for s in run.schedule.segments} == {"DecaySegment"}
        assert {e.component for e in rec} == {"C"}

    @given(uniform_instances(max_jobs=5), st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_valid_schedules(self, inst, s_max):
        p = CappedPowerLaw(3.0, s_max)
        run = simulate_clairvoyant(inst, p)
        rep = evaluate(run.schedule, inst, p)
        assert set(rep.completion_times) == set(inst.job_ids)


class TestCappedNC:
    def test_cap_respected(self, three_jobs):
        p = CappedPowerLaw(3.0, 1.1)
        run = simulate_nc_uniform(three_jobs, p)
        assert max_observed_speed(run.schedule) <= 1.1 + 1e-9

    def test_loose_cap_reduces_to_uncapped(self, three_jobs):
        p = CappedPowerLaw(3.0, 100.0)
        capped = evaluate(simulate_nc_uniform(three_jobs, p).schedule, three_jobs, p)
        plain = evaluate(
            simulate_nc_uniform(three_jobs, PowerLaw(3.0)).schedule, three_jobs, PowerLaw(3.0)
        )
        assert capped.fractional_objective == pytest.approx(plain.fractional_objective, rel=1e-9)

    def test_rejects_nonuniform(self, mixed_density_jobs):
        p = CappedPowerLaw(3.0, 1.0)
        with pytest.raises(InvalidInstanceError):
            simulate_nc_uniform(mixed_density_jobs, p)

    @given(
        uniform_instances(max_jobs=6),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_energy_equality_survives_the_cap(self, inst, s_max):
        """The Lemma-3 analogue in the bounded-speed model: the clipped NC
        profile is still a rearrangement of the clipped C profile, so the
        energies agree exactly."""
        p = CappedPowerLaw(3.0, s_max)
        e_nc = evaluate(simulate_nc_uniform(inst, p).schedule, inst, p).energy
        e_c = evaluate(simulate_clairvoyant(inst, p).schedule, inst, p).energy
        assert e_nc == pytest.approx(e_c, rel=1e-7)

    @given(uniform_instances(max_jobs=5), st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_flow_ratio_at_most_uncapped(self, inst, s_max):
        """The cap compresses the flow gap: ratio <= 1/(1-1/alpha)."""
        alpha = 3.0
        p = CappedPowerLaw(alpha, s_max)
        f_nc = evaluate(simulate_nc_uniform(inst, p).schedule, inst, p).fractional_flow
        f_c = evaluate(simulate_clairvoyant(inst, p).schedule, inst, p).fractional_flow
        assert f_nc <= f_c / (1 - 1 / alpha) * (1 + 1e-7)
        assert f_nc >= f_c * (1 - 1e-9)  # NC is never better than C on flow


def _events(rec: MemoryRecorder) -> list[tuple]:
    """Trace events minus their wall-clock stamps, payload key order kept."""
    return [(e.kind, e.sim_time, e.component, list(e.payload.items())) for e in rec]


def _traced(simulate, inst, power):
    rec = MemoryRecorder()
    run = simulate(inst, power, context=SimulationContext(power, recorder=rec))
    return run, _events(rec)


class TestCappedOracleDifferential:
    """The merged simulators against the dedicated capped drivers they
    replaced (``tests/capped_oracle.py``): bit for bit, capped or not."""

    @given(
        uniform_instances(max_jobs=7, density=None),
        st.floats(min_value=1.5, max_value=4.0),
        st.one_of(st.none(), st.floats(min_value=0.3, max_value=60.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, inst, alpha, s_max):
        if s_max is None:
            # Uncapped: the loop must not move at all; the capped oracle with
            # a cap no run can reach gives the same segments.
            power = PowerLaw(alpha)
            ref_power = CappedPowerLaw(alpha, 1e6)
        else:
            power = ref_power = CappedPowerLaw(alpha, s_max)
        for simulate, reference in (
            (simulate_clairvoyant, simulate_clairvoyant_capped),
            (simulate_nc_uniform, simulate_nc_uniform_capped),
        ):
            run, events = _traced(simulate, inst, power)
            ref, ref_events = _traced(reference, inst, ref_power)
            assert run.schedule.segments == ref.schedule.segments
            assert evaluate(run.schedule, inst, power) == evaluate(ref.schedule, inst, ref_power)
            if s_max is not None:
                assert events == ref_events
            else:
                assert [e[:2] + e[3:] for e in events] == [e[:2] + e[3:] for e in ref_events]

    @pytest.mark.parametrize("s_max", [0.7, 1.2, 50.0])
    @pytest.mark.parametrize("volume", ["exponential", "uniform"])
    def test_seeded_instances(self, s_max, volume):
        power = CappedPowerLaw(3.0, s_max)
        for seed in range(4):
            inst = random_instance(12, seed=seed, volume=volume, rate=2.0)
            for simulate, reference in (
                (simulate_clairvoyant, simulate_clairvoyant_capped),
                (simulate_nc_uniform, simulate_nc_uniform_capped),
            ):
                run, events = _traced(simulate, inst, power)
                ref, ref_events = _traced(reference, inst, power)
                assert run.schedule.segments == ref.schedule.segments
                assert evaluate(run.schedule, inst, power) == evaluate(
                    ref.schedule, inst, power
                )
                assert events == ref_events


class TestCapHonouredOrRefused:
    """Every simulator either keeps a CappedPowerLaw's speed under s_max or
    refuses it with a TypeError naming the cap."""

    POWER = CappedPowerLaw(3.0, 1.1)

    def _instances(self):
        return [random_instance(4, seed=seed, volume="uniform") for seed in range(6)]

    def test_analytic_c_and_nc_stay_under_the_cap(self):
        for inst in self._instances():
            for simulate in (simulate_clairvoyant, simulate_nc_uniform):
                run = simulate(inst, self.POWER)
                assert max_observed_speed(run.schedule) <= 1.1 * (1 + 1e-12)
                evaluate(run.schedule, inst, self.POWER, validate=True)

    def test_default_components_follow_the_cap(self, three_jobs):
        _, c_events = _traced(simulate_clairvoyant, three_jobs, self.POWER)
        _, nc_events = _traced(simulate_nc_uniform, three_jobs, self.POWER)
        assert {e[2] for e in c_events} == {"C_capped"}
        assert {e[2] for e in nc_events} <= {"NC_capped", "NC_capped.prefix"}
        assert "NC_capped" in {e[2] for e in nc_events}

    @pytest.mark.parametrize(
        "simulate",
        [
            lambda inst, p: simulate_nc_par(inst, p, 2),
            lambda inst, p: simulate_nc_par(inst, p, 2, failure=(0, 0.5)),
            lambda inst, p: simulate_nc_hdf_par(inst, p, 2),
            lambda inst, p: NCGeneralPolicy(p),
            lambda inst, p: simulate_nc_general(inst, p),
        ],
        ids=["nc_par", "nc_par_with_failure", "nc_hdf_par", "nc_general_policy", "nc_general"],
    )
    def test_uncapped_simulators_refuse_a_cap(self, simulate, three_jobs):
        with pytest.raises(TypeError, match="s_max=1.1"):
            simulate(three_jobs, self.POWER)
