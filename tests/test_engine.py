"""Tests for the generic numeric engine, including cross-validation against
the exact analytic simulators — the package's defence against closed-form
algebra errors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Instance, Job, PowerLaw
from repro.algorithms.clairvoyant import ClairvoyantPolicy, simulate_clairvoyant
from repro.algorithms.nc_uniform import NCUniformPolicy, simulate_nc_uniform
from repro.core.engine import NumericEngine, SchedulingPolicy
from repro.core.errors import SimulationError
from repro.core.metrics import evaluate

from conftest import uniform_instances


class TestMidpointProbe:
    """The RK2 probe is written into the engine's ``processed`` map in place
    and restored after the midpoint call, instead of copying the map."""

    class _Spy(ClairvoyantPolicy):
        def __init__(self, instance, power):
            super().__init__(instance, power)
            self.calls: list[tuple[int, dict[int, float]]] = []
            self.maps: set[int] = set()

        def speed(self, t, processed):
            self.maps.add(id(processed))
            self.calls.append((len(self.calls), dict(processed)))
            return super().speed(t, processed)

    def test_probe_sees_midpoint_state_and_is_restored(self, cube, three_jobs):
        spy = self._Spy(three_jobs, cube)
        result = NumericEngine(cube, max_step=1e-2).run(three_jobs, spy)
        assert len(spy.maps) == 1  # one map, lent to every call
        # Calls come in (start, midpoint) pairs: the midpoint differs from
        # the start in at most the selected job, and the next step's start
        # never carries a probe value forward.
        for (_, start), (_, mid) in zip(spy.calls[::2], spy.calls[1::2]):
            assert set(start) == set(mid)
            assert sum(start[j] != mid[j] for j in start) <= 1
        plain = NumericEngine(cube, max_step=1e-2).run(
            three_jobs, ClairvoyantPolicy(three_jobs, cube)
        )
        assert [(s.t0, s.t1, s.job_id, s.speed) for s in result.schedule] == [
            (s.t0, s.t1, s.job_id, s.speed) for s in plain.schedule
        ]

    def test_probe_restored_when_midpoint_raises(self, cube):
        inst = Instance([Job(0, 0.0, 1.0)])
        seen: list[dict[int, float]] = []

        class Failing(ClairvoyantPolicy):
            def speed(self, t, processed):
                seen.append(processed)
                if len(seen) == 2:
                    raise RuntimeError("midpoint")
                return super().speed(t, processed)

        with pytest.raises(RuntimeError, match="midpoint"):
            NumericEngine(cube, max_step=1e-2).run(inst, Failing(inst, cube))
        assert seen[0] is seen[1]
        assert seen[0][0] == 0.0


class TestEngineBasics:
    def test_rejects_bad_steps(self, cube):
        with pytest.raises(ValueError):
            NumericEngine(cube, max_step=0.0)
        with pytest.raises(ValueError):
            NumericEngine(cube, max_step=1e-3, min_step=1e-2)

    def test_single_job_completes(self, cube):
        inst = Instance([Job(0, 0.0, 1.0)])
        result = NumericEngine(cube, max_step=1e-3).run(inst, ClairvoyantPolicy(inst, cube))
        assert result.schedule.processed_volume(0) == pytest.approx(1.0, rel=1e-6)

    def test_idle_until_release(self, cube):
        inst = Instance([Job(0, 2.0, 1.0)])
        result = NumericEngine(cube, max_step=1e-3).run(inst, ClairvoyantPolicy(inst, cube))
        assert result.schedule.completion_time(0, 1.0) > 2.0
        assert result.schedule.speed_at(1.0) == 0.0

    def test_oracle_marks_all_completed(self, cube, three_jobs):
        result = NumericEngine(cube, max_step=2e-3).run(
            three_jobs, ClairvoyantPolicy(three_jobs, cube)
        )
        for jid in three_jobs.job_ids:
            assert result.oracle.is_completed(jid)

    def test_selecting_inactive_job_raises(self, cube):
        class BadPolicy(ClairvoyantPolicy):
            def select_job(self, t):
                return 999

        inst = Instance([Job(0, 0.0, 1.0)])
        with pytest.raises(SimulationError):
            NumericEngine(cube, max_step=1e-2).run(inst, BadPolicy(inst, cube))

    def test_invalid_speed_raises(self, cube):
        class NaNPolicy(ClairvoyantPolicy):
            def speed(self, t, processed):
                return float("nan")

        inst = Instance([Job(0, 0.0, 1.0)])
        with pytest.raises(SimulationError):
            NumericEngine(cube, max_step=1e-2).run(inst, NaNPolicy(inst, cube))

    def test_zero_speed_policy_stalls_with_error(self, cube):
        class StalledPolicy(ClairvoyantPolicy):
            def speed(self, t, processed):
                return 0.0

        inst = Instance([Job(0, 0.0, 1.0)])
        with pytest.raises(SimulationError):
            NumericEngine(cube, max_step=1.0).run(inst, StalledPolicy(inst, cube))


class TestCrossValidationClairvoyant:
    def test_three_jobs_objective_matches(self, cube, three_jobs):
        num = NumericEngine(cube, max_step=1e-3).run(
            three_jobs, ClairvoyantPolicy(three_jobs, cube)
        )
        ana = simulate_clairvoyant(three_jobs, cube)
        rn = evaluate(num.schedule, three_jobs, cube)
        ra = evaluate(ana.schedule, three_jobs, cube)
        assert rn.fractional_objective == pytest.approx(ra.fractional_objective, rel=1e-4)
        assert rn.energy == pytest.approx(ra.energy, rel=1e-4)

    def test_error_shrinks_with_step(self, cube, three_jobs):
        ana = evaluate(simulate_clairvoyant(three_jobs, cube).schedule, three_jobs, cube)
        errs = []
        for h in (2e-2, 2e-3):
            num = NumericEngine(cube, max_step=h).run(
                three_jobs, ClairvoyantPolicy(three_jobs, cube)
            )
            rn = evaluate(num.schedule, three_jobs, cube)
            errs.append(abs(rn.fractional_objective - ana.fractional_objective))
        assert errs[1] < errs[0]

    @given(uniform_instances(max_jobs=4))
    @settings(max_examples=15, deadline=None)
    def test_property_agreement(self, inst):
        power = PowerLaw(3.0)
        num = NumericEngine(power, max_step=5e-3).run(inst, ClairvoyantPolicy(inst, power))
        ana = simulate_clairvoyant(inst, power)
        rn = evaluate(num.schedule, inst, power)
        ra = evaluate(ana.schedule, inst, power)
        assert rn.fractional_objective == pytest.approx(ra.fractional_objective, rel=2e-3)

    def test_mixed_densities_agreement(self, cube, mixed_density_jobs):
        num = NumericEngine(cube, max_step=1e-3).run(
            mixed_density_jobs, ClairvoyantPolicy(mixed_density_jobs, cube)
        )
        ana = simulate_clairvoyant(mixed_density_jobs, cube)
        rn = evaluate(num.schedule, mixed_density_jobs, cube)
        ra = evaluate(ana.schedule, mixed_density_jobs, cube)
        assert rn.fractional_objective == pytest.approx(ra.fractional_objective, rel=1e-4)


class TestCrossValidationNCUniform:
    def test_three_jobs_objective_matches(self, cube, three_jobs):
        num = NumericEngine(cube, max_step=1e-3).run(three_jobs, NCUniformPolicy(cube))
        ana = simulate_nc_uniform(three_jobs, cube)
        rn = evaluate(num.schedule, three_jobs, cube)
        ra = evaluate(ana.schedule, three_jobs, cube)
        assert rn.fractional_objective == pytest.approx(ra.fractional_objective, rel=1e-3)
        assert rn.energy == pytest.approx(ra.energy, rel=1e-3)

    @given(uniform_instances(max_jobs=3))
    @settings(max_examples=10, deadline=None)
    def test_property_agreement(self, inst):
        power = PowerLaw(2.0)
        num = NumericEngine(power, max_step=5e-3).run(inst, NCUniformPolicy(power))
        ana = simulate_nc_uniform(inst, power)
        rn = evaluate(num.schedule, inst, power)
        ra = evaluate(ana.schedule, inst, power)
        assert rn.fractional_objective == pytest.approx(ra.fractional_objective, rel=5e-3)


class TestIdlePolicy:
    def test_policy_may_idle_with_active_jobs(self, cube):
        class LazyPolicy(SchedulingPolicy):
            """Idles until t >= 1, then FIFO at fixed power-1 speed."""

            def __init__(self):
                self.active = []

            def on_release(self, t, job_id, density):
                self.active.append(job_id)

            def on_completion(self, t, job_id, volume):
                self.active.remove(job_id)

            def select_job(self, t):
                if t < 1.0 or not self.active:
                    return None
                return self.active[0]

            def speed(self, t, processed):
                return 1.0

        inst = Instance([Job(0, 0.0, 1.0)])
        result = NumericEngine(cube, max_step=1e-2).run(inst, LazyPolicy())
        assert result.schedule.completion_time(0, 1.0) == pytest.approx(2.0, rel=1e-2)
