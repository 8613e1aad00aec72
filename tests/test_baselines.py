"""Tests for the baseline schedulers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Instance, Job, PowerLaw
from repro.algorithms.baselines import simulate_active_count, simulate_constant_speed_fifo
from repro.core.errors import InvalidInstanceError
from repro.core.metrics import evaluate

from conftest import uniform_instances


class TestConstantSpeedFifo:
    def test_simple_timing(self, cube):
        inst = Instance([Job(0, 0.0, 2.0), Job(1, 0.5, 2.0)])
        sched = simulate_constant_speed_fifo(inst, 2.0)
        assert sched.completion_time(0, 2.0) == pytest.approx(1.0)
        assert sched.completion_time(1, 2.0) == pytest.approx(2.0)

    def test_waits_for_release(self, cube):
        inst = Instance([Job(0, 5.0, 1.0)])
        sched = simulate_constant_speed_fifo(inst, 1.0)
        assert sched.completion_time(0, 1.0) == pytest.approx(6.0)

    def test_rejects_bad_speed(self, three_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_constant_speed_fifo(three_jobs, 0.0)

    @given(uniform_instances(max_jobs=6))
    @settings(max_examples=25, deadline=None)
    def test_valid_schedules(self, inst):
        power = PowerLaw(3.0)
        rep = evaluate(simulate_constant_speed_fifo(inst, 1.5), inst, power)
        assert rep.energy > 0

    def test_not_competitive_under_load(self, cube):
        """Scaling the number of simultaneous jobs blows up the ratio vs C —
        constant speed cannot react to backlog (why speed scaling exists)."""
        from repro.algorithms.clairvoyant import simulate_clairvoyant

        ratios = []
        for n in (4, 64):
            inst = Instance([Job(i, i * 1e-3, 1.0) for i in range(n)])
            base = evaluate(simulate_constant_speed_fifo(inst, 1.0), inst, cube)
            c = evaluate(simulate_clairvoyant(inst, cube).schedule, inst, cube)
            ratios.append(base.fractional_objective / c.fractional_objective)
        # Ratio grows ~ n^{1/3} / 2.4; at n=64 it clearly exceeds n=4.
        assert ratios[1] > 1.3 * ratios[0]


class TestActiveCount:
    def test_single_job_constant_speed(self, cube):
        inst = Instance([Job(0, 0.0, 1.0)])
        sched = simulate_active_count(inst, cube)
        assert sched.speed_at(0.1) == pytest.approx(1.0)  # P(s) = 1 active job

    def test_speed_rises_with_backlog(self, cube):
        inst = Instance([Job(0, 0.0, 5.0), Job(1, 0.5, 5.0)])
        sched = simulate_active_count(inst, cube)
        assert sched.speed_at(0.6) == pytest.approx(2.0 ** (1 / 3))
        assert sched.speed_at(0.1) == pytest.approx(1.0)

    def test_fifo_order(self, cube):
        inst = Instance([Job(0, 0.0, 3.0), Job(1, 0.1, 0.1)])
        sched = simulate_active_count(inst, cube)
        assert sched.completion_time(0, 3.0) < sched.completion_time(1, 0.1)

    def test_idle_gap(self, cube):
        inst = Instance([Job(0, 0.0, 1.0), Job(1, 10.0, 1.0)])
        sched = simulate_active_count(inst, cube)
        assert sched.speed_at(5.0) == 0.0

    @given(uniform_instances(max_jobs=6))
    @settings(max_examples=25, deadline=None)
    def test_valid_schedules(self, inst):
        power = PowerLaw(3.0)
        rep = evaluate(simulate_active_count(inst, power), inst, power)
        assert set(rep.completion_times) == set(inst.job_ids)

    def test_unit_jobs_matches_clairvoyant_weight_rule_roughly(self, cube):
        """For unit-volume unit-density jobs the active-count rule is the
        known-weight non-clairvoyant strategy; it should be within a constant
        of Algorithm C."""
        from repro.algorithms.clairvoyant import simulate_clairvoyant

        inst = Instance([Job(i, 0.3 * i, 1.0) for i in range(6)])
        ac = evaluate(simulate_active_count(inst, cube), inst, cube)
        c = evaluate(simulate_clairvoyant(inst, cube).schedule, inst, cube)
        assert ac.fractional_objective / c.fractional_objective < 4.0


class TestRoundRobin:
    def test_single_job_like_active_count(self, cube):
        from repro.algorithms.baselines import simulate_round_robin

        inst = Instance([Job(0, 0.0, 1.0)])
        rr = simulate_round_robin(inst, cube, quantum=0.1)
        assert rr.completion_time(0, 1.0) == pytest.approx(1.0)  # speed 1

    def test_time_sharing_interleaves(self, cube):
        from repro.algorithms.baselines import simulate_round_robin

        inst = Instance([Job(0, 0.0, 1.0), Job(1, 0.01, 1.0)])
        rr = simulate_round_robin(inst, cube, quantum=0.05)
        jobs_in_order = [s.job_id for s in rr.segments]
        # Both jobs appear before either completes (true time sharing).
        first_1 = jobs_in_order.index(1)
        assert 0 in jobs_in_order[first_1:]

    def test_completions_closer_than_fifo(self, cube):
        """RR equalises completion times of equal jobs; FIFO staggers them."""
        from repro.algorithms.baselines import (
            simulate_active_count,
            simulate_round_robin,
        )

        inst = Instance([Job(0, 0.0, 1.0), Job(1, 0.01, 1.0)])
        rr = simulate_round_robin(inst, cube, quantum=0.02)
        fifo = simulate_active_count(inst, cube)
        gap_rr = abs(rr.completion_time(1, 1.0) - rr.completion_time(0, 1.0))
        gap_fifo = abs(fifo.completion_time(1, 1.0) - fifo.completion_time(0, 1.0))
        assert gap_rr < gap_fifo

    def test_quantum_validation(self, cube, three_jobs):
        from repro.algorithms.baselines import simulate_round_robin

        with pytest.raises(InvalidInstanceError):
            simulate_round_robin(three_jobs, cube, quantum=0.0)

    @given(uniform_instances(max_jobs=5))
    @settings(max_examples=15, deadline=None)
    def test_valid_schedules(self, inst):
        from repro.algorithms.baselines import simulate_round_robin

        power = PowerLaw(3.0)
        rep = evaluate(simulate_round_robin(inst, power, quantum=0.1), inst, power)
        assert set(rep.completion_times) == set(inst.job_ids)

    def test_converges_as_quantum_shrinks(self, cube):
        from repro.algorithms.baselines import simulate_round_robin

        inst = Instance([Job(0, 0.0, 1.0), Job(1, 0.05, 0.8), Job(2, 0.3, 0.5)])
        costs = []
        for q in (0.05, 0.025, 0.0125, 0.00625):
            rep = evaluate(simulate_round_robin(inst, cube, quantum=q), inst, cube)
            costs.append(rep.fractional_objective)
        # Rotation-phase effects make convergence non-monotone, but small
        # quanta must cluster tightly around the processor-sharing limit.
        spread = max(costs) - min(costs)
        assert spread < 0.02 * (sum(costs) / len(costs))

    @given(uniform_instances(max_jobs=6, density=None))
    @settings(max_examples=30, deadline=None)
    def test_active_count_is_a_quantum_that_never_expires(self, inst):
        """Active-count FIFO and round-robin share one loop: a quantum longer
        than any run reproduces active-count segment for segment."""
        from repro.algorithms.baselines import simulate_round_robin

        power = PowerLaw(3.0)
        rr = simulate_round_robin(inst, power, quantum=1e300)
        assert rr.segments == simulate_active_count(inst, power).segments

    @pytest.mark.parametrize("quantum", [None, 0.1])
    def test_zero_speed_is_an_invalid_instance(self, three_jobs, quantum):
        from repro.algorithms.baselines import simulate_round_robin

        class Stalled:
            def speed(self, power: float) -> float:
                return 0.0

        with pytest.raises(InvalidInstanceError, match="zero speed"):
            if quantum is None:
                simulate_active_count(three_jobs, Stalled())
            else:
                simulate_round_robin(three_jobs, Stalled(), quantum=quantum)
