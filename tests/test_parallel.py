"""Tests for §6: C-PAR, NC-PAR, Lemmas 19-22, Theorem 17 and the
immediate-dispatch lower bound."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.core.errors import InvalidInstanceError, ScheduleError
from repro.parallel import (
    ClusterRun,
    adversarial_instance,
    adversarial_ratio,
    least_count,
    round_robin,
    simulate_c_par,
    simulate_immediate_dispatch,
    simulate_nc_par,
)

from conftest import uniform_instances
from parallel_oracle import remaining_weight_on_machine


class TestClusterRun:
    def test_rejects_partial_assignment(self, cube, three_jobs):
        with pytest.raises(ScheduleError):
            ClusterRun(
                instance=three_jobs,
                power=cube,
                machines=2,
                assignments={0: [0], 1: [1]},  # job 2 missing
                schedules={},
            )

    def test_machine_of(self, cube, three_jobs):
        run = simulate_c_par(three_jobs, cube, 2)
        for jid in three_jobs.job_ids:
            assert jid in run.assignments[run.machine_of(jid)]


class TestCPar:
    def test_single_machine_reduces_to_c(self, cube, three_jobs):
        from repro.algorithms.clairvoyant import simulate_clairvoyant
        from repro.core.metrics import evaluate

        par = simulate_c_par(three_jobs, cube, 1).report()
        solo = evaluate(simulate_clairvoyant(three_jobs, cube).schedule, three_jobs, cube)
        assert par.fractional_objective == pytest.approx(solo.fractional_objective, rel=1e-9)

    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_one_machine_dispatches_without_shadow_queries(self, cube, beta):
        from repro.core.shadow import SimulationContext
        from repro.parallel.c_par import greedy_dispatch

        inst = Instance([Job(i, 0.3 * i, 1.0 + i, 1.0 + i % 3) for i in range(6)])
        ctx = SimulationContext(cube)
        assert greedy_dispatch(inst, cube, 1, beta=beta, context=ctx) == {0: list(inst.job_ids)}
        assert ctx.counters.queries == 0

    def test_simultaneous_jobs_spread(self, cube):
        inst = Instance([Job(i, i * 1e-6, 1.0) for i in range(4)])
        run = simulate_c_par(inst, cube, 4)
        assert all(len(v) == 1 for v in run.assignments.values())

    def test_least_weight_choice(self, cube):
        # Big job to machine 0, then a small one: machine 1 is empty -> gets it;
        # third job arrives while m0 still loaded -> goes to the less loaded.
        inst = Instance([Job(0, 0.0, 10.0), Job(1, 0.1, 0.1), Job(2, 0.2, 1.0)])
        run = simulate_c_par(inst, cube, 2)
        assert run.machine_of(0) == 0
        assert run.machine_of(1) == 1
        assert run.machine_of(2) == 1  # m1's 0.1 job nearly done vs m0's 10

    def test_remaining_weight_empty_machine(self, cube, three_jobs):
        assert remaining_weight_on_machine([], three_jobs, cube, 1.0) == 0.0

    def test_rejects_zero_machines(self, cube, three_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_c_par(three_jobs, cube, 0)

    def test_flow_equals_energy_per_cluster(self, cube, three_jobs):
        rep = simulate_c_par(three_jobs, cube, 2).report()
        assert rep.fractional_flow == pytest.approx(rep.energy, rel=1e-9)


class TestNCPar:
    def test_rejects_nonuniform(self, cube, mixed_density_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_nc_par(mixed_density_jobs, cube, 2)

    def test_single_machine_reduces_to_nc(self, cube, three_jobs):
        from repro.algorithms.nc_uniform import simulate_nc_uniform
        from repro.core.metrics import evaluate

        par = simulate_nc_par(three_jobs, cube, 1).report()
        solo = evaluate(simulate_nc_uniform(three_jobs, cube).schedule, three_jobs, cube)
        assert par.fractional_objective == pytest.approx(solo.fractional_objective, rel=1e-9)

    def test_one_job_at_a_time_per_machine(self, cube):
        inst = Instance([Job(i, 0.01 * i, 1.0) for i in range(6)])
        run = simulate_nc_par(inst, cube, 2)
        for m, sched in run.schedules.items():
            segs = sorted(sched.segments, key=lambda s: s.t0)
            for a, b in zip(segs, segs[1:]):
                assert b.t0 >= a.t1 - 1e-9


class TestLemma20AssignmentEquality:
    @given(uniform_instances(max_jobs=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_assignments_identical(self, inst, k):
        power = PowerLaw(3.0)
        c = simulate_c_par(inst, power, k)
        n = simulate_nc_par(inst, power, k)
        assert c.assignments == n.assignments

    def test_assignments_identical_alpha_two(self, square):
        inst = Instance([Job(i, 0.37 * i, 1.0 + (i % 3)) for i in range(9)])
        c = simulate_c_par(inst, square, 3)
        n = simulate_nc_par(inst, square, 3)
        assert c.assignments == n.assignments


class TestLemmas21And22:
    @given(uniform_instances(max_jobs=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_energy_equal_and_flow_ratio(self, inst, k):
        alpha = 3.0
        power = PowerLaw(alpha)
        rc = simulate_c_par(inst, power, k).report()
        rn = simulate_nc_par(inst, power, k).report()
        assert rn.energy == pytest.approx(rc.energy, rel=1e-7)
        assert rn.fractional_flow == pytest.approx(
            rc.fractional_flow / (1 - 1 / alpha), rel=1e-7
        )

    def test_theorem17_objective_relation(self, cube, three_jobs):
        """Lemmas 21+22 give G_nc = (1/2 + (1/2)/(1-1/alpha)) * G_c exactly."""
        rc = simulate_c_par(three_jobs, cube, 2).report()
        rn = simulate_nc_par(three_jobs, cube, 2).report()
        expect = 0.5 * (1 + 1 / (1 - 1 / 3.0)) * rc.fractional_objective
        assert rn.fractional_objective == pytest.approx(expect, rel=1e-9)


class TestDispatchRules:
    def test_round_robin(self):
        assert round_robin(3, [10, 11, 12, 13]) == [0, 1, 2, 0]

    def test_least_count_balances(self):
        assert least_count(2, [0, 1, 2, 3]) == [0, 1, 0, 1]

    def test_immediate_dispatch_partition(self, cube, three_jobs):
        run = simulate_immediate_dispatch(three_jobs, cube, 2, "round_robin")
        assigned = sorted(j for jobs in run.assignments.values() for j in jobs)
        assert assigned == sorted(three_jobs.job_ids)

    def test_per_machine_nc(self, cube, three_jobs):
        run = simulate_immediate_dispatch(three_jobs, cube, 2, "least_count", per_machine="NC")
        assert run.report().energy > 0

    def test_bad_rule_rejected(self, cube, three_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_immediate_dispatch(three_jobs, cube, 2, lambda k, ids: [99] * len(ids))


class TestLowerBound:
    def test_adversary_targets_most_loaded(self):
        inst, loaded = adversarial_instance(2, [0, 0, 0, 1])
        assert loaded == 0
        heavies = [j for j in inst if j.volume == 1.0]
        assert len(heavies) == 2

    def test_ratio_matches_k_to_beta(self, cube):
        """The measured adversarial ratio tracks k^{1-1/alpha}."""
        for k in (2, 4, 8):
            out = adversarial_ratio(k, cube, "least_count")
            assert out.ratio == pytest.approx(k ** (1 - 1 / 3.0), rel=0.05)

    def test_ratio_grows_with_k(self, cube):
        r2 = adversarial_ratio(2, cube).ratio
        r8 = adversarial_ratio(8, cube).ratio
        assert r8 > 2.0 * r2

    def test_round_robin_equally_vulnerable(self, cube):
        out = adversarial_ratio(4, cube, "round_robin")
        assert out.ratio == pytest.approx(4 ** (2 / 3), rel=0.05)

    def test_heavy_jobs_land_on_loaded_machine(self, cube):
        out = adversarial_ratio(3, cube)
        assert out.heavy_on_loaded == 3

    def test_alpha_dependence(self):
        """Higher alpha -> exponent 1-1/alpha closer to 1 -> worse ratio."""
        r_low = adversarial_ratio(8, PowerLaw(2.0)).ratio
        r_high = adversarial_ratio(8, PowerLaw(4.0)).ratio
        assert r_high > r_low

    def test_integral_objective_variant(self, cube):
        out = adversarial_ratio(4, cube, objective="integral")
        assert out.ratio > 1.5

    def test_rejects_bad_objective(self, cube):
        with pytest.raises(ValueError):
            adversarial_ratio(2, cube, objective="weird")


class TestTheorem17Integral:
    """Theorem 17 also covers the integral objective ('extending our proof
    ... is almost identical to the analysis in Section 3.3')."""

    @given(uniform_instances(max_jobs=8), st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_lemma8_per_cluster(self, inst, k):
        """F_int(NC-PAR) <= (2 - 1/alpha) * F_frac(NC-PAR): Lemma 8 applies
        machine by machine, hence to the sums."""
        alpha = 3.0
        power = PowerLaw(alpha)
        rep = simulate_nc_par(inst, power, k).report()
        assert rep.integral_flow <= (2 - 1 / alpha) * rep.fractional_flow * (1 + 1e-9)

    def test_integral_objective_relation_to_c_par(self, cube, three_jobs):
        """G_int(NC-PAR) <= E + (2-1/alpha) * F_frac = bounded in terms of
        C-PAR's objective via Lemmas 21/22."""
        alpha = 3.0
        rc = simulate_c_par(three_jobs, cube, 2).report()
        rn = simulate_nc_par(three_jobs, cube, 2).report()
        bound = rc.energy + (2 - 1 / alpha) * rc.fractional_flow / (1 - 1 / alpha)
        assert rn.integral_objective <= bound * (1 + 1e-9)
