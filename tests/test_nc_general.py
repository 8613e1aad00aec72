"""Tests for Algorithm NC-general (§4): density rounding + eta-scaled shadow
speed, run on the numeric engine."""

from __future__ import annotations

import math

import pytest

from repro import Instance, Job, PowerLaw
from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_general import NCGeneralPolicy, eta_threshold, simulate_nc_general
from repro.core.engine import NumericEngine
from repro.core.errors import SimulationError
from repro.core.metrics import evaluate
from repro.offline.bounds import opt_fractional_lower_bound
from repro.workloads import random_instance
from shadow_oracle import simulate_c, simulate_nc_general_reference


class TestEtaThreshold:
    def test_alpha_three_value(self):
        """Derived closed form: (3/2)^{3/2} * 2^{1/2} = 3*sqrt(3)/2."""
        assert eta_threshold(3.0) == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-12)

    def test_alpha_two_value(self):
        assert eta_threshold(2.0) == pytest.approx(4.0, rel=1e-12)

    def test_decreasing_in_alpha(self):
        assert eta_threshold(2.0) > eta_threshold(3.0) > eta_threshold(5.0) > 1.0

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            eta_threshold(1.0)

    def test_default_eta_above_threshold(self):
        pol = NCGeneralPolicy(PowerLaw(3.0))
        assert pol.eta > eta_threshold(3.0)


class TestPolicyValidation:
    def test_rejects_eta_below_one(self):
        with pytest.raises(ValueError):
            NCGeneralPolicy(PowerLaw(3.0), eta=0.5)

    def test_rejects_beta_at_most_one(self):
        with pytest.raises(ValueError):
            NCGeneralPolicy(PowerLaw(3.0), beta=1.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            NCGeneralPolicy(PowerLaw(3.0), epsilon=0.0)

    def test_requires_power_law(self):
        from repro.core.power import TabulatedPower

        tab = TabulatedPower([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(TypeError):
            NCGeneralPolicy(tab)  # type: ignore[arg-type]


class TestSingleJob:
    def test_completes_and_is_valid(self, cube):
        inst = Instance([Job(0, 0.0, 2.0, 1.0)])
        run = simulate_nc_general(inst, cube, max_step=2e-3)
        rep = evaluate(run.schedule, inst, cube)  # validates volumes
        assert rep.energy > 0

    def test_constant_ratio_vs_opt(self, cube):
        """The single-job ratio is a constant depending only on alpha/eta
        (the c2 self-similar curve); assert it stays under a generous cap."""
        inst = Instance([Job(0, 0.0, 2.0, 1.0)])
        run = simulate_nc_general(inst, cube, max_step=2e-3)
        rep = evaluate(run.schedule, inst, cube)
        lb = opt_fractional_lower_bound(inst, cube)
        assert rep.fractional_objective / lb.value < 3.0 * run.eta**3

    def test_scale_invariance_of_ratio(self, cube):
        """The self-similar dynamics make the cost ratio volume-independent."""
        ratios = []
        for v in (0.5, 4.0):
            inst = Instance([Job(0, 0.0, v, 1.0)])
            rep = evaluate(simulate_nc_general(inst, cube, max_step=1e-3).schedule, inst, cube)
            lb = opt_fractional_lower_bound(inst, cube)
            ratios.append(rep.fractional_objective / lb.value)
        assert ratios[0] == pytest.approx(ratios[1], rel=5e-2)


class TestScheduling:
    def test_hdf_on_rounded_densities(self, cube):
        """A job one *rounded* class above preempts; within a class FIFO wins
        even if the raw density is slightly higher."""
        # densities 6 and 7 share class (beta=5): FIFO; density 26 is higher class.
        inst = Instance(
            [Job(0, 0.0, 1.0, 6.0), Job(1, 0.1, 1.0, 7.0), Job(2, 0.2, 0.3, 26.0)]
        )
        run = simulate_nc_general(inst, cube, beta=5.0, max_step=2e-3)
        # Job 2 (higher class, released last) completes before job 1 (same
        # class as job 0 but later release).
        assert run.completion_time(2) < run.completion_time(1)
        assert run.completion_time(0) < run.completion_time(1)

    def test_completes_all_jobs(self, cube, mixed_density_jobs):
        run = simulate_nc_general(mixed_density_jobs, cube, max_step=5e-3)
        rep = evaluate(run.schedule, mixed_density_jobs, cube)
        assert set(rep.completion_times) == set(mixed_density_jobs.job_ids)

    def test_ratio_vs_clairvoyant_bounded(self, cube, mixed_density_jobs):
        run = simulate_nc_general(mixed_density_jobs, cube, max_step=5e-3)
        rg = evaluate(run.schedule, mixed_density_jobs, cube)
        rc = evaluate(
            simulate_clairvoyant(mixed_density_jobs, cube).schedule, mixed_density_jobs, cube
        )
        # 2^{O(alpha)} constant: at alpha=3 with default eta the blow-up is
        # dominated by eta^alpha ~ 38; leave headroom.
        assert rg.fractional_objective / rc.fractional_objective < 60.0

    def test_convergence_in_max_step(self, cube):
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.3, 0.5, 5.0)])
        costs = []
        for h in (2e-2, 5e-3, 1.25e-3):
            run = simulate_nc_general(inst, cube, max_step=h)
            costs.append(evaluate(run.schedule, inst, cube).fractional_objective)
        # Successive refinements approach a limit.
        assert abs(costs[2] - costs[1]) < abs(costs[1] - costs[0])

    def test_eta_recorded_in_run(self, cube):
        inst = Instance([Job(0, 0.0, 0.5, 1.0)])
        run = simulate_nc_general(inst, cube, eta=4.0, max_step=5e-3)
        assert run.eta == 4.0

    def test_larger_eta_finishes_sooner(self, cube):
        inst = Instance([Job(0, 0.0, 1.0, 1.0)])
        fast = simulate_nc_general(inst, cube, eta=6.0, max_step=2e-3)
        slow = simulate_nc_general(inst, cube, eta=3.0, max_step=2e-3)
        assert fast.completion_time(0) < slow.completion_time(0)


class TestCurrentInstance:
    def test_current_instance_tracks_processed_volume(self, cube):
        pol = NCGeneralPolicy(cube)
        pol.on_release(0.0, 0, 2.0)
        pol.on_release(0.5, 1, 10.0)
        inst = pol.current_instance({0: 0.7, 1: 0.0})
        assert inst is not None
        assert inst.job_ids == (0,)
        assert inst[0].volume == pytest.approx(0.7)
        # density is rounded down to a power of beta=5: class 0 -> 1.0
        assert inst[0].density == pytest.approx(1.0)

    def test_empty_current_instance(self, cube):
        pol = NCGeneralPolicy(cube)
        pol.on_release(0.0, 0, 1.0)
        assert pol.current_instance({0: 0.0}) is None


class TestShadowCheckpoints:
    """The shipped epoch shadow against the per-query reference C run of
    ``tests/shadow_oracle.py``, and that reference's own warm start."""

    def test_bit_identical_with_and_without(self, cube):
        """The reference's checkpointed shadow runs must not change results
        at all."""
        inst = random_instance(8, 23, volume="uniform", density="loguniform")

        def run(ckpt: bool) -> float:
            res = simulate_nc_general_reference(inst, cube, max_step=2e-2, use_checkpoints=ckpt)
            return evaluate(res.schedule, inst, cube).fractional_objective

        assert run(True) == run(False)

    @pytest.mark.parametrize("seed", [23, 24])
    def test_incremental_matches_reference(self, cube, seed):
        """Same engine trajectory, objective within the 1e-12 band."""
        inst = random_instance(8, seed, volume="uniform", density="loguniform")
        ref = simulate_nc_general_reference(inst, cube, max_step=2e-2)
        inc = simulate_nc_general(inst, cube, max_step=2e-2)
        assert inc.engine_steps == ref.engine_steps
        want = evaluate(ref.schedule, inst, cube).fractional_objective
        got = evaluate(inc.schedule, inst, cube).fractional_objective
        assert got == pytest.approx(want, rel=1e-12)

    def test_resume_matches_cold_run(self, cube):
        """A reference run warm-started from a shipped run's state at ``t0``
        continues exactly where the cold run left off."""
        inst = Instance(
            [Job(0, 0.0, 3.0, 1.0), Job(1, 0.7, 1.0, 5.0), Job(2, 1.4, 2.0, 1.0)]
        )
        t0 = 1.0
        cold_mid = simulate_clairvoyant(inst, cube, until=t0)
        warm, _ = simulate_c(inst, cube, resume=(t0, dict(cold_mid.remaining)))
        cold = simulate_clairvoyant(inst, cube)
        assert warm.end_time == pytest.approx(cold.schedule.end_time, rel=1e-12)
        # The warm schedule covers [t0, end): its per-job volumes equal the
        # cold run's post-t0 volumes, i.e. the checkpoint remainders.
        for jid in inst.job_ids:
            post = cold.schedule.processed_volume(jid) - cold.schedule.processed_volume_until(
                jid, t0
            )
            assert warm.processed_volume(jid) == pytest.approx(post, rel=1e-9, abs=1e-12)

    def test_resume_skips_completed_prefix_jobs(self, cube):
        # Job 0 completed before the checkpoint; only job 1 remains.
        inst = Instance([Job(0, 0.0, 0.1, 1.0), Job(1, 5.0, 1.0, 1.0)])
        sched, _ = simulate_c(inst, cube, resume=(1.0, {}))
        assert sched.processed_volume(0) == 0.0
        assert sched.processed_volume(1) == pytest.approx(1.0)

    def test_resume_does_not_readmit_checkpointed_jobs(self, cube):
        inst = Instance([Job(0, 0.0, 2.0, 1.0)])
        # Checkpoint says half of job 0 is left at t=1.
        sched, _ = simulate_c(inst, cube, resume=(1.0, {0: 1.0}))
        assert sched.processed_volume(0) == pytest.approx(1.0)


class TestEpsilonIgnition:
    """The epsilon bootstrap of a lone job, driven on the engine directly.

    The algorithm is translation-invariant in time, so a job released into
    an idle machine should ignite the same way at any release time.  Up to
    t = 200 it does; from about t = 287 on, the speed stays pinned at
    epsilon until the step budget runs out.  The xfail flips when that is
    fixed."""

    @staticmethod
    def _run(release: float):
        power = PowerLaw(3.0)
        engine = NumericEngine(power, stall_limit=5000)
        return engine.run(Instance([Job(0, release, 1.0, 6.64)]), NCGeneralPolicy(power))

    @pytest.mark.parametrize("release", [0.0, 100.0, 200.0])
    def test_ignites_at_early_release(self, release):
        result = self._run(release)
        assert 68 <= result.steps <= 73
        assert result.schedule.completion_time(0, 1.0) < release + 1.0

    @pytest.mark.xfail(
        strict=True, raises=SimulationError, reason="epsilon ignition fails at large t"
    )
    def test_ignites_at_release_300(self):
        result = self._run(300.0)
        assert result.schedule.completion_time(0, 1.0) < 301.0
