"""Tests for Algorithm NC (§3) — the paper's headline single-machine result.

The centrepieces are exact reproductions of:
* Lemma 3  — energy(NC) == energy(C),
* Lemma 4  — flow(NC) == flow(C) / (1 - 1/alpha),
* Lemma 6  — the speed profiles are measure-preserving rearrangements,
* Lemma 8  — integral flow(NC) <= (2 - 1/(alpha-1)) ... (via its proof form
  F_int <= (2 - 1/alpha) * F_frac),
* Theorems 5/9 — the competitive ratios against certified lower bounds.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_uniform import NCUniformPolicy, NCUniformRunner, simulate_nc_uniform
from repro.analysis.curves import speed_quantile_gap
from repro.core.engine import NumericEngine
from repro.core.errors import InvalidInstanceError, SimulationError
from repro.core.metrics import evaluate
from repro.extensions import CappedPowerLaw
from repro.offline.bounds import opt_fractional_lower_bound, opt_integral_lower_bound
from repro.parallel.nc_par import simulate_nc_par

from conftest import alphas, robust_alphas, uniform_instances


class TestStructure:
    def test_fifo_order(self, cube):
        # Even when a later job is tiny, FIFO finishes the earlier one first.
        inst = Instance([Job(0, 0.0, 10.0), Job(1, 0.1, 0.01)])
        run = simulate_nc_uniform(inst, cube)
        assert run.completion_time(0) < run.completion_time(1)

    def test_one_growth_segment_per_job(self, cube, three_jobs):
        run = simulate_nc_uniform(three_jobs, cube)
        assert len(run.schedule) == len(three_jobs)

    def test_rejects_nonuniform(self, cube, mixed_density_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_nc_uniform(mixed_density_jobs, cube)

    def test_nonunit_uniform_density_accepted(self, cube):
        inst = Instance([Job(0, 0.0, 1.0, 2.5), Job(1, 0.5, 2.0, 2.5)])
        run = simulate_nc_uniform(inst, cube)
        assert run.completion_time(1) > run.completion_time(0)

    def test_first_job_offset_zero(self, cube, three_jobs):
        run = simulate_nc_uniform(three_jobs, cube)
        assert run.offsets[0] == 0.0

    def test_offsets_match_full_clairvoyant_run(self, cube, three_jobs):
        """W^C(r[j]-) computed on the prefix equals the value read off a full
        Algorithm C run — releases after r[j] cannot affect C's past."""
        run = simulate_nc_uniform(three_jobs, cube)
        full = simulate_clairvoyant(three_jobs, cube)
        for job in three_jobs:
            expect = full.remaining_weight_at(job.release, include_release_at_t=False)
            assert run.offsets[job.job_id] == pytest.approx(expect, rel=1e-9)

    def test_speed_rule_initial_speed(self, cube):
        """While processing j, P(s) = offset + processed weight: at the start
        of job j the speed is offset^{1/alpha}."""
        inst = Instance([Job(0, 0.0, 4.0), Job(1, 1.0, 2.0)])
        run = simulate_nc_uniform(inst, cube)
        start1 = run.starts[1]
        assert run.schedule.speed_at(start1 + 1e-9) == pytest.approx(
            run.offsets[1] ** (1 / 3), rel=1e-3
        )

    def test_never_idles_while_backlogged(self, cube, three_jobs):
        run = simulate_nc_uniform(three_jobs, cube)
        segs = run.schedule.segments
        for a, b in zip(segs, segs[1:]):
            gap = b.t0 - a.t1
            # A gap may only occur when no job is active: the next job's
            # release must equal the gap's end.
            if gap > 1e-9:
                assert three_jobs[b.job_id].release == pytest.approx(b.t0, rel=1e-9)


class TestLemma3EnergyEquality:
    @given(uniform_instances(max_jobs=7), robust_alphas)
    @settings(max_examples=40, deadline=None)
    def test_exact_energy_equality(self, inst, alpha):
        power = PowerLaw(alpha)
        e_nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power).energy
        e_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power).energy
        assert e_nc == pytest.approx(e_c, rel=1e-7)

    @given(uniform_instances(max_jobs=6), alphas)
    @settings(max_examples=30, deadline=None)
    def test_energy_equality_small_alpha_loose(self, inst, alpha):
        """Near alpha = 1 only a looser tolerance is float-achievable."""
        power = PowerLaw(alpha)
        e_nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power).energy
        e_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power).energy
        assert e_nc == pytest.approx(e_c, rel=1e-4)

    def test_nonunit_density(self):
        power = PowerLaw(2.2)
        inst = Instance([Job(0, 0.0, 1.0, 3.0), Job(1, 0.3, 2.0, 3.0), Job(2, 0.9, 0.5, 3.0)])
        e_nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power).energy
        e_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power).energy
        assert e_nc == pytest.approx(e_c, rel=1e-9)


class TestLemma4FlowRatio:
    @given(uniform_instances(max_jobs=7), robust_alphas)
    @settings(max_examples=40, deadline=None)
    def test_exact_flow_ratio(self, inst, alpha):
        power = PowerLaw(alpha)
        f_nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power).fractional_flow
        f_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power).fractional_flow
        assert f_nc == pytest.approx(f_c / (1 - 1 / alpha), rel=1e-6)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_machine_precision_at_reference_alphas(self, alpha, three_jobs):
        power = PowerLaw(alpha)
        f_nc = evaluate(simulate_nc_uniform(three_jobs, power).schedule, three_jobs, power).fractional_flow
        f_c = evaluate(simulate_clairvoyant(three_jobs, power).schedule, three_jobs, power).fractional_flow
        assert f_nc == pytest.approx(f_c / (1 - 1 / alpha), rel=1e-12)


@st.composite
def _tied_instances(draw):
    """Unit-density instances with releases on a coarse grid, so several
    jobs share a release and FIFO breaks the ties by id."""
    n = draw(st.integers(min_value=2, max_value=8))
    rel = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), min_size=n, max_size=n))
    vols = draw(
        st.lists(st.floats(min_value=0.05, max_value=4.0, allow_nan=False), min_size=n, max_size=n)
    )
    ids = draw(st.permutations(range(n)))
    return Instance(Job(ids[i], rel[i], vols[i]) for i in range(n))


#: NC's energy was 6.4815 here, C's 8.1697, before tied jobs were revealed.
_TIED = Instance([Job(0, 0.0, 1.0), Job(1, 0.0, 2.0), Job(2, 0.5, 1.0), Job(3, 0.5, 1.0)])


class TestTiedReleases:
    """A job tied in release with an earlier (smaller-id) job runs after it
    under FIFO, so that job's weight belongs in the offset ``W^C(r[j]-)``."""

    @given(_tied_instances(), st.sampled_from([1.5, 2.0, 2.5, 3.0]))
    @example(_TIED, 3.0)
    @settings(max_examples=80, deadline=None)
    def test_lemmas_3_and_4_and_one_machine_nc_par(self, inst, alpha):
        power = PowerLaw(alpha)
        nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power)
        c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power)
        assert nc.energy == pytest.approx(c.energy, rel=1e-9)
        assert nc.fractional_flow == pytest.approx(c.fractional_flow / (1 - 1 / alpha), rel=1e-9)
        par = simulate_nc_par(inst, power, 1)
        one = evaluate(par.schedules[0], inst, power)
        assert one.energy == nc.energy
        assert one.completion_times == nc.completion_times

    def test_policy_offsets_equal_the_runner_offsets(self, cube):
        policy = NCUniformPolicy(cube)
        NumericEngine(cube, max_step=1e-3).run(_TIED, policy)
        runner = simulate_nc_uniform(_TIED, cube)
        assert runner.offsets[1] == 1.0  # job 0's whole weight: C admits it at 0
        assert policy._offsets == runner.offsets


class TestLemma6SpeedProfiles:
    @given(uniform_instances(max_jobs=5))
    @settings(max_examples=15, deadline=None)
    def test_speed_distributions_match(self, inst):
        """A measure-preserving time remap preserves the speed distribution;
        compare quantile functions of the two schedules."""
        power = PowerLaw(3.0)
        nc = simulate_nc_uniform(inst, power).schedule
        c = simulate_clairvoyant(inst, power).schedule
        assert speed_quantile_gap(nc, c, samples=4096) < 3e-3

    def test_total_durations_match(self, cube, three_jobs):
        nc = simulate_nc_uniform(three_jobs, cube).schedule
        c = simulate_clairvoyant(three_jobs, cube).schedule
        assert nc.end_time == pytest.approx(c.end_time, rel=1e-9)


class TestLemma8IntegralVsFractional:
    @given(uniform_instances(max_jobs=6), robust_alphas)
    @settings(max_examples=30, deadline=None)
    def test_integral_flow_bound(self, inst, alpha):
        """From the proof of Lemma 8: dF_int <= (1 + (1 - 1/alpha)) dF, so
        F_int(NC) <= (2 - 1/alpha) * F_frac(NC)."""
        power = PowerLaw(alpha)
        rep = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power)
        bound = (2.0 - 1.0 / alpha) * rep.fractional_flow
        assert rep.integral_flow <= bound * (1 + 1e-9)


class TestTheorems5And9:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
    def test_fractional_ratio_on_stress_instance(self, alpha):
        power = PowerLaw(alpha)
        inst = Instance(
            [Job(0, 0.0, 5.0), Job(1, 0.4, 0.2), Job(2, 0.8, 2.0), Job(3, 1.0, 0.7)]
        )
        rep = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power)
        lb = opt_fractional_lower_bound(inst, power, slots=250, iterations=1200)
        assert rep.fractional_objective / lb.value <= 2.0 + 1.0 / (alpha - 1.0) + 1e-6

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
    def test_integral_ratio_on_stress_instance(self, alpha):
        power = PowerLaw(alpha)
        inst = Instance(
            [Job(0, 0.0, 5.0), Job(1, 0.4, 0.2), Job(2, 0.8, 2.0), Job(3, 1.0, 0.7)]
        )
        rep = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power)
        lb = opt_integral_lower_bound(inst, power, slots=250, iterations=1200)
        assert rep.integral_objective / lb.value <= 3.0 + 1.0 / (alpha - 1.0) + 1e-6

    @given(uniform_instances(max_jobs=5))
    @settings(max_examples=10, deadline=None)
    def test_fractional_ratio_property(self, inst):
        """Ratio against cost(C)/2 (Theorem 1 surrogate) — pure algebra of
        Lemmas 3/4 gives at most 2 + 1/(alpha-1) * ... = exactly
        1 + 1/(1-1/alpha) times cost(C)/cost(C) ... asserted via the direct
        objective comparison."""
        alpha = 3.0
        power = PowerLaw(alpha)
        g_nc = evaluate(simulate_nc_uniform(inst, power).schedule, inst, power).fractional_objective
        g_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power).fractional_objective
        # Lemmas 3+4 imply G_nc = (1/2 + (1/2)/(1-1/alpha)) * G_c exactly.
        expect = 0.5 * (1 + 1 / (1 - 1 / alpha)) * g_c
        assert g_nc == pytest.approx(expect, rel=1e-8)


# -- the incremental runner -----------------------------------------------------


@st.composite
def _batched_streams(draw):
    """A uniform-density arrival stream cut into batches: releases on a grid
    of quarters (so ties are common), ids in random order, and the batch
    boundaries at which a report is read."""
    n = draw(st.integers(min_value=1, max_value=14))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.5]), min_size=n, max_size=n))
    vols = draw(
        st.lists(st.floats(min_value=0.05, max_value=8.0, allow_nan=False), min_size=n, max_size=n)
    )
    ids = draw(st.permutations(range(n)))
    rho = draw(st.sampled_from([1.0, 2.5]))
    releases = [sum(steps[: i + 1]) for i in range(n)]
    jobs = sorted(
        (Job(ids[i], releases[i], vols[i], rho) for i in range(n)),
        key=lambda j: (j.release, j.job_id),
    )
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)), max_size=4))
    return jobs, [0, *sorted(c for c in cuts if c < n), n]


class TestRunner:
    """:class:`NCUniformRunner` fed in batches equals a fresh
    ``simulate_nc_uniform`` + ``evaluate`` of every prefix, float for float."""

    @given(
        stream=_batched_streams(),
        alpha=st.sampled_from([1.5, 2.0, 3.0]),
        s_max=st.sampled_from([None, 0.7, 1.2]),
    )
    @settings(max_examples=80, deadline=None)
    def test_batches_equal_a_fresh_run(self, stream, alpha, s_max):
        jobs, cuts = stream
        power = PowerLaw(alpha) if s_max is None else CappedPowerLaw(alpha, s_max)
        runner = NCUniformRunner(power)
        for lo, hi in zip(cuts, cuts[1:]):
            runner.extend(jobs[lo:hi])
            prefix = Instance(jobs[:hi])
            fresh = simulate_nc_uniform(prefix, power)
            want = evaluate(fresh.schedule, prefix, power)
            got = runner.report()
            assert got == want
            assert list(got.completion_times.items()) == list(want.completion_times.items())
            assert got.fractional_flow == want.fractional_flow
            assert got.integral_flow == want.integral_flow
            assert list(runner.schedule()) == list(fresh.schedule)
            assert runner.offsets == fresh.offsets and runner.starts == fresh.starts

    def test_report_is_stable_without_new_jobs(self, cube, three_jobs):
        runner = NCUniformRunner(cube)
        runner.extend(three_jobs)
        first = runner.report()
        assert runner.report() == first
        assert list(runner.schedule()) == list(runner.schedule())

    def test_refuses_a_job_out_of_fifo_order(self, cube):
        runner = NCUniformRunner(cube)
        runner.extend([Job(5, 1.0, 1.0)])
        # A tied release with a smaller id runs first under FIFO.
        with pytest.raises(SimulationError, match="FIFO order"):
            runner.extend([Job(3, 1.0, 1.0)])
        assert [j.job_id for j in runner.jobs] == [5]
        runner.extend([Job(6, 1.0, 1.0)])  # a tie with a larger id is in order
        assert [j.job_id for j in runner.jobs] == [5, 6]

    def test_refuses_a_nonuniform_batch_whole(self, cube):
        runner = NCUniformRunner(cube)
        runner.extend([Job(0, 0.0, 1.0, 2.0)])
        before = runner.report()
        with pytest.raises(InvalidInstanceError, match="requires uniform densities"):
            runner.extend([Job(1, 1.0, 1.0, 2.0), Job(2, 2.0, 1.0, 3.0)])
        assert len(runner.jobs) == 1 and runner.report() == before
