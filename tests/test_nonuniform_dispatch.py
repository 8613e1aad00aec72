"""Tests for the §7 open-problem prototypes (NC-HDF-PAR / C-HDF-PAR)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.core.errors import InvalidInstanceError
from repro.parallel import (
    simulate_c_hdf_par,
    simulate_c_par,
    simulate_nc_hdf_par,
    simulate_nc_par,
)

from conftest import general_instances, uniform_instances


class TestNCHdfPar:
    def test_all_jobs_completed(self, cube, mixed_density_jobs):
        run = simulate_nc_hdf_par(mixed_density_jobs, cube, 2)
        rep = run.report()
        assert set(rep.completion_times) == set(mixed_density_jobs.job_ids)

    def test_hdf_priority_in_queue(self, cube):
        """With one machine busy, a waiting high-density job is dispatched
        before an earlier-released low-density one."""
        inst = Instance(
            [
                Job(0, 0.0, 5.0, 1.0),  # occupies the single machine
                Job(1, 0.1, 1.0, 1.0),  # low density, earlier
                Job(2, 0.2, 1.0, 30.0),  # high class, later
            ]
        )
        run = simulate_nc_hdf_par(inst, cube, 1)
        assert run.assignments[0].index(2) < run.assignments[0].index(1)

    def test_decides_only_on_released_jobs(self, cube):
        """At time 0 only job 0 is released, so it takes the machine even
        though a higher-class job arrives 5e-16 later (decision times are
        compared exactly, with no look-ahead slack)."""
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 5e-16, 1.0, 30.0)])
        run = simulate_nc_hdf_par(inst, cube, 1)
        assert run.assignments[0] == [0, 1]

    def test_idle_machine_taken_immediately(self, cube):
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.05, 1.0, 1.0)])
        run = simulate_nc_hdf_par(inst, cube, 2)
        assert run.machine_of(0) != run.machine_of(1)

    def test_rejects_zero_machines(self, cube, mixed_density_jobs):
        with pytest.raises(InvalidInstanceError):
            simulate_nc_hdf_par(mixed_density_jobs, cube, 0)

    def test_uniform_density_matches_nc_par(self, cube, three_jobs):
        """With one density class the HDF queue degenerates to FIFO, so the
        prototype must coincide with NC-PAR."""
        a = simulate_nc_hdf_par(three_jobs, cube, 2)
        b = simulate_nc_par(three_jobs, cube, 2)
        assert a.assignments == b.assignments
        assert a.report().fractional_objective == pytest.approx(
            b.report().fractional_objective, rel=1e-9
        )

    @given(general_instances(max_jobs=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_valid_cluster_runs(self, inst, k):
        power = PowerLaw(3.0)
        run = simulate_nc_hdf_par(inst, power, k)
        rep = run.report()  # validates per-machine schedules
        assert rep.energy > 0


class TestCHdfPar:
    def test_all_jobs_completed(self, cube, mixed_density_jobs):
        rep = simulate_c_hdf_par(mixed_density_jobs, cube, 2).report()
        assert set(rep.completion_times) == set(mixed_density_jobs.job_ids)

    def test_uniform_density_matches_c_par(self, cube, three_jobs):
        """With one class, 'same-or-higher density weight' is just the total
        remaining weight, i.e. C-PAR's rule."""
        a = simulate_c_hdf_par(three_jobs, cube, 2)
        b = simulate_c_par(three_jobs, cube, 2)
        assert a.assignments == b.assignments

    def test_ignores_lower_density_load(self, cube):
        """A machine busy with low-density work looks empty to a high-density
        arrival (the §7 comparator's defining quirk)."""
        inst = Instance(
            [
                Job(0, 0.0, 50.0, 1.0),  # heavy low-density on machine 0
                Job(1, 0.1, 1.0, 30.0),  # high class: machine 0 looks empty...
            ]
        )
        run = simulate_c_hdf_par(inst, cube, 2)
        # ...so ties are broken by index and job 1 lands on machine 0 too.
        assert run.machine_of(1) == 0

    @given(general_instances(max_jobs=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_valid_cluster_runs(self, inst, k):
        power = PowerLaw(3.0)
        rep = simulate_c_hdf_par(inst, power, k).report()
        assert rep.energy > 0


class TestDivergence:
    def test_assignments_can_differ(self, cube):
        """The paper's §7 conjecture: later releases can steer NC-HDF-PAR's
        assignment away from the clairvoyant comparator's.  We exhibit a
        concrete diverging instance found by the probe bench."""
        from repro.workloads import random_instance

        diverged = False
        for seed in range(1, 9):
            inst = random_instance(
                10, 500 + seed, volume="uniform", density="powers",
                density_params={"beta": 5.0, "classes": 3},
            )
            nc = simulate_nc_hdf_par(inst, cube, 3)
            c = simulate_c_hdf_par(inst, cube, 3)
            if nc.assignments != c.assignments:
                diverged = True
                break
        assert diverged, "expected at least one diverging seed (paper §7 intuition)"

    @given(uniform_instances(max_jobs=6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_uniform_never_diverges(self, inst, k):
        """In the uniform case both prototypes collapse to §6's algorithms,
        where Lemma 20 *proves* agreement."""
        power = PowerLaw(3.0)
        nc = simulate_nc_hdf_par(inst, power, k)
        c = simulate_c_hdf_par(inst, power, k)
        assert nc.assignments == c.assignments
