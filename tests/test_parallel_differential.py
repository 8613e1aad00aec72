"""The two parallel loops against the four drivers they replaced.

``repro.parallel`` runs every parallel family on one greedy-dispatch loop and
one global-queue loop; ``parallel_oracle.py`` keeps the former separate
drivers.  Every comparison here is ``==``: assignments, every segment, the
merged cost report and, for NC-PAR, every trace event but its wall time.

Releases are drawn from a grid of exact binary fractions (so ties are common
and no two distinct decision times lie within the oracle NC-HDF-PAR's
``1e-15`` clock slack, inside which it treats a later release or completion
as already due), and instances include runs of identical jobs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.extensions.bounded_speed import CappedPowerLaw
from repro.parallel import (
    DISPATCH_RULES,
    adversarial_instance,
    adversarial_ratio,
    simulate_c_hdf_par,
    simulate_c_par,
    simulate_immediate_dispatch,
    simulate_nc_hdf_par,
    simulate_nc_par,
)

import parallel_oracle as oracle
from failover_oracle import simulate_nc_par_with_failure

ALPHAS = st.sampled_from([1.5, 2.0, 3.0])
MACHINES = st.integers(min_value=1, max_value=4)
CAPS = st.sampled_from([0.7, 1.2, 50.0])


@st.composite
def cluster_instances(draw, uniform: bool = False, max_jobs: int = 9):
    """Releases on a grid of eighths (ties likely); with ``identical`` every
    job has the same release, volume and density."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    if draw(st.booleans()):
        release = draw(st.integers(min_value=0, max_value=8)) / 8
        volume = draw(st.floats(min_value=0.1, max_value=5.0))
        density = 1.0 if uniform else draw(st.sampled_from([0.5, 3.0, 30.0]))
        return Instance(Job(i, release, volume, density) for i in range(n))
    rel = sorted(draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n)))
    vols = draw(st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=n, max_size=n))
    if uniform:
        dens = [1.0] * n
    else:
        dens = draw(
            st.lists(st.sampled_from([0.3, 1.0, 2.0, 7.0, 40.0]), min_size=n, max_size=n)
        )
    return Instance(Job(i, rel[i] / 8, vols[i], dens[i]) for i in range(n))


def assert_same(run, ref) -> None:
    assert run.machines == ref.machines
    assert run.assignments == ref.assignments
    assert run.schedules.keys() == ref.schedules.keys()
    for machine, schedule in run.schedules.items():
        assert schedule.segments == ref.schedules[machine].segments
    assert run.report() == ref.report()


def events(recorder: MemoryRecorder) -> list[tuple]:
    return [(e.kind, e.sim_time, e.component, e.payload) for e in recorder.events]


@settings(max_examples=60, deadline=None)
@given(cluster_instances(), ALPHAS, MACHINES, st.none() | CAPS)
def test_c_par_matches_oracle(inst, alpha, machines, cap):
    power = PowerLaw(alpha) if cap is None else CappedPowerLaw(alpha, cap)
    assert_same(simulate_c_par(inst, power, machines), oracle.simulate_c_par(inst, power, machines))


@settings(max_examples=60, deadline=None)
@given(cluster_instances(), ALPHAS, MACHINES, st.none() | CAPS, st.sampled_from([2.0, 5.0]))
def test_c_hdf_par_matches_oracle(inst, alpha, machines, cap, beta):
    power = PowerLaw(alpha) if cap is None else CappedPowerLaw(alpha, cap)
    assert_same(
        simulate_c_hdf_par(inst, power, machines, beta=beta),
        oracle.simulate_c_hdf_par(inst, power, machines, beta=beta),
    )


@settings(max_examples=60, deadline=None)
@given(cluster_instances(uniform=True), ALPHAS, MACHINES, st.booleans())
def test_nc_par_matches_oracle_event_for_event(inst, alpha, machines, scaled_reveals):
    """Trace events (but wall time) and shadow counters too; with
    ``scaled_reveals`` a ``volume_filter`` misreports every completed volume."""
    power = PowerLaw(alpha)
    runs, traces, counters = [], [], []
    for simulate in (simulate_nc_par, oracle.simulate_nc_par):
        recorder = MemoryRecorder()
        context = SimulationContext(power, recorder=recorder)
        if scaled_reveals:
            context.volume_filter = lambda job_id, volume: 1.5 * volume
        runs.append(simulate(inst, power, machines, context=context))
        traces.append(events(recorder))
        counters.append(context.counters.as_dict())
    assert_same(*runs)
    assert traces[0] == traces[1]
    assert counters[0] == counters[1]


@settings(max_examples=60, deadline=None)
@given(cluster_instances(), ALPHAS, MACHINES, st.sampled_from([2.0, 5.0]))
def test_nc_hdf_par_matches_oracle(inst, alpha, machines, beta):
    power = PowerLaw(alpha)
    contexts = [SimulationContext(power), SimulationContext(power)]
    assert_same(
        simulate_nc_hdf_par(inst, power, machines, beta=beta, context=contexts[0]),
        oracle.simulate_nc_hdf_par(inst, power, machines, beta=beta, context=contexts[1]),
    )
    # Same offset queries in the same order: the same shadow work.
    assert contexts[0].counters.as_dict() == contexts[1].counters.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    cluster_instances(uniform=True),
    ALPHAS,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=48),
)
def test_nc_par_failover_matches_oracle(inst, alpha, machines, dead, fail_eighths):
    power = PowerLaw(alpha)
    dead %= machines
    fail_time = fail_eighths / 8
    assert_same(
        simulate_nc_par(inst, power, machines, failure=(dead, fail_time)),
        simulate_nc_par_with_failure(
            inst, power, machines, dead_machine=dead, fail_time=fail_time
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    cluster_instances(uniform=True),
    ALPHAS,
    MACHINES,
    st.sampled_from(sorted(DISPATCH_RULES)),
    st.sampled_from(["C", "NC"]),
)
def test_immediate_dispatch_matches_oracle(inst, alpha, machines, rule, per_machine):
    power = PowerLaw(alpha)
    run = simulate_immediate_dispatch(inst, power, machines, rule, per_machine=per_machine)
    targets = DISPATCH_RULES[rule](machines, list(inst.job_ids))
    assignments: dict[int, list[int]] = {i: [] for i in range(machines)}
    for job_id, machine in zip(inst.job_ids, targets):
        assignments[machine].append(job_id)
    assert_same(run, oracle.cluster_from_assignments(inst, power, assignments, per_machine))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4), ALPHAS, st.sampled_from(sorted(DISPATCH_RULES)))
def test_adversary_benchmark_matches_oracle(machines, alpha, rule):
    power = PowerLaw(alpha)
    outcome = adversarial_ratio(machines, power, rule)
    assignment = DISPATCH_RULES[rule](machines, list(range(machines * machines)))
    inst, _ = adversarial_instance(machines, assignment)
    heavy = [j.job_id for j in inst if j.volume == 1.0]
    light = [j.job_id for j in inst if j.volume != 1.0]
    bench: dict[int, list[int]] = {i: [] for i in range(machines)}
    for ids in (heavy, light):
        for i, job_id in enumerate(ids):
            bench[i % machines].append(job_id)
    ref = oracle.cluster_from_assignments(inst, power, bench).report()
    assert outcome.benchmark_cost == ref.fractional_objective
