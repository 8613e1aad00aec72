"""Tier-1: deterministic fault plans and the injectors that realize them."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.analysis.trace_report import build_report
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultyVolumeOracle,
    FlakyPowerFunction,
    generate_plan,
)
from repro.parallel import simulate_nc_par
from repro.workloads import random_instance

from conftest import uniform_instances
from failover_oracle import simulate_nc_par_with_failure

ALPHA = 3.0


def _ctx(power=None):
    return SimulationContext(power or PowerLaw(ALPHA), recorder=MemoryRecorder())


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = generate_plan(42, n_faults=3, n_jobs=8, machines=3, transient_only=False)
        b = generate_plan(42, n_faults=3, n_jobs=8, machines=3, transient_only=False)
        assert a == b
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        plans = {generate_plan(s, n_faults=2, n_jobs=8).describe() for s in range(10)}
        assert len(plans) > 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlin")
        with pytest.raises(ValueError):
            FaultSpec(kind="oracle_lie", max_firings=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="power_nan", after_calls=-1)
        with pytest.raises(ValueError):
            generate_plan(0, kinds=("not_a_kind",))

    def test_empty_plan(self):
        plan = FaultPlan.empty()
        assert plan.is_empty
        assert plan.of_kind(*FAULT_KINDS) == ()
        assert "no faults" in plan.describe()

    def test_payload_keys_fault_kind(self):
        spec = FaultSpec(kind="machine_failure", machine=1, at_time=0.5)
        payload = spec.as_payload()
        assert payload["fault"] == "machine_failure"
        assert "kind" not in payload  # would collide with the event's own kind


class TestInjectorChannels:
    def test_faulty_oracle_lies_only_at_reveal(self):
        inst = Instance([Job(0, 0.0, 2.0, 1.0)])
        oracle = FaultyVolumeOracle(inst, lambda j, v: v * 10.0)
        assert oracle._reveal_on_completion(0) == 20.0
        assert oracle._true_volume(0) == 2.0  # physics stays honest

    def test_flaky_power_transient_then_recovers(self):
        calls = {"n": 0}

        def on_speed(_value):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("boom", call=calls["n"])
            return None

        flaky = FlakyPowerFunction(ALPHA, on_speed)
        honest = PowerLaw(ALPHA)
        assert flaky.speed(8.0) == honest.speed(8.0)
        with pytest.raises(ConvergenceError):
            flaky.speed(8.0)
        assert flaky.speed(8.0) == honest.speed(8.0)

    def test_perturb_jitter_shifts_release(self):
        ctx = _ctx()
        plan = FaultPlan(0, (FaultSpec(kind="release_jitter", job_id=1, magnitude=0.25),))
        inj = FaultInjector(plan, ctx)
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 1.0)])
        out = inj.perturb_instance(inst)
        assert out[1].release == pytest.approx(0.75)
        assert out[0].release == 0.0
        # budget spent: the retry sees the original instance object
        assert inj.perturb_instance(inst) is inst

    def test_perturb_duplicate_adds_phantom(self):
        ctx = _ctx()
        plan = FaultPlan(0, (FaultSpec(kind="release_duplicate", job_id=0),))
        inj = FaultInjector(plan, ctx)
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 1.0)])
        out = inj.perturb_instance(inst)
        assert len(out) == 3
        phantom = [j for j in out if j.job_id not in (0, 1)]
        assert len(phantom) == 1
        assert phantom[0].volume == inst[0].volume

    def test_perturb_drop_removes_job_but_never_the_last(self):
        ctx = _ctx()
        plan = FaultPlan(0, (FaultSpec(kind="release_drop", job_id=1),))
        inj = FaultInjector(plan, ctx)
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 1.0)])
        out = inj.perturb_instance(inst)
        assert [j.job_id for j in out] == [0]

        lonely = Instance([Job(0, 0.0, 1.0, 1.0)])
        inj2 = FaultInjector(
            FaultPlan(0, (FaultSpec(kind="release_drop", job_id=0),)), _ctx()
        )
        assert [j.job_id for j in inj2.perturb_instance(lonely)] == [0]

    def test_lie_modes(self):
        for mode, check in (
            ("scale", lambda v: v == pytest.approx(1.5)),
            ("nan", lambda v: math.isnan(v)),
        ):
            plan = FaultPlan(0, (FaultSpec(kind="oracle_lie", mode=mode, magnitude=0.5),))
            inj = FaultInjector(plan, _ctx())
            assert check(inj._lie(0, 1.0))
            # budget spent: second reveal is honest
            assert inj._lie(0, 1.0) == 1.0

        plan = FaultPlan(0, (FaultSpec(kind="oracle_lie", mode="withhold"),))
        inj = FaultInjector(plan, _ctx())
        with pytest.raises(SimulationError) as exc:
            inj._lie(3, 1.0)
        assert exc.value.context["job"] == 3

    def test_wrap_power_is_identity_without_power_faults(self):
        power = PowerLaw(ALPHA)
        inj = FaultInjector(FaultPlan.empty(), _ctx(power))
        assert inj.wrap_power(power) is power

    def test_install_wires_nothing_for_empty_plan(self):
        ctx = _ctx()
        inj = FaultInjector(FaultPlan.empty(), ctx)
        inj.install()
        assert ctx.volume_filter is None
        assert ctx.oracle_factory is None
        assert ctx.step_interceptor is None

    def test_fired_events_are_typed_and_budgeted(self):
        ctx = _ctx()
        plan = FaultPlan(0, (FaultSpec(kind="oracle_lie", magnitude=0.5),))
        inj = FaultInjector(plan, ctx)
        inj._lie(0, 1.0)
        assert inj.exhausted
        events = ctx.recorder.events_of(kind="fault_injected")
        assert len(events) == 1
        assert events[0].payload["fault"] == "oracle_lie"
        assert ctx.metrics.get("faults_fired") == 1


class TestMachineFailure:
    def test_failover_completes_all_jobs(self):
        power = PowerLaw(ALPHA)
        inst = random_instance(10, seed=5, volume="uniform")
        ctx = _ctx(power)
        run = simulate_nc_par(inst, power, 3, failure=(0, 0.4), context=ctx)
        report = run.report(validate=True)
        assert math.isfinite(report.energy) and report.energy > 0
        scheduled = {j for jobs in run.assignments.values() for j in jobs}
        assert scheduled == {j.job_id for j in inst}
        # nothing lands on the dead machine after the failure
        for seg in run.schedules.get(0, []).segments if 0 in run.schedules else []:
            assert seg.t1 <= 0.4 + 1e-9 or seg.t0 < 0.4

    def test_failover_emits_fault_and_recovery_events(self):
        power = PowerLaw(ALPHA)
        inst = random_instance(8, seed=7, volume="uniform")
        ctx = _ctx(power)
        simulate_nc_par(inst, power, 2, failure=(1, 0.3), context=ctx)
        kinds = {e.kind for e in ctx.recorder.events}
        assert "fault_injected" in kinds
        fault = ctx.recorder.events_of(kind="fault_injected")[0]
        assert fault.payload["fault"] == "machine_failure"
        assert ctx.metrics.get("machine_failures") == 1

    def test_failover_requires_two_machines(self):
        power = PowerLaw(ALPHA)
        inst = random_instance(4, seed=1, volume="uniform")
        from repro.core.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            simulate_nc_par(inst, power, 1, failure=(0, 0.1))

    def test_failure_at_t0_equals_one_fewer_machine(self):
        """Dead on arrival: the machine never runs anything, so the cluster
        behaves exactly like a (k-1)-machine run with indices shifted."""
        power = PowerLaw(ALPHA)
        inst = random_instance(12, seed=21, volume="uniform")
        failed = simulate_nc_par(inst, power, 3, failure=(0, 0.0))
        plain = simulate_nc_par(inst, power, 2)
        assert failed.assignments[0] == []
        for survivor in (1, 2):
            assert failed.assignments[survivor] == plain.assignments[survivor - 1]
        assert failed.report(validate=True) == plain.report(validate=True)

    def test_failure_after_last_completion_is_a_noop(self):
        """A failure scheduled after the machine's last completion kills
        nothing and requeues nothing: the run equals the plain NC-PAR run."""
        power = PowerLaw(ALPHA)
        inst = random_instance(12, seed=22, volume="uniform")
        plain = simulate_nc_par(inst, power, 3)
        horizon = max(
            seg.t1 for sched in plain.schedules.values() for seg in sched.segments
        )
        ctx = _ctx(power)
        failed = simulate_nc_par(inst, power, 3, failure=(1, horizon + 1.0), context=ctx)
        assert failed.assignments == plain.assignments
        assert failed.report(validate=True) == plain.report(validate=True)
        assert ctx.recorder.events_of(kind="fault_injected") == []
        assert ctx.metrics.get("machine_failures") == 0

    def test_repeated_failures_same_machine_fire_once(self):
        """Two machine_failure specs on the same machine in one run: the
        machine can only die once, so exactly one budget is spent and the
        second spec stays armed."""
        power = PowerLaw(ALPHA)
        inst = random_instance(10, seed=23, volume="uniform")
        ctx = _ctx(power)
        plan = FaultPlan(
            0,
            (
                FaultSpec(kind="machine_failure", machine=0, at_time=0.2),
                FaultSpec(kind="machine_failure", machine=0, at_time=0.4),
            ),
        )
        inj = FaultInjector(plan, ctx)
        run = simulate_nc_par(
            inst,
            power,
            3,
            failure=(0, 0.2),
            context=ctx,
            on_failure=partial(inj.fire_external, "machine_failure"),
        )
        assert len(inj.fired) == 1
        assert len(inj.armed_specs("machine_failure")) == 1
        assert len(ctx.recorder.events_of(kind="fault_injected")) == 1
        scheduled = {j for jobs in run.assignments.values() for j in jobs}
        assert scheduled == {j.job_id for j in inst}

    @staticmethod
    def _mid_flight(inst, power, machines, dead):
        """A failure time that kills the dead machine's second job mid-flight
        (the midpoint of its plain-run segment), and that job's id."""
        seg = simulate_nc_par(inst, power, machines).schedules[dead].segments[1]
        return 0.5 * (seg.t0 + seg.t1), seg.job_id

    def test_failover_trace_replays(self):
        """Every job that lands emits release/kernel_eval/completion on its
        machine; the killed attempt emits no kernel_eval; each machine's
        kernel_eval stream is its schedule, field for field."""
        power = PowerLaw(ALPHA)
        inst = random_instance(10, seed=5, volume="uniform")
        fail_time, killed = self._mid_flight(inst, power, 3, 0)
        ctx = _ctx(power)
        ctx.emit(
            "run_meta",
            0.0,
            "test",
            alpha=ALPHA,
            instance=[[j.job_id, j.release, j.volume, j.density] for j in inst],
        )
        run = simulate_nc_par(inst, power, 3, failure=(0, fail_time), context=ctx)
        rec = ctx.recorder
        assert rec.events_of(kind="fault_injected")[0].payload["job"] == killed
        assert rec.events_of(kind="recovery")[0].payload["job"] == killed
        assert killed not in run.assignments[0]
        for i, jobs in run.assignments.items():
            comp = f"nc_par.m{i}"
            for kind in ("release", "completion"):
                assert [e.payload["job"] for e in rec.events_of(kind, comp)] == jobs
            evals = [e.payload for e in rec.events_of("kernel_eval", comp)]
            segments = run.schedules[i].segments if jobs else []
            assert [
                (p["profile"], p["t0"], p["t1"], p["job"], p["x0"], p["rho"], p["alpha"])
                for p in evals
            ] == [
                ("growth", g.t0, g.t1, g.job_id, g.x0, g.rho, g.alpha) for g in segments
            ]
        report = build_report(iter(rec.events))
        assert report.order_violations == []

    def test_oracle_lie_reaches_failover(self):
        """A corrupted reveal of the re-released job raises the same typed
        error under the failover model as in plain NC-PAR (only the time of
        the reveal differs)."""
        power = PowerLaw(ALPHA)
        inst = random_instance(10, seed=5, volume="uniform")
        fail_time, killed = self._mid_flight(inst, power, 3, 0)
        errors = []
        for failure in (None, (0, fail_time)):
            ctx = _ctx(power)
            plan = FaultPlan(
                0,
                (
                    FaultSpec(kind="machine_failure", machine=0, at_time=fail_time),
                    FaultSpec(kind="oracle_lie", mode="nan", job_id=killed),
                ),
            )
            inj = FaultInjector(plan, ctx)
            inj.install()
            with pytest.raises(SimulationError) as info:
                simulate_nc_par(
                    inst,
                    power,
                    3,
                    context=ctx,
                    failure=failure,
                    on_failure=partial(inj.fire_external, "machine_failure"),
                )
            errors.append(info.value)
        plain, failover = errors
        assert type(failover) is type(plain)
        assert failover.context["job"] == plain.context["job"] == killed
        assert math.isnan(failover.context["value"])
        # the failover run reveals the job after its re-release
        assert failover.context["time"] > fail_time

    @settings(max_examples=60, deadline=None)
    @given(
        uniform_instances(max_jobs=8),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
    )
    def test_matches_failover_oracle(self, inst, machines, dead, fail_time):
        """Differential against the retired failover twin: identical
        assignments and segments, kill or no kill."""
        power = PowerLaw(ALPHA)
        dead %= machines
        merged = simulate_nc_par(inst, power, machines, failure=(dead, fail_time))
        oracle = simulate_nc_par_with_failure(
            inst, power, machines, dead_machine=dead, fail_time=fail_time
        )
        assert merged.assignments == oracle.assignments
        assert merged.schedules.keys() == oracle.schedules.keys()
        for i, schedule in merged.schedules.items():
            assert schedule.segments == oracle.schedules[i].segments
