"""Tier-1: the supervised runtime.

Two contracts from the robustness layer (docs/robustness.md):

* **differential** — with an empty fault plan, a supervised run is
  bit-identical (schedule segments, report, counters) to the unsupervised
  run for every algorithm family;
* **recovery** — a transient fault is survived via checkpoint rollback and
  retry; a persistent fault exhausts the retry budget with a structured
  error naming the fault and the last good checkpoint.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.algorithms import ALGORITHMS, simulate_clairvoyant, simulate_nc_uniform
from repro.algorithms.nc_general import simulate_nc_general
from repro.core.errors import RecoveryExhaustedError
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.power import PowerLaw
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.extensions.bounded_speed import CappedPowerLaw
from repro.faults import FaultPlan, FaultSpec
from repro.parallel.nc_par import simulate_nc_par
from repro.runtime import RecoveryPolicy, Supervisor
from repro.workloads import random_instance

from capped_oracle import max_observed_speed

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"
_CORPUS = json.loads(CORPUS_PATH.read_text())
_UNIFORM_KEYS = sorted(k for k in _CORPUS if k.startswith("nc_uniform/"))


def _instance(spec):
    return Instance(
        [Job(int(j), release, volume, density) for j, release, volume, density in spec]
    )


def _counters(ctx):
    return ctx.metrics.as_dict()


class TestDifferential:
    """Empty plan => supervision is invisible, bit for bit."""

    @pytest.mark.parametrize("key", _UNIFORM_KEYS)
    @pytest.mark.parametrize("algorithm", ["C", "NC"])
    def test_analytic_families_bit_identical(self, key, algorithm):
        entry = _CORPUS[key]
        inst = _instance(entry["instance"])
        power = PowerLaw(entry["alpha"])

        base_ctx = SimulationContext(power)
        simulate = simulate_clairvoyant if algorithm == "C" else simulate_nc_uniform
        base = simulate(inst, power, context=base_ctx)
        base_report = evaluate(base.schedule, inst, power, validate=True)

        sup = Supervisor(power)
        result = sup.run(algorithm, inst)

        assert result.schedule.segments == base.schedule.segments
        assert result.report.energy == base_report.energy
        assert result.report.fractional_flow == base_report.fractional_flow
        assert result.report.completion_times == base_report.completion_times
        assert result.attempts == 1
        assert not result.recovered and not result.degraded
        assert result.faults == ()
        assert _counters(sup.context) == _counters(base_ctx)

    def test_nc_general_bit_identical(self):
        inst = random_instance(6, seed=19, volume="uniform")
        power = PowerLaw(3.0)
        base_ctx = SimulationContext(power)
        base = simulate_nc_general(inst, power, max_step=1e-2, context=base_ctx)
        base_report = evaluate(base.schedule, inst, power, validate=True)

        sup = Supervisor(power)
        result = sup.run("NC_GENERAL", inst, max_step=1e-2)
        assert result.schedule.segments == base.schedule.segments
        assert result.report.energy == base_report.energy
        assert result.report.fractional_flow == base_report.fractional_flow
        assert _counters(sup.context) == _counters(base_ctx)

    def test_capped_families_bit_identical(self):
        inst = random_instance(8, seed=23, volume="uniform")
        power = CappedPowerLaw(3.0, 1.5)
        for algorithm, simulate in (
            ("C", simulate_clairvoyant),
            ("NC", simulate_nc_uniform),
        ):
            base_ctx = SimulationContext(power)
            base = simulate(inst, power, context=base_ctx)
            base_report = evaluate(base.schedule, inst, power, validate=True)
            sup = Supervisor(power)
            result = sup.run(algorithm, inst)
            assert result.schedule.segments == base.schedule.segments
            assert result.report.energy == base_report.energy
            assert result.report.fractional_flow == base_report.fractional_flow
            assert _counters(sup.context) == _counters(base_ctx)

    def test_nc_par_bit_identical(self):
        inst = random_instance(10, seed=31, volume="uniform")
        power = PowerLaw(3.0)
        base_ctx = SimulationContext(power)
        base = simulate_nc_par(inst, power, 3, context=base_ctx)
        base_report = base.report(validate=True)

        sup = Supervisor(power)
        result = sup.run("NC_PAR", inst, machines=3)
        assert result.schedule is None
        assert result.run.assignments == base.assignments
        for m in range(3):
            if m in base.schedules:
                assert result.run.schedules[m].segments == base.schedules[m].segments
        assert result.report.energy == base_report.energy
        assert result.report.fractional_flow == base_report.fractional_flow
        assert _counters(sup.context) == _counters(base_ctx)

    def test_empty_plan_installs_no_hooks(self):
        sup = Supervisor(PowerLaw(3.0))
        sup.run("NC", random_instance(4, seed=1, volume="uniform"))
        ctx = sup.context
        assert ctx.volume_filter is None
        assert ctx.oracle_factory is None
        assert ctx.step_interceptor is None


class TestRecovery:
    def test_transient_power_fault_recovers(self):
        inst = random_instance(5, seed=3, volume="uniform")
        power = PowerLaw(3.0)
        plan = FaultPlan(0, (FaultSpec(kind="power_transient", after_calls=5),))
        ctx = SimulationContext(power, recorder=MemoryRecorder())
        sup = Supervisor(power, plan=plan, context=ctx)
        result = sup.run("NC_GENERAL", inst, max_step=5e-2)

        assert result.recovered
        assert result.attempts == 2
        assert len(result.faults) == 1 and "power_transient" in result.faults[0][0]
        assert result.report.energy > 0
        kinds = [e.kind for e in ctx.recorder.events]
        assert "fault_injected" in kinds
        assert "guard_violation" in kinds
        assert "retry" in kinds
        assert "recovery" in kinds
        retry = ctx.recorder.events_of(kind="retry")[0]
        assert retry.component == "nc_general"
        assert retry.payload["checkpoint"] == "pre-run"
        assert retry.payload["attempt"] == 2
        # tolerances tightened on retry
        assert retry.payload["max_step"] == pytest.approx(5e-2 * 0.5)

    def test_transient_nan_fault_recovers(self):
        inst = random_instance(5, seed=4, volume="uniform")
        power = PowerLaw(2.5)
        plan = FaultPlan(1, (FaultSpec(kind="power_nan", after_calls=3),))
        sup = Supervisor(power, plan=plan)
        result = sup.run("NC_GENERAL", inst, max_step=5e-2)
        assert result.recovered
        assert result.report.energy > 0

    def test_checkpoint_labels_are_ordered(self):
        inst = random_instance(5, seed=3, volume="uniform")
        plan = FaultPlan(0, (FaultSpec(kind="power_transient", after_calls=5),))
        sup = Supervisor(PowerLaw(3.0), plan=plan)
        result = sup.run("NC_GENERAL", inst, max_step=5e-2)
        assert result.checkpoints[0] == "pre-run"
        assert list(result.checkpoints[1:]) == [
            f"attempt-{i}" for i in range(2, len(result.checkpoints) + 1)
        ]

    def test_rollback_restores_fault_counter(self):
        """The retried attempt starts from the checkpoint's metric snapshot;
        the surviving run's counters never double-count the failed attempt."""
        inst = random_instance(5, seed=3, volume="uniform")
        plan = FaultPlan(0, (FaultSpec(kind="power_transient", after_calls=5),))
        sup = Supervisor(PowerLaw(3.0), plan=plan)
        sup.run("NC_GENERAL", inst, max_step=5e-2)
        assert sup.context.metrics.get("faults_fired") == 0.0

    def test_persistent_fault_exhausts_with_context(self):
        inst = random_instance(5, seed=3, volume="uniform")
        plan = FaultPlan(
            0, (FaultSpec(kind="oracle_lie", mode="withhold", max_firings=50),)
        )
        power = PowerLaw(3.0)
        policy = RecoveryPolicy(max_retries=2, degrade_after=99)
        sup = Supervisor(power, plan=plan, policy=policy)
        with pytest.raises(RecoveryExhaustedError) as exc:
            sup.run("NC", inst)
        err = exc.value
        assert err.context["algorithm"] == "NC"
        assert err.context["attempts"] == 3
        assert "oracle_lie" in err.context["fault"]
        assert err.context["checkpoint"].startswith(("pre-run", "attempt-"))
        # hooks are removed even on failure
        assert sup.context.volume_filter is None

    def test_degraded_mode_falls_back_to_engine(self):
        inst = random_instance(4, seed=9, volume="uniform")
        plan = FaultPlan(
            0, (FaultSpec(kind="oracle_lie", mode="withhold", max_firings=3),)
        )
        power = PowerLaw(3.0)
        ctx = SimulationContext(power, recorder=MemoryRecorder())
        policy = RecoveryPolicy(max_retries=5, degrade_after=2)
        sup = Supervisor(power, plan=plan, policy=policy, context=ctx)
        result = sup.run("NC", inst)
        assert result.recovered and result.degraded
        assert result.attempts == 4  # 3 budgeted failures, then a clean run
        degraded = ctx.recorder.events_of(kind="degraded_mode")
        assert len(degraded) == 1
        assert degraded[0].payload["algorithm"] == "NC"
        assert degraded[0].payload["after_failures"] == 2
        assert result.report.energy > 0

    def test_machine_failure_switches_to_failover(self):
        inst = random_instance(8, seed=13, volume="uniform")
        power = PowerLaw(3.0)
        plan = FaultPlan(
            0, (FaultSpec(kind="machine_failure", machine=1, at_time=0.4),)
        )
        sup = Supervisor(power, plan=plan)
        result = sup.run("NC_PAR", inst, machines=3)
        assert len(result.faults) == 1 and "machine_failure" in result.faults[0][0]
        scheduled = {j for jobs in result.run.assignments.values() for j in jobs}
        assert scheduled == {j.job_id for j in inst}

    def test_unknown_algorithm_rejected(self):
        sup = Supervisor(PowerLaw(3.0))
        with pytest.raises(ValueError):
            sup.run("SRPT", random_instance(3, seed=0, volume="uniform"))

    @pytest.mark.parametrize("algorithm", ["C", "NC", "NC_GENERAL", "NC_PAR"])
    def test_capped_power_needs_a_capped_family(self, algorithm):
        """C and NC honour the cap (the registry marks them ``capped``);
        every other family refuses it before the first attempt."""
        sup = Supervisor(CappedPowerLaw(3.0, 1.1))
        inst = random_instance(4, seed=0, volume="uniform")
        if ALGORITHMS[algorithm].capped:
            result = sup.run(algorithm, inst)
            assert max_observed_speed(result.schedule) <= 1.1 * (1 + 1e-12)
        else:
            with pytest.raises(TypeError, match="s_max=1.1"):
                sup.run(algorithm, inst)
