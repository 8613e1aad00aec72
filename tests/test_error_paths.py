"""Tier-1: structured error paths carry actionable context.

Every terminal failure in the stack raises a :class:`ReproError` subclass
whose ``context`` names the simulation time, job id, or solver state — the
"no silent failure" half of the robustness contract.
"""

from __future__ import annotations

import math

import pytest

from repro.core.engine import NumericEngine, SchedulingPolicy
from repro.core.errors import (
    ConvergenceError,
    ReproError,
    SimulationError,
)
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.offline.convex import fractional_lower_bound
from repro.workloads import random_instance


class _ZeroSpeedPolicy(SchedulingPolicy):
    """Selects the first active job but never runs it — a stalling policy."""

    def __init__(self):
        self.active = []

    def on_release(self, t, job_id, density):
        self.active.append(job_id)

    def on_completion(self, t, job_id, volume):
        self.active.remove(job_id)

    def select_job(self, t):
        return self.active[0] if self.active else None

    def speed(self, t, processed):
        return 0.0


class _InactiveJobPolicy(_ZeroSpeedPolicy):
    """Selects a job id that was never released."""

    def select_job(self, t):
        return 999 if self.active else None


class TestEngineErrors:
    def test_stall_limit_names_time_and_job(self):
        inst = Instance([Job(0, 0.0, 1.0, 1.0)])
        engine = NumericEngine(PowerLaw(3.0), max_step=1e-2, stall_limit=5)
        with pytest.raises(SimulationError) as exc:
            engine.run(inst, _ZeroSpeedPolicy())
        err = exc.value
        assert "stalled at zero speed" in str(err)
        assert err.context["job"] == 0
        assert err.context["stall_steps"] > 5
        assert "time" in err.context

    def test_step_budget_names_budget_and_last_speed(self):
        """A policy crawling at a tiny nonzero speed never trips the stall
        guard; the total step budget stops it, and the error says so."""

        class TinySpeed(_ZeroSpeedPolicy):
            def speed(self, t, processed):
                return 1e-9

        inst = Instance([Job(0, 0.0, 1.0, 1.0)])
        engine = NumericEngine(PowerLaw(3.0), max_step=1e-2, stall_limit=50)
        with pytest.raises(SimulationError) as exc:
            engine.run(inst, TinySpeed())
        err = exc.value
        assert err.context["budget"] == 51  # stall_limit + one release
        assert err.context["speed"] == 1e-9
        assert "step budget of 51" in str(err)
        assert "last nonzero speed 1e-09" in str(err)
        assert "stalled" not in str(err)

    def test_inactive_job_selection_names_job(self):
        inst = Instance([Job(0, 0.0, 1.0, 1.0)])
        engine = NumericEngine(PowerLaw(3.0), max_step=1e-2)
        with pytest.raises(SimulationError) as exc:
            engine.run(inst, _InactiveJobPolicy())
        assert exc.value.context["job"] == 999

    def test_invalid_speed_names_speed(self):
        class NanSpeed(_ZeroSpeedPolicy):
            def speed(self, t, processed):
                return math.nan

        inst = Instance([Job(0, 0.0, 1.0, 1.0)])
        engine = NumericEngine(PowerLaw(3.0), max_step=1e-2)
        with pytest.raises(SimulationError) as exc:
            engine.run(inst, NanSpeed())
        assert math.isnan(exc.value.context["speed"])


class TestConvexErrors:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_dual_raises_convergence_error_with_context(self):
        inst = random_instance(3, seed=2, volume="uniform")
        power = PowerLaw(3.0)
        with pytest.raises(ConvergenceError) as exc:
            fractional_lower_bound(inst, power, horizon=math.inf, slots=16, iterations=10)
        err = exc.value
        assert err.context["horizon"] == math.inf
        assert err.context["slots"] == 16
        assert "value" in err.context


class TestReproErrorProtocol:
    def test_context_renders_in_str(self):
        err = SimulationError("boom", time=1.5, job=3)
        assert str(err) == "boom [time=1.5, job=3]"
        assert err.context == {"time": 1.5, "job": 3}

    def test_no_context_is_plain(self):
        assert str(ReproError("plain")) == "plain"

    def test_subclass_hierarchy(self):
        assert issubclass(SimulationError, ReproError)
        assert issubclass(ConvergenceError, ReproError)
