"""Tier-1: the algorithm registry (``repro.algorithms.registry``).

Every entry point that runs an algorithm by name reads one table, so they
agree bit for bit; each spec's flags match what its simulator does; and the
simulator is looked up per call, so instrumentation that rebinds a module
attribute sees every dispatched run.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib

import pytest

from repro import PowerLaw
from repro.algorithms import (
    ALGORITHMS,
    DEFAULT_MAX_STEP,
    algorithm_names,
    algorithm_spec,
    simulate_nc_general,
)
from repro.analysis import run_algorithm
import repro.analysis.ratios as ratios
import repro.cli as cli
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder
from repro.extensions import CappedPowerLaw
from repro.runtime import Supervisor
from repro.workloads import random_instance

from capped_oracle import max_observed_speed

ALPHA = 3.0
REPO = pathlib.Path(__file__).resolve().parents[1]


def _jobs_body(inst):
    return {
        "jobs": [
            {"id": j.job_id, "release": j.release, "volume": j.volume, "density": j.density}
            for j in inst
        ]
    }


class TestTable:
    def test_names_each_caller_accepts(self):
        assert algorithm_names(machines=False) == (
            "C",
            "NC",
            "NC_GENERAL",
            "NC_INT",
            "NC_GENERAL_INT",
            "ACTIVE_COUNT",
            "CONSTANT_SPEED",
        )
        assert algorithm_names(traced=True, integral=False) == ("C", "NC", "NC_GENERAL", "NC_PAR")
        assert algorithm_names(capped=True) == ("C", "NC")
        assert algorithm_names(engine=True) == ("NC_GENERAL", "NC_GENERAL_INT")

    def test_unknown_or_excluded_name(self):
        with pytest.raises(ValueError, match="WAT"):
            algorithm_spec("WAT")
        with pytest.raises(ValueError, match="NC_PAR"):
            algorithm_spec("NC_PAR", algorithm_names(machines=False))
        with pytest.raises(ValueError):
            run_algorithm("NC_PAR", random_instance(3, seed=0), PowerLaw(ALPHA))

    def test_one_default_step(self):
        default = inspect.signature(simulate_nc_general).parameters["max_step"].default
        assert default == DEFAULT_MAX_STEP == 1e-2
        for argv in (["run"], ["ratio"]):
            assert cli.build_parser().parse_args(argv).max_step == DEFAULT_MAX_STEP

    @pytest.mark.parametrize("name", algorithm_names(traced=True, integral=False))
    def test_trace_component_is_what_the_simulator_emits(self, name):
        spec = ALGORITHMS[name]
        inst = random_instance(5, seed=3, volume="uniform")
        powers = [PowerLaw(ALPHA)] + ([CappedPowerLaw(ALPHA, 1.2)] if spec.capped else [])
        for power in powers:
            rec = MemoryRecorder()
            spec.simulate(inst, power, context=SimulationContext(power, recorder=rec), machines=2)
            # NC-PAR's components are per machine, nc_par.m{i}
            emitted = {e.component.split(".")[0] for e in rec.events}
            assert spec.trace_component(power) in emitted

    @pytest.mark.parametrize("name", tuple(ALGORITHMS))
    def test_capped_flag_is_honoured_or_refused(self, name):
        spec = ALGORITHMS[name]
        inst = random_instance(4, seed=0, volume="uniform")
        power = CappedPowerLaw(ALPHA, 1.1)
        if spec.capped:
            run = spec.simulate(inst, power, machines=2)
            assert max_observed_speed(run.schedule) <= 1.1 * (1 + 1e-12)
        else:
            with pytest.raises(TypeError, match="s_max=1.1"):
                spec.simulate(inst, power, machines=2)


class TestEntryPointsAgree:
    """``repro run``, a service session's ``/metrics``, ``run_algorithm`` and
    ``Supervisor.run`` run NC_GENERAL with one default step."""

    def test_nc_general_bit_identical(self, capsys, monkeypatch):
        pytest.importorskip("pydantic")
        from repro.service import TestClient, create_app

        inst = random_instance(20, seed=1, density="loguniform")
        power = PowerLaw(ALPHA)
        direct = run_algorithm("NC_GENERAL", inst, power)

        # The CLI: capture the report it prints.
        printed = []

        def recording(*args, **kwargs):
            printed.append(run_algorithm(*args, **kwargs))
            return printed[-1]

        # ``repro run`` resolves run_algorithm when it runs, not at import.
        monkeypatch.setattr(ratios, "run_algorithm", recording)
        argv = ["run", "--algorithm", "NC_GENERAL", "--jobs", "20", "--seed", "1"]
        assert cli.main([*argv, "--densities", "loguniform"]) == 0
        out = capsys.readouterr().out
        assert f"{direct.energy:.6g}" in out

        with TestClient(create_app()) as client:
            body = {"session_id": "s", "algorithm": "NC_GENERAL", "alpha": ALPHA}
            assert client.post("/sessions", json_body=body).status_code == 201
            resp = client.post("/sessions/s/jobs", json_body=_jobs_body(inst))
            assert resp.status_code == 202
            served = client.get("/sessions/s/metrics").json()["report"]

        supervised = Supervisor(power).run("NC_GENERAL", inst).report

        for report in (printed[0], supervised):
            assert report.energy == direct.energy
            assert report.fractional_flow == direct.fractional_flow
        assert served["energy"] == direct.energy
        assert served["fractional_flow"] == direct.fractional_flow


def _load_spans():
    path = REPO / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_spans_see_dispatched_simulators():
    """The registry resolves simulators per call, so the benchmark's span
    shims (which rebind module attributes) time every dispatched run."""
    pytest.importorskip("pydantic")
    from repro.service import TestClient, create_app

    power = PowerLaw(ALPHA)
    inst = random_instance(4, seed=2, volume="uniform")
    for name in ("C", "NC", "NC_GENERAL"):  # dispatch once before the shims go in
        run_algorithm(name, inst, power, max_step=5e-2)
    spans = _load_spans()
    spans.install()
    try:
        run_algorithm("NC", inst, power)
        run_algorithm("NC_GENERAL", inst, power, max_step=5e-2)
        assert spans.snapshot()["nc_uniform.run"][0] > 0
        assert spans.snapshot()["nc_general.run"][0] > 0
        with TestClient(create_app()) as client:
            client.post("/sessions", json_body={"session_id": "s", "algorithm": "C"})
            client.post("/sessions/s/jobs", json_body=_jobs_body(inst))
            assert client.get("/sessions/s/metrics").status_code == 200
        counts = spans.snapshot()
        assert counts["sessions.metrics"][0] == 1
        assert counts["clairvoyant.run"][0] > 0
    finally:
        spans.uninstall()
        spans.reset()
