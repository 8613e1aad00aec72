"""Tier-1: the import set of the run path.

Under ``P(s) = s**alpha`` every segment energy is closed form, so a C, NC or
NC-general run, a trace verification and ``repro serve`` never call numpy or
scipy; importing them would cost each process most of its start-up time and
resident memory.  These checks pin that: each import runs in a fresh
interpreter (this one has numpy loaded already) and lists what it loaded.
The code that does need numpy and scipy — :class:`TabulatedPower` and the
quadrature fallback — still loads them on demand, with unchanged values.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: The modules the benchmark's batch worker imports (C, NC, NC-general,
#: scoring, tracing and trace verification).
BATCH_MODULES = (
    "repro.algorithms.clairvoyant",
    "repro.algorithms.nc_general",
    "repro.algorithms.nc_uniform",
    "repro.analysis.trace_report",
    "repro.core.metrics",
    "repro.core.tracing",
)


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from this
    checkout; it must print one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after_importing(modules: tuple[str, ...]) -> dict:
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'scipy': 'scipy' in sys.modules,"
        " 'repro': sorted(m for m in sys.modules if m.startswith('repro.'))}))\n"
    )
    return _run(code)


def test_batch_worker_imports_load_neither_numpy_nor_scipy():
    loaded = _loaded_after_importing(BATCH_MODULES)
    assert not loaded["numpy"] and not loaded["scipy"], loaded
    # the algorithms do not pull in the extensions package or the analysis
    # harness around the one verifier module they need
    assert "repro.extensions" not in loaded["repro"]
    assert "repro.analysis.curves" not in loaded["repro"]


def test_cli_and_service_app_load_neither_numpy_nor_scipy():
    pytest.importorskip("pydantic")
    loaded = _loaded_after_importing(("repro.cli", "repro.service.app"))
    assert not loaded["numpy"] and not loaded["scipy"], loaded
    for heavy in ("repro.workloads", "repro.offline", "repro.analysis.report"):
        assert heavy not in loaded["repro"]


def test_every_analysis_name_resolves():
    import repro.analysis as analysis

    for name in analysis.__all__:
        assert getattr(analysis, name) is not None, name
    namespace: dict = {}
    exec("from repro.analysis import *", namespace)
    assert set(analysis.__all__) <= set(namespace)
    assert namespace["build_report"] is analysis.trace_report.build_report
    assert set(analysis.__all__) <= set(dir(analysis))
    with pytest.raises(AttributeError):
        getattr(analysis, "no_such_name")


def test_analysis_names_are_read_through_not_cached(monkeypatch):
    """A name rebound in its submodule is what the package hands out, and
    the package namespace keeps no copy of the old binding."""
    import repro.analysis as analysis
    import repro.analysis.trace_report as trace_report

    def replacement(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(trace_report, "build_report", replacement)
    assert analysis.build_report is replacement
    monkeypatch.undo()
    assert analysis.build_report is trace_report.build_report
    assert "build_report" not in vars(analysis)


def test_tabulated_power_loads_numpy_and_scipy_on_demand():
    code = """
import json, sys
from repro.core.power import TabulatedPower
from repro.core.schedule import DecaySegment, GrowthSegment, ScaledSegment
stages = [('numpy' in sys.modules, 'scipy' in sys.modules)]
tab = TabulatedPower([0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 0.1, 1.0, 4.0, 16.0])
stages.append(('numpy' in sys.modules, 'scipy' in sys.modules))
decay = DecaySegment(0.0, 1.5, 0, 8.0, 2.0, 3.0)
energies = [
    decay.energy(tab),
    GrowthSegment(1.0, 2.0, 1, 0.5, 1.0, 2.5).energy(tab),
    ScaledSegment(0.0, 1.5, 0, decay, 1.25).energy(tab),
]
stages.append(('numpy' in sys.modules, 'scipy' in sys.modules))
print(json.dumps({
    "stages": stages,
    "power": [tab.power(s) for s in (0.0, 0.25, 0.7, 1.5, 3.0, 5.0)],
    "speed": [tab.speed(p) for p in (0.0, 0.05, 0.5, 2.5, 10.0, 20.0)],
    "marginal": [tab.marginal_power(s) for s in (0.0, 0.25, 0.7, 1.5, 3.0, 5.0)],
    "energies": energies,
}))
"""
    out = _run(code)
    assert out["stages"] == [[False, False], [True, False], [True, True]]
    # Pinned values: loading numpy and scipy lazily must not change a bit.
    assert out["power"] == [0.0, 0.05, 0.45999999999999996, 2.5, 10.0, 22.0]
    assert out["speed"] == [0.0, 0.25, 0.7222222222222222, 1.5, 3.0, 4.666666666666667]
    assert out["marginal"] == [0.2, 0.2, 1.8, 3.0, 6.0, 6.0]
    assert out["energies"] == [4.757359312880715, 0.9887210059355538, 7.536699134154704]
