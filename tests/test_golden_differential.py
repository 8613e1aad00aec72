"""Golden differential: the refactored shadow layer vs pre-refactor runs.

``tests/data/golden_corpus.json`` was recorded with the pre-refactor
simulators (per-query fresh/resumed clairvoyant shadow runs) on a fixed seed
corpus.  The incremental :mod:`repro.core.shadow` layer must reproduce every
recorded offset, completion time and objective within ``1e-9`` relative —
the refactor's acceptance bar for "same algorithm, faster plumbing".
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.algorithms.nc_general import simulate_nc_general
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.core.job import Instance, Job
from repro.core.metrics import evaluate
from repro.core.power import PowerLaw

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"
REL_TOL = 1e-9


def _corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def _instance(spec: list[list[float]]) -> Instance:
    return Instance(
        [Job(int(j), release, volume, density) for j, release, volume, density in spec]
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


_CORPUS = _corpus()
_UNIFORM_KEYS = sorted(k for k in _CORPUS if k.startswith("nc_uniform/"))
_GENERAL_KEYS = sorted(k for k in _CORPUS if k.startswith("nc_general/"))


@pytest.mark.parametrize("key", _UNIFORM_KEYS)
def test_nc_uniform_matches_golden(key):
    entry = _CORPUS[key]
    inst = _instance(entry["instance"])
    run = simulate_nc_uniform(inst, PowerLaw(entry["alpha"]))
    for jid_str, offset in entry["offsets"].items():
        assert _close(run.offsets[int(jid_str)], offset), f"offset of job {jid_str}"
    for jid_str, completion in entry["completions"].items():
        assert _close(run.completion_time(int(jid_str)), completion), (
            f"completion of job {jid_str}"
        )
    rep = evaluate(run.schedule, inst, PowerLaw(entry["alpha"]))
    assert _close(rep.energy, entry["energy"])
    assert _close(rep.fractional_flow, entry["fractional_flow"])


@pytest.mark.parametrize("key", _GENERAL_KEYS)
def test_nc_general_matches_golden(key):
    entry = _CORPUS[key]
    inst = _instance(entry["instance"])
    power = PowerLaw(entry["alpha"])
    run = simulate_nc_general(
        inst,
        power,
        eta=entry["eta"],
        beta=entry["beta"],
        epsilon=entry["epsilon"],
        max_step=entry["max_step"],
    )
    for jid_str, completion in entry["completions"].items():
        assert _close(run.completion_time(int(jid_str)), completion), (
            f"completion of job {jid_str}"
        )
    rep = evaluate(run.schedule, inst, power)
    assert _close(rep.energy, entry["energy"])
    assert _close(rep.fractional_flow, entry["fractional_flow"])
