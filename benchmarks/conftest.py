"""Shared helpers for the benchmark harness.

Each bench regenerates one of the paper's artifacts (table, figure or
section-level claim) and *prints* the rows/series.  pytest captures stdout,
so :func:`emit` writes through to the real terminal (visible in
``pytest benchmarks/ --benchmark-only | tee bench_output.txt``) and archives
a copy under ``benchmarks/out/``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"

# The speed gates time the shipped code against the reference implementations
# in tests/shadow_oracle.py, and every declared gate is checked by the same
# loop as scripts/check_bench_regression.py.  Appended, not prepended, so
# ``conftest`` keeps resolving to this file.
_REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(_REPO / "tests"))
sys.path.append(str(_REPO / "scripts"))

from check_bench_regression import gate_problems  # noqa: E402


def emit(name: str, text: str) -> None:
    """Print a bench artifact to the real stdout and archive it."""
    banner = f"\n===== {name} =====\n"
    sys.__stdout__.write(banner + text + "\n")
    sys.__stdout__.flush()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict, gates: dict | None = None) -> None:
    """Archive a machine-readable companion to :func:`emit`, then gate it.

    Written to ``benchmarks/out/BENCH_<name>.json`` — wall-clock numbers,
    shadow-call counters and objective values that downstream tooling (and
    ``scripts/check_bench_regression.py``) can diff without parsing tables.
    ``gates`` (the bench's ``GATES``, e.g. ``{"scale_speedup": {"min": 20.0}}``)
    lands in the artifact as its ``"gates"`` block; the artifact is written
    first, so a breach still leaves the measured numbers on disk.
    """
    if gates is not None:
        payload = {**payload, "gates": gates}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    problems = gate_problems(f"BENCH_{name}.json", payload)
    assert not problems, "\n".join(problems)


@pytest.fixture
def cube():
    from repro import PowerLaw

    return PowerLaw(3.0)
