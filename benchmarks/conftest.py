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
# in tests/shadow_oracle.py.  Appended, not prepended, so ``conftest`` keeps
# resolving to this file.
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))


def emit(name: str, text: str) -> None:
    """Print a bench artifact to the real stdout and archive it."""
    banner = f"\n===== {name} =====\n"
    sys.__stdout__.write(banner + text + "\n")
    sys.__stdout__.flush()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Archive a machine-readable companion to :func:`emit`.

    Written to ``benchmarks/out/BENCH_<name>.json`` — wall-clock numbers,
    shadow-call counters and objective values that downstream tooling (or the
    next session's regression check) can diff without parsing tables.
    """
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def cube():
    from repro import PowerLaw

    return PowerLaw(3.0)
