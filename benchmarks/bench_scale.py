"""E11 — n-scaling of the shadow event loop versus the O(n)-scan reference.

Drives :class:`repro.core.shadow.ClairvoyantShadow` to completion on
synthetic populations of 10^4–10^5 jobs, and the reference loop of
``tests/shadow_oracle.py`` (:func:`run_c`) on the same rows.  The
reference pays two O(n) scans per event (the HDF argmin and the total
weight), i.e. O(n^2) per busy period; the shipped loop replaces them with a
min-heap and an incremental accumulator, O(n log n) total.  The benchmark
pins both the wall-clock separation and the numerical agreement:

* ``scale_speedup`` — reference / shipped wall clock at both n = 10^4
  points (``front`` releases all jobs at t=0, so the active set *is* the
  population).  Gated at a 20x floor by the bench's ``GATES`` (typical
  measured separation is >100x).
* ``max_rel_diff`` — relative disagreement of the final clock between the
  two loops at every point where both run; asserted ≤ 1e-11 here and
  recorded as a deterministic artifact.  The per-event agreement band is
  1e-12 (``tests/test_arraykernels.py``); a full run compounds it over
  10^4 completion events, so the whole-run clock gets one extra decade.
* The n = 10^5 point runs the shipped loop only (the reference would take
  minutes there); its clock and event count are recorded so a future
  regression that silently changes the event sequence at scale is caught
  by the baseline diff.

Profiles: ``front`` releases everything at t=0 (worst case for the O(n)
scans); ``bursty`` staggers releases in 10 dense bursts so admissions
interleave with completions (exercises the heap/accumulator transitions).
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from repro.analysis import format_table
from repro.core.shadow import ClairvoyantShadow

from conftest import emit, emit_json
from shadow_oracle import run_c

ALPHA = 3.0
SEED = 1107
#: (n, profile, run_reference); ``scale_speedup`` is gated wherever the
#: reference runs.
GRID = (
    (10_000, "front", True),
    (10_000, "bursty", True),
    (100_000, "front", False),
)
#: The shipped loop must beat the O(n)-scan reference by at least 20x
#: wherever both are timed.
GATES = {"scale_speedup": {"min": 20.0}}
#: full-run clock band: per-kernel 1e-12 compounded over ~1e4 events.
AGREEMENT_BAND = 1e-11


def _population(n: int, profile: str) -> list[tuple[int, float, float, float]]:
    """``(job_id, release, density, volume)`` rows, reproducible per (n, profile)."""
    rng = np.random.default_rng(SEED + n)
    vols = rng.exponential(1.0, n) + 1e-3
    dens = 10.0 ** rng.uniform(-1.0, 1.0, n)
    if profile == "front":
        rels = np.zeros(n)
    else:
        # 10 bursts, each a tight cluster: admissions land mid-decay.
        burst = rng.integers(0, 10, size=n).astype(float)
        rels = burst * 5.0 + rng.uniform(0.0, 0.1, n)
        rels.sort()
    return [(i, float(rels[i]), float(dens[i]), float(vols[i])) for i in range(n)]


def _timed(fn):
    """``(wall_s, fn())`` with the garbage collector paused."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(rows: list[tuple[int, float, float, float]]) -> tuple[float, float, int]:
    """Advance a fresh shadow to completion; ``(wall_s, clock, events)``."""
    shadow = ClairvoyantShadow(ALPHA)
    for jid, rel, rho, vol in rows:
        shadow.insert_job(jid, rel, rho, vol)
    wall, _ = _timed(lambda: shadow.advance(math.inf))
    assert not shadow.remaining_dict(), "run did not drain the population"
    return wall, shadow.clock, shadow.counters.events


def _run_reference(rows: list[tuple[int, float, float, float]]) -> tuple[float, float, int]:
    """The reference loop over the same rows; ``(wall_s, clock, events)``."""
    wall, run = _timed(lambda: run_c(rows, ALPHA))
    assert not run.remaining, "reference run did not drain the population"
    return wall, run.clock, run.events


def _time_grid() -> list[dict]:
    records = []
    for n, profile, run_reference in GRID:
        rows = _population(n, profile)
        fast_wall, fast_clock, fast_events = _run(rows)
        rec: dict = {
            "n": n,
            "profile": profile,
            "fast_wall_s": fast_wall,
            "clock": fast_clock,
            "events": fast_events,
        }
        if run_reference:
            ref_wall, ref_clock, ref_events = _run_reference(rows)
            rec["scalar_wall_s"] = ref_wall
            rec["scale_speedup"] = ref_wall / fast_wall
            rec["max_rel_diff"] = abs(fast_clock - ref_clock) / ref_clock
            assert ref_events == fast_events, (
                f"event-count mismatch at n={n}/{profile}: "
                f"reference {ref_events} vs shipped {fast_events}"
            )
        records.append(rec)
    return records


def test_scale(benchmark):
    records = benchmark.pedantic(_time_grid, rounds=1, iterations=1)

    table = format_table(
        ["n", "profile", "reference s", "shipped s", "speedup", "rel diff"],
        [
            [
                r["n"],
                r["profile"],
                f"{r['scalar_wall_s']:.3f}" if "scalar_wall_s" in r else "—",
                f"{r['fast_wall_s']:.4f}",
                f"{r['scale_speedup']:.1f}x" if "scale_speedup" in r else "—",
                f"{r['max_rel_diff']:.2e}" if "max_rel_diff" in r else "—",
            ]
            for r in records
        ],
    )
    emit("scale", table)
    emit_json("scale", {"grid": records}, GATES)

    for r in records:
        if "max_rel_diff" in r:
            assert r["max_rel_diff"] <= AGREEMENT_BAND, (
                f"reference disagreement {r['max_rel_diff']:.2e} beyond the "
                f"{AGREEMENT_BAND:g} band at n={r['n']}/{r['profile']}"
            )
