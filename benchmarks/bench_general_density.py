"""E6 — §4/§5: Algorithm NC-general on non-uniform densities.

Measures, per suite instance: the fractional ratio of NC-general against a
certified OPT lower bound, the same after the §5 conversion for the integral
objective (Theorem 16), and the ratio against Algorithm C (the constant the
paper proves is 2^{O(alpha)}).

A second experiment times the incremental clairvoyant-shadow layer against
the per-query reference shadow of ``tests/shadow_oracle.py`` (a fresh C run
warm-started from a checkpoint at the current job's release, building its
schedule, on every engine query) on larger instances (n >= 50), and
archives wall-clock, shadow-call counters and objective values to
``out/BENCH_general_density.json`` — the reference under the ``resume``
key.  The two must drive the same engine trajectory with objectives inside
the shadow's documented 1e-12 band, and the incremental layer must be at
least 5x faster (``GATES``).  The n = 80 case is also run once at the
default ``max_step``, where ``GATES`` bounds the committed shadow events
per engine step: the epoch rebuilds resume from the last unchanged release
and most queries commit no event, so the count stays well below the 1.65
events per step of rebuilds that replayed C from ``t = 0``.
"""

from __future__ import annotations

import gc
import time

from repro import PowerLaw
from repro.algorithms import convert, simulate_clairvoyant, simulate_nc_general
from repro.analysis import format_table, nonuniform_suite
from repro.core import evaluate
from repro.offline import opt_fractional_lower_bound, opt_integral_lower_bound
from repro.workloads import random_instance

from conftest import emit, emit_json
from shadow_oracle import simulate_nc_general_reference

ALPHA = 3.0
#: (jobs, seed) pairs for the shadow-layer timing experiment.
SPEED_CASES = ((50, 301), (80, 301))
#: The incremental layer must pay for itself: at n >= 50 it is at least 5x
#: faster than the per-query reference shadow.
GATES = {"speedup": {"min": 5.0}, "shadow_events_per_step": {"max": 0.75}}
#: the case also run at the default ``max_step`` for the events-per-step gate.
EVENTS_CASE = (80, 301)
#: relative objective band between the shipped shadow and the reference.
AGREEMENT_BAND = 1e-12
#: the timed shadows, keyed as in the archived JSON.
SHADOWS = {"resume": simulate_nc_general_reference, "incremental": simulate_nc_general}
_TIMING_ROUNDS = 5


def _run():
    power = PowerLaw(ALPHA)
    rows = []
    for name, inst in nonuniform_suite(n=6, seeds=(1, 2), alpha=ALPHA):
        run = simulate_nc_general(inst, power, max_step=2e-2)
        rep = evaluate(run.schedule, inst, power)
        conv = convert(run.schedule, inst, power, epsilon=0.5)
        rep_c = evaluate(simulate_clairvoyant(inst, power).schedule, inst, power)
        lb_f = opt_fractional_lower_bound(inst, power, slots=250, iterations=1000)
        lb_i = opt_integral_lower_bound(inst, power, slots=250, iterations=1000)
        rows.append(
            [
                name,
                len(inst),
                rep.fractional_objective / lb_f.value,
                conv.integral_report.integral_objective / lb_i.value,
                rep.fractional_objective / rep_c.fractional_objective,
            ]
        )
    return rows


def _time_shadow_modes():
    """Best-of-N wall-clock of the two shadows on identical instances."""
    power = PowerLaw(ALPHA)
    records = []
    for n, seed in SPEED_CASES:
        inst = random_instance(n, seed=seed, volume="uniform", density="loguniform")
        best: dict[str, float] = {}
        runs = {}
        # Interleave the shadows round by round (with GC paused) so load
        # drift on the host penalizes both equally.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_TIMING_ROUNDS):
                for mode, simulate in SHADOWS.items():
                    t0 = time.perf_counter()
                    run = simulate(inst, power, max_step=2e-2)
                    dt = time.perf_counter() - t0
                    if mode not in best or dt < best[mode]:
                        best[mode] = dt
                    runs[mode] = run
        finally:
            if gc_was_enabled:
                gc.enable()
        per_mode = {}
        for mode, run in runs.items():
            rep = evaluate(run.schedule, inst, power)
            per_mode[mode] = {
                "wall_clock_s": best[mode],
                "engine_steps": run.engine_steps,
                "counters": run.counters.as_dict(),
                "energy": rep.energy,
                "fractional_flow": rep.fractional_flow,
                "fractional_objective": rep.fractional_objective,
            }
        record = {
            "jobs": n,
            "seed": seed,
            "modes": per_mode,
            "speedup": per_mode["resume"]["wall_clock_s"]
            / per_mode["incremental"]["wall_clock_s"],
        }
        if (n, seed) == EVENTS_CASE:
            run = simulate_nc_general(inst, power)
            record["default_max_step"] = {
                "engine_steps": run.engine_steps,
                "counters": run.counters.as_dict(),
                "shadow_events_per_step": run.counters.events / run.engine_steps,
            }
        records.append(record)
    return records


def test_general_density(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["instance", "jobs", "frac ratio vs OPT_lb", "int ratio vs OPT_lb (Thm16)", "vs C"],
        rows,
        title=f"§4 NC-general (alpha={ALPHA}, default eta/beta); constants are 2^O(alpha)",
        floatfmt=".3f",
    )

    speed = _time_shadow_modes()
    speed_rows = [
        [
            f"n={r['jobs']} seed={r['seed']}",
            r["modes"]["resume"]["wall_clock_s"],
            r["modes"]["incremental"]["wall_clock_s"],
            r["speedup"],
            r["modes"]["incremental"]["counters"]["queries"],
            r["modes"]["incremental"]["counters"]["rebuilds"],
        ]
        for r in speed
    ]
    table += "\n" + format_table(
        ["case", "reference [s]", "incremental [s]", "speedup", "queries", "rebuilds"],
        speed_rows,
        title="incremental shadow layer vs per-query reference (best of "
        f"{_TIMING_ROUNDS}, identical trajectories)",
        floatfmt=".3f",
    )
    emit("general_density", table)
    emit_json(
        "general_density",
        {
            "alpha": ALPHA,
            "competitive_rows": [
                {
                    "instance": row[0],
                    "jobs": row[1],
                    "frac_ratio_vs_opt_lb": row[2],
                    "int_ratio_vs_opt_lb": row[3],
                    "ratio_vs_c": row[4],
                }
                for row in rows
            ],
            "shadow_speed": speed,
        },
        GATES,
    )

    for row in rows:
        # Constant-competitive: generous 2^{O(alpha)} cap, far below any
        # load-dependent blow-up.
        assert row[2] < 200.0
        assert row[3] < 400.0
        assert row[4] < 100.0
    for r in speed:
        res, inc = r["modes"]["resume"], r["modes"]["incremental"]
        # The two shadows must drive the same trajectory...
        assert res["engine_steps"] == inc["engine_steps"]
        gap = abs(res["fractional_objective"] - inc["fractional_objective"])
        assert gap <= AGREEMENT_BAND * res["fractional_objective"]
