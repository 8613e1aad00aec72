"""E12 (extension) — speed-bounded processors.

Related-work model (§1.3, [6]): same objective, maximum speed ``s_max``.
Sweeping the cap from loose to tight shows:

* the **energy equality** of Algorithms C and NC (Lemma 3) survives the cap
  *exactly* — the clipped profiles are still rearrangements of each other;
* the **flow ratio** (Lemma 4's `1/(1-1/alpha)` when uncapped) shrinks
  towards 1 as the cap tightens: with both algorithms pinned at ``s_max``
  most of the time there is less room for the non-clairvoyant penalty;
* total cost rises as the cap tightens (flow explodes once the machine can
  no longer react to backlog).
"""

from __future__ import annotations

from repro import Instance, Job
from repro.analysis import format_table
from repro.algorithms import simulate_clairvoyant, simulate_nc_uniform
from repro.core import evaluate
from repro.extensions import CappedPowerLaw

from conftest import emit

ALPHA = 3.0
CAPS = (8.0, 2.0, 1.4, 1.1, 0.9, 0.7)


def _instance() -> Instance:
    return Instance(
        [Job(0, 0.0, 4.0), Job(1, 1.0, 2.0), Job(2, 1.5, 1.0), Job(3, 4.0, 3.0)]
    )


def _run():
    inst = _instance()
    rows = []
    for s_max in CAPS:
        p = CappedPowerLaw(ALPHA, s_max)
        rc = evaluate(simulate_clairvoyant(inst, p).schedule, inst, p)
        rn = evaluate(simulate_nc_uniform(inst, p).schedule, inst, p)
        rows.append(
            [
                s_max,
                rn.energy / rc.energy,
                rn.fractional_flow / rc.fractional_flow,
                1 / (1 - 1 / ALPHA),
                rc.fractional_objective,
                rn.fractional_objective,
            ]
        )
    return rows


def test_bounded_speed(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["s_max", "E_NC/E_C", "F_NC/F_C", "uncapped ratio", "G_frac(C)", "G_frac(NC)"],
        rows,
        title=f"Speed-bounded extension (alpha = {ALPHA}); energy equality survives the cap",
        floatfmt=".4f",
    )
    emit("bounded_speed", table)
    for s_max, e_ratio, f_ratio, uncapped, g_c, g_nc in rows:
        assert abs(e_ratio - 1.0) < 1e-9
        assert f_ratio <= uncapped + 1e-9
        assert 1.0 - 1e-9 <= f_ratio
    # Tightening the cap monotonically raises the clairvoyant cost.
    costs = [r[4] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))
