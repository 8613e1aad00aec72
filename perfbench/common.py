"""Helpers shared by the benchmark's harness and its worker processes."""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from pathlib import Path

ALPHA = 3.0
#: Relative tolerance of every replayed paper identity (the Lemma 3/4 bar).
REL_TOL = 1e-9

#: Where runs keep their scratch files, relative to the checkout root.
WORK_ROOT = Path(".perfbench-work")
SRC = Path("src")
BENCH_DIR = Path(__file__).resolve().parent


def require_checkout() -> None:
    """Exit non-zero, printing no result, outside a checkout of the repo."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro under the current directory; run from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    src = str(SRC.resolve())
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> dict[str, str]:
    """Environment for processes that import the package from ``src``."""
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def job_rows(n: int, rng: random.Random, *, uniform: bool) -> list[tuple[int, float, float, float]]:
    """``n`` jobs as ``(id, release, volume, density)``: Poisson releases at
    rate 1, volumes uniform on [0.2, 2], and either unit densities or
    log-uniform densities over two decades (0.1 to 10).

    Volumes stay away from 0 on purpose: with exponential volumes (some
    near 1e-3) about one 300-job instance in 170 stalls NC-general's
    integrator at zero speed, and the workloads must not fail at the seed
    commit."""
    rows = []
    release = 0.0
    for i in range(n):
        release += rng.expovariate(1.0)
        volume = rng.uniform(0.2, 2.0)
        density = 1.0 if uniform else 10.0 ** rng.uniform(-1.0, 1.0)
        rows.append((i, release, volume, density))
    return rows


#: What ``host_ref_s`` reads on a host running at the benchmark's nominal
#: speed.  Times are reported scaled by ``REF_NOMINAL_S / host_ref_s()``.
REF_NOMINAL_S = 0.010


def _ref_loop() -> float:
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(30000):
        x = (i * 0.618033988749895) % 1.0
        acc += x * x - 0.5 * x
        table[i & 1023] = acc
        if i % 7 == 0:
            acc -= len(table) * 1e-9
    return time.perf_counter() - t0


def host_ref_s() -> float:
    """Seconds a fixed pure-Python loop takes now (best of 3).

    On a shared host the CPU speed available to one process drifts by tens
    of percent over seconds to minutes, and moves every timing with it.
    The loop lives here, outside the package under test, so a change to
    the package cannot move it; dividing a timing by the loop's time
    around it cancels the host's drift while keeping the program's own
    changes."""
    return min(_ref_loop() for _ in range(3))


def host_scale(before: float, after: float) -> float:
    """Factor that converts a timing taken between two ``host_ref_s``
    readings to the nominal host speed."""
    return REF_NOMINAL_S / ((before + after) / 2.0)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of an unsorted list."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    k = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[k]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def emit_line(kind: str, payload: dict) -> None:
    """One tagged JSON line of run detail on stdout (before the result)."""
    print(json.dumps({kind: payload}, sort_keys=True), flush=True)
