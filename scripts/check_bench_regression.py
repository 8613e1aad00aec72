#!/usr/bin/env python3
"""Gate fresh ``BENCH_*.json`` artifacts and diff them against the baselines.

The benchmark suite writes machine-readable artifacts to ``benchmarks/out/``
*in place*, so after a local ``make bench-smoke`` the working tree holds the
fresh numbers while the committed baseline is only reachable through git.
This script checks each fresh artifact twice:

* **Gates.** Each bench declares its acceptance bounds once, in its
  module's ``GATES`` dict, and ``emit_json`` writes them into the artifact
  as a ``"gates"`` block, for example
  ``"gates": {"scale_speedup": {"min": 20.0}}``.  Every numeric leaf named
  ``scale_speedup`` must then be >= 20.  A gate that matches no value is a
  problem too: a renamed or deleted metric must not leave its bound
  checking nothing.  :func:`gate_problems` is the one loop; the bench
  harness calls it as well, so a breach fails the bench run itself.
* **Baseline diff.** Every shared numeric quantity must agree with the
  baseline within :data:`TOLERANCE` relative (deterministic outputs:
  energies, objectives, counters, ratios).  Host-dependent keys are
  skipped: the wall-clock keys in :data:`TIMING_KEYS` and every gated key,
  since a bound is only declared on a measured quantity.  The ``gates``
  block itself is diffed, so loosening a bound shows up here unless the
  baseline is re-committed with it.  Quantities present only in the
  baseline are reported as vanished; new ones are fine.

Baselines come from ``git show <ref>:benchmarks/out/<name>`` by default
(``--baseline-ref HEAD``), or from a directory via ``--baseline-dir`` when
comparing two checkouts.  An artifact absent at a valid ref is a new
benchmark and is only gated.  Used by the CI bench jobs and ``make ci``.

Exit status: 0 clean, 1 on any gate breach or regression, 2 on usage or IO
errors (unknown ref, unreadable or invalid JSON).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = REPO_ROOT / "benchmarks" / "out"

#: Host-dependent keys that carry no gate: never diffed against the baseline.
TIMING_KEYS = frozenset(
    {
        "wall_clock_s",
        "memory_overhead",
        "shard_pool_speedup",
        "scalar_wall_s",
        "fast_wall_s",
        "events_per_s",
        "in_memory_peak_mb",
        "ru_maxrss_mb",
        "requests_per_s",
        "service_p50_ms",
        "p50_ms",
        "p99_ms",
        "mean_ms",
        "p50_plain_ms",
        "p50_journal_ms",
        "p99_plain_ms",
        "p99_journal_ms",
        "submit_p99_plain_ms",
        "submit_p99_journal_ms",
        "restore_per_session_ms",
    }
)
#: Relative tolerance of the baseline diff for deterministic quantities.
TOLERANCE = 1e-6


class InputError(Exception):
    """An unknown ref or an unreadable artifact: exit status 2."""


def flatten(obj: Any, skip: frozenset[str], path: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf, skipping the
    subtrees under any key in ``skip``."""
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            if key not in skip:
                yield from flatten(value, skip, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, skip, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def diffable(payload: dict[str, Any], skip: frozenset[str]) -> dict[str, float]:
    """The leaves the baseline diff compares: the body minus ``skip``, plus
    the whole ``gates`` block."""
    body = {key: value for key, value in payload.items() if key != "gates"}
    values = dict(flatten(body, skip))
    values.update(flatten({"gates": payload.get("gates", {})}, frozenset()))
    return values


def collect_key(obj: Any, wanted: str, path: str = "") -> Iterator[tuple[str, float]]:
    """Every numeric ``wanted`` leaf in a payload, with its dotted path."""
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            sub = f"{path}.{key}" if path else str(key)
            if key == wanted and isinstance(value, (int, float)) and not isinstance(value, bool):
                yield sub, float(value)
            else:
                yield from collect_key(value, wanted, sub)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from collect_key(value, wanted, f"{path}[{i}]")


def gate_problems(name: str, payload: dict[str, Any]) -> list[str]:
    """Check every leaf of every gated key against its declared bounds."""
    gates = payload.get("gates", {})
    if not isinstance(gates, dict):
        return [f"{name}: gates must be an object"]
    body = {key: value for key, value in payload.items() if key != "gates"}
    problems = []
    for key, bounds in sorted(gates.items()):
        if (
            not isinstance(bounds, dict)
            or not bounds
            or set(bounds) - {"min", "max"}
            or not all(isinstance(b, (int, float)) for b in bounds.values())
        ):
            problems.append(f"{name}: gate {key} must declare a numeric 'min' and/or 'max'")
            continue
        leaves = list(collect_key(body, key))
        if not leaves:
            problems.append(f"{name}: gate {key} matches no value")
        for path, value in leaves:
            if "min" in bounds and value < bounds["min"]:
                problems.append(f"{name}: {path} = {value:.6g} below the min {bounds['min']:g}")
            if "max" in bounds and value > bounds["max"]:
                problems.append(f"{name}: {path} = {value:.6g} above the max {bounds['max']:g}")
    return problems


def compare_file(name: str, fresh: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    # A key gated on either side is host-dependent on both.
    skip = TIMING_KEYS | frozenset(fresh.get("gates", {})) | frozenset(baseline.get("gates", {}))
    fresh_vals = diffable(fresh, skip)
    base_vals = diffable(baseline, skip)
    problems = []
    for path in sorted(base_vals.keys() - fresh_vals.keys()):
        problems.append(f"{name}: {path} vanished (baseline had {base_vals[path]:g})")
    for path in sorted(fresh_vals.keys() & base_vals.keys()):
        a, b = fresh_vals[path], base_vals[path]
        rel = abs(a - b) / max(1.0, abs(a), abs(b))
        if rel > TOLERANCE:
            problems.append(
                f"{name}: {path} = {a:.9g}, baseline {b:.9g} "
                f"(rel diff {rel:.3g} > {TOLERANCE:g})"
            )
    return problems


def read_json(text: str, source: str) -> dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{source}: not a JSON object")
    return payload


def git(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True, text=True)


def committed_names(ref: str) -> set[str]:
    """The artifact names under ``benchmarks/out/`` at ``ref``."""
    proc = git("ls-tree", "--name-only", ref, "benchmarks/out/")
    if proc.returncode != 0:
        raise InputError(f"baseline ref {ref!r}: {proc.stderr.strip()}")
    return {Path(line).name for line in proc.stdout.splitlines()}


def load_baseline(
    name: str, baseline_dir: Path | None, ref: str, at_ref: set[str]
) -> dict[str, Any] | None:
    """The baseline payload, or ``None`` for a new benchmark."""
    if baseline_dir is not None:
        path = baseline_dir / name
        if not path.exists():
            return None
        return read_json(path.read_text(), str(path))
    if name not in at_ref:
        return None
    spec = f"{ref}:benchmarks/out/{name}"
    proc = git("show", spec)
    if proc.returncode != 0:
        raise InputError(f"git show {spec}: {proc.stderr.strip()}")
    return read_json(proc.stdout, spec)


def check(fresh_dir: Path, baseline_ref: str, baseline_dir: Path | None) -> int:
    fresh_files = sorted(fresh_dir.glob("BENCH_*.json"))
    if not fresh_files:
        raise InputError(f"no BENCH_*.json under {fresh_dir}")
    at_ref = committed_names(baseline_ref) if baseline_dir is None else set()

    problems: list[str] = []
    diffed = gated = 0
    for path in fresh_files:
        fresh = read_json(path.read_text(), path.name)
        problems.extend(gate_problems(path.name, fresh))
        gated += len(fresh.get("gates", {}))
        baseline = load_baseline(path.name, baseline_dir, baseline_ref, at_ref)
        if baseline is None:
            print(f"  {path.name}: no baseline (new benchmark) — gated only")
            continue
        problems.extend(compare_file(path.name, fresh, baseline))
        diffed += 1

    if problems:
        print(f"BENCH REGRESSION: {len(problems)} problem(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(
        f"bench regression check: OK ({len(fresh_files)} artifact(s), {gated} gate(s), "
        f"{diffed} baseline(s) diffed, tolerance {TOLERANCE:g})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=OUT_DIR,
        help="directory holding the freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref to read the committed baselines from (default HEAD)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="read baselines from a directory instead of git",
    )
    args = parser.parse_args(argv)
    try:
        return check(args.fresh_dir, args.baseline_ref, args.baseline_dir)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
