"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload general-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs the same layers under
the span shims of ``spans.py`` and reports per-layer metrics instead.
Lines before the last one carry run detail as tagged JSON (host facts,
exact counts, every latency by name); the last line is the result::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import service

WORKLOADS = ("general-batch", "trace-verify", "service-stream")
SETUP_REPS = 3

#: name -> unit, in the order printed.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_job": "ms",
}

REQUEST_CLASSES = ("submit", "speeds", "metrics", "create")

#: Layer metrics whose growth from n/2 to n jobs is reported as an exponent.
GROWTH = (
    "shadow.advance_s",
    "shadow.query_s",
    "shadow.events",
    "engine.self_s",
    "engine.steps",
    "nc_general.run_s",
    "metrics.evaluate_s",
    "schedule.segments",
    "tracing.emit_s",
    "tracing.decode_s",
    "verify.self_s",
)

PER_LAYER = {
    "shadow.advance_s": "s",
    "shadow.query_s": "s",
    "shadow.other_s": "s",
    "shadow.events": "count",
    "shadow.queries": "count",
    "shadow.rollbacks": "count",
    "engine.self_s": "s",
    "engine.steps": "count",
    "nc_general.policy_s": "s",
    "clairvoyant.run_s": "s",
    "nc_uniform.run_s": "s",
    "nc_general.run_s": "s",
    "metrics.evaluate_s": "s",
    "schedule.segments": "count",
    "tracing.emit_s": "s",
    "tracing.events": "count",
    "tracing.bytes": "bytes",
    "tracing.decode_s": "s",
    "verify.self_s": "s",
    "verify.events_per_s": "1/s",
    **{f"asgi.handle_s.{c}": "s" for c in REQUEST_CLASSES},
    **{f"asgi.transport_s.{c}": "s" for c in REQUEST_CLASSES},
    **{f"asgi.requests.{c}": "count" for c in REQUEST_CLASSES},
    "models.validate_s": "s",
    "sessions.submit_s": "s",
    "sessions.speeds_s": "s",
    "sessions.metrics_s": "s",
    "sessions.restore_s": "s",
    "journal.append_s": "s",
    "journal.appends": "count",
    "journal.bytes": "bytes",
    "journal.read_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead": "ratio",
    **{f"growth.{m}": "exponent" for m in GROWTH},
}


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


# -- batch workloads -------------------------------------------------------------


def _worker(
    workload: str, seed: int, seconds: float, mode: str, work: Path
) -> tuple[float, dict | None]:
    """Spawn ``batch.py``; returns (seconds from spawn to ready, scaled to
    the nominal host speed, and the worker's result)."""
    cmd = [sys.executable, str(common.BENCH_DIR / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--work", str(work)]
    ref = common.host_ref_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=common.child_env(), text=True)
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        ready_s *= common.host_scale(ref, common.host_ref_s())
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not first.startswith('{"ready"'):
        raise RuntimeError(f"batch worker ({mode}) exited with {code}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(rest.strip().splitlines()[-1])["result"]


def batch_measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    setups = [_worker(workload, seed, seconds, "setup", work)[0] for _ in range(SETUP_REPS - 1)]
    ready_s, res = _worker(workload, seed, seconds, "measure", work)
    setups.append(ready_s)
    per_instance = res["scaled_per_instance"] or [(math.nan, math.nan)]
    return {
        **res,
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": statistics.median(rate for rate, _ in per_instance),
            "peak_rss_mb": res["peak_rss_mb"],
            "cpu_ms_per_job": statistics.median(cpu for _, cpu in per_instance),
        },
    }


def _span(sp: dict, name: str, field: int) -> float:
    return sp.get(name, [0, 0.0, 0.0])[field]


def layer_values(sp: dict, counts: dict) -> dict:
    """Per-layer metrics from span totals and exact counts."""
    total = lambda name: _span(sp, name, 1)  # noqa: E731
    own = lambda name: _span(sp, name, 2)  # noqa: E731
    verify_self = own("verify.build_report")
    out = {
        "shadow.advance_s": total("shadow.advance"),
        "shadow.query_s": total("shadow.query"),
        "shadow.other_s": total("shadow.other"),
        "engine.self_s": own("engine.run"),
        "nc_general.policy_s": own("nc_general.policy"),
        "clairvoyant.run_s": total("clairvoyant.run"),
        "nc_uniform.run_s": total("nc_uniform.run"),
        "nc_general.run_s": total("nc_general.run"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "tracing.emit_s": total("tracing.emit"),
        "tracing.decode_s": total("tracing.decode"),
        "verify.self_s": verify_self,
        "verify.events_per_s": counts.get("verify.events", 0) / verify_self if verify_self else 0.0,
        "models.validate_s": total("models.validate"),
        "sessions.submit_s": total("sessions.submit"),
        "sessions.speeds_s": total("sessions.speeds"),
        "sessions.metrics_s": total("sessions.metrics"),
        "sessions.restore_s": total("sessions.restore"),
        "journal.append_s": total("journal.append"),
        "journal.read_s": total("journal.read"),
        "trace.self_sum_s": sum(st[2] for st in sp.values()),
    }
    for c in REQUEST_CLASSES:
        out[f"asgi.handle_s.{c}"] = total(f"asgi.handle.{c}")
        out[f"asgi.transport_s.{c}"] = 0.0  # client-side; filled by service_trace
        out[f"asgi.requests.{c}"] = _span(sp, f"asgi.handle.{c}", 0)
    for key in ("shadow.events", "shadow.queries", "shadow.rollbacks", "engine.steps",
                "schedule.segments", "tracing.events", "tracing.bytes",
                "journal.appends", "journal.bytes"):
        out[key] = counts.get(key, 0)
    return out


def batch_trace(workload: str, seed: int, seconds: float, work: Path) -> dict:
    _, res = _worker(workload, seed, seconds, "trace", work)
    small, large = (str(n) for n in res["sizes"])
    at = {size: layer_values(res["spans"][size], res["counts"][size]) for size in (small, large)}
    values = dict(at[large])
    values["trace.wall_s"] = res["traced_wall_s"][large]
    values["trace.overhead"] = res["traced_wall_s"][large] / res["untraced_wall_s"][large]
    ratio = int(large) / int(small)
    for m in GROWTH:
        lo, hi = at[small][m], at[large][m]
        values[f"growth.{m}"] = math.log(hi / lo) / math.log(ratio) if lo > 0 and hi > 0 else 0.0
    return {**res, "values": values}


# -- service workload ------------------------------------------------------------


def service_trace(seed: int, work: Path) -> dict:
    res = service.trace(seed, work)
    traced, server = res["traced"], res["server"]
    counts = {
        **{f"shadow.{k}": v for k, v in traced["counters"].items()},
        **traced["journal"],
    }
    values = layer_values(server["spans"], counts)
    for c in REQUEST_CLASSES:
        values[f"asgi.transport_s.{c}"] = (
            traced["client_service_s"][c] - values[f"asgi.handle_s.{c}"]
        )
    values["trace.wall_s"] = server["wall_s"]
    values["trace.overhead"] = traced["mean_service_ms"] / res["untraced"]["mean_service_ms"]
    values.update({f"growth.{m}": 0.0 for m in GROWTH})  # measured on the batch workloads
    return {**res, "values": values}


# -- output ----------------------------------------------------------------------


def named_metrics(workload: str, res: dict) -> dict:
    """Every named end-to-end figure that applies to the workload, with
    units, including the ones the result line does not carry."""
    m = res["metrics"]
    rows = {
        "setup_s": (m["setup_s"], "s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "error_frac": (res["failed"] / max(1, res["attempted"]), "fraction"),
        "cpu_ms_per_job": (m["cpu_ms_per_job"], "ms"),
    }
    if workload == "service-stream":
        pc = res["per_class_heavy"]
        rows.update({
            "submit_p50_ms": (pc["submit"]["p50_ms"], "ms"),
            "submit_p99_ms": (pc["submit"]["p99_ms"], "ms"),
            "speeds_p50_ms": (pc["speeds"]["p50_ms"], "ms"),
            "speeds_p99_ms": (pc["speeds"]["p99_ms"], "ms"),
            "metrics_p50_ms": (pc["metrics"]["p50_ms"], "ms"),
            "metrics_p90_ms": (pc["metrics"]["p90_ms"], "ms"),
            "light_p99_ms": (res["light"]["all_p99_ms"], "ms"),
            "max_rate_rps": (res["max_rate_rps"], "1/s"),
            "saturation_rps": (res["saturation_rps"], "1/s"),
            "jobs_per_s": (m["jobs_per_s"], "1/s"),
        })
    else:
        rows["jobs_per_s"] = (m["jobs_per_s"], "1/s")
    out = {name: {"value": v, "unit": u} for name, (v, u) in rows.items()}
    if res.get("latency_invalid"):
        for name, entry in out.items():
            if name.endswith("_ms"):
                entry["valid"] = False
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_checkout()

    work = (common.WORK_ROOT / f"{args.workload}-{os.getpid()}").resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-stream":
            if args.trace:
                res = service_trace(args.seed, work)
            else:
                res = service.measure(args.seed, args.seconds, work)
                res["metrics"] = {k: res[k] for k in END_TO_END}
        elif args.trace:
            res = batch_trace(args.workload, args.seed, args.seconds, work)
        else:
            res = batch_measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass

    common.emit_line("host", host_facts())
    failed, attempted = res["failed"], res["attempted"]
    invalid = []
    if args.trace:
        values = res["values"]
        if values["trace.self_sum_s"] > values["trace.wall_s"]:
            invalid.append("layer self times sum to more than the traced wall time")
        detail = {k: v for k, v in res.items() if k not in ("values", "spans", "server")}
        common.emit_line("trace_detail", detail)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        detail = {k: v for k, v in res.items() if k != "metrics"}
        common.emit_line("detail", detail)
        common.emit_line("named_metrics", named_metrics(args.workload, res))
        if res.get("latency_invalid"):
            common.emit_line("latency_invalid", {"reasons": res["latency_invalid"]})
        metrics = {name: {"value": res["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    if invalid:
        common.emit_line("invalid", {"reasons": invalid})
    for reason in invalid:
        print(f"perfbench: invalid run: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
