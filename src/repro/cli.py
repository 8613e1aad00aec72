"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``          — run one algorithm on a generated workload, print costs.
* ``ratio``        — the same plus a certified empirical competitive ratio.
* ``table1``       — regenerate the paper's Table 1.
* ``figures``      — regenerate the Figure 1/2 curves as ASCII charts.
* ``lower-bound``  — the §6 immediate-dispatch adversary, swept over k.
* ``cluster``      — NC-PAR vs C-PAR on a generated workload.
* ``trace``        — run C + NC with tracing on, write a JSONL trace and
  replay it through :mod:`repro.analysis.trace_report` (Lemma 3/4 checks).
* ``chaos``        — seeded fault-injection campaign under the supervised
  runtime; re-verifies the paper's guarantees on every surviving run.
  ``--shards`` switches to the shard-kill campaign (workers SIGKILLed
  mid-shard; recovery + bit-identity + Lemma 20 verified), ``--service``
  to the service campaign (live servers SIGKILLed, journals damaged);
  ``--timeout`` bounds each in-process run's wall clock.
* ``shard``        — run NC-PAR/C-PAR sharded on the supervised worker
  pool and verify the merged report is bit-identical to the serial path.
* ``serve``        — serve the scheduling API (:mod:`repro.service`) over
  HTTP: multi-tenant sessions, online arrivals, speed/schedule/metrics/
  Gantt queries, verified reports, sharded campaigns.

Every command accepts ``--seed`` and ``--alpha`` so results are exactly
reproducible.  The CLI builds only on the public API — it doubles as an
integration test surface (see ``tests/test_cli.py``).

``verify`` and ``chaos`` exit nonzero when any checked claim fails, so they
can gate CI directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import PowerLaw
from .algorithms import DEFAULT_MAX_STEP, algorithm_names
from .core.job import Instance, Job
from .parallel.shard import FAMILIES as SHARD_FAMILIES

__all__ = ["main", "build_parser"]


def _workload(args: argparse.Namespace) -> Instance:
    from .workloads import random_instance

    return random_instance(
        args.jobs,
        args.seed,
        rate=args.rate,
        volume=args.volumes,
        density=args.densities,
    )


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=20, help="number of jobs")
    p.add_argument("--seed", type=int, default=1, help="workload RNG seed")
    p.add_argument("--rate", type=float, default=1.0, help="Poisson arrival rate")
    p.add_argument(
        "--volumes",
        default="exponential",
        choices=["exponential", "pareto", "uniform", "bimodal"],
        help="volume distribution",
    )
    p.add_argument(
        "--densities",
        default="unit",
        choices=["unit", "loguniform", "powers"],
        help="density model",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speed Scaling in the Non-clairvoyant Model (SPAA 2015) — reproduction CLI",
    )
    parser.add_argument("--alpha", type=float, default=3.0, help="power exponent (P = s^alpha)")
    sub = parser.add_subparsers(dest="command", required=True)

    single_machine = list(algorithm_names(machines=False))
    p_run = sub.add_parser("run", help="run one algorithm on a generated workload")
    p_run.add_argument("--algorithm", default="NC", choices=single_machine)
    p_run.add_argument("--max-step", type=float, default=DEFAULT_MAX_STEP, help="NC_GENERAL step")
    _add_workload_args(p_run)

    p_ratio = sub.add_parser("ratio", help="empirical competitive ratio vs certified OPT bound")
    p_ratio.add_argument("--algorithm", default="NC", choices=single_machine)
    p_ratio.add_argument("--objective", default="fractional", choices=["fractional", "integral"])
    p_ratio.add_argument("--max-step", type=float, default=DEFAULT_MAX_STEP)
    _add_workload_args(p_ratio)

    p_t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p_t1.add_argument("--uniform-jobs", type=int, default=16)
    p_t1.add_argument("--nonuniform-jobs", type=int, default=6)
    p_t1.add_argument("--seeds", type=int, nargs="+", default=[1, 2])

    p_fig = sub.add_parser("figures", help="regenerate the Figure 1 power curves")
    p_fig.add_argument("--weight", type=float, default=4.0, help="single-job weight")

    p_lb = sub.add_parser("lower-bound", help="the §6 immediate-dispatch adversary")
    p_lb.add_argument("--machines", type=int, nargs="+", default=[2, 4, 8, 16])
    p_lb.add_argument("--rule", default="least_count", choices=["least_count", "round_robin"])

    p_cl = sub.add_parser("cluster", help="NC-PAR vs C-PAR on a generated workload")
    p_cl.add_argument("--machines", type=int, default=4)
    _add_workload_args(p_cl)

    p_opt = sub.add_parser("opt", help="bracket the offline optimum [dual LB, rounded UB]")
    p_opt.add_argument("--slots", type=int, default=400)
    p_opt.add_argument("--iterations", type=int, default=2000)
    _add_workload_args(p_opt)

    p_ver = sub.add_parser("verify", help="check every testable paper claim on a workload")
    p_ver.add_argument("--machines", type=int, default=1)
    _add_workload_args(p_ver)

    p_tr = sub.add_parser(
        "trace", help="emit a JSONL trace of C + NC and replay its invariants"
    )
    p_tr.add_argument(
        "--out", default="repro_trace.jsonl", help="JSONL trace output path"
    )
    p_tr.add_argument(
        "--sink", default="plain", metavar="SPEC",
        help="trace sink: plain | gzip | rotate:N (bounded self-contained "
        "segments of N events each)",
    )
    p_tr.add_argument(
        "--events", type=int, default=0, help="pretty-print the first N events"
    )
    p_tr.add_argument(
        "--corpus", default=None, help="golden corpus JSON to load the instance from"
    )
    p_tr.add_argument(
        "--case", default=None, help="corpus key (e.g. nc_uniform/...); requires --corpus"
    )
    p_tr.add_argument(
        "--replay", default=None, metavar="PATH",
        help="skip simulation: stream-verify an existing trace (plain JSONL, "
        "gzip, or the base path of rotated segments) with bounded memory",
    )
    p_tr.add_argument(
        "--follow", default=None, metavar="PATH",
        help="tail a live JSONL trace, printing incremental progress and the "
        "final verified report once the writer goes idle",
    )
    p_tr.add_argument(
        "--poll", type=float, default=0.2,
        help="--follow poll interval in seconds",
    )
    p_tr.add_argument(
        "--idle-timeout", type=float, default=2.0,
        help="--follow stops after this many idle seconds",
    )
    p_tr.add_argument(
        "--progress-every", type=int, default=100_000,
        help="--follow/--replay: print a progress line every N events",
    )
    _add_workload_args(p_tr)

    p_ch = sub.add_parser(
        "chaos", help="seeded fault-injection campaign under the supervised runtime"
    )
    p_ch.add_argument("--seed", type=int, default=0, help="campaign seed")
    p_ch.add_argument("--n", type=int, default=30, help="number of fault scenarios")
    p_ch.add_argument("--jobs", type=int, default=8, help="jobs per scenario")
    p_ch.add_argument("--machines", type=int, default=3, help="machines (parallel runs)")
    p_ch.add_argument("--out", default=None, help="append every run's trace to this JSONL file")
    p_ch.add_argument(
        "--sink", default="plain", metavar="SPEC",
        help="campaign trace sink for --out: plain | gzip | rotate:N",
    )
    # One campaign per invocation, and --timeout only for the in-process one.
    mode = p_ch.add_mutually_exclusive_group()
    mode.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock budget in seconds; a run exceeding it is "
        "abandoned, marked failed (run_timeout event), and the campaign moves "
        "on. In-process campaign only: not allowed with --shards or --service, "
        "whose abandoned runs would keep worker pools or live servers running",
    )
    mode.add_argument(
        "--shards", action="store_true",
        help="run the shard-kill campaign instead (SIGKILL workers mid-shard, "
        "verify recovery, bit-identity with serial, and Lemma 20/3/4)",
    )
    p_ch.add_argument("--workers", type=int, default=2, help="pool workers (--shards)")
    p_ch.add_argument("--kills", type=int, default=2, help="workers SIGKILLed per run (--shards)")
    p_ch.add_argument(
        "--hold", type=float, default=0.15,
        help="synthetic per-shard duration in seconds (--shards); guarantees "
        "kills land mid-shard",
    )
    p_ch.add_argument(
        "--checkpoint-dir", default=None,
        help="durable shard checkpoint directory (--shards); enables the "
        "checkpoint_corruption rotation",
    )
    mode.add_argument(
        "--service", action="store_true",
        help="run the service chaos campaign instead: SIGKILL live servers "
        "mid-workload, tear/corrupt journals, evict sessions, inject slow "
        "handlers and connection drops — verify every recovery is "
        "bit-identical and Lemma 3/4 replay from surviving traces",
    )

    p_srv = sub.add_parser(
        "serve",
        help="serve the scheduling API over HTTP (requires the service extra: pydantic)",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=8176, help="bind port")
    p_srv.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead journal directory; enables crash recovery "
        "(sessions restore bit-identical on restart)",
    )
    p_srv.add_argument(
        "--journal-sink", default="plain", metavar="SPEC",
        help="journal sink: plain | gzip | rotate:N",
    )
    p_srv.add_argument(
        "--no-restore", action="store_true",
        help="skip replaying existing journals on startup",
    )
    p_srv.add_argument(
        "--max-sessions", type=int, default=None,
        help="admission limit; a create beyond it answers 503 "
        "(or evicts the LRU session with --evict-lru)",
    )
    p_srv.add_argument(
        "--session-ttl", type=float, default=None, metavar="SECONDS",
        help="evict sessions idle longer than this (410 afterwards)",
    )
    p_srv.add_argument(
        "--evict-lru", action="store_true",
        help="at --max-sessions, evict the least-recently-used session "
        "instead of answering 503",
    )
    p_srv.add_argument(
        "--campaign-retention", type=int, default=None, metavar="N",
        help="keep at most N finished campaigns; pruned ids answer 410 "
        "with the final status summarized",
    )
    p_srv.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline; a handler still running at the deadline "
        "is cancelled and the client sees 504",
    )
    p_srv.add_argument(
        "--create-rate", type=float, default=None, metavar="PER_SECOND",
        help="per-client session-create rate limit (token bucket; "
        "429 + Retry-After when exceeded)",
    )
    p_srv.add_argument(
        "--create-burst", type=int, default=8,
        help="token-bucket burst capacity for --create-rate",
    )

    p_sh = sub.add_parser(
        "shard",
        help="run a parallel family sharded on the supervised pool and verify "
        "bit-identity with the serial path",
    )
    p_sh.add_argument("--machines", type=int, default=4)
    p_sh.add_argument("--algorithm", default="nc_par", choices=list(SHARD_FAMILIES))
    p_sh.add_argument("--workers", type=int, default=2, help="pool worker processes")
    p_sh.add_argument("--n-shards", type=int, default=None, help="shard count (default: balanced)")
    p_sh.add_argument("--checkpoint-dir", default=None, help="durable shard checkpoint directory")
    p_sh.add_argument(
        "--serial", action="store_true",
        help="compute shards in-process instead of on the pool",
    )
    p_sh.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record the sharded run (plus a traced C/NC pair when uniform-"
        "density) to this JSONL and re-verify it in one streaming pass",
    )
    _add_workload_args(p_sh)

    return parser


def _cmd_run(args: argparse.Namespace) -> str:
    from .analysis import format_table, run_algorithm

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    rep = run_algorithm(args.algorithm, inst, power, max_step=args.max_step)
    rows = [
        ["energy", rep.energy],
        ["fractional flow", rep.fractional_flow],
        ["integral flow", rep.integral_flow],
        ["G_frac", rep.fractional_objective],
        ["G_int", rep.integral_objective],
        ["makespan", rep.makespan],
    ]
    return format_table(
        ["quantity", "value"],
        rows,
        title=f"{args.algorithm} on {len(inst)} jobs (seed {args.seed}, alpha {args.alpha:g})",
        floatfmt=".6g",
    )


def _cmd_ratio(args: argparse.Namespace) -> str:
    from .analysis import empirical_ratio, format_table

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    res = empirical_ratio(
        args.algorithm, inst, power, objective=args.objective, max_step=args.max_step
    )
    return format_table(
        ["algorithm", "objective", "cost", "OPT lower bound", "ratio", "bound source"],
        [[res.algorithm, res.objective, res.cost, res.bound.value, res.ratio, res.bound.source]],
        floatfmt=".5g",
    )


def _cmd_table1(args: argparse.Namespace) -> str:
    from .analysis import build_table1, render_table1

    rows = build_table1(
        args.alpha,
        uniform_n=args.uniform_jobs,
        nonuniform_n=args.nonuniform_jobs,
        seeds=tuple(args.seeds),
    )
    return render_table1(rows, args.alpha)


def _cmd_figures(args: argparse.Namespace) -> str:
    from .algorithms import simulate_clairvoyant, simulate_nc_uniform
    from .analysis import format_ascii_chart, power_curve

    power = PowerLaw(args.alpha)
    inst = Instance([Job(0, 0.0, args.weight, 1.0)])
    c = power_curve(simulate_clairvoyant(inst, power).schedule, power, samples=72, label="C")
    nc = power_curve(simulate_nc_uniform(inst, power).schedule, power, samples=72, label="NC")
    return format_ascii_chart(
        [(c.label, c.times, c.values), (nc.label, nc.times, nc.values)],
        title=f"Figure 1 — power vs time, single job W = {args.weight:g}, alpha = {args.alpha:g}",
    )


def _cmd_lower_bound(args: argparse.Namespace) -> str:
    from .analysis import format_table
    from .parallel import adversarial_ratio

    power = PowerLaw(args.alpha)
    rows = []
    for k in args.machines:
        out = adversarial_ratio(k, power, args.rule)
        rows.append([k, out.ratio, k ** (1 - 1 / args.alpha)])
    return format_table(
        ["k", "adversarial ratio", "k^(1-1/alpha)"],
        rows,
        title=f"§6 lower bound vs {args.rule} (alpha = {args.alpha:g})",
        floatfmt=".4f",
    )


def _cmd_cluster(args: argparse.Namespace) -> str:
    from .analysis import format_table
    from .parallel import simulate_c_par, simulate_nc_par

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    if not inst.is_uniform_density():
        raise SystemExit("cluster command requires a uniform-density workload (--densities unit)")
    nc = simulate_nc_par(inst, power, args.machines)
    c = simulate_c_par(inst, power, args.machines)
    rn, rc = nc.report(), c.report()
    rows = [
        ["NC-PAR", rn.energy, rn.fractional_flow, rn.fractional_objective],
        ["C-PAR", rc.energy, rc.fractional_flow, rc.fractional_objective],
    ]
    table = format_table(
        ["algorithm", "energy", "frac flow", "G_frac"],
        rows,
        title=f"{args.machines} machines, {len(inst)} jobs "
        f"(Lemma 20 assignments equal: {nc.assignments == c.assignments})",
        floatfmt=".5g",
    )
    return table


def _cmd_opt(args: argparse.Namespace) -> str:
    from .analysis import format_table
    from .core.metrics import evaluate
    from .offline.convex import fractional_lower_bound, schedule_from_bound

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    cb = fractional_lower_bound(inst, power, slots=args.slots, iterations=args.iterations)
    upper = evaluate(schedule_from_bound(inst, cb), inst, power).fractional_objective
    gap = (upper - cb.dual_value) / upper if upper else 0.0
    return format_table(
        ["certified lower bound", "rounded-schedule upper bound", "relative gap"],
        [[cb.dual_value, upper, gap]],
        title=f"offline fractional optimum bracket ({len(inst)} jobs, seed {args.seed})",
        floatfmt=".6g",
    )


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .analysis.verification import render_claims, verify_paper_claims

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    checks = verify_paper_claims(inst, power, machines=args.machines)
    table = render_claims(checks)
    ok = all(c.holds for c in checks)
    verdict = "ALL CLAIMS HOLD" if ok else "SOME CLAIMS FAILED"
    return (
        table + f"\n\n{verdict} ({sum(c.holds for c in checks)}/{len(checks)})",
        0 if ok else 1,
    )


def _cmd_chaos(args: argparse.Namespace) -> tuple[str, int]:
    from .runtime.chaos import (
        FamilyScenario,
        Scenario,
        ServiceScenario,
        ShardScenario,
        format_campaign,
        run_campaign,
    )

    scenario: Scenario
    if args.service:
        scenario = ServiceScenario(jobs=args.jobs, alpha=args.alpha)
    elif args.shards:
        scenario = ShardScenario(
            jobs=args.jobs,
            alpha=args.alpha,
            machines=args.machines,
            workers=args.workers,
            kills=args.kills,
            shard_hold=args.hold,
            checkpoint_dir=args.checkpoint_dir,
        )
    else:
        scenario = FamilyScenario(jobs=args.jobs, alpha=args.alpha, machines=args.machines)
    report = run_campaign(
        args.seed,
        args.n,
        scenario=scenario,
        out=args.out,
        sink_spec=args.sink,
        run_timeout=args.timeout,
    )
    text = format_campaign(report)
    if args.out:
        text += f"\n\ntraces written to {args.out}"
    return text, 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import signal

    try:
        from .service import create_app, serve
        from .service.sessions import SessionManager
    except ImportError as exc:  # pydantic is the service extra
        raise SystemExit(
            f"repro serve needs the service extra (pip install 'repro[service]'): {exc}"
        ) from exc

    manager = SessionManager(
        journal_dir=args.journal_dir,
        journal_sink=args.journal_sink,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        evict_lru=args.evict_lru,
        campaign_retention=args.campaign_retention,
        create_rate=args.create_rate,
        create_burst=args.create_burst,
    )
    app = create_app(manager, request_timeout=args.request_timeout)
    print(
        f"serving scheduling API on http://{args.host}:{args.port} "
        "(POST /sessions, GET /health; SIGTERM/Ctrl-C to stop)",
        flush=True,
    )

    async def _main() -> None:
        if args.journal_dir and not args.no_restore:
            report = await manager.restore()
            print(
                f"restored {len(report.restored)} session(s) from "
                f"{args.journal_dir} ({len(report.closed)} closed, "
                f"{len(report.evicted)} evicted, "
                f"{len(report.skipped)} quarantined)",
                flush=True,
            )
        trigger = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, trigger.set)
            except (NotImplementedError, RuntimeError):
                # Platforms without signal handlers fall back to Ctrl-C's
                # KeyboardInterrupt; serve() still flushes on cancellation.
                pass
        await serve(app, args.host, args.port, shutdown_trigger=trigger)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return "server stopped; session trace sinks and journals flushed"


def _cmd_shard(args: argparse.Namespace) -> tuple[str, int]:
    from .analysis import format_table
    from .parallel.shard import run_sharded
    from .runtime.pool import PoolPolicy

    power = PowerLaw(args.alpha)
    inst = _workload(args)
    if args.algorithm == "nc_par" and not inst.is_uniform_density():
        raise SystemExit("shard --algorithm nc_par requires --densities unit")
    trace_lines: list[str] = []
    trace_ok = True
    context = None
    recorder = None
    if args.trace:
        from .analysis.trace_report import trace_lemma_pair
        from .core.shadow import SimulationContext
        from .core.tracing import JsonlRecorder

        recorder = JsonlRecorder(args.trace)
        context = SimulationContext(power, recorder=recorder)
        # A traced single-machine pair gives the replayer a Lemma 3/4
        # target; the shard lifecycle events ride along in the same file.
        trace_lemma_pair(inst, power, context, "harness", algorithms=[args.algorithm])
    try:
        result = run_sharded(
            inst,
            power,
            args.machines,
            algorithm=args.algorithm,
            n_shards=args.n_shards,
            policy=PoolPolicy(workers=args.workers),
            context=context,
            checkpoint_dir=args.checkpoint_dir,
            force_serial=args.serial,
        )
    finally:
        if recorder is not None:
            recorder.close()
    if args.trace:
        from .analysis.trace_report import build_report
        from .core.tracing import iter_trace

        trace_report = build_report(iter_trace(args.trace))
        trace_ok = trace_report.ok
        checks = ", ".join(
            f"{'PASS' if c.holds else 'FAIL'} {c.name}" for c in trace_report.checks
        ) or "no replayable pair"
        trace_lines = [
            "",
            f"trace written to {args.trace} ({trace_report.n_events} events); "
            f"streamed re-verification: {'OK' if trace_ok else 'FAILED'} ({checks})",
        ]
    serial = result.cluster.report()
    bit_identical = result.report == serial
    rows = [
        ["sharded", result.report.energy, result.report.fractional_flow,
         result.report.fractional_objective],
        ["serial", serial.energy, serial.fractional_flow, serial.fractional_objective],
    ]
    stats = result.stats
    mode = (
        "serial (forced)" if stats is None
        else f"pool: {stats.workers_spawned} workers, {stats.dispatched} dispatches, "
        f"{stats.redispatched} redispatched, {stats.workers_lost} lost"
        + (", DEGRADED" if stats.degraded else "")
    )
    table = format_table(
        ["path", "energy", "frac flow", "G_frac"],
        rows,
        title=f"{args.algorithm} sharded over {len(result.shards)} shards / "
        f"{args.machines} machines ({mode}); resumed {result.resumed} from "
        f"checkpoint; bit-identical: {bit_identical}",
        floatfmt=".6g",
    )
    return table + "\n".join(trace_lines), 0 if (bit_identical and trace_ok) else 1


def _verify_stream(events, *, progress_every: int) -> tuple[str, int]:
    """Stream ``events`` through the one-pass verifier; render report or error.

    Progress lines go straight to stdout (the caller's return text follows
    them); a :class:`~repro.core.errors.ScheduleError` or ``ValueError`` — a
    torn final attempt in a live tail, a malformed payload — comes back as a
    nonzero-exit verdict instead of a traceback.
    """
    from .analysis.streaming import StreamingReportBuilder
    from .analysis.trace_report import REL_TOL, format_report
    from .core.errors import ScheduleError

    builder = StreamingReportBuilder(rel_tol=REL_TOL)
    n = 0
    try:
        for e in events:
            builder.feed(e)
            n += 1
            if progress_every > 0 and n % progress_every == 0:
                print(f"  ... {n} events verified", flush=True)
        report = builder.finish()
    except (ScheduleError, ValueError) as exc:
        return (
            f"verified {n} events, then replay FAILED: {exc}\n"
            "(partial or corrupt trace — if the writer is still running, "
            "re-run --follow with a larger --idle-timeout)",
            1,
        )
    return format_report(report), 0 if report.ok else 1


def _trace_source(path: str):
    """Resolve a ``--replay`` path to an event iterator.

    Accepts a plain/gzip JSONL file, or the *base* path of a rotated sink
    (``trace.jsonl`` finds ``trace.00000.jsonl`` …) whose segment headers
    are stripped so the stream reads as one trace.
    """
    from pathlib import Path

    from .core.tracing import iter_trace, rotated_paths

    p = Path(path)
    if p.exists():
        return iter_trace([p])
    segments = rotated_paths(p)
    if segments:
        return iter_trace(segments)
    raise SystemExit(f"no trace at {path} (and no rotated segments {p.stem}.NNNNN*)")


def _cmd_trace(args: argparse.Namespace) -> str | tuple[str, int]:
    import json

    from .analysis.trace_report import build_report, format_report, trace_lemma_pair
    from .core.errors import InvalidInstanceError
    from .core.shadow import SimulationContext
    from .core.tracing import JsonlRecorder, follow_jsonl, iter_trace

    if args.replay is not None and args.follow is not None:
        raise SystemExit("--replay and --follow are mutually exclusive")
    if args.replay is not None:
        text, code = _verify_stream(
            _trace_source(args.replay), progress_every=args.progress_every
        )
        return f"replaying {args.replay}\n" + text, code
    if args.follow is not None:
        text, code = _verify_stream(
            follow_jsonl(
                args.follow,
                poll_interval=args.poll,
                idle_timeout=args.idle_timeout,
            ),
            progress_every=args.progress_every,
        )
        return f"followed {args.follow} to idle\n" + text, code

    if args.case is not None:
        if args.corpus is None:
            raise SystemExit("--case requires --corpus")
        corpus = json.loads(open(args.corpus, encoding="utf-8").read())
        if args.case not in corpus:
            raise SystemExit(
                f"case {args.case!r} not in corpus ({len(corpus)} entries)"
            )
        entry = corpus[args.case]
        inst = Instance(
            [Job(int(j), r, v, d) for j, r, v, d in entry["instance"]]
        )
        alpha = float(entry["alpha"])
    else:
        inst = _workload(args)
        alpha = args.alpha
    power = PowerLaw(alpha)
    if not inst.is_uniform_density():
        raise InvalidInstanceError(
            "trace requires a uniform-density instance (Lemma 3/4 replay); "
            "use --densities unit or a nc_uniform/ corpus case"
        )

    with JsonlRecorder(args.out, sink=args.sink) as recorder:
        context = SimulationContext(power, recorder=recorder)
        trace_lemma_pair(inst, power, context, "harness", algorithms=["C", "NC"])

    # Read back through the sink's own paths (a rotate sink writes numbered
    # segments, not args.out itself) in one streaming pass, keeping only the
    # first --events for display.
    paths = recorder.paths
    shown: list = []

    def _stream():
        for e in iter_trace(paths):
            if len(shown) < args.events:
                shown.append(e)
            yield e

    report = build_report(_stream())
    where = ", ".join(str(p) for p in paths)
    out = [f"trace written to {where} ({report.n_events} events)"]
    if args.events > 0:
        out.append("")
        for e in shown:
            payload = ", ".join(f"{k}={v}" for k, v in e.payload.items())
            out.append(
                f"  [{e.component:>10}] {e.kind:<18} sim_t={e.sim_time:<12.6g} {payload}"
            )
        if report.n_events > args.events:
            out.append(f"  ... ({report.n_events - args.events} more)")
    out.append("")
    out.append(format_report(report))
    return "\n".join(out)


_DISPATCH = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "opt": _cmd_opt,
    "verify": _cmd_verify,
    "ratio": _cmd_ratio,
    "table1": _cmd_table1,
    "figures": _cmd_figures,
    "lower-bound": _cmd_lower_bound,
    "cluster": _cmd_cluster,
    "chaos": _cmd_chaos,
    "shard": _cmd_shard,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Handlers return either a string (exit 0) or a
    ``(text, exit_code)`` pair — ``verify`` and ``chaos`` use the latter to
    fail loudly when a checked claim does."""
    args = build_parser().parse_args(argv)
    out = _DISPATCH[args.command](args)
    text, code = out if isinstance(out, tuple) else (out, 0)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
