"""Sharded execution of the parallel-machine families (§6, Lemma 20).

Lemma 20 makes NC-PAR's global-FIFO assignment identical to C-PAR's greedy
immediate dispatch, and — the property this module rests on — makes every
per-machine simulation *fully independent after dispatch*: a machine's
schedule is a function of its own assigned job list alone (the speed-rule
offset is the machine-local shadow run's ``W^C(r[j]-)``, and the start-time
chain ``start_k = max(r_k, end_{k-1})`` never reads another machine's
clock).  So the expensive half of a cluster run — per-machine simulation
plus exact cost evaluation with validation — shards cleanly:

1. the coordinator runs the (cheap, closed-form) dispatch to fix the
   assignment and build the reference :class:`~repro.parallel.cluster.ClusterRun`;
2. machines are partitioned into shards (:func:`plan_shards`, LPT on
   machine weight so shards are balanced);
3. each shard is computed by :func:`compute_shard` — a pure function of the
   shard payload, run either in a supervised
   :class:`~repro.runtime.pool.WorkerPool` worker or serially — which
   *re-derives* every per-machine schedule by running the family
   (:data:`FAMILIES`) on that machine's job list alone, and evaluates it
   exactly;
4. per-machine reports are merged **in machine-index order**, the same
   float-addition order :meth:`ClusterRun.report` uses — so the sharded
   report is bit-identical to the serial one, not merely close.

Durable per-shard checkpoints (:class:`ShardCheckpointStore`) let an
interrupted campaign resume instead of recompute: results are stored in the
checksum envelope of :func:`~repro.core.tracing.seal` (canonical JSON plus
its SHA-256), and a corrupted checkpoint (the
``checkpoint_corruption`` fault kind writes one deliberately) is detected on
load, discarded, and recomputed — never trusted.

Caveat: shard workers re-derive schedules from the *true* job volumes, so
instance-level fault channels (``volume_filter`` etc.) installed on the
coordinator's context do not propagate into workers.  Sharded runs are
meant for the process-level fault model (``worker_kill``, ``shard_hang``,
``checkpoint_corruption``); combine them with instance faults only through
:func:`~repro.faults.injector.FaultInjector.perturb_instance`, which bakes
the perturbation into the instance itself.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.errors import InvalidInstanceError
from ..core.job import Instance, Job
from ..core.metrics import CostReport, evaluate
from ..core.power import PowerLaw
from ..core.shadow import SimulationContext, uncapped_alpha
from ..core.tracing import corrupt_line, seal, unseal
from .c_par import simulate_c_par
from .cluster import ClusterRun
from .nc_par import simulate_nc_par

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector
    from ..runtime.pool import PoolPolicy, PoolStats

__all__ = [
    "Shard",
    "ShardedResult",
    "ShardCheckpointStore",
    "plan_shards",
    "compute_shard",
    "run_sharded",
]

Family = Callable[[Instance, PowerLaw, int, SimulationContext | None], ClusterRun]

#: Shard algorithm name -> the family's serial run ``(instance, power,
#: machines, context)``.  The coordinator runs it on every machine; a worker
#: re-derives one machine's schedule by running it on that machine's jobs
#: alone (per-machine independence, Lemma 20).
FAMILIES: Mapping[str, Family] = {
    "nc_par": lambda inst, power, k, context: simulate_nc_par(inst, power, k, context=context),
    "c_par": lambda inst, power, k, context: simulate_c_par(inst, power, k),
}


@dataclass(frozen=True, slots=True)
class Shard:
    """One unit of pool work: a set of machines evaluated together."""

    shard_id: int
    machines: tuple[int, ...]


@dataclass(frozen=True)
class ShardedResult:
    """Outcome of :func:`run_sharded`.

    ``report`` is bit-identical to ``cluster.report()`` by construction;
    ``resumed`` counts shards restored from durable checkpoints instead of
    recomputed, ``stats`` is the pool's lifecycle ledger (``None`` when the
    run was forced serial).
    """

    cluster: ClusterRun
    report: CostReport
    shards: tuple[Shard, ...]
    resumed: int
    stats: "PoolStats | None"


def plan_shards(assignments: dict[int, list[int]], n_shards: int) -> tuple[Shard, ...]:
    """Partition the loaded machines into at most ``n_shards`` balanced shards.

    Longest-processing-time on job count: machines are sorted by descending
    load and each lands on the lightest shard, so no shard dominates the
    pool's critical path.  Empty machines are not sharded at all.
    """
    if n_shards < 1:
        raise InvalidInstanceError(f"n_shards must be >= 1, got {n_shards}")
    loaded = [(len(jobs), m) for m, jobs in assignments.items() if jobs]
    if not loaded:
        raise InvalidInstanceError("no machine has any jobs to shard")
    n_shards = min(n_shards, len(loaded))
    bins: list[tuple[int, list[int]]] = [(0, []) for _ in range(n_shards)]
    for load, machine in sorted(loaded, key=lambda lm: (-lm[0], lm[1])):
        idx = min(range(n_shards), key=lambda i: (bins[i][0], i))
        total, members = bins[idx]
        members.append(machine)
        bins[idx] = (total + load, members)
    return tuple(
        Shard(shard_id=i, machines=tuple(sorted(members)))
        for i, (_, members) in enumerate(bins)
        if members
    )


# -- payloads: everything crossing the process boundary is plain data --------


def shard_payload(
    shard: Shard,
    cluster: ClusterRun,
    *,
    algorithm: str,
    validate: bool = True,
    hold_s: float = 0.0,
) -> dict[str, Any]:
    """The picklable/JSON-able work order for one shard.

    ``hold_s`` is a synthetic per-shard duration (a sleep before the
    computation) used by chaos campaigns to model long-running shards: it
    guarantees a scheduled ``worker_kill`` lands *mid-shard*, so the kill
    actually loses work and the recovery path (re-dispatch) is exercised
    rather than raced past.
    """
    _family(algorithm)
    if getattr(cluster.power, "alpha", None) is None:
        raise InvalidInstanceError("sharded execution requires a PowerLaw power model")
    # Workers rebuild the power from alpha alone, so a cap would be lost.
    alpha = uncapped_alpha(cluster.power, "sharded execution")
    jobs: dict[str, list[list[float]]] = {}
    for machine in shard.machines:
        assigned = cluster.assignments[machine]
        jobs[str(machine)] = [
            [float(j), cluster.instance[j].release, cluster.instance[j].volume, cluster.instance[j].density]
            for j in assigned
        ]
    payload: dict[str, Any] = {
        "shard_id": shard.shard_id,
        "algorithm": algorithm,
        "alpha": float(alpha),
        "jobs": jobs,
        "validate": bool(validate),
    }
    if hold_s > 0.0:
        payload["hold_s"] = float(hold_s)
    return payload


def _family(algorithm: str) -> Family:
    if algorithm not in FAMILIES:
        raise InvalidInstanceError(f"unknown shard algorithm {algorithm!r}")
    return FAMILIES[algorithm]


def _report_payload(report: CostReport) -> dict[str, Any]:
    return {
        "energy": report.energy,
        "fractional_flow_by_job": {str(k): v for k, v in report.fractional_flow_by_job.items()},
        "integral_flow_by_job": {str(k): v for k, v in report.integral_flow_by_job.items()},
        "completion_times": {str(k): v for k, v in report.completion_times.items()},
    }


def _report_from_payload(raw: dict[str, Any]) -> CostReport:
    return CostReport(
        energy=float(raw["energy"]),
        fractional_flow_by_job={int(k): float(v) for k, v in raw["fractional_flow_by_job"].items()},
        integral_flow_by_job={int(k): float(v) for k, v in raw["integral_flow_by_job"].items()},
        completion_times={int(k): float(v) for k, v in raw["completion_times"].items()},
    )


def _shard_reports(result: Any, machines: tuple[int, ...]) -> dict[int, CostReport]:
    """Decode a shard result's per-machine reports.

    Raises ``ValueError`` unless ``result["reports"]`` holds a report for
    exactly ``machines`` and each one decodes.
    """
    try:
        reports = result["reports"]
        if set(reports) != {str(m) for m in machines}:
            raise ValueError(f"reports for {sorted(reports)}, shard has machines {list(machines)}")
        return {m: _report_from_payload(reports[str(m)]) for m in machines}
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"shard result does not decode: {exc!r}") from exc


def compute_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Compute one shard: per-machine schedules re-derived and evaluated.

    A pure function of its payload — the same bytes in give the same bytes
    out whether it runs in a pool worker, a serial fallback, or a resumed
    campaign.  This purity is what makes re-dispatch and checkpoint-resume
    sound.
    """
    hold = float(payload.get("hold_s", 0.0) or 0.0)
    if hold > 0.0:
        time.sleep(hold)
    alpha = float(payload["alpha"])
    family = _family(payload["algorithm"])
    validate = bool(payload.get("validate", True))
    power = PowerLaw(alpha)
    reports: dict[str, dict[str, Any]] = {}
    for key, raw_jobs in payload["jobs"].items():
        jobs = [
            Job(job_id=int(j), release=r, volume=v, density=d)
            for j, r, v, d in raw_jobs
        ]
        sub = Instance(jobs)
        schedule = family(sub, power, 1, None).schedules[0]
        reports[key] = _report_payload(evaluate(schedule, sub, power, validate=validate))
    return {"shard_id": payload["shard_id"], "reports": reports}


# -- durable checkpoints ------------------------------------------------------


class ShardCheckpointStore:
    """Durable per-shard results: canonical JSON + SHA-256, trust nothing.

    Files are keyed by a run fingerprint (instance + algorithm + alpha +
    machine count), so a store directory can be shared across campaigns
    without one run resuming another's shards.  ``load`` verifies the
    checksum and *discards* (deletes) any mismatching file — a corrupted
    checkpoint costs a recompute, never a wrong number.  The
    ``checkpoint_corruption`` fault kind is realised in ``save``: the sealed
    text is damaged after the checksum is taken
    (:func:`~repro.core.tracing.corrupt_line`), exactly the torn-write
    failure the checksum exists to catch.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        context: SimulationContext | None = None,
        injector: "FaultInjector | None" = None,
        component: str = "shard.ckpt",
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.context = context
        self.injector = injector
        self.component = component
        self._saves = 0

    @staticmethod
    def run_key(cluster: ClusterRun, algorithm: str) -> str:
        """Fingerprint of everything a shard result depends on."""
        alpha = getattr(cluster.power, "alpha", 0.0)
        canon = json.dumps(
            {
                "algorithm": algorithm,
                "alpha": alpha,
                "machines": cluster.machines,
                "jobs": [
                    [j.job_id, j.release, j.volume, j.density]
                    for j in cluster.instance
                ],
            },
            sort_keys=True,
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]

    def _path(self, run_key: str, shard_id: int) -> Path:
        return self.directory / f"shard-{run_key}-{shard_id}.json"

    def _emit(self, action: str, shard_id: int, **extra: Any) -> None:
        if self.context is not None:
            self.context.emit(
                "shard_checkpoint", 0.0, self.component,
                action=action, shard=shard_id, **extra,
            )

    def save(self, run_key: str, shard_id: int, result: dict[str, Any]) -> Path:
        text = seal(result)
        if self.injector is not None and self.injector.armed_specs("checkpoint_corruption"):
            self._saves += 1
            spec = self.injector.armed_specs("checkpoint_corruption")[0]
            if self._saves >= max(spec.after_calls, 1):
                self.injector.fire_external("checkpoint_corruption", 0.0, shard=shard_id)
                text = corrupt_line(text)  # a torn write after the checksum
        path = self._path(run_key, shard_id)
        path.write_text(text, encoding="utf-8")
        self._emit("save", shard_id, path=str(path))
        return path

    def load(self, run_key: str, shard: Shard) -> dict[int, CostReport] | None:
        """The shard's per-machine reports from its checkpoint, or ``None``
        when there is none.  A file that fails its checksum, or whose body
        is not a report for exactly the shard's machines, is discarded."""
        path = self._path(run_key, shard.shard_id)
        if not path.exists():
            return None
        try:
            reports = _shard_reports(unseal(path.read_text(encoding="utf-8")), shard.machines)
        except ValueError:  # not UTF-8, no intact envelope, or the wrong shape
            path.unlink(missing_ok=True)
            self._emit("corrupt_discard", shard.shard_id, path=str(path))
            return None
        self._emit("resume", shard.shard_id, path=str(path))
        return reports


# -- the sharded run ----------------------------------------------------------


def run_sharded(
    instance: Instance,
    power: PowerLaw,
    machines: int,
    *,
    algorithm: str = "nc_par",
    n_shards: int | None = None,
    policy: "PoolPolicy | None" = None,
    context: SimulationContext | None = None,
    injector: "FaultInjector | None" = None,
    checkpoint_dir: str | Path | None = None,
    validate: bool = True,
    force_serial: bool = False,
    shard_hold: float = 0.0,
) -> ShardedResult:
    """Run a parallel family sharded, with supervision and checkpoints.

    The coordinator fixes the dispatch (building the reference
    :class:`ClusterRun`), plans shards, resumes any shard whose durable
    checkpoint verifies, runs the rest on a supervised
    :class:`~repro.runtime.pool.WorkerPool` (or serially under
    ``force_serial``), saves fresh results, and merges the per-machine
    reports in machine-index order.  The merged report is bit-identical to
    ``cluster.report()`` — the differential test in ``tests/test_shard.py``
    holds this exactly, not to a tolerance.
    """
    family = _family(algorithm)
    if context is None:
        context = SimulationContext(power)
    cluster = family(instance, power, machines, context)

    shards = plan_shards(
        cluster.assignments,
        n_shards if n_shards is not None else _default_shards(cluster, policy),
    )
    store = (
        ShardCheckpointStore(checkpoint_dir, context=context, injector=injector)
        if checkpoint_dir is not None
        else None
    )
    run_key = ShardCheckpointStore.run_key(cluster, algorithm) if store else ""

    by_machine: dict[int, CostReport] = {}
    resumed = 0
    todo: list[Shard] = []
    for shard in shards:
        cached = store.load(run_key, shard) if store else None
        if cached is not None:
            by_machine.update(cached)
            resumed += 1
        else:
            todo.append(shard)

    stats: "PoolStats | None" = None
    if todo:
        payloads = [
            (
                s.shard_id,
                shard_payload(
                    s, cluster, algorithm=algorithm, validate=validate, hold_s=shard_hold
                ),
            )
            for s in todo
        ]
        results: dict[int, dict[str, Any]] = {}
        if force_serial:
            for shard_id, payload in payloads:
                results[shard_id] = compute_shard(payload)
        else:
            from ..runtime.pool import WorkerPool

            pool = WorkerPool(policy, context=context, injector=injector)
            fresh = pool.run(payloads, "repro.parallel.shard", "compute_shard")
            stats = pool.stats
            results.update(fresh)
        if store is not None:
            for shard_id, _ in payloads:
                store.save(run_key, shard_id, results[shard_id])
        for shard in todo:
            by_machine.update(_shard_reports(results[shard.shard_id], shard.machines))

    # Merge in machine-index order — the exact float-addition order of
    # ClusterRun.report(), which is what makes the merge bit-identical.
    merged: CostReport | None = None
    for machine, jobs in cluster.assignments.items():
        if not jobs:
            continue
        rep = by_machine[machine]
        merged = rep if merged is None else merged.merged_with(rep)
    assert merged is not None  # plan_shards refuses an all-empty cluster
    return ShardedResult(
        cluster=cluster,
        report=merged,
        shards=shards,
        resumed=resumed,
        stats=stats,
    )


def _default_shards(cluster: ClusterRun, policy: "PoolPolicy | None") -> int:
    loaded = sum(1 for jobs in cluster.assignments.values() if jobs)
    workers = policy.workers if policy is not None else 2
    return max(1, min(loaded, workers * 2))
