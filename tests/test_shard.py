"""Tier-1: the sharded execution layer (Lemma 20 made executable).

The load-bearing contract is *bit-identity*: sharded execution — serial,
pooled, killed-and-recovered, or resumed from checkpoint — must reproduce
the serial :meth:`ClusterRun.report` exactly (``==`` on every float), not
to a tolerance.  Lemma 20 is what makes that possible, so its two halves
(NC-PAR/C-PAR dispatch identity; per-machine independence) are tested as
differentials over the golden corpus.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro import PowerLaw
from repro.core.errors import InvalidInstanceError
from repro.core.job import Instance, Job
from repro.core.shadow import SimulationContext
from repro.core.tracing import MemoryRecorder, seal, unseal
from repro.extensions import CappedPowerLaw
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel import (
    ShardCheckpointStore,
    compute_shard,
    plan_shards,
    run_sharded,
    shard_payload,
    simulate_c_par,
    simulate_nc_par,
)
from repro.runtime.chaos import ShardScenario, format_campaign, run_campaign
from repro.runtime.pool import PoolPolicy, PoolStats, WorkerPool
from repro.workloads import random_instance

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"
ALPHA = 3.0

_CORPUS = json.loads(CORPUS_PATH.read_text())
_UNIFORM_KEYS = sorted(k for k in _CORPUS if k.startswith("nc_uniform/"))

#: pool knobs tuned for test speed: fast heartbeats, fast polling.
_FAST = dict(heartbeat_interval=0.02, poll_interval=0.005)


def _instance(spec: list[list[float]]) -> Instance:
    return Instance(
        [Job(int(j), release, volume, density) for j, release, volume, density in spec]
    )


def _ctx(power=None):
    return SimulationContext(power or PowerLaw(ALPHA), recorder=MemoryRecorder())


class TestLemma20Dispatch:
    """First half of Lemma 20: NC-PAR and C-PAR assign identically."""

    @pytest.mark.parametrize("key", _UNIFORM_KEYS)
    @pytest.mark.parametrize("machines", [2, 3])
    def test_dispatch_identity_on_corpus(self, key, machines):
        entry = _CORPUS[key]
        inst = _instance(entry["instance"])
        power = PowerLaw(entry["alpha"])
        nc = simulate_nc_par(inst, power, machines)
        c = simulate_c_par(inst, power, machines)
        assert nc.assignments == c.assignments


class TestShardedBitIdentity:
    """Second half of Lemma 20: per-machine re-derivation merges exactly."""

    @pytest.mark.parametrize("key", _UNIFORM_KEYS)
    def test_serial_shards_match_cluster_report(self, key):
        entry = _CORPUS[key]
        inst = _instance(entry["instance"])
        power = PowerLaw(entry["alpha"])
        result = run_sharded(inst, power, 3, force_serial=True)
        assert result.report == result.cluster.report()
        assert result.stats is None and result.resumed == 0

    def test_pool_matches_serial_under_empty_fault_plan(self):
        inst = random_instance(20, seed=31, volume="uniform")
        power = PowerLaw(ALPHA)
        serial = run_sharded(inst, power, 4, force_serial=True)
        pooled = run_sharded(
            inst, power, 4, policy=PoolPolicy(workers=2, **_FAST)
        )
        assert pooled.report == serial.report
        assert pooled.report == pooled.cluster.report()
        assert isinstance(pooled.stats, PoolStats)
        assert pooled.stats.completed == len(pooled.shards)
        assert not pooled.stats.degraded and pooled.stats.workers_lost == 0

    def test_c_par_shards_match_cluster_report(self):
        inst = random_instance(14, seed=8, volume="uniform")
        power = PowerLaw(ALPHA)
        result = run_sharded(inst, power, 3, algorithm="c_par", force_serial=True)
        assert result.report == result.cluster.report()

    def test_compute_shard_is_pure(self):
        inst = random_instance(10, seed=2, volume="uniform")
        cluster = simulate_nc_par(inst, PowerLaw(ALPHA), 2)
        shards = plan_shards(cluster.assignments, 2)
        payload = shard_payload(shards[0], cluster, algorithm="nc_par")
        assert compute_shard(payload) == compute_shard(json.loads(json.dumps(payload)))

    def test_rejects_unknown_algorithm(self):
        inst = random_instance(4, seed=1, volume="uniform")
        with pytest.raises(InvalidInstanceError):
            run_sharded(inst, PowerLaw(ALPHA), 2, algorithm="magic")

    @pytest.mark.parametrize("algorithm", ["nc_par", "c_par"])
    def test_rejects_a_speed_cap(self, algorithm):
        """Workers rebuild the power from alpha alone: a capped C-PAR cluster
        would be scored uncapped, so a cap is refused up front."""
        inst = random_instance(6, seed=1, volume="uniform")
        with pytest.raises(TypeError, match="s_max=1.1"):
            run_sharded(inst, CappedPowerLaw(ALPHA, 1.1), 2, algorithm=algorithm, force_serial=True)


class TestPlanShards:
    def test_balanced_and_complete(self):
        assignments = {0: [1, 2, 3, 4], 1: [5, 6], 2: [7], 3: []}
        shards = plan_shards(assignments, 2)
        members = [m for s in shards for m in s.machines]
        assert sorted(members) == [0, 1, 2]  # empty machine 3 excluded
        loads = [sum(len(assignments[m]) for m in s.machines) for s in shards]
        assert max(loads) == 4  # LPT: the heavy machine sits alone
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_caps_at_loaded_machines(self):
        shards = plan_shards({0: [1], 1: [2]}, 8)
        assert len(shards) == 2

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(InvalidInstanceError):
            plan_shards({0: [], 1: []}, 2)
        with pytest.raises(InvalidInstanceError):
            plan_shards({0: [1]}, 0)


class TestCheckpoints:
    def test_resume_skips_recompute(self, tmp_path):
        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        first = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path
        )
        assert first.resumed == 0
        second = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path
        )
        assert second.resumed == len(second.shards)
        assert second.report == first.report

    def test_run_key_separates_runs(self, tmp_path):
        inst = random_instance(12, seed=4, volume="uniform")
        run_sharded(
            inst, PowerLaw(ALPHA), 3, force_serial=True, checkpoint_dir=tmp_path
        )
        other = run_sharded(
            inst, PowerLaw(ALPHA), 3, algorithm="c_par", force_serial=True,
            checkpoint_dir=tmp_path,
        )
        assert other.resumed == 0  # different algorithm, different run_key
        nc_keys = ShardCheckpointStore.run_key(other.cluster, "nc_par")
        c_keys = ShardCheckpointStore.run_key(other.cluster, "c_par")
        assert nc_keys != c_keys

    def test_corrupt_checkpoint_discarded_and_recomputed(self, tmp_path):
        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        first = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path
        )
        victim = sorted(tmp_path.glob("shard-*.json"))[0]
        wrapper = json.loads(victim.read_text())
        body = wrapper["body"]
        mid = len(body) // 2
        wrapper["body"] = body[:mid] + ("0" if body[mid] != "0" else "1") + body[mid + 1 :]
        victim.write_text(json.dumps(wrapper))
        ctx = _ctx(power)
        second = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path, context=ctx
        )
        assert second.resumed == len(second.shards) - 1
        assert second.report == first.report
        actions = [
            e.payload["action"]
            for e in ctx.recorder.events_of(kind="shard_checkpoint")
        ]
        assert "corrupt_discard" in actions and "resume" in actions

    @pytest.mark.parametrize(
        "damage",
        [b'{"checksum": "x", "body": 5}', b"[1, 2, 3]", b'{"body": "\xff\xfe"}'],
        ids=["non-string-body", "list", "non-utf8"],
    )
    def test_malformed_checkpoint_discarded_and_recomputed(self, tmp_path, damage):
        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        first = run_sharded(inst, power, 3, force_serial=True, checkpoint_dir=tmp_path)
        victim = sorted(tmp_path.glob("shard-*.json"))[0]
        victim.write_bytes(damage)
        ctx = _ctx(power)
        second = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path, context=ctx
        )
        assert second.resumed == len(second.shards) - 1
        assert second.report == first.report
        actions = [e.payload["action"] for e in ctx.recorder.events_of(kind="shard_checkpoint")]
        assert actions.count("corrupt_discard") == 1

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda result: {"shard_id": result["shard_id"]},
            lambda result: {**result, "reports": dict(list(result["reports"].items())[1:])},
            lambda result: {
                **result,
                "reports": {k: {**v, "energy": "lots"} for k, v in result["reports"].items()},
            },
            lambda result: {
                **result,
                "reports": {k: {"energy": v["energy"]} for k, v in result["reports"].items()},
            },
            lambda result: {**result, "reports": list(result["reports"].values())},
        ],
        ids=["no-reports", "missing-machine", "bad-energy", "report-keys-missing", "reports-list"],
    )
    def test_checksum_valid_checkpoint_of_the_wrong_shape_recomputed(self, tmp_path, reshape):
        """A body that verifies but does not decode to a report for exactly
        the shard's machines is discarded like a bad envelope."""
        from repro.core.tracing import seal, unseal

        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        first = run_sharded(inst, power, 3, force_serial=True, checkpoint_dir=tmp_path)
        victim = sorted(tmp_path.glob("shard-*.json"))[0]
        result = unseal(victim.read_text())
        assert len(result["reports"]) >= 1
        victim.write_text(seal(reshape(result)))
        ctx = _ctx(power)
        second = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path, context=ctx
        )
        assert second.resumed == len(second.shards) - 1
        assert second.report == first.report == first.cluster.report()
        actions = [e.payload["action"] for e in ctx.recorder.events_of(kind="shard_checkpoint")]
        assert actions.count("corrupt_discard") == 1
        # the recomputed shard was saved again and now resumes
        third = run_sharded(inst, power, 3, force_serial=True, checkpoint_dir=tmp_path)
        assert third.resumed == len(third.shards)
        assert third.report == first.report

    def test_checkpoint_in_the_pre_canonical_envelope_resumes(self, tmp_path):
        """Checkpoints once stored the body with default separators inside a
        ``json.dumps`` envelope; those files must still load."""
        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        first = run_sharded(inst, power, 3, force_serial=True, checkpoint_dir=tmp_path)
        for path in tmp_path.glob("shard-*.json"):
            result = json.loads(json.loads(path.read_text())["body"])
            body = json.dumps(result, sort_keys=True)
            checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
            path.write_text(json.dumps({"checksum": checksum, "body": body}))
        second = run_sharded(inst, power, 3, force_serial=True, checkpoint_dir=tmp_path)
        assert second.resumed == len(second.shards)
        assert second.report == first.report

    def test_corruption_fault_caught_by_checksum(self, tmp_path):
        inst = random_instance(12, seed=4, volume="uniform")
        power = PowerLaw(ALPHA)
        ctx = _ctx(power)
        plan = FaultPlan(0, (FaultSpec(kind="checkpoint_corruption", after_calls=1),))
        injector = FaultInjector(plan, ctx)
        first = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path,
            context=ctx, injector=injector,
        )
        assert [s.kind for s, _ in injector.fired] == ["checkpoint_corruption"]
        second = run_sharded(
            inst, power, 3, force_serial=True, checkpoint_dir=tmp_path, context=ctx
        )
        # the corrupted shard is discarded + recomputed, the rest resume
        assert second.resumed == len(second.shards) - 1
        assert second.report == first.report


class TestPoolRecovery:
    def test_worker_kill_recovers_bit_identical(self):
        inst = random_instance(16, seed=9, volume="uniform")
        power = PowerLaw(ALPHA)
        serial = run_sharded(inst, power, 4, force_serial=True)
        ctx = _ctx(power)
        plan = FaultPlan(0, (FaultSpec(kind="worker_kill", after_calls=1),))
        injector = FaultInjector(plan, ctx)
        result = run_sharded(
            inst, power, 4,
            policy=PoolPolicy(workers=2, shard_timeout=30.0, **_FAST),
            context=ctx, injector=injector, shard_hold=0.08,
        )
        assert [s.kind for s, _ in injector.fired] == ["worker_kill"]
        assert result.stats is not None
        assert result.stats.workers_lost >= 1
        assert result.stats.redispatched >= 1
        assert result.report == serial.report
        kinds = {e.kind for e in ctx.recorder.events}
        assert {"shard_dispatch", "worker_lost", "shard_redispatch"} <= kinds

    def test_shard_hang_times_out_and_redispatches(self):
        inst = random_instance(12, seed=12, volume="uniform")
        power = PowerLaw(ALPHA)
        serial = run_sharded(inst, power, 2, force_serial=True)
        ctx = _ctx(power)
        plan = FaultPlan(0, (FaultSpec(kind="shard_hang", after_calls=1),))
        injector = FaultInjector(plan, ctx)
        result = run_sharded(
            inst, power, 2,
            policy=PoolPolicy(workers=2, shard_timeout=0.3, **_FAST),
            context=ctx, injector=injector,
        )
        assert [s.kind for s, _ in injector.fired] == ["shard_hang"]
        assert result.stats is not None and result.stats.redispatched >= 1
        assert result.report == serial.report
        reasons = [
            e.payload.get("reason")
            for e in ctx.recorder.events_of(kind="worker_lost")
        ]
        assert "shard_timeout" in reasons

    def test_degrades_to_serial_when_pool_exhausted(self):
        inst = random_instance(12, seed=13, volume="uniform")
        power = PowerLaw(ALPHA)
        serial = run_sharded(inst, power, 2, force_serial=True)
        ctx = _ctx(power)
        # every dispatch ordinal is killed and no redispatch is allowed:
        # the pool must give up and finish the shards serially.
        plan = FaultPlan(
            0,
            tuple(
                FaultSpec(kind="worker_kill", after_calls=k, max_firings=1)
                for k in (1, 2, 3, 4)
            ),
        )
        injector = FaultInjector(plan, ctx)
        result = run_sharded(
            inst, power, 2,
            policy=PoolPolicy(
                workers=1, max_redispatch=0, max_respawns=0, **_FAST
            ),
            context=ctx, injector=injector, shard_hold=0.05,
        )
        assert result.stats is not None
        assert result.stats.degraded and result.stats.serial_fallback >= 1
        assert result.report == serial.report
        assert ctx.recorder.events_of(kind="pool_degraded")

    def test_pool_policy_validation(self):
        with pytest.raises(ValueError):
            PoolPolicy(workers=0)
        with pytest.raises(ValueError):
            PoolPolicy(heartbeat_timeout=-1.0)

    def test_pool_rejects_unresolvable_task(self):
        pool = WorkerPool(PoolPolicy(workers=1, **_FAST))
        with pytest.raises(Exception):
            pool.run([(0, {"x": 1})], "repro.parallel.shard", "not_a_function")


class TestShardCampaign:
    def test_small_campaign_is_ok_and_formats(self, tmp_path):
        scenario = ShardScenario(
            jobs=10, machines=3, workers=2, kills=1,
            shard_hold=0.08, checkpoint_dir=tmp_path,
        )
        report = run_campaign(0, 1, scenario=scenario)
        assert report.ok
        assert report.total("killed") >= 1
        run = report.outcomes[0]
        assert run.status in ("clean", "recovered")
        assert run.checks == {"bitid": True, "L20": True, "lemmas": True}
        text = format_campaign(report)
        assert "SHARD CAMPAIGN OK" in text

    def test_campaign_is_deterministic_in_plans(self):
        scenario = ShardScenario(jobs=8, machines=2, workers=1, kills=1, shard_hold=0.05)
        a = run_campaign(7, 1, scenario=scenario)
        b = run_campaign(7, 1, scenario=scenario)
        assert a.outcomes[0].plan == b.outcomes[0].plan
        assert a.outcomes[0].checks["bitid"] and b.outcomes[0].checks["bitid"]
