"""Identical parallel machines (§6, §7): greedy immediate dispatch (C-PAR,
C-HDF-PAR), one global queue (NC-PAR, NC-HDF-PAR), volume-oblivious
immediate-dispatch rules, the Ω(k^(1-1/α)) lower-bound adversary, and the
fault-tolerant sharded execution layer (per-machine independence, Lemma 20,
made executable on a supervised worker pool)."""

from .c_par import simulate_c_hdf_par, simulate_c_par
from .cluster import ClusterRun
from .dispatch import (
    DISPATCH_RULES,
    least_count,
    round_robin,
    seeded_random_rule,
    simulate_immediate_dispatch,
)
from .lower_bound import AdversaryOutcome, adversarial_instance, adversarial_ratio
from .nc_par import simulate_nc_hdf_par, simulate_nc_par
from .shard import (
    Shard,
    ShardCheckpointStore,
    ShardedResult,
    compute_shard,
    plan_shards,
    run_sharded,
    shard_payload,
)

__all__ = [
    "ClusterRun",
    "Shard",
    "ShardCheckpointStore",
    "ShardedResult",
    "compute_shard",
    "plan_shards",
    "run_sharded",
    "shard_payload",
    "simulate_c_par",
    "simulate_nc_par",
    "DISPATCH_RULES",
    "round_robin",
    "least_count",
    "seeded_random_rule",
    "simulate_immediate_dispatch",
    "AdversaryOutcome",
    "adversarial_instance",
    "adversarial_ratio",
    "simulate_nc_hdf_par",
    "simulate_c_hdf_par",
]
