"""Supervised execution runtime: invariant guards, checkpoint recovery, the
fault-tolerant worker pool, and chaos campaigns (in-process, sharded and
service scenarios behind one campaign loop)."""

from .chaos import (
    CampaignReport,
    FamilyScenario,
    Outcome,
    Scenario,
    ServiceScenario,
    ShardScenario,
    format_campaign,
    run_campaign,
    run_pair_verified,
)
from .pool import PoolPolicy, PoolStats, WorkerPool
from .supervisor import ALGORITHMS, RecoveryPolicy, SupervisedResult, Supervisor

__all__ = [
    "ALGORITHMS",
    "CampaignReport",
    "FamilyScenario",
    "Outcome",
    "PoolPolicy",
    "PoolStats",
    "RecoveryPolicy",
    "Scenario",
    "ServiceScenario",
    "ShardScenario",
    "SupervisedResult",
    "Supervisor",
    "WorkerPool",
    "format_campaign",
    "run_campaign",
    "run_pair_verified",
]
