"""Measurement plane: traceroute, ping, public reachability, alias resolution.

These tools are the *only* window the inference pipeline has onto the
synthetic Internet -- the same observables the paper's authors had onto the
real one.
"""

from repro.measure.alias import AliasResolver
from repro.measure.campaign import (
    CampaignStats,
    CloudMembership,
    ProbeCampaign,
    vpi_target_pool,
)
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.executor import (
    RetryPolicy,
    Shard,
    ShardedExecutor,
    partition_targets,
    plan_shards,
)
from repro.measure.faults import FaultPlan, InjectedWorkerCrash
from repro.measure.metrics import (
    CampaignProgress,
    QuarantinedShard,
    ShardFailure,
    ShardTiming,
    StudyMetrics,
)
from repro.measure.ping import Pinger
from repro.measure.reachability import PublicVantagePoint
from repro.measure.sink import CollectorSink, EventSink, FanoutEvents
from repro.measure.traceroute import (
    GAP_LIMIT,
    StopReason,
    TraceHop,
    Traceroute,
    TracerouteEngine,
)

__all__ = [
    "AliasResolver",
    "CampaignCheckpoint",
    "CampaignProgress",
    "CampaignStats",
    "CheckpointStore",
    "CloudMembership",
    "CollectorSink",
    "EventSink",
    "FanoutEvents",
    "FaultPlan",
    "GAP_LIMIT",
    "InjectedWorkerCrash",
    "Pinger",
    "ProbeCampaign",
    "PublicVantagePoint",
    "QuarantinedShard",
    "RetryPolicy",
    "Shard",
    "ShardFailure",
    "ShardTiming",
    "ShardedExecutor",
    "StopReason",
    "StudyMetrics",
    "TraceHop",
    "Traceroute",
    "TracerouteEngine",
    "partition_targets",
    "plan_shards",
    "vpi_target_pool",
]
