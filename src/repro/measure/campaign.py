"""Probing-campaign orchestration (§3, §4.2, §7.1).

Round 1 sweeps the ``.1`` of every /24 in the target universe from every
region.  Round 2 ("expansion probing") targets every other address of the
/24s around the CBIs discovered in round 1.  The VPI round re-probes a
target pool from the four other clouds.  All campaigns stream merged
traces to an :class:`~repro.measure.sink.EventSink` so memory stays
bounded at any scale, and every run goes through the sharded executor --
serial when ``workers <= 1``, a ``multiprocessing`` pool otherwise, with
identical output either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.net.ip import IPv4, IPv4IntervalSet, dot1_targets, is_private_or_shared
from repro.measure.checkpoint import CheckpointStore
from repro.measure.executor import RetryPolicy
from repro.measure.faults import FaultPlan
from repro.measure.metrics import CampaignProgress
from repro.measure.sink import EventSink
from repro.measure.supervise import StudySupervisor
from repro.measure.traceroute import Traceroute, TracerouteEngine
from repro.obs.span import TracerLike
from repro.world.model import World

if TYPE_CHECKING:  # pragma: no cover - annotation only (import cycle)
    from repro.measure.adapt import ProbeGovernor


@dataclass
class CampaignStats:
    """Yield statistics, mirroring the §3 discussion."""

    probes: int = 0
    completed: int = 0
    left_cloud: int = 0
    gap_limited: int = 0
    #: probes never delivered because their shard was quarantined.
    lost_probes: int = 0
    quarantined_shards: int = 0
    #: probes re-paced behind an open circuit breaker (adaptive runs
    #: only); counted in ``lost_probes`` until recovery heals them.
    deferred_probes: int = 0
    #: probes the recovery round delivered after deferral/quarantine.
    recovered_probes: int = 0
    by_region: Dict[str, int] = field(default_factory=dict)

    def record(self, trace: Traceroute, left_cloud: bool) -> None:
        self.probes += 1
        self.by_region[trace.region] = self.by_region.get(trace.region, 0) + 1
        if trace.completed:
            self.completed += 1
        else:
            self.gap_limited += 1
        if left_cloud:
            self.left_cloud += 1

    @property
    def completeness(self) -> float:
        """Delivered / expected probes; < 1.0 after shard quarantine."""
        expected = self.probes + self.lost_probes
        return self.probes / expected if expected else 1.0

    @property
    def completed_fraction(self) -> float:
        return self.completed / self.probes if self.probes else 0.0

    @property
    def left_cloud_fraction(self) -> float:
        return self.left_cloud / self.probes if self.probes else 0.0


class CloudMembership:
    """Decides whether a trace escaped the probing cloud's address space.

    Stateless after construction and rebuilt cheaply inside executor
    workers from ``(world, cloud)``.
    """

    def __init__(self, world: World, cloud: str) -> None:
        # Flattened to disjoint intervals once: membership is one bisect
        # per hop instead of a scan over every announced/infra block.
        self._own = IPv4IntervalSet(
            list(world.cloud_announced_blocks.get(cloud, []))
            + list(world.cloud_infra_blocks.get(cloud, []))
        )

    def left_cloud(self, trace: Traceroute) -> bool:
        own = self._own
        dst = trace.dst
        for ip in trace.responsive_ips:
            if ip == dst:
                continue
            if ip not in own and not is_private_or_shared(ip):
                return True
        return False


class ProbeCampaign:
    """Drives a :class:`TracerouteEngine` over target lists."""

    def __init__(
        self,
        world: World,
        engine: Optional[TracerouteEngine] = None,
        cloud: str = "amazon",
        regions: Optional[Sequence[str]] = None,
        workers: int = 1,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        supervisor: Optional[StudySupervisor] = None,
        governor: Optional["ProbeGovernor"] = None,
    ) -> None:
        self.world = world
        self.cloud = cloud
        # A campaign built without an engine still honours the fault plan
        # (observation faults live on the engine, transport faults on the
        # executor); an explicit engine keeps its own plan.
        self.engine = engine or TracerouteEngine(world, faults=faults)
        self.regions = list(regions or world.region_names(cloud))
        self.workers = max(1, workers)
        self.faults = faults if faults is not None else self.engine.faults
        self.retry = retry
        self.supervisor = supervisor
        #: merge-time admit/defer hook for adaptive runs (one governor
        #: spans round 1 and round 2, so breaker state carries over).
        self.governor = governor
        self.membership = CloudMembership(world, cloud)

    # ------------------------------------------------------------------

    def _left_cloud(self, trace: Traceroute) -> bool:
        return self.membership.left_cloud(trace)

    def run(
        self,
        targets: Iterable[IPv4],
        sink: EventSink,
        stats: Optional[CampaignStats] = None,
        regions: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        progress: Optional[CampaignProgress] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_label: str = "campaign",
        tracer: Optional[TracerLike] = None,
        worker_spans: bool = False,
    ) -> CampaignStats:
        """Probe every target from every region, streaming to ``sink``.

        ``targets`` may be any iterable; it is materialized exactly once.
        With ``workers > 1`` shards run on a process pool, but the merged
        trace stream (and therefore everything downstream) is identical
        to the serial run -- including under an injected fault plan with
        retries, and across a checkpoint kill/resume.  ``tracer`` /
        ``worker_spans`` are forwarded to the executor (digest-neutral
        span recording; see :mod:`repro.obs`).
        """
        from repro.measure.executor import ShardedExecutor

        stats = stats or CampaignStats()
        executor = ShardedExecutor(
            self.world,
            self.engine,
            self.membership,
            cloud=self.cloud,
            workers=self.workers if workers is None else workers,
            faults=self.faults,
            retry=self.retry,
            supervisor=self.supervisor,
            governor=self.governor,
        )
        executor.run(
            targets,
            sink,
            stats,
            regions=list(regions or self.regions),
            progress=progress,
            checkpoint_store=checkpoint_store,
            checkpoint_label=checkpoint_label,
            tracer=tracer,
            worker_spans=worker_spans,
        )
        return stats

    # ------------------------------------------------------------------

    def round1_targets(self) -> List[IPv4]:
        """The ``.1`` of every /24 in the sweep universe (§3).

        Materialized in one batched pass (the executor needs the full
        list anyway to plan shards) instead of a generator that converts
        prefixes one call at a time.
        """
        return dot1_targets(self.world.sweep_slash24s)

    def run_round1(
        self,
        sink: EventSink,
        stats: Optional[CampaignStats] = None,
        workers: Optional[int] = None,
        progress: Optional[CampaignProgress] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        tracer: Optional[TracerLike] = None,
        worker_spans: bool = False,
    ) -> CampaignStats:
        return self.run(
            self.round1_targets(),
            sink,
            stats,
            workers=workers,
            progress=progress,
            checkpoint_store=checkpoint_store,
            checkpoint_label="round1",
            tracer=tracer,
            worker_spans=worker_spans,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def expansion_targets(
        cbi_ips: Iterable[IPv4], stride: int = 1
    ) -> List[IPv4]:
        """All other addresses in the /24 of every discovered CBI (§4.2).

        ``stride`` sub-samples each /24 for cheaper runs; 1 reproduces the
        paper's exhaustive expansion.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        # Batched /24 conversion: one masking pass collects the distinct
        # nets (keyed by the lowest CBI that claimed each, preserving
        # the historical per-net exclusion), then a precomputed offset
        # row is replayed per net instead of re-deriving it 254/stride
        # times per /24.
        claimed: Dict[int, int] = {}
        for cbi in sorted(set(cbi_ips)):
            net = cbi & 0xFFFFFF00
            if net not in claimed:
                claimed[net] = cbi
        offsets = tuple(range(1, 255, stride))
        targets: List[IPv4] = []
        for net, cbi in sorted(claimed.items()):
            targets.extend(
                addr for addr in (net + o for o in offsets) if addr != cbi
            )
        return targets

    def run_expansion(
        self,
        cbi_ips: Iterable[IPv4],
        sink: EventSink,
        stats: Optional[CampaignStats] = None,
        stride: int = 1,
        workers: Optional[int] = None,
        progress: Optional[CampaignProgress] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        tracer: Optional[TracerLike] = None,
        worker_spans: bool = False,
    ) -> CampaignStats:
        return self.run(
            self.expansion_targets(cbi_ips, stride),
            sink,
            stats,
            workers=workers,
            progress=progress,
            checkpoint_store=checkpoint_store,
            checkpoint_label="round2",
            tracer=tracer,
            worker_spans=worker_spans,
        )


def vpi_target_pool(
    non_ixp_cbis: Iterable[IPv4], discovery_dsts: Iterable[IPv4]
) -> List[IPv4]:
    """§7.1's probe pool: non-IXP CBIs, their +1 addresses, and the
    destinations of the traceroutes that discovered each CBI."""
    pool: Set[IPv4] = set()
    for cbi in non_ixp_cbis:
        pool.add(cbi)
        pool.add(cbi + 1)
    pool.update(discovery_dsts)
    return sorted(pool)
