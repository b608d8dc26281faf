"""Campaign and pipeline observability.

Replaces the ad-hoc ``timers`` dict the study driver used to fill by hand:

* :class:`CampaignProgress` -- live throughput of one probing campaign
  (probes completed, probes/sec, per-region counts, per-shard latencies),
  updated by the sharded executor as merged shards stream in;
* :class:`StudyMetrics` -- the study's :class:`~repro.obs.span.Tracer`
  plus the progress object of every campaign the study ran, carried on
  ``StudyResult`` and rendered by ``render_report``.  Per-stage
  wall-clock (``metrics.stages``) is a *view* over the span stream:
  ``stage()`` opens a stage-category span, and the property folds the
  closed stage records back into the name -> seconds dict the report
  has always consumed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.span import Span, Tracer


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock of one executed shard, as observed by the worker."""

    index: int
    region: str
    probes: int
    seconds: float


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt (crash, timeout, or injected fault).

    ``category`` is the :mod:`repro.errors` taxonomy bucket (transport,
    timeout, hung, data...) so the resilience report can say *what kind*
    of failures a campaign absorbed, not just how many.
    """

    index: int
    error: str
    category: str = "transport"


@dataclass(frozen=True)
class QuarantinedShard:
    """A shard that exhausted its retries; its probes are lost."""

    index: int
    region: str
    probes: int
    error: str


@dataclass
class CampaignProgress:
    """Throughput counters for one campaign (round 1, expansion, VPI...)."""

    label: str
    workers: int = 1
    expected_probes: int = 0
    shard_count: int = 0
    probes: int = 0
    by_region: Dict[str, int] = field(default_factory=dict)
    shard_timings: List[ShardTiming] = field(default_factory=list)
    #: failed shard attempts, in the order the executor observed them.
    failures: List[ShardFailure] = field(default_factory=list)
    #: shards abandoned after exhausting their retries.
    quarantined: List[QuarantinedShard] = field(default_factory=list)
    #: shards replayed from a checkpoint instead of re-probed.
    resumed_shards: int = 0
    _started: Optional[float] = None
    _finished: Optional[float] = None

    # ------------------------------------------------------------------

    def start(self, expected_probes: int, shards: int, workers: int) -> None:
        self.expected_probes = expected_probes
        self.shard_count = shards
        self.workers = workers
        self._started = time.perf_counter()
        self._finished = None

    def note_shard(self, timing: ShardTiming) -> None:
        self.probes += timing.probes
        self.by_region[timing.region] = (
            self.by_region.get(timing.region, 0) + timing.probes
        )
        self.shard_timings.append(timing)

    def note_failure(
        self, shard_index: int, error: str, category: str = "transport"
    ) -> None:
        self.failures.append(
            ShardFailure(index=shard_index, error=error, category=category)
        )

    def failure_categories(self) -> Dict[str, int]:
        """Taxonomy category -> count, in first-seen order."""
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.category] = counts.get(failure.category, 0) + 1
        return counts

    def note_quarantine(self, shard: QuarantinedShard) -> None:
        self.quarantined.append(shard)

    def note_resumed(self, shard_index: int) -> None:
        self.resumed_shards += 1

    def finish(self) -> None:
        self._finished = time.perf_counter()

    # ------------------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        if self._started is None:
            return 0.0
        end = self._finished if self._finished is not None else time.perf_counter()
        return end - self._started

    @property
    def probes_per_second(self) -> float:
        elapsed = self.elapsed_seconds
        return self.probes / elapsed if elapsed > 0 else 0.0

    @property
    def done_fraction(self) -> float:
        if not self.expected_probes:
            return 0.0
        return self.probes / self.expected_probes

    @property
    def mean_shard_seconds(self) -> float:
        if not self.shard_timings:
            return 0.0
        return sum(t.seconds for t in self.shard_timings) / len(self.shard_timings)

    @property
    def max_shard_seconds(self) -> float:
        if not self.shard_timings:
            return 0.0
        return max(t.seconds for t in self.shard_timings)

    @property
    def lost_probes(self) -> int:
        """Probes never delivered because their shard was quarantined."""
        return sum(q.probes for q in self.quarantined)

    @property
    def retries(self) -> int:
        """Failed attempts that were retried (not final quarantines)."""
        return len(self.failures) - len(self.quarantined)

    @property
    def completeness(self) -> float:
        """Delivered / expected probes; < 1.0 after any quarantine."""
        if not self.expected_probes:
            return 1.0
        return self.probes / self.expected_probes

    def summary(self) -> str:
        text = (
            f"{self.label}: {self.probes} probes in {self.elapsed_seconds:.1f}s "
            f"({self.probes_per_second:.0f}/s) over "
            f"{len(self.shard_timings)} shards x {self.workers} worker(s); "
            f"{len(self.by_region)} regions, shard latency "
            f"mean {self.mean_shard_seconds * 1000:.0f}ms / "
            f"max {self.max_shard_seconds * 1000:.0f}ms"
        )
        if self.failures or self.quarantined or self.resumed_shards:
            text += (
                f"; resilience: {len(self.failures)} failed attempt(s), "
                f"{len(self.quarantined)} quarantined, "
                f"{self.resumed_shards} resumed, "
                f"completeness {self.completeness * 100:.1f}%"
            )
        return text


class StudyMetrics:
    """Per-stage wall-clock plus per-campaign progress for one study run.

    Always carries a real :class:`~repro.obs.span.Tracer`: stage,
    campaign, and shard spans are cheap enough to record unconditionally,
    and ``stages`` / the report are views over that stream.  Fine-grained
    worker-side spans are opt-in at the executor (``worker_spans``).
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        #: the span stream everything below is a view over.
        self.tracer: Tracer = tracer if tracer is not None else Tracer()
        #: campaign label -> its progress/throughput record.
        self.campaigns: Dict[str, CampaignProgress] = {}
        #: inter-source dataset disagreements (validation + annotations).
        self.dataset_disagreements: int = 0
        #: final inferences flagged below the annotation-confidence floor.
        self.low_confidence_inferences: int = 0

    @property
    def stages(self) -> Dict[str, float]:
        """Stage name -> wall-clock seconds, in execution order.

        Folded from the closed stage-category spans, so the dict the
        report renders and the trace a viewer loads cannot disagree.
        """
        folded: Dict[str, float] = {}
        for record in self.tracer.records:
            if record.category == "stage":
                folded[record.name] = folded.get(record.name, 0.0) + record.duration
        return folded

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        """Time a pipeline stage: ``with metrics.stage("round1"): ...``.

        Yields the span so callers can attach attributes (the stage
        runner marks checkpoint-restored stages with ``resumed=1``).
        """
        with self.tracer.span(name, category="stage") as span:
            yield span

    def campaign(self, label: str) -> CampaignProgress:
        """Create (or fetch) the progress record for a campaign."""
        progress = self.campaigns.get(label)
        if progress is None:
            progress = CampaignProgress(label=label)
            self.campaigns[label] = progress
        return progress

    @property
    def total_seconds(self) -> float:
        return sum(self.stages.values())

    # --- resilience rollups -------------------------------------------

    def completeness(self) -> Dict[str, float]:
        """Per-campaign delivered/expected ratio (1.0 = nothing lost)."""
        return {
            label: progress.completeness
            for label, progress in self.campaigns.items()
        }

    @property
    def total_failures(self) -> int:
        return sum(len(p.failures) for p in self.campaigns.values())

    @property
    def total_quarantined(self) -> int:
        return sum(len(p.quarantined) for p in self.campaigns.values())

    @property
    def total_resumed(self) -> int:
        return sum(p.resumed_shards for p in self.campaigns.values())

    @property
    def degraded(self) -> bool:
        """True when any campaign delivered less than it expected."""
        return any(p.completeness < 1.0 for p in self.campaigns.values())

    # --- data-quality rollups -----------------------------------------

    def note_data_quality(
        self, disagreements: int, low_confidence: int
    ) -> None:
        """Record the data-plane dirt the quality pass observed."""
        self.dataset_disagreements = disagreements
        self.low_confidence_inferences = low_confidence

    @property
    def data_degraded(self) -> bool:
        """True when dataset sources disagreed or inferences were flagged."""
        return (
            self.dataset_disagreements > 0
            or self.low_confidence_inferences > 0
        )
