"""Sharded parallel campaign execution with a deterministic ordered merge.

The paper's measurement plane is embarrassingly parallel: round 1 sweeps
15.6M /24s from 15 regions and expansion probing exhausts every /24 around
a discovered CBI (§3, §4.2).  This module splits a campaign's
``regions x targets`` space into deterministic contiguous shards, traces
each shard on a ``multiprocessing`` worker pool, and merges the results
back **in shard order** so downstream consumers (the
``BorderObservatory``, yield stats, progress counters) see exactly the
trace stream a serial run would have produced.

Two properties make the merge bit-for-bit reproducible at any worker
count:

* every probe's noise comes from an RNG derived only from
  ``(engine seed, cloud, region, dst)`` -- see
  ``TracerouteEngine.probe_rng`` -- so a trace does not depend on how many
  probes ran before it in the same process;
* shards are enumerated region-major over the exact serial iteration
  order and merged in that order, so the merged stream equals the serial
  stream.

At campaign scale, failure is routine, so the executor is resilient:

* each shard attempt is bounded by :class:`RetryPolicy` -- a per-shard
  timeout, then bounded retries with exponential backoff (a pool-side
  failure retries *inline* in the parent, which always makes progress);
* a shard that exhausts its retries is **quarantined**: its probes are
  reported lost (``CampaignStats.lost_probes``, progress completeness)
  and the campaign degrades gracefully instead of dying;
* with a :class:`~repro.measure.checkpoint.CampaignCheckpoint`, every
  completed shard is journalled to disk, and a killed run restarts
  without re-probing finished shards.

Because a shard's traces are a pure function of the probe key (plus the
observation-fault plan), none of this changes the merged stream: a run
with injected crashes, timeouts, or a checkpoint resume produces the same
results as a clean serial run once every shard eventually succeeds.

Workers rebuild their ``TracerouteEngine`` from the pickled world plus the
engine seed and fault plan in the pool initializer; no live engine state
ever crosses the process boundary.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import signal
import sys
import time
from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    HungShardError,
    ReproError,
    ShardTimeoutError,
    StudyInterrupted,
    wrap_error,
)
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.faults import FaultPlan
from repro.measure.metrics import CampaignProgress, QuarantinedShard, ShardTiming
from repro.measure.supervise import StudySupervisor
from repro.measure.sink import EventSink
from repro.measure.traceroute import TraceHop, Traceroute, TracerouteEngine
from repro.net.ip import IPv4
from repro.obs.span import NULL_TRACER, PackedSpan, Tracer, TracerLike
from repro.world.model import World

if TYPE_CHECKING:
    from multiprocessing.context import BaseContext
    from multiprocessing.pool import AsyncResult

    from repro.measure.adapt import ProbeGovernor
    from repro.measure.campaign import CampaignStats, CloudMembership

#: Target shards per worker per region; >1 keeps the pool load-balanced
#: when shard runtimes are uneven without drowning in pickling overhead.
SHARDS_PER_WORKER = 4

#: Probes per probe-batch span when fine-grained tracing is on; coarse
#: enough that span overhead stays invisible next to the engine work.
PROBE_BATCH = 64


@dataclass(frozen=True)
class Shard:
    """One unit of work: a contiguous slice of targets for one region."""

    index: int
    region: str
    targets: Tuple[IPv4, ...]


@dataclass
class ShardResult:
    """What a worker sends back: traces in target order, plus timing."""

    index: int
    region: str
    seconds: float
    #: ``(trace, left_cloud)`` per target, in the shard's target order.
    items: List[Tuple[Traceroute, bool]]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard the executor fights for each shard."""

    #: seconds to wait for a pooled shard before retrying inline;
    #: ``None`` waits forever (the pre-resilience behaviour).
    shard_timeout: Optional[float] = None
    #: attempts beyond the first before the shard is quarantined.
    max_retries: int = 2
    #: first backoff sleep; doubles per retry up to ``backoff_cap_s``.
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be > 0, got {self.shard_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        if self.backoff_base_s <= 0:
            return 0.0
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )


def default_shard_size(n_targets: int, workers: int) -> int:
    """Deterministic shard size: ~`SHARDS_PER_WORKER` shards per worker."""
    if n_targets <= 0:
        return 1
    return max(1, math.ceil(n_targets / max(1, workers * SHARDS_PER_WORKER)))


def partition_targets(
    targets: Sequence[IPv4], shard_size: int
) -> List[Tuple[IPv4, ...]]:
    """Contiguous, order-preserving slices of at most ``shard_size``."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        tuple(targets[i : i + shard_size])
        for i in range(0, len(targets), shard_size)
    ]


def plan_shards(
    regions: Sequence[str], targets: Sequence[IPv4], shard_size: int
) -> List[Shard]:
    """Region-major shard plan matching the serial iteration order."""
    slices = partition_targets(targets, shard_size)
    shards: List[Shard] = []
    for region in regions:
        for chunk in slices:
            shards.append(Shard(index=len(shards), region=region, targets=chunk))
    return shards


# ----------------------------------------------------------------------
# Worker side.  Globals are (re)built once per worker process by the pool
# initializer; only the world, cloud name, engine seed, and fault plan
# cross the process boundary.
# ----------------------------------------------------------------------

_WORKER_STATE: Optional[
    Tuple[TracerouteEngine, "CloudMembership", str, Optional[FaultPlan], bool]
] = None


def _init_worker(
    world: World,
    cloud: str,
    seed: int,
    engine_faults: Optional[FaultPlan] = None,
    transport_faults: Optional[FaultPlan] = None,
    worker_spans: bool = False,
) -> None:
    from repro.measure.campaign import CloudMembership

    global _WORKER_STATE
    # A forked worker inherits the parent's signal handlers.  A study
    # supervisor's SIGTERM handler only records a cancel, so the worker
    # would outlive ``pool.terminate()`` and ``pool.join()`` would wait
    # forever.  Cancellation is the parent's job.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Observation faults belong to the engine (they shape trace content
    # exactly as the parent's engine would); transport faults belong to
    # the shard attempt.  Keeping them separate guarantees worker-built
    # engines match the serial engine even when only one side is set.
    engine = TracerouteEngine(world, seed=seed, faults=engine_faults)
    _WORKER_STATE = (
        engine,
        CloudMembership(world, cloud),
        cloud,
        transport_faults,
        worker_spans,
    )


def _trace_shard_in_worker(shard: Shard, attempt: int = 0) -> Tuple[Any, ...]:
    assert _WORKER_STATE is not None, "pool initializer did not run"
    engine, membership, cloud, faults, worker_spans = _WORKER_STATE
    if not worker_spans:
        return _pack_result(
            trace_shard(
                engine, membership, cloud, shard, faults=faults, attempt=attempt
            )
        )
    # Worker processes cannot share the parent's tracer: record into a
    # local one, time the wire serialization too, and ship the packed
    # spans as an extra wire element the parent adopts under its shard
    # span.  Packed spans never enter checkpoint journals -- the parent
    # re-packs the bare result before journalling -- so a resume never
    # replays stale wall-clock.
    tracer = Tracer()
    root = tracer.span(f"worker:{shard.index}", category="worker")
    result = trace_shard(
        engine,
        membership,
        cloud,
        shard,
        faults=faults,
        attempt=attempt,
        tracer=tracer,
    )
    root.set("probes", len(result.items))
    with tracer.span(f"pack:{shard.index}", category="pack"):
        packed = _pack_result(result)
    root.close()
    return packed + (tracer.pack(),)


def _pack_result(result: ShardResult) -> Tuple[Any, ...]:
    """Compact wire format: tuples pickle ~2x smaller and faster than the
    trace dataclasses, which matters at millions of probes per round.
    The same format is JSON-safe, so checkpoints journal it verbatim."""
    return (
        result.index,
        result.region,
        result.seconds,
        [
            (
                trace.dst,
                trace.stop_reason,
                tuple((h.ttl, h.ip, h.rtt_ms) for h in trace.hops),
                left,
            )
            for trace, left in result.items
        ],
    )


def _unpack_result(packed: Sequence[Any], cloud: str) -> ShardResult:
    # Element 5, when present, is the worker's packed span rows (see
    # _trace_shard_in_worker); checkpointed rows are always 4 elements.
    index, region, seconds, rows = packed[0], packed[1], packed[2], packed[3]
    items = [
        (
            Traceroute(
                cloud=cloud,
                region=region,
                dst=dst,
                hops=[TraceHop(ttl, ip, rtt) for ttl, ip, rtt in hops],
                stop_reason=stop_reason,
            ),
            left,
        )
        for dst, stop_reason, hops, left in rows
    ]
    return ShardResult(index=index, region=region, seconds=seconds, items=items)


def _packed_spans(packed: Sequence[Any]) -> Optional[List[PackedSpan]]:
    """The worker's span rows riding on the wire tuple, if any."""
    if len(packed) > 4 and packed[4]:
        return list(packed[4])
    return None


def trace_shard(
    engine: TracerouteEngine,
    membership: "CloudMembership",
    cloud: str,
    shard: Shard,
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
    tracer: TracerLike = NULL_TRACER,
) -> ShardResult:
    """Trace every target of ``shard``; shared by serial and pool paths.

    Transport faults fire here -- an injected crash raises before any
    tracing, a slow shard sleeps -- so serial runs, pooled first
    attempts, and inline retries all see one fault schedule.

    ``tracer`` attributes fault-realization delay and engine time
    (``probe-batch`` spans of :data:`PROBE_BATCH` targets); the default
    :data:`~repro.obs.span.NULL_TRACER` costs one no-op call per batch.
    """
    if faults is not None:
        faults.raise_if_crashed(shard.index, attempt)
        delay = faults.slow_delay(shard.index)
        if delay > 0:
            with tracer.span(f"fault-delay:{shard.index}", category="faults"):
                time.sleep(delay)
    t0 = time.perf_counter()
    items: List[Tuple[Traceroute, bool]] = []
    targets = shard.targets
    for base in range(0, len(targets), PROBE_BATCH):
        batch = targets[base : base + PROBE_BATCH]
        span = tracer.span(f"probe-batch:{shard.index}", category="probe-batch")
        for dst in batch:
            trace = engine.trace(cloud, shard.region, dst)
            items.append((trace, membership.left_cloud(trace)))
        span.set("probes", len(batch))
        span.close()
    return ShardResult(
        index=shard.index,
        region=shard.region,
        seconds=time.perf_counter() - t0,
        items=items,
    )


# ----------------------------------------------------------------------


@dataclass
class _ShardOutcome:
    """What one shard's resume/attempt/retry loop produced.

    ``result`` is ``None`` only for a quarantined shard.  ``worker_spans``
    carries the worker-side packed span rows (pool path with tracing on);
    ``attempts`` counts attempts actually made, and ``resumed`` marks a
    checkpoint replay.
    """

    result: Optional[ShardResult]
    worker_spans: Optional[List[PackedSpan]] = None
    attempts: int = 1
    resumed: bool = False


class ShardedExecutor:
    """Runs a campaign's probe matrix over a worker pool (or inline).

    ``workers <= 1`` executes the same shard plan in-process, so the two
    paths share one code path for ordering, stats, progress, retries, and
    checkpoints -- the parallel run differs only in *where* a shard's
    first attempt is traced.
    """

    def __init__(
        self,
        world: World,
        engine: TracerouteEngine,
        membership: "CloudMembership",
        cloud: str = "amazon",
        workers: int = 1,
        shard_size: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        supervisor: Optional[StudySupervisor] = None,
        governor: Optional["ProbeGovernor"] = None,
    ) -> None:
        self.world = world
        self.engine = engine
        self.membership = membership
        self.cloud = cloud
        self.workers = max(1, workers)
        self.shard_size = shard_size
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.supervisor = supervisor
        #: adaptive merge-time admit/defer decisions (None = admit all).
        self.governor = governor

    # ------------------------------------------------------------------

    def run(
        self,
        targets: Iterable[IPv4],
        events: EventSink,
        stats: "CampaignStats",
        regions: Sequence[str],
        progress: Optional[CampaignProgress] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_label: str = "campaign",
        tracer: Optional[TracerLike] = None,
        worker_spans: bool = False,
    ) -> None:
        """Trace ``regions x targets`` and stream merged results to ``events``.

        Merged traces arrive as ``on_probe`` events in serial order, each
        merged shard fires ``on_shard_merged``, and the sink's ``close()``
        fires after the last event.  ``stats`` is a ``CampaignStats``
        updated in merge order.  With a ``checkpoint_store``, completed
        shards are journalled under ``checkpoint_label`` and replayed on
        the next run.

        ``tracer`` records a ``campaign:<label>`` span with one ``shard``
        span per merged shard; ``worker_spans=True`` additionally traces
        inside shard attempts (probe batches, fault delays, wire packing
        -- worker-side rows cross the pool boundary on the wire tuple and
        are adopted under the parent's shard span).  Tracing is
        digest-neutral: it reads ``perf_counter`` only and never touches
        the merged stream.
        """
        target_list = (
            targets if isinstance(targets, (list, tuple)) else list(targets)
        )
        trc: TracerLike = tracer if tracer is not None else NULL_TRACER
        shard_size = self.shard_size or default_shard_size(
            len(target_list), self.workers
        )
        shards = plan_shards(regions, target_list, shard_size)
        checkpoint: Optional[CampaignCheckpoint] = None
        if checkpoint_store is not None:
            checkpoint = checkpoint_store.campaign(
                checkpoint_label,
                self._fingerprint(regions, target_list, shard_size),
            )
        if progress is not None:
            progress.start(
                expected_probes=len(target_list) * len(regions),
                shards=len(shards),
                workers=self.workers,
            )
        if self.governor is not None:
            # Deferrals recorded during this campaign carry its label, so
            # the recovery round heals the right round's stats.
            self.governor.begin_campaign(checkpoint_label)
        campaign_span = trc.span(
            f"campaign:{checkpoint_label}", category="campaign"
        )
        campaign_span.set("expected", len(target_list) * len(regions))
        campaign_span.set("shards", len(shards))
        campaign_span.set("workers", self.workers)
        try:
            if self.workers <= 1 or len(shards) <= 1:
                self._merge(
                    shards,
                    lambda s: self._run_shard(
                        s, None, checkpoint, progress, trc, worker_spans
                    ),
                    events,
                    stats,
                    progress,
                    trc,
                    self.supervisor,
                    self.governor,
                )
            else:
                ctx = _pool_context()
                pool = ctx.Pool(
                    processes=min(self.workers, len(shards)),
                    initializer=_init_worker,
                    initargs=(
                        self.world,
                        self.cloud,
                        self.engine.seed,
                        self.engine.faults,
                        self.faults,
                        worker_spans,
                    ),
                )
                try:
                    pending = {
                        s.index: pool.apply_async(
                            _trace_shard_in_worker, (s, 0)
                        )
                        for s in shards
                        if checkpoint is None or not checkpoint.has(s.index)
                    }
                    self._merge(
                        shards,
                        lambda s: self._run_shard(
                            s,
                            pending.get(s.index),
                            checkpoint,
                            progress,
                            trc,
                            worker_spans,
                        ),
                        events,
                        stats,
                        progress,
                        trc,
                        self.supervisor,
                        self.governor,
                    )
                finally:
                    pool.terminate()
                    pool.join()
        finally:
            if progress is not None:
                progress.finish()
                campaign_span.set("probes", progress.probes)
                campaign_span.set("lost", progress.lost_probes)
                campaign_span.set("retries", progress.retries)
                campaign_span.set("quarantined", len(progress.quarantined))
                campaign_span.set("resumed", progress.resumed_shards)
            else:
                # Tracer-only runs still get final yield counters, from
                # the stats the merge loop updated.
                campaign_span.set("probes", stats.probes)
                campaign_span.set("lost", stats.lost_probes)
                campaign_span.set("quarantined", stats.quarantined_shards)
            if stats.deferred_probes:
                campaign_span.set("deferred", stats.deferred_probes)
            campaign_span.close()
            if checkpoint is not None:
                # Compact the append-mode journal into an atomically
                # replaced, fsynced file -- runs on interrupts too, so a
                # cancelled study leaves a durable, untorn journal behind.
                checkpoint.finalize()
            events.close()

    # ------------------------------------------------------------------

    def _fingerprint(
        self,
        regions: Sequence[str],
        targets: Sequence[IPv4],
        shard_size: int,
    ) -> str:
        """Identity of this campaign's shard plan and trace content.

        Transport faults are deliberately excluded (they never change a
        completed shard's traces); observation faults are included via
        ``FaultPlan.probe_signature``.
        """
        engine_faults = self.engine.faults
        probe_sig = (
            engine_faults.probe_signature()
            if engine_faults is not None
            else "clean"
        )
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    "campaign-v1",
                    self.cloud,
                    self.engine.seed,
                    tuple(regions),
                    shard_size,
                    len(targets),
                    probe_sig,
                )
            ).encode()
        )
        # One bulk conversion instead of a to_bytes() call per target;
        # byteswap keeps the digest byte-identical (big-endian) on
        # little-endian hosts, so existing checkpoint journals stay valid.
        packed = array("I", targets)
        if sys.byteorder == "little":
            packed.byteswap()
        h.update(packed.tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------

    def _run_shard(
        self,
        shard: Shard,
        handle: Optional["AsyncResult[Tuple[Any, ...]]"],
        checkpoint: Optional[CampaignCheckpoint],
        progress: Optional[CampaignProgress],
        tracer: TracerLike,
        worker_spans: bool,
    ) -> _ShardOutcome:
        """One shard through resume -> attempt -> retry -> quarantine.

        The outcome's ``result`` is ``None`` only when the shard is
        quarantined; the merge then accounts for the lost probes instead
        of crashing the run.  Checkpoint journals always store the bare
        4-element wire tuple (via ``_pack_result``), never span rows.
        """
        if checkpoint is not None:
            stored = checkpoint.get(shard.index)
            if stored is not None:
                if progress is not None:
                    progress.note_resumed(shard.index)
                return _ShardOutcome(
                    result=_unpack_result(stored, self.cloud),
                    attempts=0,
                    resumed=True,
                )
        attempt = 0
        worker_packed: Optional[List[PackedSpan]] = None
        while True:
            try:
                if handle is not None and attempt == 0:
                    packed = self._wait_for_shard(handle, shard)
                    result = _unpack_result(packed, self.cloud)
                    worker_packed = _packed_spans(packed)
                else:
                    # Inline attempts run under the currently-open shard
                    # span, so fine-grained spans nest directly -- no
                    # packing needed on this path.
                    result = trace_shard(
                        self.engine,
                        self.membership,
                        self.cloud,
                        shard,
                        faults=self.faults,
                        attempt=attempt,
                        tracer=tracer if worker_spans else NULL_TRACER,
                    )
                    worker_packed = None
            except StudyInterrupted:
                # Cancellation is not a shard failure: it must never be
                # retried, quarantined, or otherwise absorbed.
                raise
            except Exception as exc:  # worker crash, timeout, injected fault
                failure = wrap_error(exc)
                attempt += 1
                if progress is not None:
                    progress.note_failure(
                        shard.index,
                        _describe_error(failure),
                        category=failure.category,
                    )
                if attempt > self.retry.max_retries:
                    return self._quarantine(
                        shard, attempt, _describe_error(failure), progress
                    )
                if (
                    self.supervisor is not None
                    and not self.supervisor.consume_retry()
                ):
                    # The study-wide retry budget is spent: degrade now
                    # instead of burning the deadline on a sick campaign.
                    return self._quarantine(
                        shard,
                        attempt,
                        _describe_error(failure) + " (retry budget exhausted)",
                        progress,
                    )
                # Both quarantine exits above happen *before* any sleep:
                # a retry definitely remains past this point, and only
                # then is a backoff pause justified -- quarantine paths
                # must never sleep.
                backoff = self.retry.backoff_seconds(attempt)
                if backoff > 0:
                    time.sleep(backoff)
                continue
            if checkpoint is not None:
                checkpoint.put(shard.index, _pack_result(result))
            return _ShardOutcome(
                result=result,
                worker_spans=worker_packed,
                attempts=attempt + 1,
            )

    def _quarantine(
        self,
        shard: Shard,
        attempts: int,
        error: str,
        progress: Optional[CampaignProgress],
    ) -> _ShardOutcome:
        if progress is not None:
            progress.note_quarantine(
                QuarantinedShard(
                    index=shard.index,
                    region=shard.region,
                    probes=len(shard.targets),
                    error=error,
                )
            )
        return _ShardOutcome(result=None, attempts=attempts)

    def _wait_for_shard(
        self,
        handle: "AsyncResult[Tuple[Any, ...]]",
        shard: Shard,
    ) -> Tuple[Any, ...]:
        """Wait for a pooled first attempt, under supervision.

        Without a supervisor this is the classic bounded ``get``.  With
        one, the wait is chopped into short slices so cancellation and
        the deadline are honoured mid-wait, and a shard that stays silent
        past ``hung_shard_after_s`` raises :class:`HungShardError` --
        the supervision-level "this worker is lost" verdict, as opposed
        to the retry-level per-attempt ``shard_timeout``.
        """
        supervisor = self.supervisor
        if supervisor is None:
            return handle.get(timeout=self.retry.shard_timeout)
        hung_after = supervisor.hung_shard_after_s
        step = 0.05
        waited = 0.0
        while True:
            supervisor.poll()
            try:
                return handle.get(timeout=step)
            except multiprocessing.TimeoutError:
                waited += step
                if hung_after is not None and waited >= hung_after:
                    raise HungShardError(
                        f"shard {shard.index} unresponsive for {waited:.1f}s"
                    ) from None
                timeout = self.retry.shard_timeout
                if timeout is not None and waited >= timeout:
                    raise ShardTimeoutError("shard timeout") from None

    # ------------------------------------------------------------------

    @staticmethod
    def _merge(
        shards: Sequence[Shard],
        fetch: Callable[[Shard], _ShardOutcome],
        events: EventSink,
        stats: "CampaignStats",
        progress: Optional[CampaignProgress],
        tracer: TracerLike,
        supervisor: Optional[StudySupervisor] = None,
        governor: Optional["ProbeGovernor"] = None,
    ) -> None:
        """Consume shard results in submission order -- the serial order.

        Each shard gets a ``shard`` span covering the parent-side wait,
        retries, and merge for that shard; worker-side span rows (pool
        path) are adopted under it, so worker time and parent time stay
        separately attributed.  Shard boundaries are the executor's safe
        interrupt points: the supervisor is polled before each shard, so
        a cancelled study stops with every journal record intact.

        When a governor is attached its admit/defer decisions happen
        *here*, on the merge stream: merge order is the serial order at
        any worker count, so adaptation never makes the run depend on
        worker scheduling.
        """
        for shard in shards:
            if supervisor is not None:
                supervisor.poll()
            span = tracer.span(f"shard:{shard.index}", category="shard")
            outcome = fetch(shard)
            result = outcome.result
            if result is None:  # quarantined: degrade, don't die
                stats.lost_probes += len(shard.targets)
                stats.quarantined_shards += 1
                if governor is not None:
                    governor.note_quarantine(shard.region, shard.targets)
                span.set("probes", 0)
                span.set("lost", len(shard.targets))
                span.set("attempts", outcome.attempts)
                span.close()
                continue
            tracer.adopt_packed(outcome.worker_spans, span)
            deferred_here = 0
            for trace, left_cloud in result.items:
                if governor is not None and not governor.admit(trace):
                    # Open breaker: the trace content is suspect (rate
                    # limited), so re-pace the target into the recovery
                    # queue instead of folding a poisoned observation.
                    stats.lost_probes += 1
                    stats.deferred_probes += 1
                    deferred_here += 1
                    continue
                stats.record(trace, left_cloud)
                events.on_probe(trace)
            if deferred_here:
                span.set("deferred", deferred_here)
            span.set("probes", len(result.items))
            span.set("worker_seconds", result.seconds)
            if outcome.attempts > 1:
                span.set("attempts", outcome.attempts)
            if outcome.resumed:
                span.set("resumed", 1)
            span.close()
            if progress is not None:
                timing = ShardTiming(
                    index=result.index,
                    region=result.region,
                    probes=len(result.items),
                    seconds=result.seconds,
                )
                progress.note_shard(timing)
                events.on_shard_merged(progress, timing)


def _describe_error(exc: BaseException) -> str:
    if isinstance(exc, (ShardTimeoutError, multiprocessing.TimeoutError)):
        return "shard timeout"
    if isinstance(exc, ReproError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _pool_context() -> "BaseContext":
    """Prefer fork (cheap world sharing); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
