"""The one consumer of campaign event streams.

:class:`EventSink` is the single surface every campaign, the executor,
and the study driver deliver to, with three events:

* ``on_probe(trace)`` -- one merged traceroute, in serial order;
* ``on_shard_merged(progress, timing)`` -- a shard's results just
  entered the merged stream (``progress`` is the campaign's live
  :class:`~repro.measure.metrics.CampaignProgress`);
* ``on_span_closed(record)`` -- a tracer span closed (study, stage,
  campaign, shard, probe-batch, ...).

All handlers default to no-ops, so a sink subclasses only what it
needs; :class:`FanoutEvents` composes sinks.  The border observatory,
the ``--progress`` printer, and :class:`CollectorSink` are all plain
subclasses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.measure.traceroute import Traceroute

if TYPE_CHECKING:
    from repro.measure.metrics import CampaignProgress, ShardTiming
    from repro.obs.span import SpanRecord


class EventSink:
    """The unified campaign event consumer; every handler is a no-op.

    Subclass and override only the events you care about.  ``close()``
    fires once per campaign, after that campaign's last event.
    """

    def on_probe(self, trace: Traceroute) -> None:
        pass

    def on_shard_merged(
        self, progress: "CampaignProgress", timing: "ShardTiming"
    ) -> None:
        pass

    def on_span_closed(self, record: "SpanRecord") -> None:
        pass

    def close(self) -> None:
        pass


class FanoutEvents(EventSink):
    """Deliver every event to several sinks, in construction order.

    ``None`` entries are dropped, so optional sinks compose without
    conditionals.
    """

    def __init__(self, *sinks: Optional[EventSink]) -> None:
        self.sinks: List[EventSink] = [s for s in sinks if s is not None]

    def on_probe(self, trace: Traceroute) -> None:
        for sink in self.sinks:
            sink.on_probe(trace)

    def on_shard_merged(
        self, progress: "CampaignProgress", timing: "ShardTiming"
    ) -> None:
        for sink in self.sinks:
            sink.on_shard_merged(progress, timing)

    def on_span_closed(self, record: "SpanRecord") -> None:
        for sink in self.sinks:
            sink.on_span_closed(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class CollectorSink(EventSink):
    """Buffer every trace in order -- handy in tests and notebooks."""

    def __init__(self) -> None:
        self.traces: List[Traceroute] = []

    def on_probe(self, trace: Traceroute) -> None:
        self.traces.append(trace)
