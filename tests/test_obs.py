"""Observability layer: span tracer, trace export, and `repro trace`.

Covers the three contracts of :mod:`repro.obs` -- digest neutrality,
near-zero disabled cost, and cross-process span adoption -- plus the
export round-trips and the offline analyzer.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.measure.campaign import ProbeCampaign
from repro.measure.sink import CollectorSink, EventSink
from repro.obs.analyze import (
    campaign_funnel,
    render_trace_summary,
    self_time_table,
)
from repro.obs.analyze import main as trace_main
from repro.obs.export import read_trace, to_chrome_trace, write_jsonl, write_trace
from repro.obs.span import (
    NULL_SPAN,
    NULL_TRACER,
    SpanRecord,
    Tracer,
    pack_spans,
)


class TestTracerBasics:
    def test_stack_parenting_and_close_order(self):
        tracer = Tracer()
        outer = tracer.span("outer", category="stage")
        inner = tracer.span("inner", category="shard")
        inner.close()
        outer.close()
        records = tracer.records
        assert [r.name for r in records] == ["inner", "outer"]
        assert records[0].parent_id == records[1].span_id
        assert records[1].parent_id is None
        assert records[0].start >= records[1].start
        assert records[0].end <= records[1].end + 1e-9

    def test_counters_sorted_and_accumulated(self):
        tracer = Tracer()
        span = tracer.span("s")
        span.set("zeta", 3)
        span.incr("alpha")
        span.incr("alpha", 2.5)
        span.close()
        (record,) = tracer.records
        assert record.counters == (("alpha", 3.5), ("zeta", 3.0))
        assert record.counter("alpha") == 3.5
        assert record.counter("missing", -1.0) == -1.0

    def test_context_manager_and_double_close(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            pass
        span.close()  # second close is a no-op
        assert len(tracer.records) == 1

    def test_out_of_order_close_tolerated(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("leaked")  # never closed explicitly
        outer.close()
        # The leaked span is popped with its parent; only `outer` records.
        assert [r.name for r in tracer.records] == ["outer"]
        follow = tracer.span("next")
        follow.close()
        assert tracer.records[-1].parent_id is None

    def test_listener_sees_every_close(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(seen.append)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r.name for r in seen] == ["b", "a"]

    def test_null_tracer_is_free_and_silent(self):
        span = NULL_TRACER.span("anything", category="shard")
        assert span is NULL_SPAN
        span.set("k", 1)
        span.incr("k")
        span.close()
        assert NULL_TRACER.records == ()
        assert NULL_TRACER.pack() == []
        assert NULL_TRACER.adopt_packed([("n", "c", 0, 0, -1, ())], span) == 0
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True


class TestPackAdopt:
    def _worker_trace(self):
        tracer = Tracer()
        root = tracer.span("worker:3", category="worker")
        with tracer.span("probe-batch:3", category="probe-batch") as batch:
            batch.set("probes", 64)
        with tracer.span("pack:3", category="pack"):
            pass
        root.set("probes", 64)
        root.close()
        return tracer

    def test_pack_encodes_parent_links_as_indices(self):
        tracer = self._worker_trace()
        packed = pack_spans(tracer.records)
        by_name = {row[0]: row for row in packed}
        root_index = [row[0] for row in packed].index("worker:3")
        assert by_name["worker:3"][4] == -1
        assert by_name["probe-batch:3"][4] == root_index
        assert by_name["pack:3"][4] == root_index
        # JSON-safe: the wire format survives the pool's pickling and the
        # same structure a JSON round-trip imposes on checkpoint rows.
        assert json.loads(json.dumps(packed))

    def test_adopt_rebases_under_parent(self):
        worker = self._worker_trace()
        packed = worker.pack()
        parent_tracer = Tracer()
        shard = parent_tracer.span("shard:3", category="shard")
        adopted = parent_tracer.adopt_packed(packed, shard)
        shard.close()
        assert adopted == len(packed)
        records = {r.name: r for r in parent_tracer.records}
        shard_rec = records["shard:3"]
        root_rec = records["worker:3"]
        # The worker root hangs off the shard span; inner spans keep
        # their worker-side parent even though they closed first.
        assert root_rec.parent_id == shard_rec.span_id
        assert records["probe-batch:3"].parent_id == root_rec.span_id
        assert records["pack:3"].parent_id == root_rec.span_id
        # Re-based onto the adopting tracer's timeline, anchored at the
        # shard span's start.
        assert root_rec.start >= shard_rec.start
        assert records["probe-batch:3"].counter("probes") == 64

    def test_adopt_empty_and_none(self):
        tracer = Tracer()
        span = tracer.span("shard:0", category="shard")
        assert tracer.adopt_packed(None, span) == 0
        assert tracer.adopt_packed([], span) == 0
        span.close()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_parenting_invariants_hold_for_any_open_close_sequence(self, ops):
        """Property: whatever the open/close interleaving, every record's
        parent is a span that was open when it opened, and adopting the
        packed stream preserves the exact parent structure."""
        tracer = Tracer()
        open_spans = []
        for do_open in ops:
            if do_open or not open_spans:
                open_spans.append(tracer.span(f"s{len(open_spans)}"))
            else:
                open_spans.pop().close()
        while open_spans:
            open_spans.pop().close()

        records = tracer.records
        ids = {r.span_id for r in records}
        for record in records:
            assert record.parent_id is None or record.parent_id in ids

        packed = pack_spans(records)
        host = Tracer()
        anchor_span = host.span("shard:0", category="shard")
        host.adopt_packed(packed, anchor_span)
        anchor_span.close()
        adopted = [r for r in host.records if r.category != "shard"]
        # Parent structure is isomorphic: map old ids to adopted ids by
        # stream position (adoption preserves row order).
        id_map = {
            old.span_id: new.span_id for old, new in zip(records, adopted)
        }
        for old, new in zip(records, adopted):
            expected = (
                id_map[old.parent_id]
                if old.parent_id is not None
                else anchor_span.span_id
            )
            assert new.parent_id == expected
            assert new.counters == old.counters
            assert new.duration == pytest.approx(old.duration)


class TestExportRoundTrip:
    def _records(self):
        tracer = Tracer()
        with tracer.span("study", category="study"):
            with tracer.span("campaign:round1", category="campaign") as c:
                c.set("probes", 120)
                c.set("expected", 128)
                c.set("lost", 8)
        return tracer.records

    def test_jsonl_round_trip_is_lossless(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.jsonl"
        write_trace(path, records, meta={"seed": 7, "workers": 4})
        meta, loaded = read_trace(path)
        assert meta == {"seed": 7, "workers": 4}
        assert tuple(loaded) == records

    def test_chrome_round_trip_preserves_structure(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.json"
        write_trace(path, records, meta={"seed": 7})
        meta, loaded = read_trace(path)
        assert meta == {"seed": 7}
        assert [(r.span_id, r.parent_id, r.name, r.category) for r in loaded] == [
            (r.span_id, r.parent_id, r.name, r.category) for r in records
        ]
        for got, want in zip(loaded, records):
            assert got.start == pytest.approx(want.start, abs=1e-6)
            assert got.duration == pytest.approx(want.duration, abs=1e-6)
            assert got.counters == want.counters

    def test_chrome_document_shape(self):
        doc = to_chrome_trace(self._records(), meta={"seed": 7})
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        campaign = next(e for e in events if e["cat"] == "campaign")
        assert campaign["args"]["probes"] == 120
        assert "spanId" in campaign["args"]
        names = [
            e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
        ]
        assert "study" in names and "campaign" in names

    def test_torn_final_jsonl_line_is_dropped(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, records)
        with open(path, "a") as fh:
            fh.write('{"id": 99, "parent": null, "na')  # torn write
        _, loaded = read_trace(path)
        assert len(loaded) == len(records)

    def test_read_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ValueError):
            read_trace(path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_trace(empty)


class TestCampaignTracing:
    def _traced_run(self, world, workers):
        tracer = Tracer()
        campaign = ProbeCampaign(world, workers=workers)
        sink = CollectorSink()
        stats = campaign.run(
            [p.network + 1 for p in world.sweep_slash24s[:20]],
            sink,
            regions=world.region_names("amazon")[:2],
            checkpoint_label="round1",
            tracer=tracer,
            worker_spans=True,
        )
        return tracer.records, stats, sink

    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_hierarchy_covers_the_campaign(self, tiny_world, workers):
        records, stats, sink = self._traced_run(tiny_world, workers)
        by_cat = {}
        for r in records:
            by_cat.setdefault(r.category, []).append(r)
        (campaign_rec,) = by_cat["campaign"]
        assert campaign_rec.counter("probes") == stats.probes
        assert campaign_rec.counter("expected") == stats.probes
        assert campaign_rec.counter("workers") == workers
        shard_ids = {r.span_id: r for r in by_cat["shard"]}
        # Every shard span is a child of the campaign span.
        assert all(
            r.parent_id == campaign_rec.span_id for r in shard_ids.values()
        )
        assert sum(int(r.counter("probes")) for r in shard_ids.values()) == stats.probes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_worker_span_nests_under_exactly_one_shard(
        self, tiny_world, workers
    ):
        records, _, _ = self._traced_run(tiny_world, workers)
        by_id = {r.span_id: r for r in records}
        shards = [r for r in records if r.category == "shard"]
        worker_roots = [r for r in records if r.category == "worker"]
        batches = [r for r in records if r.category == "probe-batch"]
        assert worker_roots if workers > 1 else True
        assert batches, "worker_spans=True must record probe batches"
        for root in worker_roots:
            parent = by_id[root.parent_id]
            assert parent.category == "shard"
            # worker:N sits under shard:N -- attribution never crosses.
            assert root.name.split(":")[1] == parent.name.split(":")[1]
        for batch in batches:
            parent = by_id[batch.parent_id]
            # Pooled shards nest batches under the adopted worker root;
            # serial shards nest them directly under the shard span.
            assert parent.category in ("worker", "shard")
            assert batch.name.split(":")[1] == parent.name.split(":")[1]
        assert len(shards) == len({s.name for s in shards})

    def test_tracing_does_not_change_the_trace_stream(self, tiny_world):
        _, stats_traced, sink_traced = self._traced_run(tiny_world, 2)
        campaign = ProbeCampaign(tiny_world, workers=2)
        sink_plain = CollectorSink()
        stats_plain = campaign.run(
            [p.network + 1 for p in tiny_world.sweep_slash24s[:20]],
            sink_plain,
            regions=tiny_world.region_names("amazon")[:2],
            checkpoint_label="round1",
        )
        assert stats_traced == stats_plain
        assert [repr(t) for t in sink_traced.traces] == [
            repr(t) for t in sink_plain.traces
        ]


class TestTraceAnalyzer:
    def _campaign_trace(self, tiny_world, tmp_path):
        tracer = Tracer()
        campaign = ProbeCampaign(tiny_world, workers=2)
        campaign.run(
            [p.network + 1 for p in tiny_world.sweep_slash24s[:20]],
            EventSink(),
            regions=tiny_world.region_names("amazon")[:2],
            checkpoint_label="round1",
            tracer=tracer,
            worker_spans=True,
        )
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.records, meta={"seed": 11})
        return path, tracer.records

    def test_self_time_never_exceeds_total(self, tiny_world, tmp_path):
        _, records = self._campaign_trace(tiny_world, tmp_path)
        for row in self_time_table(records, top_n=50):
            assert 0.0 <= row.self_seconds <= row.total_seconds + 1e-9
            assert row.count >= 1

    def test_funnel_recovers_progress_counters(self, tiny_world, tmp_path):
        _, records = self._campaign_trace(tiny_world, tmp_path)
        (row,) = campaign_funnel(records)
        assert row.label == "round1"
        assert row.probes == row.expected == 40
        assert row.lost == 0
        assert row.yield_fraction == 1.0

    def test_render_and_cli_subcommand(self, tiny_world, tmp_path, capsys):
        path, _ = self._campaign_trace(tiny_world, tmp_path)
        text = render_trace_summary(str(path))
        assert "span families by self time" in text
        assert "probe-yield funnel" in text
        assert "seed=11" in text

        from repro.cli import main as cli_main

        assert cli_main(["trace", str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "round1" in out

    def test_cli_rejects_bad_file(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            cli_main(["trace", str(bad)])
