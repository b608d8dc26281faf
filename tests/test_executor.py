"""Sharded executor: partitioning, determinism, progress, stride edges."""

import pytest

from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.measure.campaign import ProbeCampaign
from repro.measure.executor import (
    default_shard_size,
    partition_targets,
    plan_shards,
)
from repro.measure.metrics import CampaignProgress
from repro.measure.sink import CollectorSink, EventSink
from repro.measure.traceroute import TracerouteEngine


class TestPartitioning:
    def test_partition_preserves_order_and_contiguity(self):
        targets = list(range(100, 110))
        shards = partition_targets(targets, 3)
        assert [len(s) for s in shards] == [3, 3, 3, 1]
        assert [t for s in shards for t in s] == targets

    def test_partition_empty_targets(self):
        assert partition_targets([], 5) == []

    def test_partition_fewer_targets_than_shard_size(self):
        shards = partition_targets([1, 2], 100)
        assert shards == [(1, 2)]

    def test_partition_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            partition_targets([1], 0)

    def test_plan_shards_region_major(self):
        shards = plan_shards(["r-a", "r-b"], [1, 2, 3], shard_size=2)
        assert [(s.region, s.targets) for s in shards] == [
            ("r-a", (1, 2)),
            ("r-a", (3,)),
            ("r-b", (1, 2)),
            ("r-b", (3,)),
        ]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_plan_shards_empty_targets_yields_no_work(self):
        assert plan_shards(["r-a", "r-b"], [], shard_size=4) == []

    def test_default_shard_size_fewer_targets_than_workers(self):
        # 3 targets, 8 workers: shards shrink to one target each rather
        # than starving; nothing is dropped.
        size = default_shard_size(3, workers=8)
        assert size == 1
        shards = plan_shards(["r-a"], [1, 2, 3], size)
        assert [s.targets for s in shards] == [(1,), (2,), (3,)]

    def test_default_shard_size_zero_targets(self):
        assert default_shard_size(0, workers=4) == 1


class TestExpansionStrideEdges:
    CBI = 0x0A000001  # 10.0.0.1

    def test_stride_one_is_exhaustive(self):
        targets = ProbeCampaign.expansion_targets([self.CBI], stride=1)
        assert len(targets) == 253  # 254 hosts minus the CBI itself
        assert self.CBI not in targets

    def test_stride_four_subsamples(self):
        targets = ProbeCampaign.expansion_targets([self.CBI], stride=4)
        expected = [0x0A000000 + off for off in range(1, 255, 4) if off != 1]
        assert targets == expected

    def test_stride_254_probes_only_dot1(self):
        # range(1, 255, 254) == [1]; the .1 is the CBI here, so nothing.
        assert ProbeCampaign.expansion_targets([self.CBI], stride=254) == []
        other = 0x0A000005
        assert ProbeCampaign.expansion_targets([other], stride=254) == [
            0x0A000001
        ]

    def test_stride_zero_rejected(self):
        with pytest.raises(ValueError):
            ProbeCampaign.expansion_targets([self.CBI], stride=0)

    def test_targets_iterable_consumed_once(self, tiny_world):
        campaign = ProbeCampaign(tiny_world)
        region = tiny_world.region_names("amazon")[:1]
        targets = iter([p.network + 1 for p in tiny_world.sweep_slash24s[:5]])
        stats = campaign.run(targets, EventSink(), regions=region)
        assert stats.probes == 5


class TestExecutorDeterminism:
    def _run(self, world, workers):
        engine = TracerouteEngine(world, seed=1)
        campaign = ProbeCampaign(world, engine, workers=workers)
        sink = CollectorSink()
        stats = campaign.run(
            [p.network + 1 for p in world.sweep_slash24s[:30]],
            sink,
            regions=world.region_names("amazon")[:3],
        )
        return sink.traces, stats

    def test_worker_counts_agree(self, tiny_world):
        traces1, stats1 = self._run(tiny_world, workers=1)
        traces2, stats2 = self._run(tiny_world, workers=2)
        traces4, stats4 = self._run(tiny_world, workers=4)
        assert [repr(t) for t in traces1] == [repr(t) for t in traces2]
        assert [repr(t) for t in traces1] == [repr(t) for t in traces4]
        assert stats1 == stats2 == stats4

    def test_probe_independent_of_order(self, tiny_world):
        """A trace is a pure function of (seed, cloud, region, dst)."""
        engine = TracerouteEngine(tiny_world, seed=1)
        region = tiny_world.region_names("amazon")[0]
        dsts = [p.network + 1 for p in tiny_world.sweep_slash24s[:10]]
        forward = [repr(engine.trace("amazon", region, d)) for d in dsts]
        backward = [
            repr(engine.trace("amazon", region, d)) for d in reversed(dsts)
        ]
        assert forward == list(reversed(backward))

    def test_empty_target_list(self, tiny_world):
        campaign = ProbeCampaign(tiny_world, workers=4)
        sink = CollectorSink()
        stats = campaign.run([], sink)
        assert stats.probes == 0
        assert sink.traces == []


class TestProgress:
    def test_progress_counts_and_timings(self, tiny_world):
        campaign = ProbeCampaign(tiny_world, workers=2)
        progress = CampaignProgress(label="test")
        regions = tiny_world.region_names("amazon")[:2]
        targets = [p.network + 1 for p in tiny_world.sweep_slash24s[:10]]
        campaign.run(targets, EventSink(), regions=regions, progress=progress)
        assert progress.probes == len(targets) * len(regions)
        assert progress.expected_probes == progress.probes
        assert progress.done_fraction == pytest.approx(1.0)
        assert sum(progress.by_region.values()) == progress.probes
        assert set(progress.by_region) == set(regions)
        assert sum(t.probes for t in progress.shard_timings) == progress.probes
        assert progress.probes_per_second > 0
        assert progress.max_shard_seconds >= progress.mean_shard_seconds > 0
        assert "test:" in progress.summary()

    def test_callback_fires_per_shard(self, tiny_world):
        seen = []

        class ShardSpy(EventSink):
            def on_shard_merged(self, progress, timing):
                seen.append(timing.index)

        progress = CampaignProgress(label="cb")
        campaign = ProbeCampaign(tiny_world)
        campaign.run(
            [p.network + 1 for p in tiny_world.sweep_slash24s[:4]],
            ShardSpy(),
            regions=tiny_world.region_names("amazon")[:1],
            progress=progress,
        )
        assert seen == [t.index for t in progress.shard_timings]
        assert seen == sorted(seen)


class TestStudyDeterminism:
    """§ acceptance: identical StudyResult for any worker count."""

    @pytest.fixture(scope="class")
    def results(self, small_world):
        out = {}
        for workers in (1, 2, 4):
            config = StudyConfig(
                seed=3,
                expansion_stride=8,
                run_vpi=False,
                run_crossval=False,
                workers=workers,
            )
            out[workers] = AmazonPeeringStudy(small_world, config).run()
        return out

    def test_census_tables_byte_identical(self, results):
        baseline = repr(results[1].table1)
        assert repr(results[2].table1) == baseline
        assert repr(results[4].table1) == baseline

    def test_campaign_stats_identical(self, results):
        for workers in (2, 4):
            assert results[workers].round1_stats == results[1].round1_stats
            assert results[workers].round2_stats == results[1].round2_stats

    def test_inference_outputs_identical(self, results):
        base = results[1]
        for workers in (2, 4):
            r = results[workers]
            assert r.abis == base.abis
            assert r.cbis == base.cbis
            assert r.final_segments == base.final_segments
            assert r.alias_sets == base.alias_sets
            assert sorted(r.segment_rtt_diff.items()) == sorted(
                base.segment_rtt_diff.items()
            )
            assert r.pinning.pinned == base.pinning.pinned
            assert r.peer_ases_round1 == base.peer_ases_round1
            assert r.peer_ases_round2 == base.peer_ases_round2

    def test_result_records_config_and_metrics(self, results):
        r = results[4]
        assert r.config.workers == 4
        assert r.config.run_vpi is False
        assert "round1" in r.metrics.stages
        assert r.metrics.campaigns["round1"].workers == 4
        # The legacy timers dict snapshots the metrics stage table
        # (now folded from the span stream, so no longer the same object).
        assert r.runtime_seconds == r.metrics.stages
