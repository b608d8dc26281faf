"""Fault injection and resilience: FaultPlan, retries, quarantine,
checkpoints -- and the determinism contract that ties them together.

The core guarantee under test: a campaign run with injected transport
faults (crashes, slow shards, timeouts) or a checkpoint kill/resume
produces the *same trace stream and stats* as a clean serial run, while
observation faults (probe loss, rate limiting) change trace content as a
pure function of the fault seed -- never of the execution schedule.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.measure.campaign import CampaignStats, CloudMembership, ProbeCampaign
from repro.measure.checkpoint import CampaignCheckpoint, CheckpointStore
from repro.measure.executor import RetryPolicy, ShardedExecutor, plan_shards
from repro.measure.faults import _WINDOW_SPREAD, FaultPlan, InjectedWorkerCrash
from repro.measure.metrics import CampaignProgress
from repro.measure.sink import CollectorSink
from repro.measure.traceroute import TracerouteEngine


def _trace_key(trace):
    return (
        trace.cloud,
        trace.region,
        trace.dst,
        trace.stop_reason,
        tuple((h.ttl, h.ip, h.rtt_ms) for h in trace.hops),
    )


def _fingerprint(traces):
    return [_trace_key(t) for t in traces]


def _run(world, targets, regions, workers=1, faults=None, retry=None,
         engine=None, shard_size=None, progress=None,
         checkpoint_store=None, label="campaign"):
    """Run one campaign, returning (trace fingerprints, stats)."""
    engine = engine or TracerouteEngine(world, faults=faults)
    executor = ShardedExecutor(
        world,
        engine,
        CloudMembership(world, "amazon"),
        workers=workers,
        shard_size=shard_size,
        faults=faults,
        retry=retry or RetryPolicy(backoff_base_s=0.0),
    )
    sink = CollectorSink()
    stats = CampaignStats()
    executor.run(
        targets,
        sink,
        stats,
        regions=regions,
        progress=progress,
        checkpoint_store=checkpoint_store,
        checkpoint_label=label,
    )
    return _fingerprint(sink.traces), stats


@pytest.fixture(scope="module")
def probe_space(tiny_world):
    """A small but multi-shard campaign: 2 regions x 12 targets."""
    campaign = ProbeCampaign(tiny_world)
    targets = list(campaign.round1_targets())[:12]
    regions = campaign.regions[:2]
    return targets, regions


# ----------------------------------------------------------------------
# FaultPlan: validation, parsing, and pure-function determinism.
# ----------------------------------------------------------------------


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.5},
            {"slow_rate": 2.0},
            {"rate_limit_rate": -1.0},
            {"crash_attempts": 0},
            {"slow_seconds": -0.5},
            {"rate_limit_window": 0},
            {"region_loss": {"use1": 1.5}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_same_fields_same_schedule(self):
        a = FaultPlan(seed=3, crash_rate=0.4, slow_rate=0.3, slow_seconds=0.1)
        b = FaultPlan(seed=3, crash_rate=0.4, slow_rate=0.3, slow_seconds=0.1)
        assert a == b
        for i in range(64):
            assert a.crash_failures(i) == b.crash_failures(i)
            assert a.slow_delay(i) == b.slow_delay(i)

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=0, crash_rate=0.5)
        b = FaultPlan(seed=1, crash_rate=0.5)
        assert [a.crash_failures(i) for i in range(64)] != [
            b.crash_failures(i) for i in range(64)
        ]

    def test_crash_rate_one_crashes_everything(self):
        plan = FaultPlan(crash_rate=1.0, crash_attempts=2)
        for i in range(16):
            assert plan.crash_failures(i) == 2
            assert plan.should_crash(i, attempt=0)
            assert plan.should_crash(i, attempt=1)
            assert not plan.should_crash(i, attempt=2)
        with pytest.raises(InjectedWorkerCrash):
            plan.raise_if_crashed(0, attempt=0)
        plan.raise_if_crashed(0, attempt=2)  # survives after the failures

    def test_poison_fails_forever(self):
        plan = FaultPlan(poison_shards=(5,))
        assert plan.crash_failures(5) == -1
        for attempt in (0, 1, 10, 1000):
            assert plan.should_crash(5, attempt)
        assert plan.crash_failures(4) == 0

    def test_hop_suppressed_is_pure(self):
        plan = FaultPlan(seed=9, region_loss={"use1": 0.5}, rate_limit_rate=0.3)
        twin = FaultPlan(seed=9, region_loss={"use1": 0.5}, rate_limit_rate=0.3)
        for dst in range(40):
            for ttl in range(1, 10):
                assert plan.hop_suppressed("amazon", "use1", dst, ttl) == \
                    twin.hop_suppressed("amazon", "use1", dst, ttl)

    def test_hop_suppressed_fingerprint_is_pinned(self):
        # Pins the observation-fault stream itself: any refactor of the
        # fault draws (keys, order of salt, window arithmetic) that moves
        # a single bit of this grid changes every rate-limited digest.
        plan = FaultPlan(
            seed=9,
            region_loss={"use1": 0.2},
            rate_limit_rate=0.3,
            rate_limit_window=3,
        )
        bits = "".join(
            "1" if plan.hop_suppressed(cloud, region, dst, ttl, salt) else "0"
            for cloud in ("amazon", "google")
            for region in ("use1", "euw1")
            for dst in range(0x0A000001, 0x0A000001 + 64)
            for salt in (0, 1, 2)
            for ttl in range(1, 16)
        )
        assert len(bits) == 11520
        assert bits.count("1") == 1722
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "1878882f8125d3ed33a98ff93f708d69995906d687e14e461f8000bfc2dae972"
        )

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 1000),
        loss=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        rate=st.sampled_from([0.0, 0.3, 1.0]),
        window=st.integers(1, 6),
        cloud=st.sampled_from(["amazon", "google"]),
        region=st.sampled_from(["use1", "euw1"]),
        dst=st.integers(0, 2**32 - 1),
        ttl=st.integers(1, 30),
        salt=st.integers(0, 3),
    )
    def test_hop_suppressed_is_window_or_loss(
        self, seed, loss, rate, window, cloud, region, dst, ttl, salt
    ):
        plan = FaultPlan(
            seed=seed,
            region_loss={"use1": loss},
            rate_limit_rate=rate,
            rate_limit_window=window,
        )
        ttls = plan.rate_limit_ttls(cloud, region, dst, salt)
        assert plan.hop_suppressed(cloud, region, dst, ttl, salt) == (
            ttl in ttls or plan.hop_lost(cloud, region, dst, ttl, salt)
        )
        if ttls:
            assert len(ttls) == window
            assert 2 <= ttls.start and ttls.stop <= 2 + _WINDOW_SPREAD + window

    def test_region_loss_wildcard(self):
        plan = FaultPlan(seed=2, region_loss={"*": 1.0})
        assert plan.hop_suppressed("amazon", "anywhere", 42, 3)
        scoped = FaultPlan(seed=2, region_loss={"use1": 1.0})
        assert scoped.hop_suppressed("amazon", "use1", 42, 3)
        assert not scoped.hop_suppressed("amazon", "euw1", 42, 3)

    def test_affects_flags_and_signature(self):
        transport = FaultPlan(crash_rate=0.5, slow_rate=0.2, slow_seconds=1.0,
                              poison_shards=(1,))
        assert transport.affects_execution and not transport.affects_probes
        assert transport.probe_signature() == "clean"
        observation = FaultPlan(region_loss={"use1": 0.1})
        assert observation.affects_probes and not observation.affects_execution
        assert observation.probe_signature() != "clean"
        # Transport knobs never leak into the observation signature.
        assert observation.probe_signature() == \
            observation.replace(crash_rate=0.9).probe_signature()
        # ... but observation knobs (and the seed) do change it.
        assert observation.probe_signature() != \
            observation.replace(seed=1).probe_signature()

    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash=0.25,crash-attempts=2,slow=0.1,slow-seconds=0.5,"
            "loss=use1:0.05;euw1:0.1,rate-limit=0.2,window=4,"
            "poison=3;7,seed=1"
        )
        assert plan == FaultPlan(
            seed=1,
            crash_rate=0.25,
            crash_attempts=2,
            slow_rate=0.1,
            slow_seconds=0.5,
            region_loss={"use1": 0.05, "euw1": 0.1},
            rate_limit_rate=0.2,
            rate_limit_window=4,
            poison_shards=(3, 7),
        )

    def test_parse_bare_loss_is_wildcard(self):
        assert FaultPlan.parse("loss=0.2").region_loss == {"*": 0.2}

    def test_parse_empty_and_errors(self):
        assert FaultPlan.parse("") == FaultPlan()
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")

    def test_describe_mentions_active_faults(self):
        text = FaultPlan(crash_rate=0.25, region_loss={"use1": 0.1}).describe()
        assert "crash=0.25" in text and "use1:0.1" in text

    def test_parse_inline_rate_limit_window(self):
        # `0.2w5` is the describe() form: rate and window in one token.
        # It used to raise (float("0.2w5")); parsing it while dropping
        # the suffix would silently run window=3 -- both are wrong.
        plan = FaultPlan.parse("rate-limit=0.2w5")
        assert plan.rate_limit_rate == 0.2
        assert plan.rate_limit_window == 5

    def test_spec_plan_spec_round_trip_every_field(self):
        # One plan with every field off its default.
        plan = FaultPlan(
            seed=9,
            crash_rate=0.25,
            crash_attempts=2,
            slow_rate=0.1,
            slow_seconds=0.5,
            poison_shards=(3, 7),
            region_loss={"use1": 0.05, "*": 0.01},
            rate_limit_rate=0.2,
            rate_limit_window=5,
        )
        spec = plan.to_spec()
        reparsed = FaultPlan.parse(spec)
        assert reparsed == plan
        # spec -> plan -> spec is a fixed point (canonical form).
        assert reparsed.to_spec() == spec
        # The human-oriented describe() form must parse too: window
        # rides inline on the rate-limit token there.
        rate_part = next(
            part
            for part in plan.describe().strip("FaultPlan()").split(", ")
            if part.startswith("rate-limit=")
        )
        assert rate_part == "rate-limit=0.2w5"
        via_describe = FaultPlan.parse(rate_part)
        assert via_describe.rate_limit_rate == plan.rate_limit_rate
        assert via_describe.rate_limit_window == plan.rate_limit_window


# ----------------------------------------------------------------------
# Observation faults on the engine: deterministic, seed-keyed content.
# ----------------------------------------------------------------------


class TestEngineObservationFaults:
    def test_transport_only_plan_leaves_traces_untouched(self, tiny_world, probe_space):
        targets, regions = probe_space
        clean, _ = _run(tiny_world, targets, regions)
        crashy_engine = TracerouteEngine(
            tiny_world, faults=FaultPlan(crash_rate=0.9, slow_rate=0.5,
                                         slow_seconds=0.1)
        )
        assert crashy_engine._probe_faults is None
        got = [_trace_key(crashy_engine.trace("amazon", regions[0], t))
               for t in targets]
        want = [k for k in clean if k[1] == regions[0]]
        assert got == want

    def test_full_loss_silences_a_region(self, tiny_world, probe_space):
        targets, regions = probe_space
        lossy = TracerouteEngine(
            tiny_world, faults=FaultPlan(region_loss={regions[0]: 1.0})
        )
        for t in targets:
            assert not lossy.trace("amazon", regions[0], t).responsive_ips

    def test_observation_faults_deterministic_and_different(
        self, tiny_world, probe_space
    ):
        targets, regions = probe_space
        plan = FaultPlan(seed=4, region_loss={"*": 0.3}, rate_limit_rate=0.2)
        clean, _ = _run(tiny_world, targets, regions)
        once, _ = _run(tiny_world, targets, regions, faults=plan)
        again, _ = _run(tiny_world, targets, regions, faults=plan, workers=2)
        assert once == again  # pure function of the fault seed
        assert once != clean  # ... that actually changes what probes see


# ----------------------------------------------------------------------
# Executor resilience: retry, timeout, quarantine -- results unchanged.
# ----------------------------------------------------------------------


class TestExecutorResilience:
    def test_crash_retry_matches_clean_run(self, tiny_world, probe_space):
        targets, regions = probe_space
        clean_traces, clean_stats = _run(tiny_world, targets, regions)
        plan = FaultPlan(seed=5, crash_rate=0.5, crash_attempts=1)
        for workers in (1, 2):
            progress = CampaignProgress(label="crashy")
            traces, stats = _run(
                tiny_world, targets, regions, workers=workers,
                faults=plan, progress=progress,
            )
            assert traces == clean_traces
            assert stats == clean_stats
            assert progress.failures, "the crash plan never fired"
            assert not progress.quarantined
            assert progress.completeness == 1.0

    def test_timeout_retries_inline_and_matches_clean(
        self, tiny_world, probe_space
    ):
        targets, regions = probe_space
        targets = targets[:6]
        regions = regions[:1]
        clean_traces, clean_stats = _run(
            tiny_world, targets, regions, shard_size=3
        )
        progress = CampaignProgress(label="slow")
        traces, stats = _run(
            tiny_world, targets, regions, workers=2, shard_size=3,
            faults=FaultPlan(slow_rate=1.0, slow_seconds=0.25),
            retry=RetryPolicy(shard_timeout=0.05, max_retries=3,
                              backoff_base_s=0.0),
            progress=progress,
        )
        assert traces == clean_traces
        assert stats == clean_stats
        assert any(f.error == "shard timeout" for f in progress.failures)

    def test_poisoned_shard_is_quarantined(self, tiny_world, probe_space):
        targets, regions = probe_space
        shard_size = 6
        shards = plan_shards(regions, targets, shard_size)
        poisoned = shards[1]
        progress = CampaignProgress(label="poison")
        traces, stats = _run(
            tiny_world, targets, regions, shard_size=shard_size,
            faults=FaultPlan(poison_shards=(poisoned.index,)),
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
            progress=progress,
        )
        clean_traces, _ = _run(
            tiny_world, targets, regions, shard_size=shard_size
        )
        lost = {(poisoned.region, dst) for dst in poisoned.targets}
        assert traces == [k for k in clean_traces if (k[1], k[2]) not in lost]
        assert stats.lost_probes == len(poisoned.targets)
        assert stats.quarantined_shards == 1
        assert stats.completeness == pytest.approx(
            (len(clean_traces) - len(lost)) / len(clean_traces)
        )
        assert [q.index for q in progress.quarantined] == [poisoned.index]
        assert len(progress.failures) == 2  # first attempt + one retry
        assert progress.completeness < 1.0

    def test_no_backoff_sleep_on_quarantine_paths(
        self, tiny_world, probe_space, monkeypatch
    ):
        """Backoff may only run when a retry definitely remains.

        Both quarantine exits (retries exhausted, study retry budget
        spent) return before the backoff sleep; with a poisoned shard,
        max_retries=0, and a huge backoff base, any sleep at all is the
        regression.
        """
        import repro.measure.executor as executor_mod

        sleeps: list = []
        monkeypatch.setattr(
            executor_mod.time, "sleep", lambda s: sleeps.append(s)
        )
        targets, regions = probe_space
        shards = plan_shards(regions, targets, 6)
        _, stats = _run(
            tiny_world, targets, regions, shard_size=6,
            faults=FaultPlan(poison_shards=(shards[0].index,)),
            retry=RetryPolicy(max_retries=0, backoff_base_s=60.0),
        )
        assert stats.quarantined_shards == 1
        assert sleeps == []

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
        delays = [policy.backoff_seconds(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # doubles, then caps
        assert RetryPolicy(backoff_base_s=0.0).backoff_seconds(3) == 0.0


# ----------------------------------------------------------------------
# Checkpoint/resume: journal, fingerprint, and the kill/resume identity.
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_full_resume_replays_every_shard(
        self, tiny_world, probe_space, tmp_path
    ):
        targets, regions = probe_space
        first, first_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        progress = CampaignProgress(label="resumed")
        second, second_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
            progress=progress,
        )
        assert second == first
        assert second_stats == first_stats
        assert progress.resumed_shards == progress.shard_count

    def test_killed_midway_then_resumed_matches_clean(
        self, tiny_world, probe_space, tmp_path
    ):
        targets, regions = probe_space
        clean, clean_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        # Simulate the driver dying mid-campaign: keep the journal header
        # plus the first three completed shards, drop the rest.
        journal = tmp_path / "campaign.jsonl"
        lines = journal.read_text().splitlines()
        keep = 3
        journal.write_text("\n".join(lines[: 1 + keep]) + "\n")
        progress = CampaignProgress(label="resumed")
        resumed, resumed_stats = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
            progress=progress,
        )
        assert resumed == clean
        assert resumed_stats == clean_stats
        assert progress.resumed_shards == keep

    def test_torn_final_line_is_dropped(self, tiny_world, probe_space, tmp_path):
        targets, regions = probe_space
        _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=False),
        )
        journal = tmp_path / "campaign.jsonl"
        with open(journal, "a") as fh:
            fh.write('{"shard": 99, "packed": [99, "u')  # died mid-write
        progress = CampaignProgress(label="resumed")
        resumed, _ = _run(
            tiny_world, targets, regions,
            checkpoint_store=CheckpointStore(tmp_path, resume=True),
            progress=progress,
        )
        clean, _ = _run(tiny_world, targets, regions)
        assert resumed == clean
        assert progress.resumed_shards == progress.shard_count

    def test_fingerprint_mismatch_discards_journal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        old = CampaignCheckpoint(path, fingerprint="aaaa")
        old.put(0, [0, "use1", 0.1, []])
        reloaded = CampaignCheckpoint(path, fingerprint="bbbb")
        assert reloaded.stale
        assert reloaded.completed_shards == 0
        # The discarded journal is replaced by a fresh one for "bbbb".
        header = json.loads(path.read_text().splitlines()[0])
        assert header["fingerprint"] == "bbbb"

    def test_resume_false_starts_over(self, tmp_path):
        path = tmp_path / "c.jsonl"
        old = CampaignCheckpoint(path, fingerprint="aaaa")
        old.put(0, [0, "use1", 0.1, []])
        fresh = CampaignCheckpoint(path, fingerprint="aaaa", resume=False)
        assert fresh.completed_shards == 0

    def test_put_is_idempotent(self, tmp_path):
        cp = CampaignCheckpoint(tmp_path / "c.jsonl", fingerprint="f")
        cp.put(0, [0, "use1", 0.1, []])
        cp.put(0, [0, "use1", 9.9, []])  # ignored: shard already journalled
        assert cp.get(0)[2] == 0.1
        assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 2

    def test_fingerprint_ignores_transport_but_not_observation_faults(
        self, tiny_world, probe_space
    ):
        targets, regions = probe_space

        def fp(faults):
            engine = TracerouteEngine(tiny_world, faults=faults)
            executor = ShardedExecutor(
                tiny_world, engine, CloudMembership(tiny_world, "amazon"),
                faults=faults,
            )
            return executor._fingerprint(regions, targets, 4)

        clean = fp(None)
        assert fp(FaultPlan(crash_rate=0.5, poison_shards=(1,))) == clean
        assert fp(FaultPlan(region_loss={"*": 0.1})) != clean

    def test_store_sanitizes_labels(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cp = store.campaign("vpi:google", "f")
        assert cp.path.name == "vpi_google.jsonl"
