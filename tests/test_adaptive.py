"""The adaptive resilience control plane, end to end (DESIGN.md 6.6).

Pins the tentpole contracts:

* adaptation **off** is the default and leaves no trace on the result;
* adaptation **on** under a clean plan is digest-identical to golden --
  the control plane is inert when nothing is sick;
* under a rate-limit-heavy plan, breakers engage, the recovery round
  heals, and completed-probe counts are **strictly higher** than the
  non-adaptive run under the same plan;
* a fixed ``(seed, fault plan)`` yields **one** adaptive digest across
  worker counts {1, 2, 4};
* quarantine losses heal through the breaker recovery path;
* stage-checkpoint resume restores governor state and replays the
  recovery stage digest-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import AmazonPeeringStudy, FaultPlan, StudyConfig, render_report
from repro.measure.adapt import CAUSE_BREAKER, ProbeGovernor
from repro.measure.health import BreakerState, HealthLedger, classify
from repro.measure.traceroute import StopReason, TraceHop, Traceroute

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_study.json"

#: The canonical sick plan: heavy ICMP rate-limiting with a window
#: short enough (3 < the scamper gap limit of 5) to leave *interior*
#: silenced runs that fingerprint as rate-limiting rather than killing
#: the trace outright.
RL_PLAN = FaultPlan(seed=7, rate_limit_rate=0.3, rate_limit_window=3)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _config(golden, **overrides):
    base = golden["config"]
    return StudyConfig(
        seed=base["seed"],
        expansion_stride=base["expansion_stride"],
        run_vpi=base["run_vpi"],
        run_crossval=base["run_crossval"],
        **overrides,
    )


def _adaptive_config(golden, **overrides):
    return _config(
        golden,
        adaptive=True,
        breaker_threshold=2,
        recovery_rounds=2,
        **overrides,
    )


@pytest.fixture(scope="module")
def nonadaptive_rl(golden, tiny_world):
    return AmazonPeeringStudy(
        tiny_world, _config(golden, fault_plan=RL_PLAN)
    ).run()


@pytest.fixture(scope="module")
def adaptive_rl(golden, tiny_world):
    return AmazonPeeringStudy(
        tiny_world, _adaptive_config(golden, fault_plan=RL_PLAN)
    ).run()


# --- classify: the failure fingerprint ---------------------------------


def _trace(ips, completed):
    hops = tuple(
        TraceHop(ttl=i + 1, ip=ip, rtt_ms=1.0 if ip else None)
        for i, ip in enumerate(ips)
    )
    reason = StopReason.COMPLETED if completed else StopReason.GAP_LIMIT
    return Traceroute("amazon", "use1", 99, hops, reason)


def test_classify_counts_only_interior_silence():
    # 3-long silent run *resumed* by a responsive hop: fingerprinted.
    sick = _trace([1, None, None, None, 2], completed=True)
    assert classify(sick).silenced_run == 3
    assert not classify(sick).healthy

    # The same silence as an unresumed tail: gap-limited, not sick.
    tail = _trace([1, 2, None, None, None], completed=False)
    assert classify(tail).silenced_run == 0
    assert classify(tail).healthy

    # Short interior gaps are ordinary loss.
    noisy = _trace([1, None, 2, None, 3], completed=True)
    assert classify(noisy).silenced_run == 1
    assert classify(noisy).healthy


def test_healthy_ignores_completion():
    """A clean-but-incomplete trace must never look like region sickness."""
    silent_dst = _trace([1, 2, 3], completed=False)
    assert classify(silent_dst).healthy


# --- governor unit behavior --------------------------------------------


def test_governor_defers_behind_an_open_breaker():
    governor = ProbeGovernor(HealthLedger(threshold=2))
    governor.begin_campaign("round1")
    sick = _trace([1, None, None, None, 2], completed=True)
    assert governor.admit(sick)  # streak 1
    assert governor.admit(sick)  # streak 2 -> opens
    breaker = governor.ledger.breaker("amazon", "use1")
    assert breaker.state == BreakerState.OPEN
    assert not governor.admit(sick)  # deferred, not folded
    assert governor.deferred == 1
    assert governor.pending[0].cause == CAUSE_BREAKER
    assert governor.pending[0].label == "round1"
    assert breaker.outcomes == 2  # the deferral never folded


def test_governor_state_dict_round_trip():
    governor = ProbeGovernor(HealthLedger(threshold=2))
    governor.begin_campaign("round1")
    sick = _trace([1, None, None, None, 2], completed=True)
    for _ in range(3):
        governor.admit(sick)
    governor.note_quarantine("usw2", (7, 8, 9))
    state = governor.state_dict()

    fresh = ProbeGovernor(HealthLedger(threshold=2))
    fresh.load_state(state)
    assert fresh.state_dict() == state
    assert fresh.ledger.snapshot() == governor.ledger.snapshot()
    assert fresh.pending == governor.pending


# --- the end-to-end contracts ------------------------------------------


def test_rate_limited_digests_are_pinned(nonadaptive_rl, adaptive_rl):
    # The fault draws feed these digests directly, so a refactor of the
    # observation-fault path that moves one suppressed hop shows here.
    assert nonadaptive_rl.digest() == (
        "9387aa125d062ccbe077af7530130024add5c1e509908caf8f304a1cf52a6827"
    )
    assert adaptive_rl.digest() == (
        "7e66def4bb1ba40ca411a54794af5bcf1818ebaa48443684526da969b021228a"
    )


def test_adaptation_off_is_the_inert_default(nonadaptive_rl):
    assert nonadaptive_rl.resilience is None
    assert nonadaptive_rl.round1_stats.deferred_probes == 0
    assert nonadaptive_rl.round1_stats.recovered_probes == 0


def test_adaptive_clean_run_matches_golden(golden, tiny_world):
    """With nothing sick, the control plane must not move the digest."""
    result = AmazonPeeringStudy(tiny_world, _adaptive_config(golden)).run()
    assert result.digest() == golden["digest"]
    assert result.resilience is not None
    assert result.resilience.deferred == 0
    assert result.resilience.breaker_events == ()


def test_breakers_engage_under_rate_limiting(adaptive_rl):
    report = adaptive_rl.resilience
    assert report is not None
    opens = sum(
        1 for e in report.breaker_events if e.to_state == BreakerState.OPEN
    )
    assert opens > 0, "the rate-limit plan never opened a breaker"
    assert report.deferred > 0
    assert report.rounds_run == 2
    assert report.trial_probes > 0
    # Re-pacing never loses probes: every deferral was recovered.
    assert report.recovered == report.deferred
    assert report.still_lost == 0
    assert adaptive_rl.round1_stats.lost_probes == 0
    assert adaptive_rl.round2_stats.lost_probes == 0


def test_adaptive_completeness_strictly_beats_nonadaptive(
    nonadaptive_rl, adaptive_rl
):
    base = (
        nonadaptive_rl.round1_stats.completed
        + nonadaptive_rl.round2_stats.completed
    )
    adaptive = (
        adaptive_rl.round1_stats.completed
        + adaptive_rl.round2_stats.completed
    )
    assert adaptive > base
    # ...and probe accounting balances: same expected totals per round.
    for attr in ("round1_stats", "round2_stats"):
        b, a = getattr(nonadaptive_rl, attr), getattr(adaptive_rl, attr)
        assert a.probes + a.lost_probes == b.probes + b.lost_probes


@pytest.mark.parametrize("workers", [2, 4])
def test_adaptive_digest_stable_across_workers(
    golden, tiny_world, adaptive_rl, workers
):
    result = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(golden, fault_plan=RL_PLAN, workers=workers),
    ).run()
    assert result.digest() == adaptive_rl.digest()


def test_quarantine_losses_heal_through_recovery(golden, tiny_world):
    result = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(
            golden,
            fault_plan=FaultPlan(poison_shards=(0,)),
            max_retries=0,
            retry_backoff_s=0.0,
        ),
    ).run()
    report = result.resilience
    assert report is not None
    assert report.quarantine_lost > 0
    assert report.still_lost == 0
    assert result.round1_stats.lost_probes == 0
    assert result.round1_stats.completeness == 1.0
    assert result.round2_stats.lost_probes == 0


def test_adaptive_resume_replays_recovery_stage(golden, tiny_world, tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    first = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(
            golden, fault_plan=RL_PLAN, checkpoint_dir=checkpoint_dir
        ),
    ).run()
    resumed = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(
            golden,
            fault_plan=RL_PLAN,
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ),
    ).run()
    assert resumed.digest() == first.digest()
    assert resumed.resilience is not None
    assert resumed.resilience.recovered == first.resilience.recovered
    assert resumed.resilience.breakers == first.resilience.breakers


def test_adaptive_study_span_counters(golden, tiny_world):
    result = AmazonPeeringStudy(
        tiny_world,
        _adaptive_config(golden, fault_plan=RL_PLAN, trace=True),
    ).run()
    study = next(
        r for r in result.metrics.tracer.records if r.name == "study"
    )
    counters = dict(study.counters)
    assert counters["breaker_opens"] > 0
    assert counters["governor_deferred"] > 0
    assert counters["recovered_probes"] == counters["governor_deferred"]
    assert counters["recovery_still_lost"] == 0
    recovery = [
        r for r in result.metrics.tracer.records if r.category == "recovery"
    ]
    assert [r.name for r in recovery] == ["recovery:1", "recovery:2"]


def test_report_renders_resilience_block(adaptive_rl, nonadaptive_rl):
    text = render_report(adaptive_rl)
    assert "adaptive control plane:" in text
    assert "round1 yield: completed" in text
    assert "breaker amazon/" in text
    base_text = render_report(nonadaptive_rl)
    assert "adaptive control plane:" not in base_text
