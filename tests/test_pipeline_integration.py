"""End-to-end integration tests over the full study fixture."""

import pytest

from repro.core.config import StudyConfig
from repro.core.evaluation import evaluate_study
from repro.core.pipeline import AmazonPeeringStudy
from repro.world.build import WorldConfig, build_world


class TestCampaignOutcomes:
    def test_round_stats_present(self, study_result):
        assert study_result.round1_stats is not None
        assert study_result.round2_stats is not None
        assert study_result.round1_stats.probes > 0

    def test_most_probes_leave_amazon(self, study_result):
        """§3: ~77% of round-1 traceroutes exit Amazon's network."""
        frac = study_result.round1_stats.left_cloud_fraction
        assert 0.55 < frac < 0.95

    def test_completion_is_low(self, study_result):
        """§3: completed traceroutes are rare (paper: 7.7%)."""
        assert study_result.round1_stats.completed_fraction < 0.25

    def test_table1_has_four_rows(self, study_result):
        labels = [row.label for row in study_result.table1]
        assert labels == ["ABI", "CBI", "eABI", "eCBI"]

    def test_expansion_grows_cbis(self, study_result):
        by_label = {row.label: row.total for row in study_result.table1}
        assert by_label["eCBI"] >= by_label["CBI"]

    def test_expansion_collapses_whois_share(self, study_result):
        """Table 1: WHOIS% drops sharply once late announcements land."""
        by_label = {row.label: row for row in study_result.table1}
        assert by_label["eCBI"].whois_fraction < by_label["CBI"].whois_fraction

    def test_abis_mostly_whois(self, study_result):
        """Table 1: ~62% of ABIs live in unannounced Amazon space."""
        by_label = {row.label: row for row in study_result.table1}
        assert by_label["eABI"].whois_fraction > 0.35

    def test_cbis_include_ixp_addresses(self, study_result):
        by_label = {row.label: row for row in study_result.table1}
        assert 0.05 < by_label["eCBI"].ixp_fraction < 0.40


class TestVerificationOutcomes:
    def test_majority_of_abis_confirmed(self, study_result):
        h = study_result.heuristics
        total = len(h.confirmed_abis) + len(h.unconfirmed_abis)
        assert len(h.confirmed_abis) / total > 0.6

    def test_final_segments_nonempty(self, study_result):
        assert len(study_result.final_segments) > 100

    def test_final_interface_sets_match_segments(self, study_result):
        assert study_result.abis == {a for a, _c in study_result.final_segments}
        assert study_result.cbis == {c for _a, c in study_result.final_segments}

    def test_alias_sets_disjoint(self, study_result):
        seen = set()
        for group in study_result.alias_sets:
            assert not (group & seen)
            seen |= group


class TestPinningOutcomes:
    def test_half_or_more_pinned(self, study_result):
        assert study_result.metro_pin_coverage > 0.4

    def test_regional_fallback_extends_coverage(self, study_result):
        assert study_result.total_pin_coverage >= study_result.metro_pin_coverage

    def test_crossval_precision_high(self, study_result):
        """§6.2: conservative propagation -> precision near 1."""
        assert study_result.crossval.mean_precision > 0.9

    def test_fig4a_knee_visible(self, study_result):
        rtts = study_result.abi_min_rtts
        assert rtts
        under = sum(1 for r in rtts if r < 2.0) / len(rtts)
        assert 0.15 < under < 0.85

    def test_fig4b_diffs_nonnegative(self, study_result):
        assert all(d >= 0 for d in study_result.segment_rtt_diff.values())


class TestDeterminism:
    def test_same_seed_same_key_outputs(self):
        world_a = build_world(WorldConfig(scale=0.01, seed=21))
        world_b = build_world(WorldConfig(scale=0.01, seed=21))
        config = StudyConfig(
            seed=21, expansion_stride=16, run_vpi=False, run_crossval=False
        )
        res_a = AmazonPeeringStudy(world_a, config).run()
        res_b = AmazonPeeringStudy(world_b, config).run()
        assert res_a.final_segments == res_b.final_segments
        assert res_a.abis == res_b.abis
        assert [r.total for r in res_a.table1] == [r.total for r in res_b.table1]


class TestGroundTruthEvaluation:
    def test_border_inference_accurate(self, study, study_result):
        runner, result = study
        ev = evaluate_study(runner.world, result)
        assert ev.borders.abi_precision > 0.9
        assert ev.borders.cbi_precision > 0.9
        assert ev.borders.abi_recall > 0.5
        assert ev.borders.cbi_recall > 0.5

    def test_pinning_accuracy_reasonable(self, study, study_result):
        runner, result = study
        ev = evaluate_study(runner.world, result)
        assert ev.pinning.evaluated > 0
        assert ev.pinning.accuracy > 0.6

    def test_vpi_lower_bound_property(self, study, study_result):
        """The method may undercount VPIs but barely overcounts."""
        runner, result = study
        ev = evaluate_study(runner.world, result)
        assert ev.vpi.detected_true <= ev.vpi.true_vpi_cbis
        if ev.vpi.detected:
            assert ev.vpi.precision > 0.85

    def test_private_vpis_never_observed(self, study, study_result):
        runner, result = study
        world = runner.world
        private = {
            icx.cbi_ip
            for icx in world.interconnections.values()
            if icx.uses_private_addresses
        }
        assert not (private & result.cbis)
        assert not (private & result.abis)
