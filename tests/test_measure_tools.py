"""Tests for ping, reachability, alias resolution, DNS lookup, campaigns."""

import pytest

from repro.measure.alias import AliasResolver, _UnionFind
from repro.measure.campaign import CampaignStats, ProbeCampaign, vpi_target_pool
from repro.measure.dnslookup import ReverseDNS
from repro.measure.ping import PROCESSING_FLOOR_MS, Pinger
from repro.measure.sink import EventSink
from repro.measure.reachability import PublicVantagePoint
from repro.measure.traceroute import TracerouteEngine


def _region(world):
    return world.region_names("amazon")[0]


class TestPinger:
    def test_min_rtt_above_propagation_floor(self, tiny_world):
        pinger = Pinger(tiny_world, seed=4)
        icx = next(
            i
            for i in tiny_world.interconnections.values()
            if not i.uses_private_addresses
        )
        for region in tiny_world.region_names("amazon")[:3]:
            rtt = pinger.min_rtt("amazon", region, icx.abi_ip)
            if rtt is None:
                continue
            base = tiny_world.rtt_legs_ms("amazon", region, icx.abi_ip)
            assert rtt >= base + PROCESSING_FLOOR_MS

    def test_cache_stability(self, tiny_world):
        pinger = Pinger(tiny_world, seed=4)
        icx = next(iter(tiny_world.interconnections.values()))
        region = _region(tiny_world)
        assert pinger.min_rtt("amazon", region, icx.abi_ip) == pinger.min_rtt(
            "amazon", region, icx.abi_ip
        )

    def test_unknown_ip_none(self, tiny_world):
        assert Pinger(tiny_world).min_rtt("amazon", _region(tiny_world), 1) is None

    def test_closest_region_is_minimum(self, tiny_world):
        pinger = Pinger(tiny_world, seed=4)
        icx = next(
            i
            for i in tiny_world.interconnections.values()
            if not i.uses_private_addresses
        )
        closest = pinger.closest_region("amazon", icx.abi_ip)
        if closest is None:
            pytest.skip("interface filters ICMP")
        region, rtt = closest
        all_rtts = pinger.min_rtt_by_region("amazon", icx.abi_ip)
        assert rtt == min(all_rtts.values())
        assert all_rtts[region] == rtt

    def test_two_lowest_sorted(self, tiny_world):
        pinger = Pinger(tiny_world, seed=4)
        icx = next(
            i
            for i in tiny_world.interconnections.values()
            if not i.uses_private_addresses
        )
        ranked = pinger.two_lowest("amazon", icx.abi_ip)
        if not ranked or len(ranked) < 2:
            pytest.skip("needs two visible regions")
        assert ranked[0][1] <= ranked[1][1]

    def test_icmp_filtering_is_per_interface(self, tiny_world):
        pinger = Pinger(tiny_world, seed=4)
        filtered = 0
        checked = 0
        for icx in list(tiny_world.interconnections.values())[:80]:
            if icx.uses_private_addresses:
                continue
            checked += 1
            if pinger.min_rtt_by_region("amazon", icx.cbi_ip) == {}:
                filtered += 1
        assert checked > 0
        # Some but not all interfaces filter ICMP.
        assert filtered < checked


class TestPublicVantagePoint:
    def test_reachability_subset_of_world_flags(self, tiny_world):
        vp = PublicVantagePoint(tiny_world, seed=2, loss_rate=0.0)
        for ip in list(tiny_world.interfaces)[:200]:
            if vp.reachable(ip):
                assert ip in tiny_world.publicly_reachable

    def test_cached(self, tiny_world):
        vp = PublicVantagePoint(tiny_world, seed=2)
        ip = next(iter(tiny_world.interfaces))
        assert vp.reachable(ip) == vp.reachable(ip)

    def test_probe_all(self, tiny_world):
        vp = PublicVantagePoint(tiny_world, seed=2)
        ips = list(tiny_world.interfaces)[:10]
        result = vp.probe_all(ips)
        assert set(result) == set(ips)


class TestUnionFind:
    def test_groups_of_size_one_dropped(self):
        uf = _UnionFind()
        uf.find(1)
        uf.union(2, 3)
        groups = uf.groups()
        assert groups == [{2, 3}]

    def test_transitive_merge(self):
        uf = _UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(10, 11)
        groups = sorted(uf.groups(), key=len, reverse=True)
        assert {1, 2, 3} in groups
        assert {10, 11} in groups


class TestAliasResolver:
    def test_sets_are_disjoint(self, tiny_world):
        resolver = AliasResolver(tiny_world, seed=9)
        candidates = [i.cbi_ip for i in tiny_world.interconnections.values()]
        sets = resolver.resolve(candidates)
        seen = set()
        for group in sets:
            assert not (group & seen)
            seen |= group

    def test_sets_respect_true_routers(self, tiny_world):
        resolver = AliasResolver(tiny_world, seed=9)
        candidates = [i.cbi_ip for i in tiny_world.interconnections.values()]
        for group in resolver.resolve(candidates):
            routers = {tiny_world.interfaces[ip].router_id for ip in group}
            assert len(routers) == 1

    def test_zero_discovery_rate_finds_nothing(self, tiny_world):
        resolver = AliasResolver(tiny_world, seed=9, pair_discovery_rate=0.0)
        candidates = [i.cbi_ip for i in tiny_world.interconnections.values()]
        assert resolver.resolve(candidates) == []

    def test_full_discovery_rate_recovers_multi_iface_routers(self, tiny_world):
        resolver = AliasResolver(tiny_world, seed=9, pair_discovery_rate=1.0)
        candidates = [
            ip
            for i in tiny_world.interconnections.values()
            for ip in (i.cbi_ip, i.abi_ip)
        ]
        sets = resolver.resolve(candidates)
        covered = {ip for g in sets for ip in g}
        # Every responsive multi-candidate router should be one set.
        from collections import Counter

        per_router = Counter(
            tiny_world.interfaces[ip].router_id for ip in set(candidates)
        )
        multi = {
            rid
            for rid, n in per_router.items()
            if n >= 2 and tiny_world.routers[rid].responsiveness > 0
        }
        recovered = {tiny_world.interfaces[ip].router_id for ip in covered}
        assert len(multi - recovered) <= len(multi) * 0.35


class TestReverseDNS:
    def test_lookup_matches_world(self, tiny_world):
        rdns = ReverseDNS(tiny_world)
        named = [
            i for i in tiny_world.interfaces.values() if i.dns_name is not None
        ]
        assert named, "world should have some PTR records"
        assert rdns.lookup(named[0].ip) == named[0].dns_name

    def test_lookup_all_skips_missing(self, tiny_world):
        rdns = ReverseDNS(tiny_world)
        result = rdns.lookup_all([1, 2, 3])
        assert result == {}

    def test_abis_have_no_names(self, tiny_world):
        """§6.1: none of the ABIs had reverse DNS."""
        rdns = ReverseDNS(tiny_world)
        for icx in list(tiny_world.interconnections.values())[:100]:
            assert rdns.lookup(icx.abi_ip) is None


class TestCampaign:
    def test_round1_targets_are_dot1(self, tiny_world):
        campaign = ProbeCampaign(tiny_world)
        for dst in list(campaign.round1_targets())[:50]:
            assert dst & 0xFF == 1

    def test_expansion_targets_exclude_the_cbi(self, tiny_world):
        cbi = next(iter(tiny_world.interconnections.values())).cbi_ip
        targets = ProbeCampaign.expansion_targets([cbi])
        assert cbi not in targets
        assert all(t & 0xFFFFFF00 == cbi & 0xFFFFFF00 for t in targets)
        assert len(targets) == 253

    def test_expansion_stride(self):
        targets = ProbeCampaign.expansion_targets([0x0A000001], stride=4)
        assert len(targets) < 70

    def test_expansion_dedupes_shared_slash24(self):
        targets = ProbeCampaign.expansion_targets([0x0A000002, 0x0A000003])
        # One /24 expanded once.
        assert len(targets) == 253

    def test_stats_counting(self, tiny_world):
        engine = TracerouteEngine(tiny_world, seed=0)
        campaign = ProbeCampaign(tiny_world, engine)
        stats = campaign.run(
            [p.network + 1 for p in tiny_world.sweep_slash24s[:10]],
            EventSink(),
            regions=tiny_world.region_names("amazon")[:2],
        )
        assert stats.probes == 20
        assert 0 <= stats.completed_fraction <= 1
        assert stats.completed + stats.gap_limited == stats.probes

    def test_vpi_target_pool_contents(self):
        pool = vpi_target_pool([100, 200], [300])
        assert set(pool) == {100, 101, 200, 201, 300}
        assert pool == sorted(pool)
