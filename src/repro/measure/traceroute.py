"""Scamper-like traceroute engine over the synthetic Internet.

Reproduces the measurement semantics of §3: UDP probes from a region's VM,
per-hop responses with the *incoming* interface (usually -- a configurable
fraction of client border routers answer with a different own interface,
the classic third-party artifact of §9), termination after five consecutive
unresponsive hops, and a status flag describing how the probe ended.

The engine is the only component that turns ground-truth ``PathPlan``s into
observable measurements; everything downstream sees only ``Traceroute``
records.

Every probe draws its noise (responsiveness, loss, jitter, loop injection)
from an RNG derived solely from ``(engine seed, cloud, region, dst)``.  A
probe's outcome therefore never depends on how many probes ran before it,
which is what lets the sharded executor split a campaign across worker
processes and still reproduce the serial run bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.net.ip import IPv4

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.measure.faults import FaultPlan
from repro.world.entities import RouterRole
from repro.world.model import PathPlan, World

#: Scamper's gap limit used by the paper: five unresponsive hops (§3).
GAP_LIMIT = 5


class StopReason:
    """How a traceroute ended (string enum, mirrors scamper stop flags)."""

    COMPLETED = "completed"
    GAP_LIMIT = "gaplimit"
    LOOP = "loop"


@dataclass(frozen=True)
class TraceHop:
    """One TTL slot: the answering interface (or None) and its RTT."""

    ttl: int
    ip: Optional[IPv4]
    rtt_ms: Optional[float]


@dataclass
class Traceroute:
    """One completed measurement."""

    cloud: str
    region: str
    dst: IPv4
    hops: List[TraceHop]
    stop_reason: str

    @property
    def responsive_ips(self) -> List[IPv4]:
        return [h.ip for h in self.hops if h.ip is not None]

    @property
    def completed(self) -> bool:
        return self.stop_reason == StopReason.COMPLETED


class TracerouteEngine:
    """Executes probes against a :class:`World`."""

    def __init__(
        self,
        world: World,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        self.world = world
        self.config = world.config
        self.seed = seed
        self.faults = faults
        # Only observation faults matter here; transport faults (crashes,
        # slow shards) are the executor's business.
        self._probe_faults = (
            faults if faults is not None and faults.affects_probes else None
        )
        # Pre-fetch per-router data the hot loop needs.
        self._router_role = {
            rid: r.role for rid, r in world.routers.items()
        }
        self._router_ifaces = {
            rid: r.interface_ips for rid, r in world.routers.items()
        }
        # Violating the incoming-interface convention is a router *config*
        # property, not a per-probe accident: the same routers misbehave
        # on every probe (§9 cites >50% compliance overall).
        rate = self.config.third_party_response_rate
        world_seed = getattr(self.config, "seed", 0)
        self._third_party_routers = {
            rid
            for rid, role in self._router_role.items()
            if role == RouterRole.CLIENT_BORDER
            and ((rid * 2654435761 + world_seed * 97) & 0xFFFF) / 65536.0 < rate
        }

    # ------------------------------------------------------------------

    def _response_ip(self, router_id: int, incoming: IPv4, rng: random.Random) -> IPv4:
        """The incoming interface, unless the router is a third-party
        responder, in which case its fixed default (first) interface."""
        if router_id not in self._third_party_routers:
            return incoming
        ifaces = self._router_ifaces.get(router_id) or ()
        if not ifaces:
            return incoming
        return ifaces[0]

    def probe_rng(self, cloud: str, region: str, dst: IPv4) -> random.Random:
        """The per-probe noise stream: a pure function of the probe key."""
        return random.Random(repr(("probe", self.seed, cloud, region, dst)))

    def trace(
        self, cloud: str, region: str, dst: IPv4, salt: int = 0
    ) -> Traceroute:
        """Probe ``dst`` from the VM in ``region`` of ``cloud``.

        ``salt`` re-keys only the observation-fault draws (see
        ``FaultPlan.hop_suppressed``); the base noise stream is always
        the probe's own, so ``salt=0`` reproduces the historical trace
        byte-for-byte and a salted re-probe differs *only* where the
        fault plan fired.  The adaptive recovery round is the one
        caller that passes a non-zero salt.
        """
        plan = self.world.resolve_path(cloud, region, dst)
        return self._realize(
            plan, cloud, region, self.probe_rng(cloud, region, dst), salt
        )

    def _realize(
        self,
        plan: PathPlan,
        cloud: str,
        region: str,
        rng: random.Random,
        salt: int = 0,
    ) -> Traceroute:
        cfg = self.config
        catalog = self.world.catalog
        region_metro = self.world.regions[cloud][region].metro_code

        hops: List[TraceHop] = []
        gap = 0
        ttl = 0
        cum_rtt = 0.0
        prev_metro = region_metro
        seen_ips: List[IPv4] = []
        loop_injected = rng.random() < cfg.loop_rate
        faults = self._probe_faults
        # Injected loss / rate-limit windows draw from their own pure
        # hash (never ``rng``), so the base noise stream -- and with it
        # every fault-free hop -- matches the clean run exactly.  The
        # window depends on the probe alone, so it is drawn once here;
        # only region loss is drawn per TTL.
        if faults is not None:
            window = faults.rate_limit_ttls(cloud, region, plan.dest_ip, salt)
            loss = faults.region_loss_rate(region)

        for hop in plan.hops:
            ttl += 1
            cum_rtt_here = cum_rtt + catalog.rtt_ms(prev_metro, hop.metro_code)
            cum_rtt = cum_rtt_here
            prev_metro = hop.metro_code
            responds = (
                hop.responsiveness > 0.0
                and rng.random() < hop.responsiveness
                and rng.random() >= cfg.probe_loss_rate
            )
            if (
                responds
                and faults is not None
                and (
                    ttl in window
                    or (
                        loss > 0.0
                        and faults.hop_lost(cloud, region, plan.dest_ip, ttl, salt)
                    )
                )
            ):
                responds = False
            if not responds:
                hops.append(TraceHop(ttl=ttl, ip=None, rtt_ms=None))
                gap += 1
                if gap >= GAP_LIMIT:
                    return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.GAP_LIMIT)
                continue
            gap = 0
            ip = self._response_ip(hop.router_id, hop.ip, rng)
            if loop_injected and seen_ips and ttl > 2:
                # A forwarding loop: repeat an earlier interface once.
                ip = seen_ips[rng.randrange(len(seen_ips))]
                loop_injected = False
            rtt = (
                cum_rtt_here
                + cfg.hop_processing_ms * ttl
                + rng.expovariate(1.0 / max(cfg.ping_jitter_ms, 1e-6))
            )
            hops.append(TraceHop(ttl=ttl, ip=ip, rtt_ms=rtt))
            seen_ips.append(ip)

        dest_responds = plan.dest_responds and rng.random() >= cfg.probe_loss_rate
        if (
            dest_responds
            and faults is not None
            and (
                ttl + 1 in window
                or (
                    loss > 0.0
                    and faults.hop_lost(cloud, region, plan.dest_ip, ttl + 1, salt)
                )
            )
        ):
            dest_responds = False
        if dest_responds:
            ttl += 1
            rtt = cum_rtt + cfg.hop_processing_ms * ttl + rng.expovariate(
                1.0 / max(cfg.ping_jitter_ms, 1e-6)
            )
            hops.append(TraceHop(ttl=ttl, ip=plan.dest_ip, rtt_ms=rtt))
            return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.COMPLETED)

        # Unresponsive tail until the gap limit fires.
        for _ in range(GAP_LIMIT - gap):
            ttl += 1
            hops.append(TraceHop(ttl=ttl, ip=None, rtt_ms=None))
        return Traceroute(cloud, region, plan.dest_ip, hops, StopReason.GAP_LIMIT)

    # ------------------------------------------------------------------

    def trace_many(
        self, cloud: str, region: str, targets: Iterator[IPv4]
    ) -> Iterator[Traceroute]:
        """Stream traceroutes for a target iterator (memory-bounded)."""
        for dst in targets:
            yield self.trace(cloud, region, dst)
