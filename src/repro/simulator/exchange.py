"""Partnership dynamics and per-round block exchange.

The simulator advances in fixed exchange rounds (default 600 s).  Within
a round, every viewer spreads its demand across its active suppliers
(respecting UUSee's block scheduling, which requests different blocks
from different partners — modelled as a per-link request cap), and every
supplier divides its upload capacity among requesters, preferring mutual
exchangers.  Between rounds, maintenance ticks implement the protocol's
control plane: dead-partner cleanup, idle-connection pruning, partner
recommendation gossip, capacity volunteering, supplier refinement, and
last-resort tracker refresh.

Everything the paper measures emerges here:

- indegree ~= demand / per-link-achieved-rate, spiking near 10 and cut
  off near demand / min-useful-rate ~= 23 (Fig. 4(B));
- outdegree follows upload capacity heterogeneity (Fig. 4(C));
- intra-ISP links win selection because the network model gives them
  higher throughput (Fig. 6);
- gossip creates triadic closure, hence clustering (Fig. 7);
- the reciprocation preference plus mutual usefulness creates bilateral
  active links (Fig. 8).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.network.latency import LatencyModel
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.overlay import PartnerPolicy, build_policy
from repro.simulator.channel import ChannelCatalogue
from repro.simulator.failures import FaultPlan
from repro.simulator.peer import Link, Peer, rtt_penalty
from repro.simulator.protocol import ProtocolConfig, SelectionPolicy
from repro.simulator.tracker import Tracker
from repro.traces.records import PeerReport
from repro.traces.reporter import build_report


@dataclass
class RoundStats:
    """Aggregate outcome of one exchange round (for tests/monitoring)."""

    time: float = 0.0
    viewers: int = 0
    total_received_kbps: float = 0.0
    satisfied: int = 0  # viewers receiving >= 90% of the stream rate
    per_channel_viewers: dict[int, int] = field(default_factory=dict)
    per_channel_satisfied: dict[int, int] = field(default_factory=dict)
    #: Block-transfer allocations made this round (supplier->requester
    #: pairs that moved data); counted inline so the hot loop never pays
    #: an observability call.
    transfers: int = 0

    def satisfied_fraction(self, channel_id: int | None = None) -> float:
        if channel_id is None:
            return self.satisfied / self.viewers if self.viewers else 0.0
        viewers = self.per_channel_viewers.get(channel_id, 0)
        if not viewers:
            return 0.0
        return self.per_channel_satisfied.get(channel_id, 0) / viewers


class ChannelConsts(NamedTuple):
    """Per-channel protocol constants, derived once instead of per call.

    Every float here is computed with exactly the expression the call
    sites used inline, so cached and uncached runs are bit-identical.
    """

    rate_kbps: float
    request_cap: float  # cfg.request_cap_kbps(rate)
    demand: float  # cfg.demand_kbps(rate)
    demand_standby: float  # demand * cfg.standby_surplus
    cap06: float  # 0.6 * request_cap
    neutral_hi: float  # max(cap06, cfg.min_useful_link_kbps)


class ExchangeEngine:
    """Implements partnerships, selection, ticks and exchange rounds."""

    def __init__(
        self,
        *,
        peers: dict[int, Peer],
        catalogue: ChannelCatalogue,
        tracker: Tracker,
        latency: LatencyModel,
        config: ProtocolConfig,
        policy: SelectionPolicy = SelectionPolicy.UUSEE,
        seed: int = 0,
        faults: FaultPlan | None = None,
        obs: AnyObserver = NULL_OBSERVER,
        partner_policy: PartnerPolicy | None = None,
    ) -> None:
        self.peers = peers
        self.catalogue = catalogue
        self.tracker = tracker
        self.latency = latency
        self.config = config
        self.obs = obs
        self.faults = faults if faults is not None else FaultPlan()
        self.rng = random.Random(seed)
        # Selection decisions are delegated to a PartnerPolicy
        # (repro.overlay).  The default is built from the legacy enum so
        # direct-engine construction keeps working; legacy policies share
        # self.rng and reproduce the pre-extraction draws bit-for-bit.
        if partner_policy is None:
            partner_policy = build_policy(policy.value, seed=seed)
        self.partner_policy = partner_policy
        partner_policy.bind(self)
        #: Simulated time of the engine's latest entry point; structured
        #: policies timestamp the links they materialise with it.
        self.clock = 0.0
        # links are mutual; last_active is tracked via Link.established_at
        # updates when run_round credits a transfer.
        # Per-channel derived constants (request cap, demand budget,
        # fresh-link floors) are computed once instead of in every hot
        # call; anything that changes a channel's rate or the protocol
        # config mid-run must call ``invalidate_channel_consts``.
        self._channel_consts: dict[int, ChannelConsts] = {}

    def invalidate_channel_consts(self, channel_id: int | None = None) -> None:
        """Drop cached per-channel constants after a config change.

        Must be called whenever a channel's rate or any protocol-config
        field feeding :class:`ChannelConsts` changes mid-campaign —
        otherwise the engine keeps allocating against stale demand and
        request-cap values.  ``None`` invalidates every channel.
        """
        if channel_id is None:
            self._channel_consts.clear()
        else:
            self._channel_consts.pop(channel_id, None)

    def _consts(self, channel_id: int) -> ChannelConsts:
        """Cached per-channel protocol constants."""
        consts = self._channel_consts.get(channel_id)
        if consts is None:
            cfg = self.config
            rate = self.catalogue.get(channel_id).rate_kbps
            cap = cfg.request_cap_kbps(rate)
            cap06 = 0.6 * cap
            consts = ChannelConsts(
                rate_kbps=rate,
                request_cap=cap,
                demand=cfg.demand_kbps(rate),
                demand_standby=cfg.demand_kbps(rate) * cfg.standby_surplus,
                cap06=cap06,
                neutral_hi=max(cap06, cfg.min_useful_link_kbps),
            )
            self._channel_consts[channel_id] = consts
        return consts

    # -- partnership management ---------------------------------------------

    def connect(self, a: Peer, b: Peer, now: float) -> bool:
        """Establish a mutual partnership; False if refused or duplicate.

        The callee refuses when its partner list is full (servers have a
        higher ceiling since they exist to accept connections).
        """
        a_id = a.peer_id
        b_id = b.peer_id
        a_partners = a.partners
        if a_id == b_id or b_id in a_partners:
            return False
        faults = self.faults
        if faults.has_link_faults and faults.link_blocked(a.isp, b.isp, now):
            self.obs.count("faults.link_blocked")
            return False  # TCP handshake cannot cross the partition
        b_partners = b.partners
        max_partners = self.config.max_partners
        if len(b_partners) >= max_partners * (4 if b.is_server else 1):
            return False
        if len(a_partners) >= max_partners:
            return False
        rtt, cap = self.latency.sample_link(
            a.isp, b.isp, a_china=a.is_china, b_china=b.is_china
        )
        # Conservative initial throughput estimate: a fresh link must rank
        # *below* proven-good links (else the steady inbound-partner churn
        # makes request priority thrash across unproven links every round),
        # but high enough to be tried when proven links under-deliver.
        # ... and never below the useful-link floor: the demand budget
        # counts every supplier as contributing at least min_useful, so
        # starting fresh links lower would make peers over-provision past
        # the Fig. 4(B) indegree ceiling.
        consts = self._channel_consts.get(a.channel_id) or self._consts(a.channel_id)
        neutral = min(consts.neutral_hi, cap * 0.5)
        penalty = rtt_penalty(rtt)
        # The caller end was checked above; the callee keeps
        # Peer.add_partner's guard and never overwrites an end it has.
        a_partners[b_id] = Link(rtt, cap, neutral, penalty, now, b.ip)
        if a_id not in b_partners:
            b_partners[a_id] = Link(rtt, cap, neutral, penalty, now, a.ip)
        obs = self.obs
        if obs.enabled:
            obs.count("exchange.connects")
        return True

    def disconnect(self, a: Peer, partner_id: int) -> None:
        """Tear down both ends of a partnership (if the partner is alive)."""
        self.obs.count("exchange.disconnects")
        a.remove_partner(partner_id)
        other = self.peers.get(partner_id)
        if other is not None:
            other.remove_partner(a.peer_id)

    def bootstrap_peer(self, peer: Peer, now: float) -> int:
        """Tracker bootstrap + initial supplier selection; returns #partners."""
        self.clock = now
        candidate_ids = self.tracker.bootstrap(
            peer.channel_id, peer.peer_id, self.config.bootstrap_partners
        )
        connected = 0
        for pid in candidate_ids:
            other = self.peers.get(pid)
            if other is None:
                # Stale entry: the peer crashed without a goodbye.  The
                # failed connection attempt is how the tracker learns.
                self.tracker.unregister(peer.channel_id, pid)
                continue
            if self.connect(peer, other, now):
                connected += 1
        self.select_suppliers(peer)
        return connected

    # -- tracker contact with bounded exponential backoff ---------------------

    def _tracker_reachable(self, now: float) -> bool:
        """Whether one tracker request gets through right now.

        Full capacity and full outage short-circuit without consuming
        randomness, so fault-free runs keep their exact random streams.
        """
        capacity = self.faults.tracker_capacity(now)
        if capacity >= 1.0:
            return True
        if capacity <= 0.0:
            return False
        return self.rng.random() < capacity

    def _schedule_tracker_retry(self, peer: Peer, now: float) -> None:
        """Back off exponentially (bounded) before the next tracker try."""
        cfg = self.config
        delay = min(
            cfg.tracker_retry_base_s * (2.0 ** peer.tracker_failures),
            cfg.tracker_retry_cap_s,
        )
        if cfg.tracker_retry_jitter > 0.0:
            delay *= 1.0 + cfg.tracker_retry_jitter * self.rng.random()
        peer.tracker_failures += 1
        peer.next_tracker_retry = now + delay

    def tracker_contact(self, peer: Peer, now: float) -> bool:
        """One tracker request: register+bootstrap, or refresh partners.

        On failure (outage or brownout drop) the peer schedules a
        bounded-exponential-backoff retry instead of starving silently;
        ``maintenance_tick`` fires the retry when it comes due.
        """
        self.clock = now
        if not self._tracker_reachable(now):
            self._schedule_tracker_retry(peer, now)
            self.obs.count("faults.tracker_unreachable")
            return False
        self.obs.count("exchange.tracker_contacts")
        peer.tracker_failures = 0
        peer.next_tracker_retry = math.inf
        if not peer.registered:
            peer.registered = True
            self.tracker.register(peer.channel_id, peer.peer_id)
            self.bootstrap_peer(peer, now)
            return True
        want = self.config.bootstrap_partners - len(peer.partners)
        if want > 0:
            for pid in self.tracker.refresh(peer.channel_id, peer.peer_id, want):
                other = self.peers.get(pid)
                if other is None:
                    self.tracker.unregister(peer.channel_id, pid)
                else:
                    self.connect(peer, other, now)
            self.select_suppliers(peer)
        return True

    # -- supplier selection ---------------------------------------------------

    def _candidate_score(self, peer: Peer, pid: int, link: Link) -> float:
        score: float = self.partner_policy.candidate_score(peer, pid, link)
        return score

    def select_suppliers(self, peer: Peer) -> None:
        """(Re)build the active supplier set from the partner list.

        Delegates to the bound :class:`~repro.overlay.PartnerPolicy`;
        the default ``uusee`` policy reproduces the pre-extraction
        greedy loop draw-for-draw.
        """
        self.partner_policy.select_suppliers(peer)

    def refine_suppliers(self, peer: Peer, *, sample_size: int = 10) -> None:
        """Incremental improvement: drop useless suppliers, try new ones.

        Cheaper than full reselection and closer to how a running client
        behaves; delegated to the bound policy (structured overlays
        re-derive the supplier set from their topology instead).
        """
        self.partner_policy.refine_suppliers(peer, sample_size=sample_size)

    # -- maintenance tick -------------------------------------------------------

    def maintenance_tick(self, peer: Peer, now: float) -> None:
        """Control-plane work a client does every few minutes."""
        self.clock = now
        if peer.next_tracker_retry <= now:
            self.tracker_contact(peer, now)
        self._tend_partners(peer, now)
        self._gossip(peer, now)
        self.refine_suppliers(peer)
        self._update_volunteering(peer, now)
        self._starvation_check(peer, now)
        peer.last_tick = now

    def _tend_partners(self, peer: Peer, now: float) -> None:
        """One walk over the partner list: clean, recover, prune.

        - Partners that left the system are forgotten.
        - Idle links' estimates drift back toward the request cap.  Peers
          exchange buffer maps with all partners periodically, so a link
          measured slow while its supplier was overloaded is eventually
          re-probed; without recovery, a transiently congested supplier
          would never be tried again even after it drained.  Recovery
          stops at the conservative fresh-link level: a link must re-earn
          a top rank through measured delivery.
        - TCP connections with no segment flow for a while are closed.
          This keeps partner counts near the *active* mesh size (the
          paper's Fig. 4(A) spike at 10-25, far below the initial 50):
          bootstrap and gossip fan out optimistically, and idle links
          decay.

        The dead partners are removed first and the idle ones
        disconnected after, each in partner-list order.
        """
        peers = self.peers
        partners = peer.partners
        suppliers = peer.suppliers
        cap06 = self._consts(peer.channel_id).cap06
        idle_timeout = 1.5 * self.config.report_interval_s
        dead: list[int] = []
        victims: list[int] = []
        for pid, link in partners.items():
            if pid not in peers:
                dead.append(pid)
                continue
            target = 0.7 * link.cap_kbps
            if cap06 < target:
                target = cap06
            est = link.est_kbps
            if est < target:
                link.est_kbps = est + 0.2 * (target - est)
            if pid not in suppliers and now - link.established_at > idle_timeout:
                victims.append(pid)
        for pid in dead:
            del partners[pid]
            suppliers.discard(pid)
        for pid in victims:
            self.disconnect(peer, pid)

    def _gossip(self, peer: Peer, now: float) -> None:
        """Ask one partner for recommendations (triadic closure)."""
        partners = peer.partners
        if not partners or peer.is_server:
            return
        peers = self.peers
        alive_partners = [pid for pid in partners if pid in peers]
        if not alive_partners:
            return
        rng = self.rng
        helper = peers[rng.choice(alive_partners)]
        peer_id = peer.peer_id
        their_ids = [
            pid
            for pid in helper.partners
            if pid != peer_id and pid not in partners and pid in peers
        ]
        if not their_ids:
            return
        # The helper recommends the partners most likely to be able to
        # assist (paper Sec. 3.1): in practice its own best-RTT partners,
        # which are largely in its own ISP — recommendations therefore
        # propagate intra-ISP structure and close triangles.
        k = min(self.config.gossip_fanout, len(their_ids))
        pool = (
            rng.sample(their_ids, min(2 * k, len(their_ids)))
            if len(their_ids) > 2 * k
            else their_ids
        )
        pool = self.partner_policy.order_gossip_pool(helper, pool)
        for pid in pool[:k]:
            other = peers.get(pid)
            if other is not None and not other.is_server:
                self.connect(peer, other, now)

    def _update_volunteering(self, peer: Peer, now: float) -> None:
        """Inform the tracker when sending throughput is below capacity.

        Per the paper this depends only on spare upload capacity; what a
        low-buffer peer can actually serve is limited separately by its
        content availability (see ``_content_factor``).
        """
        if not self._tracker_reachable(now):
            return  # request lost (outage or brownout); try next tick
        spare = peer.spare_upload_kbps()
        threshold = self.config.volunteer_spare_fraction * peer.upload_kbps
        should = spare >= threshold
        if should:
            # Re-asserted every tick: the tracker de-lists volunteers once
            # their handout budget is consumed, and re-volunteering resets it.
            self.tracker.volunteer(peer.channel_id, peer.peer_id)
            peer.volunteered = True
        elif peer.volunteered:
            self.tracker.unvolunteer(peer.channel_id, peer.peer_id)
            peer.volunteered = False

    def _starvation_check(self, peer: Peer, now: float) -> None:
        """Last resort: re-contact the tracker after sustained starvation."""
        if peer.is_server:
            return
        if peer.health < self.config.starvation_health:
            peer.starving_ticks += 1
        else:
            peer.starving_ticks = 0
            return
        if peer.starving_ticks >= self.config.starvation_ticks:
            if peer.next_tracker_retry < math.inf:
                return  # a backoff retry is already scheduled
            if self.tracker_contact(peer, now):
                peer.starving_ticks = 0

    # -- exchange round -------------------------------------------------------

    def run_round(self, now: float, duration: float) -> RoundStats:
        """One exchange round: demand spreading, allocation, accounting."""
        cfg = self.config
        stats = RoundStats(time=now)
        self.clock = now

        # Pass 1: each viewer requests from its suppliers.
        # Request priority follows the selection score (measured
        # throughput discounted by RTT): low-RTT — in practice
        # intra-ISP — links are drawn on first, so they are the ones
        # that become *active*, exactly the paper's explanation of
        # ISP clustering (Sec. 4.2.3).  The RANDOM ablation removes
        # the bias here too (stable pseudo-random order per link).
        blind = self.partner_policy.blind_requests
        link_faults = self.faults.has_link_faults
        min_useful = cfg.min_useful_link_kbps
        peers = self.peers
        segment_seconds = cfg.segment_seconds
        # supplier id -> (requester, requester's link, request, requester's
        # segment size in kbit)
        requests: dict[int, list[tuple[Peer, Link, float, float]]] = {}
        for peer in peers.values():
            if peer.is_server:
                continue
            consts = self._consts(peer.channel_id)
            cap = consts.request_cap
            segment_kbit = consts.rate_kbps * segment_seconds
            remaining = consts.demand
            dead: list[int] = []
            # (-priority, pid, link): sorts natively by descending priority,
            # ties by pid (unique per peer, so links are never compared).
            supplier_links: list[tuple[float, int, Link]] = []
            partners_get = peer.partners.get
            for pid in peer.suppliers:
                link = partners_get(pid)
                if link is None or pid not in peers:
                    dead.append(pid)
                    continue
                if link_faults and self.faults.link_blocked(
                    peer.isp, peers[pid].isp, now
                ):
                    continue  # partitioned away this round; keep the link
                if blind:
                    priority = float(hash((peer.peer_id, pid)) % 1_000_003)
                else:
                    priority = link.est_kbps / link.penalty
                supplier_links.append((-priority, pid, link))
            for pid in dead:
                peer.suppliers.discard(pid)
            supplier_links.sort()
            for _, pid, link in supplier_links:
                if remaining <= 0.0:
                    break
                req = min(cap, link.cap_kbps, remaining)
                if req <= 0.0:
                    continue
                requests.setdefault(pid, []).append((peer, link, req, segment_kbit))
                # Budget against the *measured* delivery estimate (floored
                # at the useful minimum), not the optimistic request: a
                # peer whose suppliers under-deliver keeps asking further
                # suppliers, up to demand / min_useful ~= 23 of them — the
                # emergent indegree ceiling of Fig. 4(B).
                est = link.est_kbps
                budget = est if est > min_useful else min_useful
                remaining -= req if req < budget else budget

        # Pass 2: suppliers allocate capacity, preferring mutual exchangers,
        # and each transfer is credited to both ends of its link: segments
        # on the counters the next reports carry, the achieved rate into
        # the requester's selection estimate (EWMA), and 'last active'.
        bonus1 = 1.0 + cfg.reciprocation_bonus
        smoothing = cfg.estimate_smoothing
        keep = 1.0 - smoothing
        degraded = self.faults.has_link_faults and bool(self.faults.degradations)
        transfers = 0
        received: dict[int, float] = {}
        for supplier_id, reqs in requests.items():
            supplier = peers.get(supplier_id)
            if supplier is None:
                continue
            supplier_suppliers = supplier.suppliers
            weights: list[float] = []
            # Summed in request order, as sum() would.
            total_weighted = total_requested = 0.0
            for requester, _, req, _ in reqs:
                weight = req * bonus1 if requester.peer_id in supplier_suppliers else req
                weights.append(weight)
                total_weighted += weight
                total_requested += req
            if supplier.is_server:
                # Origin capacity scales with outages/brownouts: 0 while
                # offline, fractional while degraded, full otherwise.
                capacity = (
                    supplier.upload_kbps
                    * self._content_factor(supplier)
                    * self.faults.server_capacity(now)
                )
            else:
                capacity = supplier.upload_kbps * self._content_factor(supplier)
            sent_total = 0.0
            if total_requested <= capacity:
                scale = 1.0
            else:
                scale = capacity / total_weighted if total_weighted else 0.0
            supplier_partners_get = supplier.partners.get
            for (requester, link, req, segment_kbit), weight in zip(reqs, weights):
                achieved = req if total_requested <= capacity else min(
                    req, weight * scale
                )
                if degraded:
                    achieved *= self.faults.link_factor(
                        supplier.isp, requester.isp, now
                    )
                if achieved <= 0.0:
                    continue
                segments = achieved * duration / segment_kbit
                link.recv_segments += segments
                link.est_kbps = keep * link.est_kbps + smoothing * achieved
                link.established_at = now
                requester_id = requester.peer_id
                supplier_link = supplier_partners_get(requester_id)
                if supplier_link is not None:
                    supplier_link.sent_segments += segments
                    supplier_link.established_at = now
                transfers += 1
                sent_total += achieved
                received[requester_id] = received.get(requester_id, 0.0) + achieved
            supplier.sent_rate_kbps = sent_total
        stats.transfers = transfers

        # Suppliers with no requests this round sent nothing.
        for peer in peers.values():
            if peer.peer_id not in requests:
                peer.sent_rate_kbps = 0.0

        # Pass 3: viewer-side accounting (health, buffer, depth, stats).
        hs = cfg.health_smoothing
        one_minus_hs = 1.0 - hs
        window_s = 120.0 * cfg.segment_seconds
        segments_advanced = int(duration / cfg.segment_seconds)
        received_get = received.get
        for peer in peers.values():
            if peer.is_server:
                continue
            rate = self._consts(peer.channel_id).rate_kbps
            got = received_get(peer.peer_id, 0.0)
            peer.recv_rate_kbps = got
            ratio = min(1.0, got / rate) if rate else 0.0
            peer.health = one_minus_hs * peer.health + hs * ratio
            peer.buffer_fill = min(
                1.0,
                max(0.0, peer.buffer_fill + (got - rate) * duration / (rate * window_s)),
            )
            peer.playback_position += segments_advanced
            self._update_depth(peer)
            stats.viewers += 1
            stats.total_received_kbps += got
            stats.per_channel_viewers[peer.channel_id] = (
                stats.per_channel_viewers.get(peer.channel_id, 0) + 1
            )
            if got >= 0.9 * rate:
                stats.satisfied += 1
                stats.per_channel_satisfied[peer.channel_id] = (
                    stats.per_channel_satisfied.get(peer.channel_id, 0) + 1
                )
        return stats

    # -- measurement ----------------------------------------------------------

    def emit_reports(
        self,
        cutoff: float,
        interval: float,
        receive: Callable[[PeerReport], bool],
    ) -> None:
        """Emit every report due strictly before ``cutoff``.

        A report due exactly at the round boundary belongs to the next
        round, which keeps the emitted trace non-decreasing across
        report windows.  Report order — peers in dict order, a peer's
        due reports in time order — is part of the draw contract: the
        trace server consumes one loss draw per report.
        """
        for peer in self.peers.values():
            if peer.is_server:
                continue
            while peer.next_report < cutoff:
                receive(build_report(peer, peer.next_report))
                peer.next_report += interval

    @staticmethod
    def _content_factor(supplier: Peer) -> float:
        """How much of its upload a peer can usefully serve.

        A peer whose own playback is healthy holds (and keeps refreshing)
        essentially the whole sliding window, so nearly all its capacity
        is useful to partners; a starving peer has little to offer.
        Servers always hold the full window.
        """
        if supplier.is_server:
            return 1.0
        return 0.30 + 0.70 * supplier.health

    def _update_depth(self, peer: Peer) -> None:
        best = 64
        for pid in peer.suppliers:
            other = self.peers.get(pid)
            if other is not None and other.depth + 1 < best:
                best = other.depth + 1
        peer.depth = best
