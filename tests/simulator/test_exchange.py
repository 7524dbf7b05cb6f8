"""Behavioural tests for the exchange engine on handcrafted scenarios."""

import random

import pytest

from repro.network.latency import LatencyModel, LinkQuality
from repro.overlay import build_policy
from repro.simulator.channel import Channel, ChannelCatalogue
from repro.simulator.exchange import ExchangeEngine
from repro.simulator.peer import Peer, rtt_penalty
from repro.simulator.protocol import ProtocolConfig
from repro.simulator.tracker import Tracker

RATE = 400.0


def make_world(spec="uusee", config=None, seed=0):
    peers = {}
    catalogue = ChannelCatalogue([Channel(0, "CH", RATE, 1.0)])
    tracker = Tracker(seed=seed, server_probability=0.0)
    engine = ExchangeEngine(
        peers=peers,
        catalogue=catalogue,
        tracker=tracker,
        latency=LatencyModel(seed=seed),
        config=config or ProtocolConfig(),
        partner_policy=build_policy(spec, seed=seed),
        seed=seed,
    )
    return peers, tracker, engine


def make_peer(
    peers,
    peer_id,
    *,
    isp="China Telecom",
    upload=800.0,
    is_server=False,
    health=1.0,
    join=0.0,
):
    peer = Peer(
        peer_id,
        ip=10_000 + peer_id,
        isp=isp,
        is_china=True,
        channel_id=0,
        upload_kbps=upload,
        download_kbps=4_000.0,
        class_name="server" if is_server else "cable",
        join_time=join,
        depart_time=float("inf"),
        is_server=is_server,
    )
    peer.health = health
    peers[peer_id] = peer
    return peer


class TestConnect:
    def test_mutual_links(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        assert ex.connect(a, b, now=0.0)
        assert 2 in a.partners and 1 in b.partners
        assert a.partners[2].partner_ip == b.ip
        assert b.partners[1].partner_ip == a.ip
        assert a.partners[2].rtt_ms == b.partners[1].rtt_ms

    def test_duplicate_and_self_refused(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        assert ex.connect(a, b, 0.0)
        assert not ex.connect(a, b, 0.0)
        assert not ex.connect(a, a, 0.0)

    def test_full_partner_list_refused(self):
        config = ProtocolConfig(max_partners=2)
        peers, _, ex = make_world(config=config)
        a = make_peer(peers, 1)
        others = [make_peer(peers, i) for i in range(2, 6)]
        assert ex.connect(a, others[0], 0.0)
        assert ex.connect(a, others[1], 0.0)
        assert not ex.connect(a, others[2], 0.0)  # a is full
        # servers accept beyond the normal cap
        server = make_peer(peers, 99, is_server=True)
        b = others[2]
        for o in others:
            if o is not b:
                ex.connect(b, o, 0.0)
        assert ex.connect(b, server, 0.0) or len(b.partners) >= 2

    def test_initial_estimate_clamped_to_request_cap(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        cap = ex.config.request_cap_kbps(RATE)
        assert a.partners[2].est_kbps <= cap

    @pytest.mark.parametrize(
        ("cap", "expected"),
        [
            (40.0, 20.0),  # half the ceiling
            (600.0, 36.0),  # clamped to 0.6 * the 60 kbps request cap
        ],
    )
    def test_ends_share_neutral_estimate_and_penalty(self, cap, expected, monkeypatch):
        peers, _, ex = make_world()
        monkeypatch.setattr(
            ex.latency, "sample_link", lambda *a, **k: LinkQuality(30.0, cap)
        )
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        assert ex.connect(a, b, 5.0)
        for link in (a.partners[2], b.partners[1]):
            assert (link.rtt_ms, link.cap_kbps) == (30.0, cap)
            assert link.est_kbps == pytest.approx(expected)
            assert link.penalty == rtt_penalty(30.0)
            assert link.established_at == 5.0

    def test_disconnect_both_ends(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        a.suppliers.add(2)
        ex.disconnect(a, 2)
        assert 2 not in a.partners and 2 not in a.suppliers
        assert 1 not in b.partners


class TestSelection:
    def test_greedy_selects_until_demand(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        for i in range(2, 40):
            ex.connect(a, make_peer(peers, i), 0.0)
        ex.partner_policy.select_suppliers(a)
        assert 8 <= len(a.suppliers) <= ex.config.max_active_suppliers

    def test_server_never_selects(self):
        peers, _, ex = make_world()
        s = make_peer(peers, 1, is_server=True)
        ex.connect(s, make_peer(peers, 2), 0.0)
        ex.partner_policy.select_suppliers(s)
        assert s.suppliers == set()

    def test_tree_policy_only_uses_closer_peers(self):
        peers, _, ex = make_world(spec="tree")
        a = make_peer(peers, 1)
        a.depth = 3
        closer = make_peer(peers, 2)
        closer.depth = 2
        farther = make_peer(peers, 3)
        farther.depth = 5
        ex.connect(a, closer, 0.0)
        ex.connect(a, farther, 0.0)
        ex.partner_policy.select_suppliers(a)
        assert 2 in a.suppliers
        assert 3 not in a.suppliers

    def test_random_policy_still_selects(self):
        peers, _, ex = make_world(spec="random")
        a = make_peer(peers, 1)
        for i in range(2, 30):
            ex.connect(a, make_peer(peers, i), 0.0)
        ex.partner_policy.select_suppliers(a)
        assert len(a.suppliers) >= 8

    def test_reciprocation_bonus_prefers_mutual(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)  # b already receives from a
        c = make_peer(peers, 3)
        ex.connect(a, b, 0.0)
        ex.connect(a, c, 0.0)
        # force identical link quality so only the bonus differs
        for link in (a.partners[2], a.partners[3]):
            link.est_kbps = 50.0
            link.rtt_ms = 30.0
        b.suppliers.add(1)
        score_b = ex.partner_policy.candidate_score(a, 2, a.partners[2])
        score_c = ex.partner_policy.candidate_score(a, 3, a.partners[3])
        assert score_b > score_c

    def test_refine_drops_dead_and_weak(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        weak = make_peer(peers, 2)
        ex.connect(a, weak, 0.0)
        a.suppliers = {2, 777}  # 777 never existed
        a.partners[2].est_kbps = 1.0  # below min useful
        # plenty of healthy suppliers so the weak one is not re-added
        for i in range(3, 20):
            ex.connect(a, make_peer(peers, i), 0.0)
            a.partners[i].est_kbps = 60.0
            a.suppliers.add(i)
        ex.partner_policy.refine_suppliers(a)
        assert 777 not in a.suppliers
        assert 2 not in a.suppliers

    def test_refine_adds_when_underprovisioned(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        for i in range(2, 20):
            ex.connect(a, make_peer(peers, i), 0.0)
        a.suppliers = set()
        ex.partner_policy.refine_suppliers(a, sample_size=30)
        assert len(a.suppliers) > 0


class TestRound:
    def test_single_transfer_accounting(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2, upload=10_000.0)
        ex.connect(a, b, 0.0)
        a.suppliers = {2}
        stats = ex.run_round(0.0, 600.0)
        link = a.partners[2]
        assert link.recv_segments > 0
        assert b.partners[1].sent_segments == pytest.approx(link.recv_segments)
        assert a.recv_rate_kbps > 0
        assert b.sent_rate_kbps == pytest.approx(a.recv_rate_kbps)
        assert stats.viewers == 2  # both non-servers
        assert a.health > 0.0

    @pytest.mark.parametrize(
        ("smoothing", "expected"), [(0.5, 60.0), (1.0, 40.0)]
    )
    def test_transfer_blends_rate_into_estimate(self, smoothing, expected):
        peers, _, ex = make_world(config=ProtocolConfig(estimate_smoothing=smoothing))
        a = make_peer(peers, 1)
        b = make_peer(peers, 2, upload=10_000.0)
        ex.connect(a, b, 0.0)
        a.suppliers = {2}
        link = a.partners[2]
        link.cap_kbps = 40.0  # the request, and so the achieved rate
        link.est_kbps = 80.0
        ex.run_round(600.0, 600.0)
        assert link.est_kbps == pytest.approx(expected)
        segments = 40.0 * 600.0 / (RATE * ex.config.segment_seconds)
        assert link.recv_segments == pytest.approx(segments)
        assert b.partners[1].sent_segments == pytest.approx(segments)
        assert link.established_at == b.partners[1].established_at == 600.0

    def test_supplier_capacity_respected(self):
        peers, _, ex = make_world()
        supplier = make_peer(peers, 1, upload=100.0, health=1.0)
        receivers = [make_peer(peers, i) for i in range(2, 8)]
        for r in receivers:
            ex.connect(r, supplier, 0.0)
            r.suppliers = {1}
        ex.run_round(0.0, 600.0)
        assert supplier.sent_rate_kbps <= 100.0 + 1e-6
        total_recv = sum(r.recv_rate_kbps for r in receivers)
        assert total_recv == pytest.approx(supplier.sent_rate_kbps)

    def test_unhealthy_supplier_serves_less(self):
        peers, _, ex = make_world()
        healthy = make_peer(peers, 1, upload=400.0, health=1.0)
        sick = make_peer(peers, 2, upload=400.0, health=0.0)
        ra = make_peer(peers, 3)
        rb = make_peer(peers, 4)
        for r, s in ((ra, healthy), (rb, sick)):
            ex.connect(r, s, 0.0)
            r.suppliers = {s.peer_id}
            # saturate so capacity binds
            for i in range(5):
                extra = make_peer(peers, 100 + s.peer_id * 10 + i)
                ex.connect(extra, s, 0.0)
                extra.suppliers = {s.peer_id}
        ex.run_round(0.0, 600.0)
        assert sick.sent_rate_kbps < healthy.sent_rate_kbps

    def test_demand_converges_to_stream_rate_surplus(self):
        # With fresh (conservative) link estimates a peer over-requests for
        # a round or two; once estimates converge, its intake settles at
        # the demand level, not at the sum of all suppliers' capacity.
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        for i in range(2, 30):
            s = make_peer(peers, i, upload=10_000.0)
            ex.connect(a, s, 0.0)
            a.suppliers.add(i)
        for r in range(4):
            ex.run_round(r * 600.0, 600.0)
        assert a.recv_rate_kbps <= ex.config.demand_kbps(RATE) * 1.1

    def test_health_converges_when_supplied(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1, health=0.0)
        for i in range(2, 14):
            s = make_peer(peers, i, upload=5_000.0)
            ex.connect(a, s, 0.0)
            a.suppliers.add(i)
        for r in range(12):
            ex.run_round(r * 600.0, 600.0)
        assert a.health > 0.9
        assert a.buffer_fill > 0.5

    def test_depth_propagates_from_server(self):
        peers, _, ex = make_world()
        server = make_peer(peers, 1, is_server=True, upload=50_000.0)
        mid = make_peer(peers, 2)
        leaf = make_peer(peers, 3)
        ex.connect(mid, server, 0.0)
        ex.connect(leaf, mid, 0.0)
        mid.suppliers = {1}
        leaf.suppliers = {2}
        ex.run_round(0.0, 600.0)
        assert mid.depth == 1
        assert leaf.depth == 2

    def test_dead_supplier_dropped_in_round(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        a.suppliers = {42}  # never existed
        ex.run_round(0.0, 600.0)
        assert a.suppliers == set()


def three_step_tend(ex, peer, now):
    """The clean / recover / prune helpers the fused pass replaced, longhand."""
    for pid in [pid for pid in peer.partners if pid not in ex.peers]:
        peer.remove_partner(pid)
    cap06 = ex._consts(peer.channel_id).cap06
    for link in peer.partners.values():
        target = min(cap06, 0.7 * link.cap_kbps)
        if link.est_kbps < target:
            link.est_kbps += 0.2 * (target - link.est_kbps)
    idle_timeout = 1.5 * ex.config.report_interval_s
    victims = [
        pid
        for pid, link in peer.partners.items()
        if pid not in peer.suppliers and now - link.established_at > idle_timeout
    ]
    for pid in victims:
        ex.disconnect(peer, pid)


def churned_world(seed):
    """Random mesh with dead partners, suppliers, stale and slow links."""
    peers, _, ex = make_world(seed=seed)
    rng = random.Random(seed)
    for pid in range(40):
        make_peer(peers, pid, isp=rng.choice(["China Telecom", "China Netcom"]))
    for _ in range(400):
        a, b = rng.sample(range(40), 2)
        ex.connect(peers[a], peers[b], now=rng.uniform(0.0, 3_000.0))
    for peer in peers.values():
        peer.suppliers = {pid for pid in peer.partners if rng.random() < 0.3}
        for link in peer.partners.values():
            link.est_kbps *= rng.choice([0.05, 1.0, 3.0])
    for pid in rng.sample(range(40), 8):
        del peers[pid]
    return peers, ex


def world_state(peers):
    return {
        pid: (
            [(q, link.est_kbps, link.established_at) for q, link in peer.partners.items()],
            sorted(peer.suppliers),
        )
        for pid, peer in peers.items()
    }


class TestMaintenance:
    @pytest.mark.parametrize("seed", range(5))
    def test_fused_pass_matches_three_step_sequence(self, seed):
        fused_peers, fused = churned_world(seed)
        ref_peers, ref = churned_world(seed)
        assert world_state(fused_peers) == world_state(ref_peers)
        now = 1.5 * fused.config.report_interval_s + 1_500.0
        for pid in list(fused_peers):
            fused._tend_partners(fused_peers[pid], now)
            three_step_tend(ref, ref_peers[pid], now)
        assert world_state(fused_peers) == world_state(ref_peers)
        assert world_state(fused_peers) != world_state(churned_world(seed)[0])

    def test_gossip_adds_partner_of_partner(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        c = make_peer(peers, 3)
        ex.connect(a, b, 0.0)
        ex.connect(b, c, 0.0)
        ex._gossip(a, 10.0)
        assert 3 in a.partners  # triadic closure

    def test_prune_idle_partners(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        idle_deadline = 1.5 * ex.config.report_interval_s + 1
        ex._tend_partners(a, idle_deadline)
        assert 2 not in a.partners
        assert 1 not in b.partners

    def test_active_suppliers_not_pruned(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        a.suppliers = {2}
        ex._tend_partners(a, 10_000.0)
        assert 2 in a.partners

    def test_clean_dead_partners(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        del peers[2]
        ex._tend_partners(a, 0.0)
        assert a.partner_count == 0

    def test_volunteering_tracks_spare_capacity(self):
        peers, tracker, ex = make_world()
        a = make_peer(peers, 1, upload=1_000.0)
        a.sent_rate_kbps = 0.0
        ex._update_volunteering(a, 0.0)
        assert a.volunteered and tracker.volunteer_count(0) == 1
        a.sent_rate_kbps = 990.0  # saturated now
        ex._update_volunteering(a, 0.0)
        assert not a.volunteered and tracker.volunteer_count(0) == 0

    def test_starvation_triggers_tracker_refresh(self):
        peers, tracker, ex = make_world()
        helper = make_peer(peers, 9)
        tracker.register(0, 9)
        tracker.volunteer(0, 9)
        a = make_peer(peers, 1, health=0.1)
        a.registered = True  # admitted normally; starvation should refresh
        before = tracker.refresh_requests
        for _ in range(ex.config.starvation_ticks):
            ex._starvation_check(a, 0.0)
        assert tracker.refresh_requests == before + 1
        assert 9 in a.partners

    def test_estimate_recovery_drifts_upward(self):
        peers, _, ex = make_world()
        a = make_peer(peers, 1)
        b = make_peer(peers, 2)
        ex.connect(a, b, 0.0)
        link = a.partners[2]
        link.est_kbps = 5.0
        ex._tend_partners(a, 0.0)
        assert link.est_kbps > 5.0
        target = min(
            ex.config.request_cap_kbps(RATE), 0.7 * link.cap_kbps
        )
        for _ in range(100):
            ex._tend_partners(a, 0.0)
        assert link.est_kbps <= target + 1e-6
