"""Draw-identity oracles for the control plane's per-partnership helpers.

Each rewritten helper is checked against the code it replaced, written
out longhand here: the same inputs must give the same result, the same
world state and the same ``rng.getstate()`` afterwards.  The goldens pin
whole campaigns; these pin each helper on the corner cases a campaign
may not reach (a population of exactly a power of two, a helper that
lists dead peers, a victim whose own supplier is the peer).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.network.latency import LatencyModel
from repro.overlay.base import sample_list
from repro.simulator.peer import Link, rtt_penalty
from repro.simulator.protocol import ProtocolConfig
from repro.simulator.util import SampleableSet
from tests.simulator.test_exchange import make_peer, make_world, world_state

ISPS = [("China Telecom", True), ("China Netcom", True), ("Oversea ISPs", False)]


# -- the replaced code, longhand ------------------------------------------


def longhand_sampleable(items, rng, k, exclude=None):
    """``SampleableSet.sample`` through ``randrange`` and ``shuffle``."""
    n = len(items)
    if n == 0 or k <= 0:
        return []
    if k >= n:
        result = [x for x in items if x != exclude]
        rng.shuffle(result)
        return result
    picked, seen = [], set()
    attempts, max_attempts = 0, 20 * k + 50
    while len(picked) < k and attempts < max_attempts:
        attempts += 1
        idx = rng.randrange(n)
        if idx in seen:
            continue
        seen.add(idx)
        if items[idx] == exclude:
            continue
        picked.append(items[idx])
    return picked


def longhand_base_rtt(tiers, isp_a, isp_b, a_china, b_china):
    if isp_a == isp_b:
        return tiers.intra_isp if a_china else tiers.intra_overseas
    if a_china and b_china:
        return tiers.inter_china
    if a_china != b_china:
        return tiers.china_overseas
    return tiers.intra_overseas


def longhand_connect(ex, a, b, now):
    """``connect`` with keyword China flags, the tier rules through
    ``base_rtt``'s old if-chain, ``min`` and ``rtt_penalty``."""
    if a.peer_id == b.peer_id or b.peer_id in a.partners:
        return False
    faults = ex.faults
    if faults.has_link_faults and faults.link_blocked(a.isp, b.isp, now):
        return False
    max_partners = ex.config.max_partners
    if len(b.partners) >= max_partners * (4 if b.is_server else 1):
        return False
    if len(a.partners) >= max_partners:
        return False
    model = ex.latency
    rng = model._rng
    median = longhand_base_rtt(model.tiers, a.isp, b.isp, a.is_china, b.is_china)
    rtt = median * math.exp(rng.gauss(0.0, model.rtt_sigma))
    throughput = model.window_kbits / rtt * math.exp(rng.gauss(0.0, 0.25))
    cap = max(model.min_throughput_kbps, throughput)
    neutral = min(ex._consts(a.channel_id).neutral_hi, cap * 0.5)
    penalty = rtt_penalty(rtt)
    a.partners[b.peer_id] = Link(rtt, cap, neutral, penalty, now, b.ip)
    b.add_partner(a.peer_id, Link(rtt, cap, neutral, penalty, now, a.ip))
    return True


def longhand_tend(ex, peer, now):
    """The fused walk with each idle disconnect as two ``remove_partner``s."""
    peers, partners = ex.peers, peer.partners
    cap06 = ex._consts(peer.channel_id).cap06
    idle_timeout = 1.5 * ex.config.report_interval_s
    dead, victims = [], []
    for pid, link in partners.items():
        if pid not in peers:
            dead.append(pid)
            continue
        target = min(cap06, 0.7 * link.cap_kbps)
        if link.est_kbps < target:
            link.est_kbps += 0.2 * (target - link.est_kbps)
        if pid not in peer.suppliers and now - link.established_at > idle_timeout:
            victims.append(pid)
    for pid in dead:
        peer.remove_partner(pid)
    for pid in victims:
        peer.remove_partner(pid)
        other = peers.get(pid)
        if other is not None:
            other.remove_partner(peer.peer_id)
    return len(victims)


def longhand_gossip(ex, peer, now):
    """``_gossip`` with the alive filters and ``rng.sample``."""
    partners = peer.partners
    if not partners or peer.is_server:
        return
    peers = ex.peers
    alive = [pid for pid in partners if pid in peers]
    if not alive:
        return
    rng = ex.rng
    helper = peers[rng.choice(alive)]
    their_ids = [
        pid
        for pid in helper.partners
        if pid != peer.peer_id and pid not in partners and pid in peers
    ]
    if not their_ids:
        return
    k = min(ex.config.gossip_fanout, len(their_ids))
    pool = (
        rng.sample(their_ids, min(2 * k, len(their_ids)))
        if len(their_ids) > 2 * k
        else their_ids
    )
    pool = ex.partner_policy.order_gossip_pool(helper, pool)
    for pid in pool[:k]:
        other = peers.get(pid)
        if other is not None and not other.is_server:
            ex.connect(peer, other, now)


def longhand_refine(policy, peer, sample_size=10):
    """The base ``refine_suppliers`` with ``sum``/``min`` and ``rng.sample``."""
    if peer.is_server:
        return
    engine = policy.engine
    cfg = engine.config
    consts = engine._consts(peer.channel_id)
    demand, cap = consts.demand_standby, consts.request_cap
    min_useful, max_active = cfg.min_useful_link_kbps, cfg.max_active_suppliers
    peers_get, partners, suppliers = engine.peers.get, peer.partners, peer.suppliers
    for pid in list(suppliers):
        link = partners.get(pid)
        if peers_get(pid) is None or link is None or link.est_kbps < min_useful:
            suppliers.discard(pid)
    expected = sum(
        min(partners[pid].est_kbps, cap) for pid in sorted(suppliers) if pid in partners
    )
    if expected >= demand or len(suppliers) >= max_active:
        return
    non_suppliers = [pid for pid in partners if pid not in suppliers]
    if not non_suppliers:
        return
    if len(non_suppliers) > sample_size:
        pool = engine.rng.sample(non_suppliers, sample_size)
    else:
        pool = non_suppliers
    scored = []
    for pid in pool:
        other = peers_get(pid)
        if other is None:
            continue
        score = policy.refine_score(peer, pid, partners[pid], other)
        if score is not None:
            scored.append((score, pid))
    scored.sort(reverse=True)
    for _, pid in scored:
        if expected >= demand or len(suppliers) >= max_active:
            break
        suppliers.add(pid)
        expected += max(min_useful, min(partners[pid].est_kbps, cap))


def longhand_greedy_fill(policy, peer, candidates):
    engine = policy.engine
    consts = engine._consts(peer.channel_id)
    cfg = engine.config
    candidates.sort()
    chosen, expected = set(), 0.0
    for _, pid, link in candidates:
        if expected >= consts.demand_standby or len(chosen) >= cfg.max_active_suppliers:
            break
        chosen.add(pid)
        expected += max(
            cfg.min_useful_link_kbps,
            link.est_kbps if link.est_kbps < consts.request_cap else consts.request_cap,
        )
    peer.suppliers = chosen


# -- twin worlds ------------------------------------------------------------


def mesh(seed, *, peers_n=40, links=400, servers=2, config=None):
    """Random mesh over three ISPs with servers, slow and stale links."""
    peers, _, ex = make_world(seed=seed, config=config)
    rng = random.Random(seed)
    for pid in range(peers_n):
        isp, china = rng.choice(ISPS)
        peer = make_peer(peers, pid, isp=isp, is_server=pid < servers)
        peer.is_china = china
    for _ in range(links):
        a, b = rng.sample(range(peers_n), 2)
        ex.connect(peers[a], peers[b], now=rng.uniform(0.0, 3_000.0))
    for peer in peers.values():
        peer.suppliers = {pid for pid in peer.partners if rng.random() < 0.3}
        for link in peer.partners.values():
            link.est_kbps *= rng.choice([0.05, 1.0, 3.0])
    return peers, ex, rng


def link_slots(peers):
    return {
        pid: [(q, *(getattr(link, s) for s in Link.__slots__)) for q, link in p.partners.items()]
        for pid, p in peers.items()
    }


# -- oracles ------------------------------------------------------------------


POWERS = sorted({m + d for m in (1, 2, 4, 8, 16, 32, 64) for d in (-1, 0, 1)} - {0})


class TestSampleableSetDraws:
    @pytest.mark.parametrize("n", POWERS)
    def test_matches_randrange_and_shuffle(self, n):
        items = [1000 + 7 * i for i in range(n)]
        ks = sorted({1, max(1, n // 2), n - 1, n, n + 3} - {0})
        for k in ks:
            for exclude in (None, items[n // 2], -1):
                for seed in range(4):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    got = SampleableSet(items).sample(ours, k, exclude=exclude)
                    assert got == longhand_sampleable(items, theirs, k, exclude)
                    assert ours.getstate() == theirs.getstate()

    def test_matches_after_discards(self):
        # Removal swaps the tail into the hole: the sampled order is the
        # backing list's, whatever it has become.
        s = SampleableSet(range(40))
        for item in (3, 39, 17, 0):
            s.discard(item)
        for seed in range(10):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert s.sample(ours, 12, exclude=5) == longhand_sampleable(
                list(s), theirs, 12, 5
            )
            assert ours.getstate() == theirs.getstate()


class TestSampleListDraws:
    @pytest.mark.parametrize("k", [0, 1, 5, 6, 10, 16])
    def test_matches_random_sample(self, k):
        # Both of the library's paths: the pool while n is small next to
        # a k-set (n <= 21, or 85 from k = 6), rejection above it.
        for n in (k, k + 1, 20, 21, 22, 84, 85, 86, 200):
            if n < k:
                continue
            population = [3 * i + 1 for i in range(n)]
            for seed in range(5):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert sample_list(ours, population, k) == theirs.sample(population, k)
                assert ours.getstate() == theirs.getstate()

    def test_rejects_like_random_sample(self):
        with pytest.raises(ValueError):
            sample_list(random.Random(0), [1, 2], 3)
        with pytest.raises(ValueError):
            sample_list(random.Random(0), [1, 2], -1)


class TestLatencyTierTable:
    def test_median_matches_tier_rules(self):
        model = LatencyModel()
        for isp_a, a_china in ISPS:
            for isp_b, b_china in ISPS + [(isp_a, not a_china)]:
                expected = longhand_base_rtt(model.tiers, isp_a, isp_b, a_china, b_china)
                assert model.base_rtt(isp_a, isp_b, a_china=a_china, b_china=b_china) == (
                    expected
                )


class TestConnectDraws:
    @pytest.mark.parametrize("seed", range(4))
    def test_both_ends_match_longhand(self, seed):
        config = ProtocolConfig(max_partners=6)  # refusals on both ends
        ours, ex, _ = mesh(seed, links=0, config=config)
        theirs, ref, _ = mesh(seed, links=0, config=config)
        rng = random.Random(seed + 100)
        results = []
        for _ in range(300):
            a, b = rng.randrange(40), rng.randrange(40)
            now = rng.uniform(0.0, 3_000.0)
            got = ex.connect(ours[a], ours[b], now)
            assert got == longhand_connect(ref, theirs[a], theirs[b], now)
            results.append(got)
        assert link_slots(ours) == link_slots(theirs)
        assert ex.latency._rng.getstate() == ref.latency._rng.getstate()
        assert True in results and False in results
        attempts, connects, _ = ex.take_partnership_counts()
        assert (attempts, connects) == (300, sum(results))


class TestTendDraws:
    @pytest.mark.parametrize("seed", range(5))
    def test_inline_disconnect_matches_remove_partner(self, seed):
        ours, ex, _ = mesh(seed)
        theirs, ref, rng = mesh(seed)
        for pid in rng.sample(range(2, 40), 8):
            del ours[pid], theirs[pid]
        now = 1.5 * ex.config.report_interval_s + 1_500.0
        ex.take_partnership_counts()
        victims = 0
        for pid in list(ours):
            ex._tend_partners(ours[pid], now)
            victims += longhand_tend(ref, theirs[pid], now)
        assert world_state(ours) == world_state(theirs)
        assert link_slots(ours) == link_slots(theirs)
        assert victims > 0
        assert ex.take_partnership_counts()[2] == victims


class TestGossipDraws:
    @pytest.mark.parametrize("seed", range(5))
    def test_candidates_and_connects_match_longhand(self, seed, monkeypatch):
        ours, ex, _ = mesh(seed, links=250)
        theirs, ref, rng = mesh(seed, links=250)
        for pid in rng.sample(range(2, 40), 6):
            del ours[pid], theirs[pid]
        # Record each candidate pool the policy is asked to order, with
        # what the helper listed at the time.
        calls = {id(ex): [], id(ref): []}
        asking = [-1]
        for engine in (ex, ref):
            order = engine.partner_policy.order_gossip_pool

            def recorded(helper, pool, order=order, engine=engine):
                calls[id(engine)].append(
                    (asking[0], helper.peer_id, list(helper.partners), list(pool))
                )
                return order(helper, pool)

            monkeypatch.setattr(engine.partner_policy, "order_gossip_pool", recorded)
        now = 500.0
        for pid in list(ours):
            asking[0] = pid
            # A tick tends the partner list before it gossips.
            ex._tend_partners(ours[pid], now)
            ref._tend_partners(theirs[pid], now)
            ex._gossip(ours[pid], now)
            longhand_gossip(ref, theirs[pid], now)
            assert ex.rng.getstate() == ref.rng.getstate()
        assert calls[id(ex)] == calls[id(ref)]
        assert world_state(ours) == world_state(theirs)
        listed = [q for _, _, partners, _ in calls[id(ex)] for q in partners]
        assert any(q not in ours for q in listed)  # dead peers
        assert any(q in ours and ours[q].is_server for q in listed)  # servers
        for asker, _, partners, pool in calls[id(ex)]:
            assert asker in partners  # links are mutual: the helper lists self
            assert asker not in pool
            assert all(q in ours for q in pool)


class TestOverlayDraws:
    @pytest.mark.parametrize("seed", range(5))
    def test_refine_matches_longhand(self, seed):
        ours, ex, _ = mesh(seed, links=600)
        theirs, ref, rng = mesh(seed, links=600)
        for pid in rng.sample(range(2, 40), 5):
            del ours[pid], theirs[pid]
        for pid in list(ours):
            ex.partner_policy.refine_suppliers(ours[pid])
            longhand_refine(ref.partner_policy, theirs[pid])
            assert ex.rng.getstate() == ref.rng.getstate()
        assert world_state(ours) == world_state(theirs)

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_fill_matches_longhand(self, seed):
        ours, ex, _ = mesh(seed, links=600)
        theirs, ref, _ = mesh(seed, links=600)
        for pid in ours:
            peer = ours[pid]
            scored = [(-link.est_kbps / link.penalty, q, link) for q, link in peer.partners.items()]
            ex.partner_policy._greedy_fill(peer, scored)
            twin = theirs[pid]
            scored = [(-link.est_kbps / link.penalty, q, link) for q, link in twin.partners.items()]
            longhand_greedy_fill(ref.partner_policy, twin, scored)
        assert world_state(ours) == world_state(theirs)
