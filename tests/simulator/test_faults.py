"""Tests for the layered fault model: brownouts, partitions, crashes, backoff."""

import math
import random

import pytest

from repro.network.latency import LatencyModel
from repro.overlay import build_policy
from repro.simulator import SystemConfig, UUSeeSystem
from repro.simulator.channel import Channel, ChannelCatalogue
from repro.simulator.exchange import ExchangeEngine
from repro.simulator.failures import (
    Brownout,
    CrashWindow,
    FaultPlan,
    IspPartition,
    LinkDegradation,
    Outage,
    OutageSchedule,
)
from repro.simulator.peer import Peer
from repro.simulator.protocol import ProtocolConfig
from repro.simulator.tracker import Tracker
from repro.traces import InMemoryTraceStore

HOUR = 3600.0


class TestBrownout:
    def test_capacity_math(self):
        plan = FaultPlan(
            tracker_brownouts=[
                Brownout(10.0, 30.0, capacity=0.5),
                Brownout(20.0, 40.0, capacity=0.2),
            ]
        )
        assert plan.tracker_capacity(5.0) == 1.0
        assert plan.tracker_capacity(15.0) == 0.5
        # overlapping brownouts compose as the minimum, not a product
        assert plan.tracker_capacity(25.0) == 0.2
        assert plan.tracker_capacity(35.0) == 0.2
        assert plan.tracker_capacity(40.0) == 1.0

    def test_outage_dominates_brownout(self):
        plan = FaultPlan(
            outages=OutageSchedule(tracker_outages=[Outage(0.0, 100.0)]),
            tracker_brownouts=[Brownout(0.0, 100.0, capacity=0.9)],
        )
        assert plan.tracker_capacity(50.0) == 0.0

    def test_server_capacity(self):
        plan = FaultPlan(server_brownouts=[Brownout(0.0, 10.0, capacity=0.25)])
        assert plan.server_capacity(5.0) == 0.25
        assert plan.server_capacity(15.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Brownout(0.0, 10.0, capacity=1.5)
        with pytest.raises(ValueError):
            Brownout(0.0, 10.0, capacity=float("nan"))
        with pytest.raises(ValueError):
            Brownout(10.0, 10.0, capacity=0.5)


class TestPartition:
    def test_symmetry(self):
        p = IspPartition(0.0, 100.0, isps=frozenset({"China Telecom"}))
        assert p.severs("China Telecom", "China Netcom", 50.0)
        assert p.severs("China Netcom", "China Telecom", 50.0)

    def test_same_side_unaffected(self):
        p = IspPartition(0.0, 100.0, isps=frozenset({"A", "B"}))
        assert not p.severs("A", "B", 50.0)  # both inside
        assert not p.severs("C", "D", 50.0)  # both outside
        assert p.severs("A", "C", 50.0)

    def test_inactive_outside_window(self):
        p = IspPartition(10.0, 20.0, isps=frozenset({"A"}))
        assert not p.severs("A", "B", 5.0)
        assert not p.severs("A", "B", 20.0)

    def test_plan_link_blocked_symmetric(self):
        plan = FaultPlan(partitions=[IspPartition(0.0, 100.0, isps={"A"})])
        assert plan.link_blocked("A", "B", 1.0) == plan.link_blocked("B", "A", 1.0)
        assert not plan.link_blocked("B", "C", 1.0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            IspPartition(0.0, 10.0, isps=frozenset())


class TestDegradation:
    def test_cross_isp_only(self):
        d = LinkDegradation(0.0, 100.0, factor=0.3)
        assert d.applies("A", "B", 50.0)
        assert not d.applies("A", "A", 50.0)
        both = LinkDegradation(0.0, 100.0, factor=0.3, cross_isp_only=False)
        assert both.applies("A", "A", 50.0)

    def test_min_factor_wins(self):
        plan = FaultPlan(
            degradations=[
                LinkDegradation(0.0, 100.0, factor=0.5),
                LinkDegradation(50.0, 100.0, factor=0.2),
            ]
        )
        assert plan.link_factor("A", "B", 25.0) == 0.5
        assert plan.link_factor("A", "B", 75.0) == 0.2
        assert plan.link_factor("A", "A", 75.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkDegradation(0.0, 10.0, factor=-0.1)
        with pytest.raises(ValueError):
            LinkDegradation(0.0, 10.0, factor=float("inf"))


class TestOutageScheduleIndex:
    def test_bisect_matches_linear_scan(self):
        rng = random.Random(42)
        outages = []
        for _ in range(40):
            start = rng.uniform(0.0, 10_000.0)
            outages.append(Outage(start, start + rng.uniform(1.0, 500.0)))
        schedule = OutageSchedule(tracker_outages=list(outages))
        for t in [rng.uniform(-100.0, 11_000.0) for _ in range(500)]:
            expected = any(o.active(t) for o in outages)
            assert schedule.tracker_down(t) == expected

    def test_boundary_semantics_preserved(self):
        # half-open [start, end): adjacent windows merge seamlessly
        schedule = OutageSchedule(
            tracker_outages=[Outage(0.0, 10.0), Outage(10.0, 20.0)]
        )
        assert schedule.tracker_down(0.0)
        assert schedule.tracker_down(10.0)
        assert schedule.tracker_down(19.999)
        assert not schedule.tracker_down(20.0)

    def test_nan_window_rejected(self):
        with pytest.raises(ValueError):
            Outage(float("nan"), 10.0)
        with pytest.raises(ValueError):
            Outage(0.0, float("inf"))


class TestCrashHazard:
    def test_rates_sum_while_active(self):
        plan = FaultPlan(
            crashes=[
                CrashWindow(0.0, 100.0, rate_per_hour=1.8),
                CrashWindow(50.0, 100.0, rate_per_hour=1.8),
            ]
        )
        assert plan.crash_hazard(25.0) == pytest.approx(1.8 / 3600.0)
        assert plan.crash_hazard(75.0) == pytest.approx(3.6 / 3600.0)
        assert plan.crash_hazard(150.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CrashWindow(0.0, 10.0, rate_per_hour=-1.0)


def run_system(faults, *, hours=3, base=150.0, seed=11):
    config = SystemConfig(
        seed=seed, base_concurrency=base, flash_crowd=None, faults=faults
    )
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=hours * HOUR)
    return system


class TestCrashVsLeave:
    def test_crashes_counted_separately(self):
        faults = FaultPlan(
            crashes=[CrashWindow(1 * HOUR, 2 * HOUR, rate_per_hour=2.0)]
        )
        system = run_system(faults)
        assert system.total_crashes > 0
        assert system.total_departures > 0
        # the system keeps running after the crash wave
        assert system.concurrent_peers() > 20

    def test_crashes_leave_stale_tracker_entries(self):
        # Freeze the system right at the end of a crash wave: crashed
        # peers are gone from ``peers`` but still registered.
        faults = FaultPlan(
            crashes=[CrashWindow(1 * HOUR, 2 * HOUR, rate_per_hour=4.0)]
        )
        config = SystemConfig(
            seed=5, base_concurrency=150.0, flash_crowd=None, faults=faults
        )
        system = UUSeeSystem(config, InMemoryTraceStore())
        system.run(seconds=2 * HOUR)  # stop at the crash window's edge
        assert system.total_crashes > 0
        registered = sum(
            system.tracker.member_count(ch.channel_id)
            for ch in system.catalogue
        )
        live_registered = sum(
            1 for p in system.peers.values() if p.registered
        )
        # Stale entries: more registrations than living registered peers.
        assert registered > live_registered

    def test_graceful_leaves_unregister(self):
        system = run_system(FaultPlan())
        assert system.total_crashes == 0
        registered = sum(
            system.tracker.member_count(ch.channel_id)
            for ch in system.catalogue
        )
        live_registered = sum(1 for p in system.peers.values() if p.registered)
        assert registered == live_registered


def make_world(config=None, faults=None, seed=0):
    peers = {}
    catalogue = ChannelCatalogue([Channel(0, "CH", 400.0, 1.0)])
    tracker = Tracker(seed=seed, server_probability=0.0)
    engine = ExchangeEngine(
        peers=peers,
        catalogue=catalogue,
        tracker=tracker,
        latency=LatencyModel(seed=seed),
        config=config or ProtocolConfig(),
        partner_policy=build_policy("uusee", seed=seed),
        seed=seed,
        faults=faults,
    )
    return peers, tracker, engine


def make_peer(peers, peer_id, isp="China Telecom"):
    peer = Peer(
        peer_id,
        ip=10_000 + peer_id,
        isp=isp,
        is_china=True,
        channel_id=0,
        upload_kbps=800.0,
        download_kbps=4_000.0,
        class_name="cable",
        join_time=0.0,
        depart_time=float("inf"),
    )
    peers[peer_id] = peer
    return peer


class TestTrackerBackoff:
    def test_exponential_growth_and_cap(self):
        cfg = ProtocolConfig(tracker_retry_jitter=0.0)
        faults = FaultPlan(
            outages=OutageSchedule(tracker_outages=[Outage(0.0, 1e9)])
        )
        peers, _, ex = make_world(config=cfg, faults=faults)
        peer = make_peer(peers, 1)
        delays = []
        now = 0.0
        for _ in range(8):
            assert not ex.tracker_contact(peer, now)
            delays.append(peer.next_tracker_retry - now)
            now = peer.next_tracker_retry
        base = cfg.tracker_retry_base_s
        assert delays[0] == base
        assert delays[1] == 2 * base
        assert delays[2] == 4 * base
        # bounded: never exceeds the cap
        assert max(delays) == cfg.tracker_retry_cap_s
        assert delays[-1] == cfg.tracker_retry_cap_s

    def test_deterministic_under_fixed_seed(self):
        faults = FaultPlan(tracker_brownouts=[Brownout(0.0, 1e9, capacity=0.3)])

        def schedule(seed):
            peers, _, ex = make_world(faults=faults, seed=seed)
            peer = make_peer(peers, 1)
            out = []
            now = 0.0
            for _ in range(12):
                ex.tracker_contact(peer, now)
                out.append((peer.tracker_failures, peer.next_tracker_retry))
                now += 60.0
            return out

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_success_resets_backoff(self):
        peers, _, ex = make_world()
        peer = make_peer(peers, 1)
        peer.tracker_failures = 5
        peer.next_tracker_retry = 123.0
        assert ex.tracker_contact(peer, now=200.0)
        assert peer.tracker_failures == 0
        assert peer.next_tracker_retry == math.inf
        assert peer.registered

    def test_partition_blocks_new_connections(self):
        faults = FaultPlan(
            partitions=[IspPartition(0.0, 100.0, isps={"China Telecom"})]
        )
        peers, _, ex = make_world(faults=faults)
        a = make_peer(peers, 1, isp="China Telecom")
        b = make_peer(peers, 2, isp="China Netcom")
        c = make_peer(peers, 3, isp="China Telecom")
        assert not ex.connect(a, b, now=50.0)  # across the cut
        assert ex.connect(a, c, now=50.0)  # same side
        assert ex.connect(a, b, now=150.0)  # partition healed


class TestFaultPlanPlumbing:
    def test_fault_free_run_identical_to_no_plan(self):
        # An empty FaultPlan must not perturb the random streams.
        base = run_system(None, hours=2)
        with_plan = run_system(FaultPlan(), hours=2)
        assert base.total_arrivals == with_plan.total_arrivals
        assert len(base.round_stats) == len(with_plan.round_stats)
        assert [s.satisfied for s in base.round_stats] == [
            s.satisfied for s in with_plan.round_stats
        ]

    def test_outages_and_brownouts_share_one_plan(self):
        plan = FaultPlan(
            outages=OutageSchedule(tracker_outages=[Outage(20.0, 30.0)]),
            tracker_brownouts=[Brownout(0.0, 10.0, capacity=0.5)],
        )
        assert plan.tracker_capacity(5.0) == 0.5
        assert plan.tracker_capacity(25.0) == 0.0
        assert plan.tracker_capacity(35.0) == 1.0
