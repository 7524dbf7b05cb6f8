"""Integration tests for the full UUSee system on short runs."""

import statistics

import pytest

from repro.network import build_default_database
from repro.simulator import SystemConfig, UUSeeSystem
from repro.simulator.protocol import ProtocolConfig
from repro.traces import InMemoryTraceStore
from repro.workloads import FlashCrowdEvent


def run_system(**overrides):
    defaults = {"seed": 7, "base_concurrency": 200.0, "flash_crowd": None}
    defaults.update(overrides)
    hours = defaults.pop("hours", 6)
    config = SystemConfig(**defaults)
    store = InMemoryTraceStore()
    system = UUSeeSystem(config, store)
    system.run(seconds=hours * 3600)
    return system, store


class TestSystemRun:
    def test_concurrency_tracks_target(self):
        system, _ = run_system(hours=8)
        target = system.config.population().target(system.engine.now)
        assert system.concurrent_peers() == pytest.approx(target, rel=0.45)
        assert system.concurrent_peers() > 50

    def test_deterministic_given_seed(self):
        a, store_a = run_system(hours=3)
        b, store_b = run_system(hours=3)
        assert a.total_arrivals == b.total_arrivals
        assert len(store_a.reports) == len(store_b.reports)
        assert [r.peer_ip for r in store_a.reports[:50]] == [
            r.peer_ip for r in store_b.reports[:50]
        ]

    def test_different_seeds_differ(self):
        a, _ = run_system(hours=2)
        b, _ = run_system(hours=2, seed=8)
        assert a.total_arrivals != b.total_arrivals

    def test_stable_peers_subset_of_concurrent(self):
        system, _ = run_system(hours=6)
        assert 0 < system.stable_peers() < system.concurrent_peers()

    def test_stable_fraction_near_one_third(self):
        # Fig. 1(A): stable reporting peers ~1/3 of all concurrent peers.
        system, _ = run_system(hours=10, base_concurrency=300.0)
        ratio = system.stable_peers() / system.concurrent_peers()
        assert 0.18 <= ratio <= 0.55

    def test_reports_only_from_old_enough_peers(self):
        system, store = run_system(hours=4)
        first_delay = system.config.protocol.first_report_delay_s
        interval = system.config.protocol.report_interval_s
        # Every reported peer IP joined at least first_delay before its
        # report time (report times land on join + 20min + k*10min).
        assert store.reports
        for report in store.reports[:200]:
            assert report.time >= first_delay

    def test_servers_never_report_but_appear_as_partners(self):
        system, store = run_system(hours=6)
        server_ips = {
            p.ip for p in system.peers.values() if p.is_server
        }
        reporter_ips = {r.peer_ip for r in store.reports}
        assert not (server_ips & reporter_ips)
        partner_ips = {
            p.ip for r in store.reports for p in r.partners
        }
        assert server_ips & partner_ips  # someone partnered a server

    def test_channel_shares_respected(self):
        system, _ = run_system(hours=6, base_concurrency=400.0)
        cctv1 = system.peers_in_channel(0)
        cctv4 = system.peers_in_channel(1)
        total = system.concurrent_peers()
        assert cctv1 / total == pytest.approx(0.30, abs=0.08)
        assert cctv1 > 2.5 * cctv4

    def test_isp_mix_matches_registry(self):
        system, _ = run_system(hours=4, base_concurrency=400.0)
        db = build_default_database()
        isps = [p.isp for p in system.peers.values() if not p.is_server]
        telecom = isps.count("China Telecom") / len(isps)
        assert telecom == pytest.approx(0.42, abs=0.08)
        # every viewer IP maps back to its ISP through the database
        for p in list(system.peers.values())[:100]:
            if not p.is_server:
                assert db.lookup(p.ip) == p.isp

    def test_streaming_quality_reasonable(self):
        system, _ = run_system(hours=10, base_concurrency=300.0)
        now = system.engine.now
        stable = [
            p
            for p in system.peers.values()
            if not p.is_server and p.age(now) >= 1200
        ]
        satisfied = sum(1 for p in stable if p.recv_rate_kbps >= 0.9 * 400)
        assert satisfied / len(stable) > 0.55

    def test_flash_crowd_grows_population(self):
        ev = FlashCrowdEvent(
            start=3 * 3600.0, ramp_seconds=1200, hold_seconds=7200, magnitude=2.0
        )
        system, _ = run_system(hours=5, flash_crowd=ev, base_concurrency=150.0)
        in_crowd = system.concurrent_peers()
        baseline, _ = run_system(hours=5, base_concurrency=150.0)
        assert in_crowd > 1.4 * baseline.concurrent_peers()

    def test_run_argument_validation(self):
        system, _ = run_system(hours=1)
        with pytest.raises(ValueError):
            system.run()
        with pytest.raises(ValueError):
            system.run(seconds=10, days=1)

    def test_indegree_below_emergent_ceiling(self):
        system, store = run_system(hours=8, base_concurrency=300.0)
        ceiling = system.config.protocol.indegree_ceiling(400.0)
        recent = [r for r in store.reports if r.time > system.engine.now - 600]
        for report in recent:
            assert len(report.active_suppliers()) <= ceiling + 2

    def test_mean_active_indegree_near_ten(self):
        system, store = run_system(hours=8, base_concurrency=300.0)
        recent = [r for r in store.reports if r.time > system.engine.now - 600]
        indegrees = [len(r.active_suppliers()) for r in recent]
        assert 6 <= statistics.mean(indegrees) <= 16

    def test_trace_loss_drops_reports(self):
        lossy, lossy_store = run_system(hours=4, trace_loss_rate=0.5)
        clean, clean_store = run_system(hours=4, trace_loss_rate=0.0)
        assert lossy.trace_server.dropped > 0
        assert clean.trace_server.dropped == 0
        assert len(lossy_store.reports) < len(clean_store.reports)

    def test_custom_protocol_config(self):
        protocol = ProtocolConfig(round_seconds=300.0)
        system, store = run_system(hours=3, protocol=protocol)
        assert len(system.round_stats) == 3 * 3600 / 300


@pytest.mark.parametrize("engine", ["vectorized", "soa", "soa-exact"])
def test_unknown_engine_rejected(engine):
    with pytest.raises(ValueError, match="engine"):
        SystemConfig(seed=1, base_concurrency=30.0, engine=engine)
