"""Tests for failure injection: tracker and server outages."""

import pytest

from repro.simulator import SystemConfig, UUSeeSystem
from repro.simulator.failures import FaultPlan, Outage, OutageSchedule
from repro.traces import InMemoryTraceStore

HOUR = 3600.0


def run_with(outages, hours=8, base=250.0, seed=9):
    config = SystemConfig(
        seed=seed,
        base_concurrency=base,
        flash_crowd=None,
        faults=FaultPlan(outages=outages),
    )
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=hours * HOUR)
    return system


def satisfied_at(system, when):
    stats = min(system.round_stats, key=lambda s: abs(s.time - when))
    return stats.satisfied_fraction()


def stable_satisfied_now(system):
    now = system.now
    stable = [
        p
        for p in system.peers.values()
        if not p.is_server and p.age(now) >= 1200
    ]
    if not stable:
        return 0.0
    good = sum(1 for p in stable if p.recv_rate_kbps >= 0.9 * 400)
    return good / len(stable)


class TestOutageSchedule:
    def test_window_semantics(self):
        o = Outage(start=10.0, end=20.0)
        assert not o.active(9.9)
        assert o.active(10.0)
        assert o.active(19.9)
        assert not o.active(20.0)
        assert o.duration == 10.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Outage(start=5.0, end=5.0)

    def test_schedule_queries(self):
        schedule = OutageSchedule(
            tracker_outages=[Outage(0.0, 10.0)],
            server_outages=[Outage(20.0, 30.0)],
        )
        assert schedule.tracker_down(5.0)
        assert not schedule.tracker_down(15.0)
        assert schedule.servers_down(25.0)
        assert not schedule.empty
        assert OutageSchedule().empty


class TestTrackerOutage:
    def test_newcomers_degraded_then_recover(self):
        outage = Outage(start=4 * HOUR, end=5 * HOUR)
        system = run_with(OutageSchedule(tracker_outages=[outage]))
        now = system.now
        # peers that joined during the outage and are still young had no
        # bootstrap; check that joins kept happening regardless
        assert system.concurrent_peers() > 50
        # quality after recovery is healthy again (stable peers)
        assert stable_satisfied_now(system) > 0.5

    def test_quality_dips_during_outage(self):
        outage = Outage(start=4 * HOUR, end=5.5 * HOUR)
        degraded = run_with(OutageSchedule(tracker_outages=[outage]))
        baseline = run_with(OutageSchedule())
        during_degraded = satisfied_at(degraded, 5.4 * HOUR)
        during_baseline = satisfied_at(baseline, 5.4 * HOUR)
        assert during_degraded < during_baseline

    def test_volunteering_paused_during_outage(self):
        # an outage covering the whole run: the volunteer lists only ever
        # hold the servers (which volunteered at construction time)
        outage = Outage(start=0.0, end=100 * HOUR)
        system = run_with(OutageSchedule(tracker_outages=[outage]), hours=2)
        total_volunteers = sum(
            system.tracker.volunteer_count(c.channel_id)
            for c in system.catalogue
        )
        assert total_volunteers <= len(list(system.catalogue))


class TestServerOutage:
    def test_mesh_survives_origin_loss(self):
        # servers down for one round-trip of the buffer: established peers
        # keep exchanging what they hold (the paper's reciprocity point)
        outage = Outage(start=5 * HOUR, end=5.5 * HOUR)
        system = run_with(OutageSchedule(server_outages=[outage]))
        during = satisfied_at(system, 5.4 * HOUR)
        assert during > 0.2  # degraded but alive (mesh redistribution)
        assert stable_satisfied_now(system) > 0.5  # recovered

    def test_servers_send_nothing_while_down(self):
        outage = Outage(start=2 * HOUR, end=4 * HOUR)
        system = run_with(OutageSchedule(server_outages=[outage]), hours=3)
        servers = [p for p in system.peers.values() if p.is_server]
        assert all(s.sent_rate_kbps == 0.0 for s in servers)
