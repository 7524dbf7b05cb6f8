"""Integration tests for the full UUSee system on short runs."""

import gc
import statistics

import pytest

from repro.network import build_default_database
from repro.obs import NULL_OBSERVER, Observer
from repro.simulator import SystemConfig, UUSeeSystem
from repro.simulator import checkpoint
from repro.simulator.checkpoint import CheckpointManager, draw_fingerprint
from repro.simulator.gcpolicy import CAMPAIGN_THRESHOLDS
from repro.simulator.protocol import ProtocolConfig
from repro.traces import InMemoryTraceStore, SegmentedTraceReader, SegmentedTraceStore
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
        target = system.config.population().target(system.now)
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
        now = system.now
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

    def test_run_argument_validation(self, tmp_path):
        system, _ = run_system(hours=1)
        with pytest.raises(TypeError):
            system.run()
        with pytest.raises(ValueError):
            system.run(
                seconds=600,
                checkpoint=CheckpointManager(tmp_path),
                checkpoint_every_rounds=0,
            )

    def test_indegree_below_emergent_ceiling(self):
        system, store = run_system(hours=8, base_concurrency=300.0)
        ceiling = system.config.protocol.indegree_ceiling(400.0)
        recent = [r for r in store.reports if r.time > system.now - 600]
        for report in recent:
            assert len(report.active_suppliers()) <= ceiling + 2

    def test_mean_active_indegree_near_ten(self):
        system, store = run_system(hours=8, base_concurrency=300.0)
        recent = [r for r in store.reports if r.time > system.now - 600]
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


def gc_settings():
    return gc.get_threshold(), gc.get_freeze_count(), len(gc.callbacks)


def small_system(obs=NULL_OBSERVER, store=None):
    config = SystemConfig(seed=3, base_concurrency=40.0, flash_crowd=None)
    return UUSeeSystem(config, store if store is not None else InMemoryTraceStore(), obs=obs)


class TestCampaignGcPolicy:
    @pytest.fixture(params=["obs-off", "obs-on"])
    def obs(self, request):
        return Observer() if request.param == "obs-on" else NULL_OBSERVER

    def test_policy_applies_inside_run_only(self, obs):
        before = gc_settings()
        inside = []
        system = small_system(obs)
        assert system.run(seconds=1200, on_round=lambda _: inside.append(gc_settings()))
        assert gc_settings() == before
        thresholds, frozen, hooks = inside[-1]
        assert thresholds == CAMPAIGN_THRESHOLDS
        assert frozen > 0
        assert hooks == before[2] + (1 if obs.enabled else 0)

    def test_settings_restored_after_stop(self, obs):
        before = gc_settings()
        system = small_system(obs)
        assert system.run(seconds=3600, stop=lambda: True) is False
        assert system.rounds_completed == 1
        assert gc_settings() == before

    def test_settings_restored_when_round_raises(self, obs, monkeypatch):
        def boom(now, dt):
            raise RuntimeError("round failed")

        before = gc_settings()
        system = small_system(obs)
        monkeypatch.setattr(system.exchange, "run_round", boom)
        with pytest.raises(RuntimeError, match="round failed"):
            system.run(seconds=3600)
        assert gc_settings() == before

    def test_checkpoint_saves_run_under_the_policy(self, obs, tmp_path, monkeypatch):
        before = gc_settings()
        system = small_system(obs)
        system.run(seconds=1200)
        manager = CheckpointManager(tmp_path / "ckpt", obs=obs)
        inside = []
        snapshot = checkpoint.snapshot_system

        def spy(*args, **kwargs):
            inside.append(gc_settings())
            return snapshot(*args, **kwargs)

        monkeypatch.setattr(checkpoint, "snapshot_system", spy)
        manager.save(system)  # a final cut, after the run returned
        assert gc_settings() == before
        system.run(seconds=1200, checkpoint=manager, checkpoint_every_rounds=1)
        assert gc_settings() == before
        alone, *nested = inside
        assert alone == (CAMPAIGN_THRESHOLDS, alone[1], before[2])  # no pause hook
        assert alone[1] > 0
        # nested in a run: the run's scope, with only the run's own hook
        assert len(nested) == 2
        for thresholds, frozen, hooks in nested:
            assert thresholds == CAMPAIGN_THRESHOLDS and frozen > 0
            assert hooks == before[2] + (1 if obs.enabled else 0)

    def test_callers_freeze_survives_run(self):
        sentinel = [object()]
        gc.freeze()
        try:
            small_system().run(seconds=1200)
            assert gc.get_freeze_count() > 0
            # unfrozen objects land in the oldest generation
            assert all(o is not sentinel for o in gc.get_objects(generation=2))
        finally:
            gc.unfreeze()

    def test_obs_counts_forced_collection(self):
        obs = Observer()
        small_system(obs).run(seconds=1200, on_round=lambda _: gc.collect())
        counters = obs.registry.counters()
        assert counters["gc.collections"] >= 1
        assert counters["gc.collections.gen2"] >= 1
        assert obs.registry.histograms()["gc.pause"].count >= 1
        assert obs.registry.gauges()["gc.pause.max"] >= 0.0

    def test_collection_timing_reaches_no_output(self, tmp_path):
        def campaign(name, on_round=None):
            store = SegmentedTraceStore(tmp_path / name, records_per_segment=50)
            system = small_system(store=store)
            system.run(seconds=4 * 3600, on_round=on_round)
            store.close()
            paths = SegmentedTraceReader(tmp_path / name).segment_paths()
            return draw_fingerprint(system), [p.read_bytes() for p in paths]

        collected = campaign("collected", on_round=lambda _: gc.collect())
        gc.disable()
        try:
            uncollected = campaign("uncollected")
        finally:
            gc.enable()
        assert len(collected[1]) > 1
        assert collected == uncollected
