"""Exporter tests: JSONL event log, Prometheus text, snapshots, summarize."""

import gc
import json
import resource

import pytest

from repro.core.experiments import run_campaign

from repro.obs import (
    NULL_OBSERVER,
    JsonlEventLog,
    ManualClock,
    MetricsRegistry,
    Observer,
    create_observer,
    finalize_observer,
    read_events,
    render_prometheus,
    render_summary,
    summarize_dir,
    write_metrics_snapshot,
)
from repro.simulator.gcpolicy import campaign_gc
from tests.obs.test_integration import DETERMINISTIC_COUNTERS


class TestJsonlEventLog:
    def test_appends_compact_sorted_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path)
        log.emit({"b": 2, "a": 1})
        log.close()
        assert path.read_text() == '{"a":1,"b":2}\n'

    def test_append_mode_extends_existing_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        for i in range(2):
            log = JsonlEventLog(path)
            log.emit({"run": i})
            log.close()
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"run": 0},
            {"run": 1},
        ]

    def test_flush_every(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonlEventLog(path, flush_every=2)
        log.emit({"n": 1})
        log.emit({"n": 2})  # triggers a flush
        assert len(path.read_text().splitlines()) == 2
        log.close()

    def test_emit_after_close_raises(self, tmp_path):
        log = JsonlEventLog(tmp_path / "e.jsonl")
        log.close()
        log.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            log.emit({})

    def test_creates_parent_directories(self, tmp_path):
        log = JsonlEventLog(tmp_path / "a" / "b" / "e.jsonl")
        log.emit({"ok": True})
        log.close()
        assert (tmp_path / "a" / "b" / "e.jsonl").exists()


class TestPrometheus:
    def test_rendering(self):
        reg = MetricsRegistry()
        reg.counter("sim.rounds").add(3)
        reg.gauge("sim.peers").set(42.0)
        h = reg.histogram("round.total", boundaries=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = render_prometheus(reg)
        assert "# TYPE sim_rounds_total counter\nsim_rounds_total 3" in text
        assert "# TYPE sim_peers gauge\nsim_peers 42" in text
        # cumulative le-buckets with an +Inf catch-all
        assert 'round_total_bucket{le="0.1"} 1' in text
        assert 'round_total_bucket{le="1"} 2' in text
        assert 'round_total_bucket{le="+Inf"} 3' in text
        assert "round_total_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestSnapshots:
    def test_write_metrics_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").add(2)
        write_metrics_snapshot(reg, tmp_path)
        state = json.loads((tmp_path / "metrics.json").read_text())
        assert state["counters"] == {"c": 2.0}
        assert "c_total 2" in (tmp_path / "metrics.prom").read_text()


class TestObserverLifecycle:
    def test_create_without_dir_is_null(self):
        assert create_observer(None) is NULL_OBSERVER

    def test_finalize_null_is_noop(self, tmp_path):
        finalize_observer(NULL_OBSERVER, None)
        finalize_observer(NULL_OBSERVER, tmp_path)  # nothing written
        assert not (tmp_path / "metrics.json").exists()

    def test_create_then_finalize_writes_all_files(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        assert isinstance(obs, Observer)
        obs.count("sim.rounds")
        with obs.span("round.total"):
            pass
        finalize_observer(obs, tmp_path)
        events, bad = read_events(tmp_path / "events.jsonl")
        assert bad == 0
        assert [e["type"] for e in events] == ["span"]
        state = json.loads((tmp_path / "metrics.json").read_text())
        assert state["counters"]["sim.rounds"] == 1.0
        assert (tmp_path / "metrics.prom").exists()


class TestSummarize:
    def test_read_events_skips_torn_and_non_dict_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"type":"span","name":"a","wall_s":1.0,"sim_s":0.0,"depth":0}\n'
            "[1,2,3]\n"
            "\n"
            '{"type":"round","round":1}\n'
            '{"type":"span","name":"a","wall'  # torn final line
        )
        events, bad = read_events(path)
        assert len(events) == 2
        assert bad == 2

    def test_summarize_dir_aggregates_spans(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        for wall in (0.1, 0.3):
            with obs.span("round.total"):
                clock.advance(wall)
        with pytest.raises(ValueError):
            with obs.span("round.total"):
                clock.advance(0.2)
                raise ValueError("boom")
        finalize_observer(obs, tmp_path)

        summary = summarize_dir(tmp_path)
        stats = summary.spans["round.total"]
        assert stats.count == 3
        assert stats.wall_total == pytest.approx(0.6)
        assert stats.wall_mean == pytest.approx(0.2)
        assert stats.wall_max == pytest.approx(0.3)
        assert stats.errors == 1

    def test_render_summary_sections(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        with obs.span("round.exchange"):
            clock.advance(0.1)
        with obs.span("analytics.metric.degrees"):
            clock.advance(0.2)
        with obs.span("recover.scan"):
            clock.advance(0.3)
        obs.count("sim.rounds", 5)
        obs.gauge_set("sim.peers", 10)
        finalize_observer(obs, tmp_path)

        text = render_summary(tmp_path)
        assert "Round-phase timings" in text
        assert "Analytics timings" in text
        assert "Other timings" in text
        assert "Counters" in text
        assert "Gauges" in text
        assert "sim.rounds" in text

    def test_render_summary_gc_section(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        with campaign_gc(obs):
            hook = gc.callbacks[-1]
            for generation, pause in ((0, 0.004), (2, 0.025)):
                hook("start", {"generation": generation})
                clock.advance(pause)
                hook("stop", {"generation": generation})
        finalize_observer(obs, tmp_path)

        summary = summarize_dir(tmp_path)
        assert summary.counters["gc.collections"] >= 2
        assert summary.counters["gc.collections.gen2"] >= 1
        # any real collection in the scope lasts 0 s on the manual clock
        assert summary.histograms["gc.pause"]["total"] == pytest.approx(0.029)
        assert summary.gauges["gc.pause.max"] == pytest.approx(0.025)
        text = render_summary(tmp_path)
        assert "Garbage collection" in text
        assert "gen-2 collections" in text

    def test_render_summary_without_gc_metrics(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        obs.count("sim.rounds")
        finalize_observer(obs, tmp_path)
        assert "Garbage collection" not in render_summary(tmp_path)

    def test_render_summary_checkpoint_line(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        for wall, size in ((0.010, 1_000_000), (0.025, 2_000_000)):
            with obs.span("checkpoint.save"):
                clock.advance(wall)
            obs.count("checkpoint.bytes", size)
        finalize_observer(obs, tmp_path)
        text = render_summary(tmp_path)
        assert (
            "Checkpoints: 2 saves, 0.035 s total, max 25.0 ms, 1.50 MB per save"
            in text
        )

    def test_render_summary_checkpoint_line_ends_with_peak_rss(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        with obs.span("checkpoint.save"):
            clock.advance(0.010)
        obs.count("checkpoint.bytes", 1_000_000)
        obs.gauge_set("process.peak_rss_mb", 72.34)
        finalize_observer(obs, tmp_path)
        assert (
            "Checkpoints: 1 saves, 0.010 s total, max 10.0 ms, 1.00 MB per save, "
            "peak RSS 72.3 MB\n"
        ) in render_summary(tmp_path)

    def test_checkpoint_saves_set_peak_rss_gauge(self, tmp_path):
        obs_dir = tmp_path / "obs"
        obs = create_observer(obs_dir)
        run_campaign(
            tmp_path / "trace", days=0.02, base_concurrency=20, seed=3,
            with_flash_crowd=False, obs=obs,
        )
        finalize_observer(obs, obs_dir)
        peak = obs.registry.gauges()["process.peak_rss_mb"]
        high_water = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        assert 0 < peak <= high_water
        # a host measurement: never resume-checked, never in health.json
        assert "process.peak_rss_mb" not in DETERMINISTIC_COUNTERS
        health = (tmp_path / "trace" / "health.json").read_text()
        assert "peak_rss" not in health
        line = next(
            line
            for line in render_summary(obs_dir).splitlines()
            if line.startswith("Checkpoints: ")
        )
        assert line.endswith(f", peak RSS {peak:.1f} MB")

    def test_render_summary_without_checkpoints(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        obs.count("sim.rounds")
        finalize_observer(obs, tmp_path)
        assert "Checkpoints" not in render_summary(tmp_path)

    def test_render_summary_partnership_line(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        for attempts, connects, disconnects in ((120, 100, 30), (80, 74, 50)):
            obs.count("sim.rounds")
            obs.count("exchange.connect_attempts", attempts)
            obs.count("exchange.connects", connects)
            obs.count("exchange.disconnects", disconnects)
        finalize_observer(obs, tmp_path)
        assert (
            "Partnerships: 100.0 attempts, 87.0 connects (87.0% accepted), "
            "40.0 disconnects per round\n"
        ) in render_summary(tmp_path)

    def test_render_summary_without_partnerships(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        obs.count("sim.rounds")
        finalize_observer(obs, tmp_path)
        assert "Partnerships" not in render_summary(tmp_path)

    def test_render_summary_trace_pass_line(self, tmp_path):
        clock = ManualClock()
        obs = create_observer(tmp_path, clock=clock)
        for wall, windows in ((0.5, (100, 200)), (1.5, (250, 250))):
            with obs.span("analytics.trace_pass"):
                clock.advance(wall)
                obs.count("analytics.shards", len(windows))
                for reports in windows:
                    obs.count("analytics.reports", reports)
        finalize_observer(obs, tmp_path)
        text = render_summary(tmp_path)
        assert "Trace passes: 2 passes, 800 reports, 2.000 s, 400 reports/s, 4 shards\n" in text

    def test_render_summary_without_trace_passes(self, tmp_path):
        obs = create_observer(tmp_path, clock=ManualClock())
        obs.count("sim.rounds")
        finalize_observer(obs, tmp_path)
        assert "Trace passes" not in render_summary(tmp_path)

    def test_render_summary_empty_dir(self, tmp_path):
        assert "(no observability data found)" in render_summary(tmp_path)
