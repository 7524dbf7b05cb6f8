"""End-to-end observability guarantees.

The three acceptance properties of the obs layer:

1. instrumentation is invisible to the simulation — a trace written
   with an enabled observer is byte-identical to one written without;
2. a killed-and-resumed campaign reports the same cumulative counter
   totals as an uninterrupted run (obs state rides in checkpoints);
3. a real campaign's event log parses, carries per-round telemetry,
   and renders through ``obs summarize``.
"""

import json

import pytest

from repro.core.experiments import run_campaign
from repro.core.timeseries import round_event_series
from repro.obs import (
    Observer,
    create_observer,
    finalize_observer,
    read_events,
    render_summary,
)
from repro.traces import SegmentedTraceReader

DAYS = 0.1
BASE = 80.0
SEED = 11

#: Counters that must be identical between an uninterrupted campaign
#: and a resumed one.  Storage-layout counters (segment rotations,
#: recovery passes) legitimately differ across a kill/resume cycle.
DETERMINISTIC_COUNTERS = (
    "sim.rounds",
    "sim.arrivals",
    "sim.departures",
    "sim.crashes",
    "exchange.connect_attempts",
    "exchange.connects",
    "exchange.disconnects",
    "exchange.tracker_contacts",
    "exchange.block_transfers",
    "trace.reports_received",
    "trace.reports_dropped",
    "trace.bytes_written",
)


def _campaign(trace_dir, obs, days=DAYS, resume=False):
    return run_campaign(
        trace_dir,
        days=days,
        base_concurrency=BASE,
        seed=SEED,
        with_flash_crowd=False,
        checkpoint_every_rounds=5,
        resume=resume,
        obs=obs,
    )


def _counters(obs):
    values = obs.registry.counters()
    return {name: values.get(name, 0.0) for name in DETERMINISTIC_COUNTERS}


class TestTraceNeutrality:
    def test_trace_bytes_identical_obs_on_vs_off(self, tmp_path):
        plain = tmp_path / "plain"
        observed = tmp_path / "observed"
        run_campaign(
            plain, days=DAYS, base_concurrency=BASE, seed=SEED,
            with_flash_crowd=False,
        )
        obs = Observer()
        run_campaign(
            observed, days=DAYS, base_concurrency=BASE, seed=SEED,
            with_flash_crowd=False, obs=obs,
        )
        plain_segments = SegmentedTraceReader(plain).segment_paths()
        observed_segments = SegmentedTraceReader(observed).segment_paths()
        assert [p.name for p in observed_segments] == [p.name for p in plain_segments]
        assert [p.read_bytes() for p in observed_segments] == [
            p.read_bytes() for p in plain_segments
        ]
        # and the observer actually saw the run
        assert obs.registry.counter("sim.rounds").value > 0


class TestCheckpointContinuity:
    def test_resumed_campaign_matches_uninterrupted_totals(self, tmp_path):
        # Uninterrupted reference run.
        ref_obs = Observer()
        _campaign(tmp_path / "ref", ref_obs)
        reference = _counters(ref_obs)
        assert reference["sim.rounds"] > 0

        # Same span split across two processes-worth of work: run the
        # first half (final checkpoint always lands), then resume into
        # the full span with a fresh observer.  The restored registry
        # must put the second observer at the reference totals.
        split_dir = tmp_path / "split"
        first = Observer()
        _campaign(split_dir, first, days=DAYS / 2)
        second = Observer()
        result = _campaign(split_dir, second, resume=True)
        assert result.resumed_from_round is not None
        assert _counters(second) == pytest.approx(reference)

    def test_resume_from_completed_run_restores_exact_state(self, tmp_path):
        first = Observer()
        _campaign(tmp_path / "c", first)
        second = Observer()
        _campaign(tmp_path / "c", second, resume=True)
        # no rounds left to run: totals come purely from the checkpoint
        assert _counters(second) == pytest.approx(_counters(first))


class TestCampaignEventLog:
    @pytest.fixture(scope="class")
    def obs_campaign(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("obs-campaign")
        obs_dir = root / "obs"
        obs = create_observer(obs_dir)
        _campaign(root / "trace", obs)
        finalize_observer(obs, obs_dir)
        return obs_dir

    def test_event_log_parses_cleanly(self, obs_campaign):
        events, bad = read_events(obs_campaign / "events.jsonl")
        assert bad == 0
        assert events

    def test_round_events_feed_timeseries(self, obs_campaign):
        events, _ = read_events(obs_campaign / "events.jsonl")
        series = round_event_series(events)
        assert len(series) > 0
        viewers = series.column("viewers")
        assert all(isinstance(v, int) and v >= 0 for v in viewers)
        # sim time advances monotonically round to round
        assert series.times == sorted(series.times)

    def test_key_counters_nonzero(self, obs_campaign):
        state = json.loads((obs_campaign / "metrics.json").read_text())
        for name in (
            "sim.rounds",
            "exchange.connect_attempts",
            "exchange.connects",
            "trace.reports_received",
        ):
            assert state["counters"].get(name, 0) > 0, name
        counters = state["counters"]
        assert counters["exchange.connect_attempts"] >= counters["exchange.connects"]

    def test_summary_renders_sections(self, obs_campaign):
        text = render_summary(obs_campaign)
        assert "Round-phase timings" in text
        assert "round.exchange" in text
        assert "campaign.run" in text
        assert "Counters" in text
        assert "Partnerships: " in text

    def test_checkpoint_saves_are_spans_with_their_bytes(self, obs_campaign):
        events, _ = read_events(obs_campaign / "events.jsonl")
        spans = [e for e in events if e.get("name") == "checkpoint.save"]
        state = json.loads((obs_campaign / "metrics.json").read_text())
        # rounds 5, 10 and 15, then the final cut (rewriting round 15's)
        assert len(spans) == state["histograms"]["checkpoint.save"]["count"] == 4
        kept = (obs_campaign.parent / "trace" / "checkpoints").iterdir()
        assert state["counters"]["checkpoint.bytes"] > sum(
            path.stat().st_size for path in kept
        )
        # host timings, like the GC metrics: never a resume-checked counter
        assert "checkpoint.bytes" not in DETERMINISTIC_COUNTERS
        assert "Checkpoints: 4 saves" in render_summary(obs_campaign)
