"""Reproducibility guarantees: identical seeds, identical artifacts.

DESIGN.md Sec. 5 promises that every component is seeded and a run is
reproducible bit-for-bit; these tests enforce it at the strongest level
available for each artifact (trace bytes on disk, metric values, preset
construction).
"""

import hashlib

import pytest

from repro.core.experiments import chart, fig6_plan, run_campaign
from repro.traces import SegmentedTraceReader
from repro.workloads import presets


def sha256(trace_dir):
    """Digest of a campaign directory's trace bytes, segment by segment."""
    digest = hashlib.sha256()
    for path in SegmentedTraceReader(trace_dir).segment_paths():
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestTraceDeterminism:
    @pytest.fixture(scope="class")
    def twin_traces(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("determinism")
        kwargs = {
            "days": 0.3,
            "base_concurrency": 150,
            "seed": 123,
            "with_flash_crowd": False,
        }
        a = run_campaign(base / "a", **kwargs).trace_dir
        b = run_campaign(base / "b", **kwargs).trace_dir
        return a, b

    def test_trace_bytes_identical(self, twin_traces):
        a, b = twin_traces
        assert sha256(a) == sha256(b)

    def test_different_seed_different_bytes(self, twin_traces, tmp_path):
        a, _ = twin_traces
        c = run_campaign(
            tmp_path / "c",
            days=0.3,
            base_concurrency=150,
            seed=124,
            with_flash_crowd=False,
        ).trace_dir
        assert sha256(a) != sha256(c)

    def test_metrics_identical_across_reads(self, twin_traces):
        a, _ = twin_traces
        first, second = (
            chart(SegmentedTraceReader(a), {"fig6": fig6_plan()})["fig6"].mean_fractions(
                skip_first_hours=2
            )
            for _ in range(2)
        )
        assert first == second


class TestPresets:
    def test_paper_preset_shape(self):
        config, days = presets.paper_two_weeks()
        assert days == 14.0
        assert config.flash_crowd is not None
        # flash crowd peaks on day 5 around 9 p.m.
        peak = config.flash_crowd.peak_time
        assert int(peak // 86_400) == 5

    def test_bench_week_covers_flash_crowd(self):
        config, days = presets.bench_week()
        assert days * 86_400 > config.flash_crowd.peak_time

    def test_quick_presets_have_no_flash_crowd(self):
        for factory in (presets.laptop_quick, presets.smoke):
            config, days = factory()
            assert config.flash_crowd is None
            assert days <= 2.0

    def test_presets_runnable(self):
        from repro.simulator import UUSeeSystem
        from repro.traces import InMemoryTraceStore

        config, days = presets.smoke()
        system = UUSeeSystem(config, InMemoryTraceStore())
        system.run(days=days)
        assert system.concurrent_peers() > 10
