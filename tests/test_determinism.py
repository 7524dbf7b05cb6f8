"""Reproducibility guarantees: identical seeds, identical artifacts.

DESIGN.md Sec. 5 promises that every component is seeded and a run is
reproducible bit-for-bit; these tests enforce it at the strongest level
available for each artifact (trace bytes on disk, metric values, the
paper-scale campaign defaults).
"""

import hashlib
import inspect

import pytest

from repro.core.experiments import chart, fig6_plan, run_campaign
from repro.traces import SegmentedTraceReader
from repro.workloads import FlashCrowdEvent


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


class TestPaperDefaults:
    def test_run_campaign_defaults_are_the_paper_weeks(self):
        # examples/paper_reproduction.py relies on these defaults.
        defaults = {
            name: param.default
            for name, param in inspect.signature(run_campaign).parameters.items()
        }
        assert defaults["days"] == 14.0
        assert defaults["base_concurrency"] == 1_000.0
        assert defaults["with_flash_crowd"] is True
        # flash crowd peaks on day 5 around 9 p.m.
        assert int(FlashCrowdEvent().peak_time // 86_400) == 5
