"""Shared simulated trace for core experiment tests.

One small two-day simulation is produced per test session and shared by
all experiment-driver tests (building it per-test would dominate the
suite's runtime).
"""

import pytest

from repro.core.experiments import run_campaign
from repro.traces import SegmentedTraceReader


@pytest.fixture(scope="session")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "small"
    run_campaign(
        path,
        days=2.0,
        base_concurrency=400.0,
        seed=11,
        with_flash_crowd=False,
    )
    return SegmentedTraceReader(path)
