"""Exact-parity tests for the incremental window analytics.

``IncrementalWindowMetrics`` maintains per-window degree histograms,
reciprocity and clustering from edge deltas between consecutive
snapshots.  Its contract is **bit-for-bit equality** with the full CSR
kernels (``degree_distributions``, ``edge_reciprocity`` over
``active_compact()``, ``average_clustering`` over
``stable_undirected_compact()``) on every window — including windows
that cross a periodic resync boundary, so both the delta path and the
rebuild path are exercised against the same reference.  Its driver,
``windowed_structure``, is held to ``observe`` over the same kernels
(``WINDOW_STRUCTURE_METRICS``).
"""

import pytest

from repro.core.experiments import WINDOW_STRUCTURE_METRICS, windowed_structure
from repro.core.metrics import degree_distributions
from repro.core.snapshots import build_snapshot
from repro.core.timeseries import observe
from repro.graph.clustering import average_clustering
from repro.graph.reciprocity import edge_reciprocity
from repro.simulator import SystemConfig, UUSeeSystem
from repro.soa.incremental import IncrementalWindowMetrics
from repro.traces import InMemoryTraceStore
from repro.traces.store import iter_windows
from repro.workloads.flashcrowd import FlashCrowdEvent

WINDOW = 600.0


@pytest.fixture(scope="module")
def churn_trace():
    """A churn-heavy trace: early flash crowd drives joins then departures."""
    config = SystemConfig(
        seed=47,
        base_concurrency=90.0,
        flash_crowd=FlashCrowdEvent(
            start=1_800.0, ramp_seconds=1_800.0, hold_seconds=3_600.0,
            decay_seconds=1_800.0, magnitude=2.0,
        ),
    )
    store = InMemoryTraceStore()
    UUSeeSystem(config, store).run(seconds=6 * 3600)
    return list(store.reports)


def reference_rows(reports, *, active_threshold=10):
    rows = []
    for time, window in iter_windows(reports, WINDOW):
        snap = build_snapshot(
            window, time=time, window_seconds=WINDOW,
            active_threshold=active_threshold,
        )
        rows.append(
            (
                time,
                degree_distributions(snap),
                edge_reciprocity(snap.active_compact()),
                average_clustering(snap.stable_undirected_compact()),
            )
        )
    return rows


@pytest.mark.parametrize("resync_every", [5, 0])
def test_every_window_matches_kernels_exactly(churn_trace, resync_every):
    state = IncrementalWindowMetrics(resync_every=resync_every)
    windows = list(iter_windows(churn_trace, WINDOW))
    assert len(windows) > 12, "churn trace too short to be meaningful"
    refs = reference_rows(churn_trace)
    for (time, window), (_, deg, rho, clu) in zip(windows, refs):
        row = state.update(window)
        assert row["degrees"] == deg, f"degrees diverge at t={time}"
        assert row["reciprocity"] == rho, f"reciprocity diverges at t={time}"
        assert row["clustering"] == clu, f"clustering diverges at t={time}"
    if resync_every:
        assert state.resyncs >= len(windows) // resync_every
    else:
        assert state.resyncs == 0
    assert state.windows_processed == len(windows)


def test_windowed_structure_equals_full_observe(churn_trace):
    inc = windowed_structure(churn_trace, window_seconds=WINDOW)
    full = observe(churn_trace, WINDOW_STRUCTURE_METRICS, window_seconds=WINDOW)
    assert inc.times == full.times
    assert set(inc.values) == set(full.values)
    for key in full.values:
        assert inc.values[key] == full.values[key], f"series {key!r} diverges"


def test_observe_every_subsampling(churn_trace):
    inc = windowed_structure(
        churn_trace, window_seconds=WINDOW, observe_every=3 * WINDOW
    )
    full = observe(
        churn_trace,
        WINDOW_STRUCTURE_METRICS,
        window_seconds=WINDOW,
        observe_every=3 * WINDOW,
    )
    dense = windowed_structure(churn_trace, window_seconds=WINDOW)
    assert inc.times == full.times
    assert len(inc.times) < len(dense.times)
    for key in full.values:
        assert inc.values[key] == full.values[key]


def test_invalid_parameters_rejected(churn_trace):
    with pytest.raises(ValueError):
        IncrementalWindowMetrics(resync_every=-1)
    with pytest.raises(ValueError):
        windowed_structure(churn_trace, window_seconds=WINDOW, observe_every=1.0)
