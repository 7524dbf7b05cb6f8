"""Exchange-round and windowed-analytics throughput.

- the 5 000-peer *exchange round* (demand spreading, allocation,
  accounting).  This deliberately isolates ``run_round`` from
  membership churn: at UUSee churn rates the tracker/connect control
  plane does comparable work per round and would otherwise drown the
  quantity under test.
- windowed structure analytics (degree histograms, reciprocity,
  clustering) recomputed per window by the snapshot kernels (the test
  oracle) vs maintained incrementally from edge deltas by
  ``windowed_structure`` (the product path), on a 12-hour ~700-peer
  trace.  The pair is kept adjacent so every BENCH_report.json carries
  both sides of the ratio.

Ratios are derived from the report, not asserted here: wall-clock on a
shared box is too noisy for a hard gate, and ``baseline.json`` already
flags regressions run-over-run.
"""

from repro.core.experiments import WINDOW_STRUCTURE_METRICS, windowed_structure
from repro.core.timeseries import observe
from repro.simulator import SystemConfig, UUSeeSystem
from repro.traces import InMemoryTraceStore

FIVE_K = 5_000.0
ROUND = 600.0


def _warm_system() -> UUSeeSystem:
    config = SystemConfig(seed=99, base_concurrency=FIVE_K, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=2 * 3600)  # ramp membership to steady state
    return system


def test_exchange_round_5k(benchmark):
    system = _warm_system()
    exchange = system.exchange
    clock = [system.now]

    def five_exchange_rounds():
        stats = None
        for _ in range(5):
            clock[0] += ROUND
            stats = exchange.run_round(clock[0], ROUND)
        return stats

    stats = benchmark.pedantic(five_exchange_rounds, rounds=3, iterations=1)
    assert stats.viewers > 1_000  # populated at the target scale
    assert stats.transfers > 0


def _window_trace():
    """12 simulated hours at ~700 peers: ~70 analysis windows."""
    config = SystemConfig(seed=99, base_concurrency=700.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=12 * 3600)
    return list(system.trace_server.store.reports)


def _check_series(series) -> None:
    assert len(series.times) >= 60
    assert all(v is not None for v in series.values["clustering"])


def test_window_structure_full(benchmark):
    reports = _window_trace()

    def analyze():
        return observe(reports, WINDOW_STRUCTURE_METRICS)

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))


def test_window_structure_incremental(benchmark):
    reports = _window_trace()

    def analyze():
        return windowed_structure(reports)

    _check_series(benchmark.pedantic(analyze, rounds=3, iterations=1))

