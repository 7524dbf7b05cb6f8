"""Performance benchmark of the simulator itself.

Not a paper figure: this measures how fast the substrate advances
simulated time, the quantity that bounds every experiment's wall-clock
cost.  Reported as rounds (of 600 simulated seconds at ~300 concurrent
peers) per benchmark iteration.
"""

from repro.obs import NULL_OBSERVER, Observer
from repro.simulator import SystemConfig, UUSeeSystem
from repro.traces import InMemoryTraceStore


def _build_warm_system(obs=NULL_OBSERVER) -> UUSeeSystem:
    config = SystemConfig(seed=99, base_concurrency=300.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore(), obs=obs)
    system.run(seconds=2 * 3600)  # warm up membership
    return system


def test_simulation_round_throughput(benchmark):
    system = _build_warm_system()

    def advance_ten_rounds():
        system.run(seconds=10 * 600)
        return system.concurrent_peers()

    peers = benchmark.pedantic(advance_ten_rounds, rounds=3, iterations=1)
    assert peers > 100  # the system is alive and populated


def test_simulation_round_throughput_observed(benchmark):
    """Same workload with a live observer: the <5% overhead budget.

    Kept next to the plain variant so BENCH_report.json always carries
    the obs-on/obs-off pair; DESIGN.md §7 documents the budget.
    """
    obs = Observer()  # registry + spans, no event sink
    system = _build_warm_system(obs)

    def advance_ten_rounds():
        system.run(seconds=10 * 600)
        return system.concurrent_peers()

    peers = benchmark.pedantic(advance_ten_rounds, rounds=3, iterations=1)
    assert peers > 100
    assert obs.registry.counter("sim.rounds").value > 0


def _analytics_workload():
    """A multi-window trace plus the full Sec. 4 metric table.

    Every window is snapshotted and evaluated on every metric: the cost
    of the snapshot path of ``repro analyze``.
    """
    from functools import partial

    from repro.core.metrics import (
        average_degrees,
        intra_isp_degree_fractions,
        reciprocity_metrics,
        small_world,
    )
    from repro.network import build_default_database

    config = SystemConfig(seed=99, base_concurrency=300.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(seconds=6 * 3600)
    reports = list(system.trace_server.store.reports)
    db = build_default_database()
    metrics = {
        "degrees": average_degrees,
        "intra_isp": partial(intra_isp_degree_fractions, db=db),
        "reciprocity": partial(reciprocity_metrics, db=db),
        "small_world": partial(small_world, db=db, seed=1),
    }
    return reports, metrics


def _check_series(series) -> None:
    assert len(series) >= 10  # a real multi-window workload
    # early windows cover the cold start while membership ramps up, so
    # only the steady-state tail is held to a minimum graph size
    assert all(s.num_nodes > 20 for s in series.column("small_world")[5:])
    assert all(r.all_links > 0 for r in series.column("reciprocity")[5:])


def test_snapshot_analytics_throughput_serial(benchmark):
    """Windowed analytics: snapshot + all Sec. 4 metrics per window."""
    from repro.core.timeseries import observe

    reports, metrics = _analytics_workload()

    def analyze():
        return observe(reports, metrics)

    series = benchmark.pedantic(analyze, rounds=3, iterations=1)
    _check_series(series)
