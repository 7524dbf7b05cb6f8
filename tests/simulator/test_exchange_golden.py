"""Draw-identity regression pin for the optimized exchange loop.

The PR-5 exchange optimizations (precomputed link penalties, cached
per-channel constants, hoisted loop invariants) must not change the RNG
draw sequence or the produced trace by a single bit.  These constants
were captured from the pre-optimization engine on the same scenario; if
either assertion ever fails, an edit changed simulation *behaviour*, not
just its speed.
"""

import functools
import hashlib
import sys
from collections import Counter

import repro.traces.reporter as reporter
from repro.network.latency import LatencyModel
from repro.overlay.legacy import UUSeePolicy
from repro.qa.sanitizer import assert_identical_draws, audited
from repro.simulator import CheckpointManager, SystemConfig, UUSeeSystem
from repro.simulator.exchange import ExchangeEngine
from repro.traces import InMemoryTraceStore

GOLDEN_FLOAT_DRAWS = 19610
GOLDEN_BIT_DRAWS = 10959
GOLDEN_FINGERPRINT = (
    "7c154ac9f1c8ecfc6edda3c8c93d08091a32c7d46c62f48e8f44de4ecd8a33e2"
)
GOLDEN_TRACE_SHA = (
    "f427fd3738d1974c032ec725e19776509a70d8e1f46ed657a44178ce4d92ce79"
)
GOLDEN_REPORTS = 356

#: Calls of every entry point the benchmark's span tracer wraps, over the
#: golden scenario with a checkpoint every 6 rounds.  Captured before the
#: control plane was rewritten: an entry point that a later edit inlines,
#: calls twice, or binds ahead of time (so a wrapper installed on the
#: class or module is bypassed) changes its count here.
GOLDEN_ENTRY_POINT_CALLS = {
    "ExchangeEngine.connect": 6011,
    "ExchangeEngine.maintenance_tick": 820,
    "ExchangeEngine.run_round": 18,
    "ExchangeEngine.emit_reports": 18,
    "LatencyModel.sample_link": 5493,
    "CheckpointManager.save": 3,
    "UUSeePolicy.select_suppliers": 1025,
    "UUSeePolicy.refine_suppliers": 820,
    "UUSeePolicy.order_gossip_pool": 489,
    "build_report": 361,
}


def scenario() -> InMemoryTraceStore:
    config = SystemConfig(seed=31, base_concurrency=120.0, flash_crowd=None)
    store = InMemoryTraceStore()
    system = UUSeeSystem(config, store)
    system.run(seconds=3 * 3600)
    return store


def count_entry_points(monkeypatch, tmp_path) -> Counter:
    """Run the golden scenario with each traced entry point wrapped the
    way the span tracer wraps it: a counting wrapper set as the class
    attribute, or rebound in every module that imported the function."""
    calls: Counter = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    methods = [
        (ExchangeEngine, "connect"),
        (ExchangeEngine, "maintenance_tick"),
        (ExchangeEngine, "run_round"),
        (ExchangeEngine, "emit_reports"),
        (LatencyModel, "sample_link"),
        (CheckpointManager, "save"),
        (UUSeePolicy, "select_suppliers"),
        (UUSeePolicy, "refine_suppliers"),
        (UUSeePolicy, "order_gossip_pool"),
    ]
    for cls, attr in methods:
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
    original = reporter.build_report
    wrapped = counting("build_report", original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "build_report", None) is original
        ):
            monkeypatch.setattr(module, "build_report", wrapped)

    config = SystemConfig(seed=31, base_concurrency=120.0, flash_crowd=None)
    system = UUSeeSystem(config, InMemoryTraceStore())
    system.run(
        seconds=3 * 3600,
        checkpoint=CheckpointManager(tmp_path / "checkpoints"),
        checkpoint_every_rounds=6,
    )
    return calls


def trace_sha(store: InMemoryTraceStore) -> str:
    h = hashlib.sha256()
    for r in store.reports:
        h.update(r.to_json().encode())
        h.update(b"\n")
    return h.hexdigest()


class TestExchangeGolden:
    def test_draw_sequence_matches_pre_optimization_engine(self):
        store, snap = audited(scenario)
        assert snap.float_draws == GOLDEN_FLOAT_DRAWS
        assert snap.bit_draws == GOLDEN_BIT_DRAWS
        assert snap.fingerprint == GOLDEN_FINGERPRINT

    def test_trace_bytes_match_pre_optimization_engine(self):
        store, _ = audited(scenario)
        assert len(store.reports) == GOLDEN_REPORTS
        assert trace_sha(store) == GOLDEN_TRACE_SHA

    def test_replay_is_draw_identical(self):
        outcomes = assert_identical_draws(scenario, runs=2)
        (store_a, _), (store_b, _) = outcomes
        assert trace_sha(store_a) == trace_sha(store_b)

    def test_traced_entry_points_keep_their_call_counts(self, monkeypatch, tmp_path):
        assert dict(count_entry_points(monkeypatch, tmp_path)) == GOLDEN_ENTRY_POINT_CALLS
