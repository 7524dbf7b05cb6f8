"""Checkpoint round trip: a restored system equals the one that was saved.

Run a small campaign to round k, save it with ``CheckpointManager``,
load the file into a freshly built ``UUSeeSystem`` with ``restore_into``
and walk both object graphs in parallel: instance ``__dict__`` and
``__slots__``, dicts (key order included), lists, tuples, sets, and
every ``random.Random`` by ``getstate()``.  The first path that differs
fails the test.  Both systems then run on for two more rounds and are
walked again, so state a restore leaves to be rebuilt lazily must
rebuild to the same values.

This is the runtime check for checkpoint completeness: a mutable field
that ``snapshot_system``/``restore_into`` (or a store's own
``checkpoint_state``/``restore_checkpoint`` hook) forgets shows up as a
live value against a constructor default.  What may legitimately differ
is listed in :data:`ALLOWED`, each entry with its reason.
"""

from __future__ import annotations

import math
import random
import types
from enum import Enum

import pytest

from repro.ingest import ReportClient
from repro.obs.clock import ManualClock
from repro.simulator import (
    Brownout,
    CheckpointManager,
    CrashWindow,
    FaultPlan,
    SystemConfig,
    UUSeeSystem,
    load_checkpoint,
    restore_into,
)
from repro.traces import ChannelFaults, FaultyChannel, SegmentedTraceStore
from tests.ingest.helpers import free_port

HOUR = 3600.0
ROUND = 600.0  # ProtocolConfig default round_seconds
#: Store clock seconds per simulated round: a breaker opened in one
#: round stays open (cooldown 60 s) for several more.
TICK = 10.0

#: ``Class`` (the whole object) or ``Class.attr`` -> why it may differ.
ALLOWED = {
    "SegmentedTraceStore": (
        "the trace store's file handles and directory: a resumed campaign "
        "recovers it and rolls it back to the checkpoint's record cut"
    ),
    "ReportClient._udp_sock": "live OS handle, reopened lazily after restore",
    "ReportClient._sock": "live OS handle, reconnected lazily after restore",
    "ReportClient._folded_dropped": (
        "fold_into() bookkeeping: a resumed process folds into a fresh "
        "TraceHealth, so the first fold must re-add every restored loss"
    ),
    "ReportClient._folded_overflow": "fold_into() bookkeeping, as above",
    "TraceServer._folded_dropped": "fold_into() bookkeeping, as above",
}

#: ``Class.attr`` of lazily filled caches: the restored side may lack
#: entries, but an entry both sides hold must agree.
CACHES = {
    "ExchangeEngine._channel_consts": (
        "per-channel constants derived from the catalogue and protocol "
        "config, rebuilt on first use after restore"
    ),
}

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


class _Walk:
    """Depth-first parallel walk; ``diff`` holds the first difference."""

    def __init__(self) -> None:
        self.seen: set[int] = set()
        self.diff: str | None = None

    def fail(self, path: str, message: str) -> bool:
        self.diff = f"{path}: {message}"
        return False

    def same(self, path: str, a: object, b: object) -> bool:
        if a is b:
            return True
        if type(a) is not type(b):
            return self.fail(path, f"{type(a).__name__} != {type(b).__name__}")
        if isinstance(a, _SCALARS) or isinstance(a, Enum):
            if a == b or (
                isinstance(a, float) and math.isnan(a) and math.isnan(b)
            ):
                return True
            return self.fail(path, f"{a!r} != {b!r}")
        if id(a) in self.seen:
            return True
        self.seen.add(id(a))
        if isinstance(a, random.Random):
            assert isinstance(b, random.Random)
            return a.getstate() == b.getstate() or self.fail(
                path, "random.Random states differ"
            )
        if isinstance(a, dict):
            assert isinstance(b, dict)
            if list(a) != list(b):
                return self.fail(path, _key_difference(list(a), list(b)))
            return all(self.same(f"{path}[{k!r}]", a[k], b[k]) for k in a)
        if isinstance(a, (list, tuple)):
            assert isinstance(b, (list, tuple))
            if len(a) != len(b):
                return self.fail(path, f"length {len(a)} != {len(b)}")
            return all(
                self.same(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))
            )
        if isinstance(a, (set, frozenset)):
            return a == b or self.fail(path, f"sets differ by {sorted(a ^ b)!r}")
        if isinstance(a, types.FunctionType):
            assert isinstance(b, types.FunctionType)
            return a.__code__ is b.__code__ or self.fail(
                path, f"{a.__qualname__} != {b.__qualname__}"
            )
        if isinstance(a, types.MethodType):
            assert isinstance(b, types.MethodType)
            if a.__func__ is not b.__func__:
                return self.fail(path, f"{a.__qualname__} != {b.__qualname__}")
            return self.same(f"{path}.__self__", a.__self__, b.__self__)
        if isinstance(a, type) or not _fields(a):
            return a == b or self.fail(path, f"{a!r} != {b!r}")
        return self.same_object(path, a, b)

    def same_object(self, path: str, a: object, b: object) -> bool:
        cls = type(a).__name__
        if cls in ALLOWED:
            return True
        fa, fb = _fields(a), _fields(b)
        if list(fa) != list(fb):
            return self.fail(path, _key_difference(list(fa), list(fb)))
        for name, value in fa.items():
            key = f"{cls}.{name}"
            if key in ALLOWED:
                continue
            other = fb[name]
            if key in CACHES:
                assert isinstance(value, dict) and isinstance(other, dict)
                shared = [k for k in value if k in other]
                value = {k: value[k] for k in shared}
                other = {k: other[k] for k in shared}
            if not self.same(f"{path}.{name}", value, other):
                return False
        return True


def _fields(obj: object) -> dict[str, object]:
    """An instance's ``__dict__`` entries, then its ``__slots__`` values."""
    fields = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                fields.setdefault(slot, getattr(obj, slot))
    return fields


def _key_difference(a: list[object], b: list[object]) -> str:
    missing = [k for k in a if k not in b]
    extra = [k for k in b if k not in a]
    if missing or extra:
        return f"keys only live {missing!r}, only restored {extra!r}"
    return f"same keys, order differs: {a!r} != {b!r}"


def first_difference(live: object, restored: object) -> str | None:
    """The first path at which the two object graphs differ, or None."""
    walk = _Walk()
    walk.same("system", live, restored)
    return walk.diff


def _plain(directory, clock):
    return SegmentedTraceStore(directory, records_per_segment=40)


def _faulty(directory, clock):
    faults = ChannelFaults(
        loss_rate=0.05,
        burst_length=3.0,
        duplicate_rate=0.03,
        reorder_rate=0.05,
        corrupt_rate=0.02,
    )
    return FaultyChannel(_plain(directory, clock), faults, seed=11)


def _dead_port_client(port):
    def build(directory, clock):
        return ReportClient(
            "127.0.0.1",
            port,
            batch_size=8,
            timeout_s=0.2,
            breaker_threshold=2,
            breaker_cooldown_s=60.0,
            sync_max_attempts=2,
            spill_max_reports=24,
            faults=ChannelFaults(loss_rate=0.1, duplicate_rate=0.05, corrupt_rate=0.05),
            seed=5,
            clock=clock,
            sleep=clock.advance,
        )

    return build


def _config(overlay: str) -> SystemConfig:
    return SystemConfig(
        seed=2006,
        base_concurrency=60.0,
        flash_crowd=None,
        overlay=overlay,
        faults=FaultPlan(
            tracker_brownouts=[Brownout(0.5 * HOUR, 1.0 * HOUR, capacity=0.3)],
            crashes=[CrashWindow(1.0 * HOUR, 1.5 * HOUR, rate_per_hour=0.5)],
        ),
    )


def _run(system: UUSeeSystem, store_clock: ManualClock, rounds: int) -> None:
    system.run(seconds=rounds * ROUND, on_round=lambda _: store_clock.advance(TICK))


def round_trip(tmp_path, overlay: str, make_store, rounds: int):
    """Differences at the checkpoint cut and after two more rounds each.

    Returns ``(at_cut, after, live)``; a difference is None when the
    graphs agree.
    """
    config = _config(overlay)
    clock = ManualClock()
    live = UUSeeSystem(config, make_store(tmp_path / "live", clock))
    _run(live, clock, rounds)
    path = CheckpointManager(tmp_path / "ckpt").save(live)
    # The restored store's clock resumes at the instant of the save.
    resumed = ManualClock(clock.now())
    restored = UUSeeSystem(config, make_store(tmp_path / "restored", resumed))
    restore_into(restored, load_checkpoint(path))
    at_cut = first_difference(live, restored)
    _run(live, clock, 2)
    _run(restored, resumed, 2)
    after = first_difference(live, restored)
    for system in (live, restored):
        system.trace_server.store.close()
    return at_cut, after, live


STORES = {"plain": _plain, "faulty-channel": _faulty}


@pytest.mark.parametrize("overlay", ["", "hamiltonian:k=2", "strandcast"])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("rounds", [9, 12])
def test_restored_system_equals_saved_one(tmp_path, overlay, store, rounds):
    at_cut, after, _ = round_trip(tmp_path, overlay, STORES[store], rounds)
    assert (at_cut, after) == (None, None)


@pytest.mark.parametrize("overlay", ["", "hamiltonian:k=2"])
def test_report_client_store_against_dead_port(tmp_path, overlay):
    # Nothing listens on the port, so every TCP attempt fails: the
    # breaker opens, UDP copies go out degraded, and the spill overflows.
    at_cut, after, live = round_trip(
        tmp_path, overlay, _dead_port_client(free_port()), 9
    )
    assert (at_cut, after) == (None, None)
    client = live.trace_server.store
    assert client.stats.breaker_opens > 0
    assert client._spill.overflow_reports > 0
    assert client.stats.frames_sent_udp > 0


class TestWalker:
    """The walk itself: it must see each kind of difference it claims to."""

    def test_field_difference_names_the_path(self):
        a, b = types.SimpleNamespace(x=[1, {"k": 2}]), types.SimpleNamespace(x=[1, {"k": 3}])
        assert first_difference(a, b) == "system.x[1]['k']: 2 != 3"

    def test_dict_key_order_counts(self):
        diff = first_difference({1: 0, 2: 0}, {2: 0, 1: 0})
        assert diff is not None and "order differs" in diff

    def test_rng_compared_by_state(self):
        assert first_difference(random.Random(1), random.Random(1)) is None
        assert first_difference(random.Random(1), random.Random(2)) is not None

    def test_missing_field_is_reported(self):
        a, b = types.SimpleNamespace(x=1, y=2), types.SimpleNamespace(x=1)
        assert "only live ['y']" in first_difference(a, b)

    def test_slots_are_walked(self):
        class Slotted:
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

        assert first_difference(Slotted(1), Slotted(2)) == "system.v: 1 != 2"
