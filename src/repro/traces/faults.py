"""Fault injection on the report collection path.

The paper's traces crossed the public Internet over UDP before landing
on a trace server.  One seeded :class:`FaultInjector` reproduces what
such a path does to a report stream — loss (independent, or bursty
Gilbert–Elliott), bounded reordering, truncation and duplication — and
two carriers drive it: :class:`FaultyChannel` damages reports on their
way into any in-process trace store, and
:class:`~repro.ingest.client.ReportClient` damages the datagrams it
sends to an ingest server.  Analytics hardened with the tolerant
readers must survive a trace written through this channel; that is
what the dirty-trace tests and the fault-tolerance benchmark assert.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.traces.records import PeerReport
from repro.traces.store import TraceStore

_Payload = TypeVar("_Payload", str, bytes)


@dataclass(frozen=True)
class ChannelFaults:
    """Fault intensities of a collection channel.

    ``loss_rate`` is the long-run fraction of items lost.  With
    ``burst_length`` unset every loss is an independent coin flip;
    set, losses come in bursts of that mean length (Gilbert–Elliott),
    as UDP loss does during congestion episodes.  ``duplicate_rate``
    and ``reorder_rate`` are per-delivered-item probabilities;
    ``reorder_depth`` is how many later deliveries overtake a held-back
    item.  ``corrupt_rate`` items are delivered truncated.
    """

    loss_rate: float = 0.0
    burst_length: float | None = None
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_depth: int = 3
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        burst = self.burst_length
        if burst is not None and (not math.isfinite(burst) or burst < 1.0):
            raise ValueError(f"burst_length must be >= 1, got {burst}")
        if self.reorder_depth < 1:
            raise ValueError(f"reorder_depth must be >= 1, got {self.reorder_depth}")

    @property
    def any_active(self) -> bool:
        """Whether this configuration injects any fault at all."""
        return bool(
            self.loss_rate or self.duplicate_rate or self.reorder_rate or self.corrupt_rate
        )


@dataclass
class ChannelCounters:
    """What a :class:`FaultInjector` did to the stream it judged.

    Invariant: ``delivered + corrupted == offered - dropped + duplicated``
    once nothing is held back.
    """

    offered: int = 0  # items handed to the injector
    delivered: int = 0  # intact copies passed on
    dropped: int = 0  # lost
    duplicated: int = 0  # extra copies passed on
    reordered: int = 0  # items released out of arrival order
    corrupted: int = 0  # items passed on truncated


#: Counter names of checkpoints written by the datagram-only injector.
_LEGACY_COUNTERS = {"truncated": "corrupted"}


class FaultInjector:
    """One seeded stream of fault decisions, in a fixed step order.

    Per item: :meth:`lost` (the loss step), then, for a carrier that
    reorders, :meth:`hold`, then :meth:`deliver` (corrupt, then
    duplicate), with :meth:`truncate` cutting a corrupted item.  A step
    whose rate is 0 makes no draw.

    The loss step is one rule, ``in_burst = random() < (stay if in_burst
    else enter)``: with ``burst_length`` unset ``stay == enter ==
    loss_rate``, so every item is an independent coin flip; set, the
    chain's stationary loss probability is ``loss_rate`` and its mean
    burst length ``burst_length``.
    """

    def __init__(self, faults: ChannelFaults, *, seed: int = 0) -> None:
        self.faults = faults
        self.counters = ChannelCounters()
        self._rng = random.Random(seed)
        self._in_burst = False
        loss, burst = faults.loss_rate, faults.burst_length
        if burst is None:
            self._stay = self._enter = loss
        else:
            self._stay = 1.0 - 1.0 / burst
            self._enter = loss * (1.0 / burst) / (1.0 - loss)

    def lost(self) -> bool:
        """Offer one item; whether the loss step drops it."""
        c = self.counters
        c.offered += 1
        if self.faults.loss_rate > 0.0:
            p = self._stay if self._in_burst else self._enter
            self._in_burst = self._rng.random() < p
            if self._in_burst:
                c.dropped += 1
                return True
        return False

    def hold(self) -> bool:
        """Whether the reorder step holds this item back."""
        rate = self.faults.reorder_rate
        return rate > 0.0 and self._rng.random() < rate

    def deliver(self) -> int:
        """Corrupt, then duplicate: 0 for a corrupted item, else its intact copies."""
        c = self.counters
        f = self.faults
        if f.corrupt_rate > 0.0 and self._rng.random() < f.corrupt_rate:
            c.corrupted += 1
            return 0
        copies = 1
        if f.duplicate_rate > 0.0 and self._rng.random() < f.duplicate_rate:
            copies = 2
            c.duplicated += 1
        c.delivered += copies
        return copies

    def truncate(self, payload: _Payload) -> _Payload:
        """A corrupted item's payload, cut at a random interior point."""
        return payload[: self._rng.randint(1, max(1, len(payload) - 1))]

    def state(self) -> dict[str, Any]:
        """Serialisable snapshot: RNG position, burst state, counters."""
        return {
            "rng": self._rng.getstate(),
            "in_burst": self._in_burst,
            "counters": dataclasses.asdict(self.counters),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state` output.

        Also reads the snapshots older builds wrote: a channel's
        ``counters`` object, and a datagram injector's counter dict
        (``truncated`` is ``corrupted`` now; its report-weighted counts
        are the client's to restore).
        """
        self._rng.setstate(state["rng"])
        self._in_burst = state.get("in_burst", False)
        counters = state["counters"]
        if not isinstance(counters, dict):
            counters = dataclasses.asdict(counters)
        fresh = ChannelCounters()
        for name, value in counters.items():
            name = _LEGACY_COUNTERS.get(name, name)
            if hasattr(fresh, name):
                setattr(fresh, name, value)
        self.counters = fresh


class FaultyChannel:
    """A trace store adapter that damages the stream passing through it.

    Wraps any store with an ``append(report)`` method; corruption
    additionally needs ``append_line(raw)`` (as on
    :class:`~repro.traces.segments.SegmentedTraceStore`) — without it the
    corrupted report is simply dropped, still counted as corrupted.

    Reordering holds one report back and releases it after
    ``reorder_depth`` subsequent deliveries.  Call :meth:`flush` (or
    close / leave the ``with`` block) to release any held report.
    """

    def __init__(
        self, store: TraceStore, faults: ChannelFaults, *, seed: int = 0
    ) -> None:
        self.store = store
        self.faults = faults
        self.injector = FaultInjector(faults, seed=seed)
        self._held: PeerReport | None = None
        self._held_for = 0

    @property
    def counters(self) -> ChannelCounters:
        """What the channel did to the stream so far."""
        return self.injector.counters

    def append(self, report: PeerReport) -> None:
        """Carry one report across the faulty channel."""
        injector = self.injector
        if injector.lost():
            return
        if self._held is None and injector.hold():
            self._held = report
            self._held_for = 0
            return
        self._deliver(report)
        if self._held is not None:
            self._held_for += 1
            if self._held_for >= self.faults.reorder_depth:
                self.flush()

    def _deliver(self, report: PeerReport) -> None:
        copies = self.injector.deliver()
        if copies == 0:
            append_line = getattr(self.store, "append_line", None)
            if append_line is not None:
                append_line(self.injector.truncate(report.to_json()))
            return
        for _ in range(copies):
            self.store.append(report)

    def flush(self) -> None:
        """Release a held-back report (end of stream)."""
        if self._held is not None:
            held, self._held = self._held, None
            self.counters.reordered += 1
            self._deliver(held)

    def sync(self) -> None:
        """Make the wrapped store durable; a held report stays held."""
        sync = getattr(self.store, "sync", None) or getattr(self.store, "flush", None)
        if sync is not None:
            sync()

    def __len__(self) -> int:
        return len(self.store)  # type: ignore[arg-type]

    def checkpoint_state(self) -> dict[str, Any]:
        """The injector's state plus the held-back report."""
        return {
            **self.injector.state(),
            "held": self._held,
            "held_for": self._held_for,
        }

    def restore_checkpoint(self, state: dict[str, Any]) -> None:
        """Restore :meth:`checkpoint_state` output into this channel."""
        self.injector.restore(state)
        self._held = state["held"]
        self._held_for = state["held_for"]

    def close(self) -> None:
        """Flush, then close the wrapped store if it can be closed."""
        self.flush()
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> FaultyChannel:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
