"""Fault injection on the report collection path.

The paper's traces crossed the public Internet over UDP before landing
on a trace server.  :class:`FaultyChannel` reproduces what such a path
does to a report stream — bursty loss (Gilbert–Elliott), duplication,
bounded reordering and line-level corruption — by wrapping any trace
store.  Analytics hardened with the tolerant readers must survive a
trace written through this channel; that is what the dirty-trace tests
and the fault-tolerance benchmark assert.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.traces.records import PeerReport
from repro.traces.store import TraceStore


@dataclass(frozen=True)
class ChannelFaults:
    """Fault intensities of a collection channel.

    ``loss_rate`` is the long-run fraction of reports lost; losses come
    in bursts of mean length ``burst_length`` (Gilbert–Elliott), as UDP
    loss does during congestion episodes.  ``duplicate_rate`` and
    ``reorder_rate`` are per-delivered-report probabilities;
    ``reorder_depth`` is how many later deliveries overtake a held-back
    report.  ``corrupt_rate`` reports are written as truncated lines.
    """

    loss_rate: float = 0.0
    burst_length: float = 4.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_depth: int = 3
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not math.isfinite(self.burst_length) or self.burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1, got {self.burst_length}")
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
    """What a :class:`FaultyChannel` did to the stream it carried.

    Invariant: ``delivered + corrupted == offered - dropped + duplicated``
    once the channel is flushed.
    """

    offered: int = 0  # reports handed to the channel
    delivered: int = 0  # clean lines written to the store
    dropped: int = 0  # lost in a loss burst
    duplicated: int = 0  # extra copies written
    reordered: int = 0  # reports released out of arrival order
    corrupted: int = 0  # lines written truncated/damaged


class FaultyChannel:
    """A trace store adapter that damages the stream passing through it.

    Wraps any store with an ``append(report)`` method; corruption
    additionally needs ``append_line(raw)`` (as on
    :class:`~repro.traces.segments.SegmentedTraceStore`) — without it the
    corrupted report is simply dropped, still counted as corrupted.

    Loss follows a two-state Gilbert–Elliott chain whose stationary
    loss probability equals ``faults.loss_rate`` with mean burst length
    ``faults.burst_length``.  Reordering holds one report back and
    releases it after ``reorder_depth`` subsequent deliveries.  Call
    :meth:`flush` (or close / leave the ``with`` block) to release any
    held report.
    """

    def __init__(
        self, store: TraceStore, faults: ChannelFaults, *, seed: int = 0
    ) -> None:
        self.store = store
        self.faults = faults
        self.counters = ChannelCounters()
        self._rng = random.Random(seed)
        self._in_burst = False
        # Chain transition rates giving stationary P(loss) = loss_rate
        # and mean burst length = burst_length.
        self._p_exit = 1.0 / faults.burst_length
        if faults.loss_rate > 0.0:
            self._p_enter = faults.loss_rate * self._p_exit / (1.0 - faults.loss_rate)
        else:
            self._p_enter = 0.0
        self._held: PeerReport | None = None
        self._held_for = 0

    def append(self, report: PeerReport) -> None:
        """Carry one report across the faulty channel."""
        c = self.counters
        c.offered += 1
        if self._p_enter > 0.0:
            if self._in_burst:
                self._in_burst = self._rng.random() >= self._p_exit
            else:
                self._in_burst = self._rng.random() < self._p_enter
            if self._in_burst:
                c.dropped += 1
                return
        if (
            self._held is None
            and self.faults.reorder_rate > 0.0
            and self._rng.random() < self.faults.reorder_rate
        ):
            self._held = report
            self._held_for = 0
            return
        self._deliver(report)
        if self._held is not None:
            self._held_for += 1
            if self._held_for >= self.faults.reorder_depth:
                held, self._held = self._held, None
                c.reordered += 1
                self._deliver(held)

    def _deliver(self, report: PeerReport) -> None:
        c = self.counters
        if (
            self.faults.corrupt_rate > 0.0
            and self._rng.random() < self.faults.corrupt_rate
        ):
            c.corrupted += 1
            append_line = getattr(self.store, "append_line", None)
            if append_line is not None:
                line = report.to_json()
                cut = self._rng.randint(1, max(1, len(line) - 1))
                append_line(line[:cut])
            return
        self.store.append(report)
        c.delivered += 1
        if (
            self.faults.duplicate_rate > 0.0
            and self._rng.random() < self.faults.duplicate_rate
        ):
            self.store.append(report)
            c.duplicated += 1
            c.delivered += 1

    def flush(self) -> None:
        """Release a held-back report (end of stream)."""
        if self._held is not None:
            held, self._held = self._held, None
            self.counters.reordered += 1
            self._deliver(held)

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
