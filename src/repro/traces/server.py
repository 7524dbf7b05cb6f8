"""Standalone trace server (paper Sec. 3.2).

Reports arrive over UDP, so a configurable fraction is lost in flight.
Accepted reports are appended to a trace store.  The server keeps
simple counters so experiments can report collection statistics, like
the paper's '120 GB of traces'.
"""

from __future__ import annotations

from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.faults import ChannelFaults, FaultInjector
from repro.traces.health import TraceHealth
from repro.traces.records import PeerReport
from repro.traces.store import TraceStore


class TraceServer:
    """Collects measurement reports from peers."""

    def __init__(
        self,
        store: TraceStore,
        *,
        loss_rate: float = 0.01,
        seed: int = 0,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self.store = store
        self.loss_rate = loss_rate
        #: The in-flight loss coin: one independent draw per report.
        self.injector = FaultInjector(ChannelFaults(loss_rate=loss_rate), seed=seed)
        self._obs = obs
        self.received = 0
        self.dropped = 0
        # Drops already folded into a TraceHealth.  Deliberately reset on
        # resume: each process folds into a fresh TraceHealth, so the
        # first post-restore fold must re-add every restored drop.
        self._folded_dropped = 0

    def receive(self, report: PeerReport) -> bool:
        """Deliver one UDP report; False if it was lost in flight."""
        if self.injector.lost():
            self.dropped += 1
            self._obs.count("trace.reports_dropped")
            return False
        self.store.append(report)
        self.received += 1
        self._obs.count("trace.reports_received")
        return True

    def fold_into(self, health: TraceHealth) -> TraceHealth:
        """Add this server's collection-side drops to ``health``.

        Storage-level accounting (tolerant readers, segment recovery)
        and collection-level loss then live in one report instead of the
        drop counter dying unread with the server object.  Only the
        drops since the previous fold are added, so periodic folding
        (a mid-campaign health snapshot plus the final one) never
        double-counts a loss.
        """
        delta = self.dropped - self._folded_dropped
        health.server_dropped += delta
        self._folded_dropped = self.dropped
        self._obs.count("trace.reports_folded", delta)
        return health
