"""Trace storage protocol, in-memory store, error types and windowing.

Reports are appended in non-decreasing time order (the simulator emits
them chronologically), which lets analysis stream a multi-hundred-MB
trace window by window without loading it whole — the same discipline
a real 120 GB trace demands.  On disk every trace is a campaign
directory of JSONL(.gz) segments, written by
:class:`~repro.traces.segments.SegmentedTraceStore` and read back by
:class:`~repro.traces.segments.SegmentedTraceReader`.

Reading back comes in two flavours.  **Strict** (the default) raises
:class:`TraceFormatError` on the first malformed line — right for
traces this codebase wrote itself, where corruption means a bug.
**Tolerant** mode models the paper's reality (a UDP collection path and
a collector that can die mid-write): it skips and counts bad lines,
deduplicates re-deliveries, quarantines garbage records and locally
re-sorts bounded reordering (:func:`sanitize`), accumulating everything
it did into a :class:`~repro.traces.health.TraceHealth`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from typing import Protocol

from repro.traces.health import TraceHealth
from repro.traces.records import PeerReport


class TraceStore(Protocol):
    """Anything that can accept appended reports."""

    def append(self, report: PeerReport) -> None: ...


class TraceFormatError(ValueError):
    """A trace line could not be parsed in strict mode."""


class TraceTruncatedError(TraceFormatError):
    """The final trace line is an incomplete write (killed collector)."""


class TraceStoreClosedError(RuntimeError):
    """An append was attempted on a store that has been closed.

    Replaces the opaque ``ValueError: I/O operation on closed file`` a
    raw file handle would raise, naming the store and the fix.
    """


class InMemoryTraceStore:
    """Keeps reports in a list; for tests and small experiments."""

    def __init__(self) -> None:
        self.reports: list[PeerReport] = []

    def append(self, report: PeerReport) -> None:
        """Store one report."""
        self.reports.append(report)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self) -> Iterator[PeerReport]:
        return iter(self.reports)


def sanitize(
    reports: Iterable[PeerReport],
    *,
    slack_s: float = 600.0,
    health: TraceHealth | None = None,
) -> Iterator[PeerReport]:
    """Re-sort a locally-disordered stream into time order.

    Records are held back until the stream has advanced ``slack_s``
    beyond them, which absorbs any reordering of bounded depth (a UDP
    path reorders by packets, not hours).  A record arriving *behind*
    already-released output cannot be placed and is quarantined.
    Reorder statistics accumulate into ``health``.
    """
    if slack_s <= 0:
        raise ValueError("slack must be positive")
    health = health if health is not None else TraceHealth()
    pending: list[tuple[float, int, PeerReport]] = []
    seq = 0
    last_seen: float | None = None
    released: float | None = None
    for report in reports:
        if last_seen is not None and report.time < last_seen:
            health.reordered += 1
            health.max_reorder_depth_s = max(
                health.max_reorder_depth_s, last_seen - report.time
            )
        else:
            last_seen = report.time
        if released is not None and report.time < released:
            health.quarantined += 1
            continue
        seq += 1
        heapq.heappush(pending, (report.time, seq, report))
        while pending and pending[0][0] <= last_seen - slack_s:
            t, _, ready = heapq.heappop(pending)
            released = t
            yield ready
    while pending:
        t, _, ready = heapq.heappop(pending)
        yield ready


def iter_windows(
    reports: Iterable[PeerReport],
    window_seconds: float,
    *,
    start: float = 0.0,
    tolerant: bool = False,
    health: TraceHealth | None = None,
) -> Iterator[tuple[float, list[PeerReport]]]:
    """Group time-ordered reports into consecutive windows.

    Yields ``(window_start, reports_in_window)`` for every non-empty
    window.  In strict mode (default), raises :class:`TraceFormatError`
    (a ``ValueError``) if input order regresses across a window boundary
    (a corrupted or unsorted trace).  With ``tolerant=True`` the stream
    is first passed through :func:`sanitize` (slack of one window), so
    bounded reordering is repaired and hopelessly late records are
    quarantined into ``health`` instead of raising.
    """
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    if tolerant:
        reports = sanitize(reports, slack_s=window_seconds, health=health)
    current_start: float | None = None
    bucket: list[PeerReport] = []
    for report in reports:
        if report.time < start:
            continue
        w = start + ((report.time - start) // window_seconds) * window_seconds
        if current_start is None:
            current_start = w
        if w < current_start:
            raise TraceFormatError("trace not time-ordered across windows")
        if w > current_start:
            if bucket:
                yield (current_start, bucket)
            bucket = []
            current_start = w
        bucket.append(report)
    if bucket and current_start is not None:
        yield (current_start, bucket)
