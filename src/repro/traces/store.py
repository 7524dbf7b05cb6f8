"""Trace storage: JSONL (optionally gzip) on disk or in memory.

Reports are appended in non-decreasing time order (the simulator emits
them chronologically), which lets analysis stream a multi-hundred-MB
trace window by window without loading it whole — the same discipline
a real 120 GB trace demands.

Reading back comes in two flavours.  **Strict** (the default) raises
:class:`TraceFormatError` on the first malformed line — right for
traces this codebase wrote itself, where corruption means a bug.
**Tolerant** mode models the paper's reality (a UDP collection path and
a collector that can die mid-write): it skips and counts bad lines,
deduplicates re-deliveries, quarantines garbage records and locally
re-sorts bounded reordering, accumulating everything it did into a
:class:`~repro.traces.health.TraceHealth`.
"""

from __future__ import annotations

import gzip
import heapq
import io
import os
import zlib
from collections import OrderedDict
from pathlib import Path
from collections.abc import Iterable, Iterator
from typing import Protocol, cast

from repro.obs.spans import NULL_OBSERVER, AnyObserver
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


#: Exceptions a torn or damaged gzip stream raises while being read;
#: ``EOFError`` is the torn-tail signature (killed collector), the other
#: two appear when compressed bytes themselves are damaged.
_GZIP_DAMAGE = (EOFError, gzip.BadGzipFile, zlib.error)


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


#: open() mode letter per store mode; "create" refuses to clobber an
#: existing trace, which has destroyed more than one real dataset.
_STORE_MODES = {"create": "x", "overwrite": "w", "append": "a"}


class JsonlTraceStore:
    """Appends reports as JSON lines, optionally gzip-compressed.

    ``mode`` is ``"create"`` (exclusive — raises ``FileExistsError`` on
    an existing path), ``"overwrite"`` or ``"append"``.  The stream is
    flushed every ``flush_every`` records so a crashed run leaves a
    readable prefix (plus at most one truncated line, which tolerant
    readers skip); ``fsync_on_flush=True`` additionally fsyncs at each
    flush, which the campaign durability layer uses to bound how much a
    power cut can lose.  Use as a context manager, or call :meth:`close`
    explicitly before reading the file back.  Appending after close
    raises :class:`TraceStoreClosedError`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        compress: bool | None = None,
        mode: str = "create",
        flush_every: int = 256,
        fsync_on_flush: bool = False,
        obs: AnyObserver = NULL_OBSERVER,
    ) -> None:
        if mode not in _STORE_MODES:
            raise ValueError(
                f"mode must be one of {sorted(_STORE_MODES)}, got {mode!r}"
            )
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        if compress is None:
            compress = self.path.suffix == ".gz"
        self.compress = compress
        self.mode = mode
        self.flush_every = flush_every
        self.fsync_on_flush = fsync_on_flush
        self._obs = obs
        self._count = 0
        open_mode = _STORE_MODES[mode] + "t"
        if compress:
            self._fh = cast(
                io.TextIOBase, gzip.open(self.path, open_mode, compresslevel=4)
            )
        else:
            self._fh = cast(io.TextIOBase, open(self.path, open_mode))

    def append(self, report: PeerReport) -> None:
        """Write one report as a JSON line."""
        self.append_line(report.to_json())

    def append_line(self, line: str) -> None:
        """Write one raw line (fault injection writes damaged lines here)."""
        if self._fh.closed:
            raise TraceStoreClosedError(
                f"cannot append to closed trace store {self.path}; "
                "append before close(), or reopen with mode='append'"
            )
        self._fh.write(line)
        if not line.endswith("\n"):
            self._fh.write("\n")
        self._count += 1
        if self._obs.enabled:
            # Pre-compression character count; reports are ASCII JSON, so
            # this equals the uncompressed on-disk byte count.
            self._obs.count(
                "trace.bytes_written",
                len(line) + (not line.endswith("\n")),
            )
        if self._count % self.flush_every == 0:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the OS (and to disk when fsyncing).

        A no-op after :meth:`close` — teardown paths routinely flush a
        store that something else (a ``with`` block, a campaign's
        cleanup) already closed, and close flushed everything anyway.
        """
        if self._fh.closed:
            return
        self._fh.flush()
        if self.fsync_on_flush:
            os.fsync(self._fh.fileno())

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> JsonlTraceStore:
        """Enter a ``with`` block; the store closes on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the store when the ``with`` block ends."""
        self.close()


#: Deduplication memory of the tolerant reader: enough to catch the
#: adjacent re-deliveries a UDP path produces without unbounded state.
_DEDUP_CAPACITY = 8_192


class TraceReader:
    """Streams reports back from a JSONL(.gz) trace file.

    In strict mode (default) a malformed line raises
    :class:`TraceFormatError` naming the line number — or
    :class:`TraceTruncatedError` when the damage is an incomplete final
    line, the signature of a collector killed mid-write.  With
    ``tolerant=True`` bad lines are skipped, exact duplicates dropped
    and garbage-valued records quarantined; :attr:`health` describes the
    most recent (complete) iteration.
    """

    def __init__(self, path: str | Path, *, tolerant: bool = False) -> None:
        self.path = Path(path)
        self.tolerant = tolerant
        self.health = TraceHealth()

    def _open(self) -> io.TextIOBase:
        if self.path.suffix == ".gz":
            return cast(io.TextIOBase, gzip.open(self.path, "rt"))
        return cast(io.TextIOBase, open(self.path))

    def _lines(self, fh: io.TextIOBase) -> Iterator[tuple[int, str]]:
        """Yield ``(lineno, raw_line)``, absorbing a torn gzip tail.

        A gzip stream cut off mid-write raises ``EOFError`` (not a bad
        JSON line) the moment iteration crosses the damage; damaged
        compressed bytes raise ``BadGzipFile``/``zlib.error``.  Tolerant
        mode counts the damage as a truncation and ends the stream —
        everything before the tear was already yielded; strict mode
        raises :class:`TraceTruncatedError`.
        """
        lineno = 0
        while True:
            try:
                raw = next(fh)
            except StopIteration:
                return
            except _GZIP_DAMAGE as exc:
                if self.tolerant:
                    self.health.truncated_lines += 1
                    return
                raise TraceTruncatedError(
                    f"{self.path}: compressed stream damaged after line "
                    f"{lineno} (collector killed mid-write?); re-read with "
                    "tolerant=True to keep the intact prefix"
                ) from exc
            lineno += 1
            yield lineno, raw

    def __iter__(self) -> Iterator[PeerReport]:
        health = self.health
        health.reset()
        seen: OrderedDict[tuple[float, int], None] = OrderedDict()
        with self._open() as fh:
            for lineno, raw in self._lines(fh):
                line = raw.strip()
                if not line:
                    continue
                health.lines_read += 1
                try:
                    report = PeerReport.from_json(line)
                except (ValueError, KeyError, TypeError) as exc:
                    truncated = not raw.endswith("\n")
                    if self.tolerant:
                        if truncated:
                            health.truncated_lines += 1
                        else:
                            health.parse_failures += 1
                        continue
                    if truncated:
                        raise TraceTruncatedError(
                            f"{self.path}: truncated final line {lineno} "
                            "(collector killed mid-write?); re-read with "
                            "tolerant=True to skip it"
                        ) from exc
                    raise TraceFormatError(
                        f"{self.path}: malformed record on line {lineno}: {exc}"
                    ) from exc
                if self.tolerant:
                    if not report.is_wellformed():
                        health.quarantined += 1
                        continue
                    key = (report.time, report.peer_ip)
                    if key in seen:
                        health.duplicates += 1
                        continue
                    seen[key] = None
                    if len(seen) > _DEDUP_CAPACITY:
                        seen.popitem(last=False)
                health.records_ok += 1
                yield report


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


class TolerantTraceReader:
    """Re-iterable dirty-trace pipeline: parse-skip, dedup, local re-sort.

    Drop-in for :class:`TraceReader` wherever analytics expects a
    re-iterable, time-ordered trace; after a full iteration
    :attr:`health` combines the parse-level and ordering-level counters
    of that pass.
    """

    def __init__(self, path: str | Path, *, slack_s: float = 600.0) -> None:
        self.path = Path(path)
        self.slack_s = slack_s
        self._reader = TraceReader(path, tolerant=True)
        self.health = TraceHealth()

    def __iter__(self) -> Iterator[PeerReport]:
        self.health.reset()
        yield from sanitize(
            iter(self._reader), slack_s=self.slack_s, health=self.health
        )
        # The inner reader resets its own counters per pass; fold the
        # completed pass's parse-level counts into the combined view.
        self.health.merge(self._reader.health)


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
