"""Shard-parallel trace passes: each core charts its own slice of a trace.

A strict, path-backed :class:`~repro.traces.segments.SegmentedTraceReader`
is cut at window starts into one slice per usable core.  Shard 0 runs in
this process; every other shard runs in a forked child that reads,
parses and charts its own slice and sends back only results: its window
rows, the state of the pass's ``on_report`` taps and its observability
metrics and events.  No report crosses the process boundary.

Where the cuts go:

- inside an uncompressed segment, at the first line of a window, found
  by binary search over line offsets that peeks at each probe line's
  report — a slice there ends and the next begins on that exact byte;
- in a ``.gz`` trace only at segment starts, which need not be window
  starts: the slice before the cut reads on into the cut segment until
  the window changes, and the slice after it skips those leading
  reports, so each window is charted whole by exactly one shard.

The pass stays one shard for anything else (tolerant readers, plain
iterables, taps without a ``merge``), where ``fork`` is missing or
unsafe (other live threads), and for traces too small to repay a fork.
"""

from __future__ import annotations

import gc
import gzip
import os
import pickle
import signal
import threading
import zlib
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Any, BinaryIO, TypeVar

from repro.obs.spans import AnyObserver, Observer
from repro.traces.records import PeerReport
from repro.traces.segments import SegmentedTraceReader, TraceSlice

R = TypeVar("R")

#: Trace bytes a shard must have to repay its fork and merge: forking
#: a shard and folding in its results took 5–15 ms on a 2-core x86-64
#: box, parsing and charting a MiB of reports 110–155 ms.
MIN_SHARD_BYTES = 1 << 20


def _peek(line: bytes) -> PeerReport:
    return PeerReport.from_json(line.decode().strip())


def _line_start(fh: BinaryIO, pos: int) -> int:
    """The first line start at or after byte ``pos``."""
    if pos == 0:
        return 0
    fh.seek(pos - 1)
    fh.readline()
    return fh.tell()


def _first_line_at(
    fh: BinaryIO, lo: int, hi: int, at: Callable[[PeerReport], bool]
) -> int:
    """First line start in ``[lo, hi)`` whose report ``at`` holds for, else ``hi``.

    ``lo`` is a line start and ``at`` is false, then true, along the
    lines (true from some window on, in a time-ordered trace).
    """
    found = hi
    while lo < hi:
        mid = (lo + hi) // 2
        probe = _line_start(fh, mid)
        if probe >= hi:
            hi = mid
            continue
        fh.seek(probe)
        line = fh.readline()
        if at(_peek(line)):
            found, hi = probe, mid
        else:
            lo = probe + len(line)
    return found


def _plain_cut(
    path: Path, offset: int, window: Callable[[PeerReport], float]
) -> tuple[int, float] | None:
    """``(byte, window)``: the first window to start after ``offset``, if any."""
    with open(path, "rb") as fh:
        probe = _line_start(fh, offset)
        fh.seek(probe)
        line = fh.readline()
        if not line:
            return None
        owned = window(_peek(line)) + 1
        size = os.fstat(fh.fileno()).st_size
        cut = _first_line_at(fh, probe + len(line), size, lambda r: window(r) >= owned)
    return (cut, owned) if cut < size else None


def _first_window(path: Path, window: Callable[[PeerReport], float]) -> float | None:
    """The window of a ``.gz`` segment's first report (None: it is empty)."""
    with gzip.open(path, "rb") as fh:
        line = fh.readline()
    return window(_peek(line)) if line else None


def _gz_cut(
    paths: list[Path], segment: int, window: Callable[[PeerReport], float]
) -> float | None:
    """The first window wholly inside ``segment``, if the next one starts later."""
    head = _first_window(paths[segment], window)
    if head is None:
        return None
    if segment + 1 < len(paths):
        after = _first_window(paths[segment + 1], window)
        if after is None or after <= head:
            return None
    return head + 1


def plan_shards(
    reader: SegmentedTraceReader,
    count: int,
    *,
    window_seconds: float,
    start: float,
) -> list[SegmentedTraceReader]:
    """Cut ``reader`` into at most ``count`` window-aligned sliced readers.

    Cuts aim at equal byte shares.  A cut that cannot be placed is left
    out, so fewer shards may come back; a probe line that does not parse
    gives up and hands back ``[reader]``.
    """
    paths = reader.segment_paths()
    sizes = [p.stat().st_size for p in paths]
    total = sum(sizes)
    if not total:
        return [reader]

    def window(report: PeerReport) -> float:
        return (report.time - start) // window_seconds

    cuts: list[tuple[int, int, float]] = []  # (segment, byte, first window owned)
    try:
        for i in range(1, count):
            target = total * i // count
            segment = 0
            while target >= sizes[segment]:
                target -= sizes[segment]
                segment += 1
            if paths[segment].suffix == ".gz":
                if target * 2 >= sizes[segment]:
                    segment += 1  # the nearer segment start
                owned = _gz_cut(paths, segment, window) if 0 < segment < len(paths) else None
                cut = None if owned is None else (segment, 0, owned)
            else:
                found = _plain_cut(paths[segment], target, window)
                cut = None if found is None else (segment, found[0], found[1])
            if cut is not None and (not cuts or (cut[:2] > cuts[-1][:2] and cut[2] > cuts[-1][2])):
                cuts.append(cut)
    except (ValueError, KeyError, TypeError, OSError, EOFError, zlib.error):
        return [reader]  # a probe line does not parse: the one-shard pass says why
    if not cuts:
        return [reader]

    def before(owned: float) -> Callable[[PeerReport], bool]:
        return lambda report: window(report) < owned

    def from_(owned: float) -> Callable[[PeerReport], bool]:
        return lambda report: window(report) >= owned

    shards = []
    bounds = [None, *cuts, None]
    for lo, hi in zip(bounds, bounds[1:]):
        first, begin, skip = 0, 0, None
        if lo is not None:
            first, begin = lo[0], lo[1]
            skip = before(lo[2]) if paths[first].suffix == ".gz" else None
        last, end, stop = len(paths) - 1, None, None
        if hi is not None:
            last = hi[0]
            if paths[last].suffix == ".gz":
                stop = from_(hi[2])
            else:
                end = hi[1]
        shards.append(reader.sliced(TraceSlice(first, begin, last, end, skip, stop)))
    return shards


def shard_count(reader: SegmentedTraceReader) -> int:
    """How many shards a pass over ``reader`` is worth in this process.

    One per core this process may run on, but no more than one per
    :data:`MIN_SHARD_BYTES` of trace; one where ``fork`` is missing, or
    unsafe because other threads are live.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    size = sum(p.stat().st_size for p in reader.segment_paths())
    return max(1, min(len(affinity(0)), size // MIN_SHARD_BYTES))


def split(
    reports: Iterable[PeerReport],
    taps: list[Callable[[PeerReport], None]],
    *,
    window_seconds: float,
    start: float,
) -> list[SegmentedTraceReader]:
    """The shards a pass over ``reports`` reads, or ``[]`` to read it whole.

    Only a strict, unsliced reader is split: a tolerant read dedups and
    reorders across the whole pass.  Every tap must be a bound method
    of an object that can ``merge`` another shard's (pickled) copy.
    """
    if (
        not isinstance(reports, SegmentedTraceReader)
        or reports.tolerant
        or reports.part is not None
        or not all(hasattr(getattr(tap, "__self__", None), "merge") for tap in taps)
    ):
        return []
    count = shard_count(reports)
    if count < 2:
        return []
    return plan_shards(reports, count, window_seconds=window_seconds, start=start)


def _child(
    out: int, run: Callable[[SegmentedTraceReader], R], reader: SegmentedTraceReader,
    owners: list[Any], obs: AnyObserver,
) -> None:
    """A forked shard: chart ``reader``, send results down ``out``, exit."""
    status = 1
    try:
        gc.freeze()  # the collector leaves the parent's objects, and their pages, alone
        events = obs.capture_shard() if isinstance(obs, Observer) else None
        try:
            result = run(reader)
            metrics = obs.registry.state() if isinstance(obs, Observer) else None
            payload: tuple[Any, ...] = ("ok", result, owners, metrics, events)
        except Exception as exc:  # repro: noqa[REP005] re-raised in the parent
            payload = ("error", exc)
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # repro: noqa[REP005] an unpicklable error
            data = pickle.dumps(("error", RuntimeError(repr(exc))))
        with os.fdopen(out, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def run_shards(
    readers: list[SegmentedTraceReader],
    run: Callable[[SegmentedTraceReader], R],
    owners: list[Any],
    obs: AnyObserver,
) -> Iterator[R]:
    """Each shard's ``run`` result in trace order; shard 0 runs here.

    Shards 1… run in forked children, started before shard 0 so each
    begins from the pass's starting state.  As a child's result is
    taken, its tap ``owners`` are merged into this process's (``merge``)
    and its metrics and events into ``obs``; a shard's error is raised
    here as it was raised there.  Stopping early (or an error) kills
    the children not yet taken; every child is reaped on every exit.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for reader in readers[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _child(write_end, run, reader, owners, obs)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        yield run(readers[0])
        while children:
            pid, results = children[0]
            data = results.read()
            results.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not data:
                raise RuntimeError(f"trace shard exited with status {status}")
            payload = pickle.loads(data)
            if payload[0] == "error":
                raise payload[1]
            _, result, shard_owners, metrics, events = payload
            for owner, shard_owner in zip(owners, shard_owners):
                owner.merge(shard_owner)
            if isinstance(obs, Observer) and metrics is not None:
                obs.registry.merge(metrics)
                for event in events:
                    obs.emit(event)
            yield result
    finally:
        for pid, results in children:
            results.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
