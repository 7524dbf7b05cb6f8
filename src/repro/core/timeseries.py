"""Windowed evolution of metrics over a trace.

The paper's evolution figures (1A, 5, 6, 7, 8) plot a metric computed on
back-to-back snapshots across two weeks.  ``sample_trace`` streams a
trace once for any number of :class:`Sampling` consumers — each with its
own metrics and cadence — materialising one snapshot per window that
some consumer is due at and sharing it among all of them, so a
multi-hundred-MB trace is read once and never resident in memory.
``observe`` is the one-consumer case.  A consumer that keeps its own
state across windows (the incremental per-window structure series)
rides the same pass through ``Sampling.on_window``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from typing import Generic, TypeVar

from repro.core import shards
from repro.core.snapshots import TopologySnapshot, build_snapshot
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.records import PeerReport
from repro.traces.store import TraceFormatError, iter_windows

MetricFn = Callable[[TopologySnapshot], object]
K = TypeVar("K", bound=Hashable)


@dataclass
class SnapshotSeries:
    """Aligned time series: one row of metric values per observation."""

    times: list[float] = field(default_factory=list)
    values: dict[str, list[object]] = field(default_factory=dict)

    def append(self, time: float, row: dict[str, object]) -> None:
        """Add one observation row at ``time``."""
        self.times.append(time)
        for key, value in row.items():
            self.values.setdefault(key, []).append(value)

    def extend(self, other: SnapshotSeries) -> None:
        """Add ``other``'s rows after this series' own."""
        self.times.extend(other.times)
        for key, column in other.values.items():
            self.values.setdefault(key, []).extend(column)

    def column(self, key: str) -> list[object]:
        """All values of one metric, aligned with :attr:`times`."""
        return self.values[key]

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterable[tuple[float, dict[str, object]]]:
        """Iterate (time, {metric: value}) rows."""
        for i, t in enumerate(self.times):
            yield t, {k: v[i] for k, v in self.values.items()}


@dataclass(frozen=True)
class Sampling:
    """What one consumer of a shared trace pass samples from it.

    ``metrics`` run on the snapshot of every window that starts on a
    multiple of ``every`` (relative to the pass's ``start``; ``None``
    keeps no cadence) and of every window holding one of ``instants``.
    ``on_report``, when set, sees every report of the trace in order —
    for tallies no snapshot serves, such as Fig. 1(B)'s daily IPs.
    ``on_window``, when set, sees every window's reports in order — for
    state carried from window to window — and its return value is the
    sampled row (before the ``metrics``' values) wherever the sampling
    is due.  Its contract: the row depends on that window's reports
    only.  A shard-parallel pass starts the consumer fresh in each shard
    (each from its state at the pass's start), and what a consumer
    records outside its rows in a forked shard stays there.
    """

    metrics: dict[str, MetricFn]
    every: float | None = None
    instants: tuple[float, ...] = ()
    on_report: Callable[[PeerReport], None] | None = None
    on_window: Callable[[list[PeerReport]], dict[str, object]] | None = None

    def due(self, window_start: float, window_seconds: float, start: float) -> bool:
        """Whether the window starting at ``window_start`` is sampled."""
        if self.every is not None and (window_start - start) % self.every <= 1e-9:
            return True
        return any(
            window_start <= t < window_start + window_seconds for t in self.instants
        )


def _tapped(
    reports: Iterable[PeerReport], taps: list[Callable[[PeerReport], None]]
) -> Iterator[PeerReport]:
    """``reports``, shown to every tap on the way past."""
    for report in reports:
        for tap in taps:
            tap(report)
        yield report


@dataclass
class _Share(Generic[K]):
    """What one shard of a pass charted, and which windows it read."""

    series: dict[K, SnapshotSeries]
    first: float | None = None  # start of the first window read
    last: float | None = None  # start of the last window read
    ended: bool = False  # stopped after the last instant


def sample_trace(
    reports: Iterable[PeerReport],
    samplings: Mapping[K, Sampling],
    *,
    window_seconds: float = 600.0,
    start: float = 0.0,
    active_threshold: int = 10,
    obs: AnyObserver = NULL_OBSERVER,
) -> dict[K, SnapshotSeries]:
    """Serve every sampling from one pass over ``reports``.

    The trace streams through :func:`iter_windows` once; a snapshot is
    built only for windows where some due sampling has ``metrics``, and
    feeds every sampling due there.  At most one window of reports is
    resident.  Returns each sampling's series under its key, exactly as
    a separate pass per sampling would produce it.  A pass of instant
    samplings only ends after the last instant; a pass with an
    ``on_window`` consumer reads the whole trace.

    A strict :class:`~repro.traces.segments.SegmentedTraceReader` is
    read shard-parallel (:mod:`repro.core.shards`): cut at window starts
    into one slice per usable core, each slice charted by this code in
    its own process and the rows merged in window order.  The result,
    a strict error included, is that of one shard.  This needs every
    ``on_report`` tap to be a bound method of an object with a
    ``merge``, and every ``on_window`` consumer to keep the contract in
    :class:`Sampling`; anything else is read as one shard.

    An enabled ``obs`` times the pass (``analytics.trace_pass``), each
    snapshot (``analytics.snapshot``) and each metric
    (``analytics.metric.<name>``), counts the windowed reports
    (``analytics.reports``, once per window) and the pass's shards
    (``analytics.shards``), so a pass's read rate needs no profiler.
    """
    for sampling in samplings.values():
        if sampling.every is not None and sampling.every < window_seconds:
            raise ValueError("observe_every must be >= window_seconds")
    taps = [s.on_report for s in samplings.values() if s.on_report is not None]
    windowed = [
        (key, s.on_window) for key, s in samplings.items() if s.on_window is not None
    ]
    # With instant samplings only, no window past the last instant is due.
    last_instant: float | None = None
    if not taps and not windowed and all(s.every is None for s in samplings.values()):
        last_instant = max(
            (t for s in samplings.values() for t in s.instants), default=-math.inf
        )

    def chart(part: Iterable[PeerReport]) -> _Share[K]:
        share = _Share({key: SnapshotSeries() for key in samplings})
        if taps:
            part = _tapped(part, taps)
        for window_start, window_reports in iter_windows(
            part, window_seconds, start=start
        ):
            if share.first is None:
                share.first = window_start
            share.last = window_start
            if obs.enabled:
                obs.count("analytics.reports", len(window_reports))
            window_rows = {key: fn(window_reports) for key, fn in windowed}
            due = [
                key
                for key, s in samplings.items()
                if s.due(window_start, window_seconds, start)
            ]
            rows = {key: dict(window_rows.get(key, ())) for key in due}
            if any(samplings[key].metrics for key in due):
                with obs.span("analytics.snapshot"):
                    snapshot = build_snapshot(
                        window_reports,
                        time=window_start,
                        window_seconds=window_seconds,
                        active_threshold=active_threshold,
                    )
                if obs.enabled:
                    obs.count("analytics.snapshots")
                    obs.gauge_set("analytics.snapshot_nodes", snapshot.num_total)
                for key in due:
                    row = rows[key]
                    for name, fn in samplings[key].metrics.items():
                        if not obs.enabled:
                            row[name] = fn(snapshot)
                        else:
                            with obs.span(f"analytics.metric.{name}"):
                                row[name] = fn(snapshot)
            for key, row in rows.items():
                share.series[key].append(window_start, row)
            if last_instant is not None and last_instant < window_start + window_seconds:
                share.ended = True
                break
        return share

    with obs.span("analytics.trace_pass"):
        parts = shards.split(reports, taps, window_seconds=window_seconds, start=start)
        if obs.enabled:
            obs.count("analytics.shards", max(len(parts), 1))
        if len(parts) < 2:
            return chart(reports).series
        owners = list({id(tap.__self__): tap.__self__ for tap in taps}.values())  # type: ignore[attr-defined]
        series = {key: SnapshotSeries() for key in samplings}
        last: float | None = None
        with contextlib.closing(shards.run_shards(parts, chart, owners, obs)) as shares:
            for share in shares:
                if share.first is not None:
                    # Cuts fall between windows; a shard never re-opens one.
                    if last is not None and share.first <= last:
                        raise TraceFormatError("trace not time-ordered across windows")
                    last = share.last
                for key, column in share.series.items():
                    series[key].extend(column)
                if share.ended:
                    break
        return series


def observe(
    reports: Iterable[PeerReport],
    metrics: dict[str, MetricFn],
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    start: float = 0.0,
    active_threshold: int = 10,
    obs: AnyObserver = NULL_OBSERVER,
) -> SnapshotSeries:
    """Apply ``metrics`` to the snapshot of each observation window.

    ``observe_every`` subsamples: only windows starting on a multiple of
    it (relative to ``start``) are materialised — e.g. hourly snapshots
    from a 10-minute-resolution trace.  Defaults to every window.

    One :class:`Sampling` through :func:`sample_trace`: an enabled
    ``obs`` times the pass, each snapshot and each metric function —
    the per-metric compute profile of a figure.
    """
    if observe_every is None:
        observe_every = window_seconds
    return sample_trace(
        reports,
        {None: Sampling(metrics, every=observe_every)},
        window_seconds=window_seconds,
        start=start,
        active_threshold=active_threshold,
        obs=obs,
    )[None]


def round_event_series(events: Iterable[dict[str, object]]) -> SnapshotSeries:
    """Per-round observability events as a :class:`SnapshotSeries`.

    Consumes the ``type == "round"`` events an instrumented simulator
    appends to its JSONL event log (see ``repro.obs``): each becomes one
    row keyed by simulated time, with every other numeric field
    (viewers, satisfied, transfers, arrivals, ...) as a column — so the
    run's live telemetry plots with the same tooling as trace-derived
    series.
    """
    series = SnapshotSeries()
    for event in events:
        if event.get("type") != "round":
            continue
        row = {
            key: value
            for key, value in event.items()
            if key not in ("type", "sim_time")
        }
        time = event.get("sim_time", 0.0)
        series.append(float(time) if isinstance(time, (int, float)) else 0.0, row)
    return series
