"""Windowed evolution of metrics over a trace.

The paper's evolution figures (1A, 5, 6, 7, 8) plot a metric computed on
back-to-back snapshots across two weeks.  ``sample_trace`` streams a
trace once for any number of :class:`Sampling` consumers — each with its
own metrics and cadence — materialising one snapshot per window that
some consumer is due at and sharing it among all of them, so a
multi-hundred-MB trace is read once and never resident in memory.
``observe`` is the one-consumer case.

Snapshots are independent, so ``workers=N`` fans the per-window work
(snapshot build + metric evaluation) out over a process pool.  Windows
are submitted as the trace streams past a bounded in-flight queue and
results are appended strictly in submission order, so the resulting
series — and anything rendered from it — is byte-identical to the
serial path for every worker count.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TypeVar

from repro.core.snapshots import TopologySnapshot, build_snapshot
from repro.obs.spans import NULL_OBSERVER, AnyObserver
from repro.traces.records import PeerReport
from repro.traces.store import iter_windows

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
    """

    metrics: dict[str, MetricFn]
    every: float | None = None
    instants: tuple[float, ...] = ()
    on_report: Callable[[PeerReport], None] | None = None

    def due(self, window_start: float, window_seconds: float, start: float) -> bool:
        """Whether the window starting at ``window_start`` is sampled."""
        if self.every is not None and (window_start - start) % self.every <= 1e-9:
            return True
        return any(
            window_start <= t < window_start + window_seconds for t in self.instants
        )


# Per-worker state, installed once by the pool initializer so each
# window task ships only its reports, not the metric tables.
_worker_metrics: dict[Hashable, dict[str, MetricFn]] = {}
_worker_window_seconds: float = 600.0
_worker_active_threshold: int = 10


def _init_sample_worker(payload: bytes) -> None:
    """Process-pool initializer: unpack the pickled sampling config."""
    global _worker_metrics, _worker_window_seconds, _worker_active_threshold
    _worker_metrics, _worker_window_seconds, _worker_active_threshold = (
        pickle.loads(payload)
    )


def _sample_window(
    window_start: float, window_reports: list[PeerReport], due: list[Hashable]
) -> tuple[list[dict[str, object]], int]:
    """Worker body: one window's snapshot, the due samplings' rows in order."""
    snapshot = build_snapshot(
        window_reports,
        time=window_start,
        window_seconds=_worker_window_seconds,
        active_threshold=_worker_active_threshold,
    )
    rows = [
        {name: fn(snapshot) for name, fn in _worker_metrics[key].items()}
        for key in due
    ]
    return rows, snapshot.num_total


def _tapped(
    reports: Iterable[PeerReport], taps: list[Callable[[PeerReport], None]]
) -> Iterator[PeerReport]:
    """``reports``, shown to every tap on the way past."""
    for report in reports:
        for tap in taps:
            tap(report)
        yield report


def sample_trace(
    reports: Iterable[PeerReport],
    samplings: Mapping[K, Sampling],
    *,
    window_seconds: float = 600.0,
    start: float = 0.0,
    active_threshold: int = 10,
    workers: int = 1,
    obs: AnyObserver = NULL_OBSERVER,
) -> dict[K, SnapshotSeries]:
    """Serve every sampling from one pass over ``reports``.

    The trace streams through :func:`iter_windows` once; a snapshot is
    built only for windows some sampling is due at, and feeds every
    sampling due there.  At most one window of reports is resident (plus
    the pool's in-flight windows).  Returns each sampling's series under
    its key, exactly as a separate pass per sampling would produce it.
    A pass of instant samplings only ends after the last instant.

    ``workers > 1`` evaluates the due windows on a process pool (metrics
    must be picklable) and appends results in window order, so the
    series are byte-identical for any worker count; ``on_report`` taps
    run in this process.  An enabled ``obs`` times the pass
    (``analytics.trace_pass``), each snapshot (``analytics.snapshot``)
    and, serially, each metric (``analytics.metric.<name>``).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    for sampling in samplings.values():
        if sampling.every is not None and sampling.every < window_seconds:
            raise ValueError("observe_every must be >= window_seconds")
    payload = b""
    if workers > 1:
        try:
            payload = pickle.dumps(
                (
                    {key: s.metrics for key, s in samplings.items()},
                    window_seconds,
                    active_threshold,
                )
            )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise ValueError(
                "metrics must be picklable for workers > 1: use module-level "
                "functions or functools.partial instead of lambdas/closures"
            ) from exc
    taps = [s.on_report for s in samplings.values() if s.on_report is not None]
    if taps:
        reports = _tapped(reports, taps)
    # With instant samplings only, no window past the last instant is due.
    last_instant: float | None = None
    if not taps and all(s.every is None for s in samplings.values()):
        last_instant = max(
            (t for s in samplings.values() for t in s.instants), default=-math.inf
        )
    series = {key: SnapshotSeries() for key in samplings}

    def due_windows() -> Iterator[tuple[float, list[PeerReport], list[K]]]:
        for window_start, window_reports in iter_windows(
            reports, window_seconds, start=start
        ):
            due = [
                key
                for key, s in samplings.items()
                if s.due(window_start, window_seconds, start)
            ]
            if due:
                yield window_start, window_reports, due
            if last_instant is not None and last_instant < window_start + window_seconds:
                return

    with obs.span("analytics.trace_pass"):
        if workers > 1:
            _sample_parallel(due_windows(), series, payload, workers, obs)
            return series
        for window_start, window_reports, due in due_windows():
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
                metrics = samplings[key].metrics
                if not obs.enabled:
                    row = {name: fn(snapshot) for name, fn in metrics.items()}
                else:
                    row = {}
                    for name, fn in metrics.items():
                        with obs.span(f"analytics.metric.{name}"):
                            row[name] = fn(snapshot)
                series[key].append(window_start, row)
    return series


def _sample_parallel(
    windows: Iterable[tuple[float, list[PeerReport], list[K]]],
    series: dict[K, SnapshotSeries],
    payload: bytes,
    workers: int,
    obs: AnyObserver,
) -> None:
    """Fan the due windows out over a process pool, in order."""
    pending: deque[
        tuple[float, list[K], Future[tuple[list[dict[str, object]], int]]]
    ] = deque()
    max_pending = workers * 4

    def drain(down_to: int) -> None:
        while len(pending) > down_to:
            window_start, due, future = pending.popleft()
            rows, num_total = future.result()
            if obs.enabled:
                obs.count("analytics.snapshots")
                obs.gauge_set("analytics.snapshot_nodes", num_total)
            for key, row in zip(due, rows):
                series[key].append(window_start, row)

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_sample_worker,
        initargs=(payload,),
    ) as pool:
        for window_start, window_reports, due in windows:
            future = pool.submit(_sample_window, window_start, window_reports, due)
            pending.append((window_start, due, future))
            drain(max_pending - 1)
        drain(0)


def observe(
    reports: Iterable[PeerReport],
    metrics: dict[str, MetricFn],
    *,
    window_seconds: float = 600.0,
    observe_every: float | None = None,
    start: float = 0.0,
    active_threshold: int = 10,
    workers: int = 1,
    obs: AnyObserver = NULL_OBSERVER,
) -> SnapshotSeries:
    """Apply ``metrics`` to the snapshot of each observation window.

    ``observe_every`` subsamples: only windows starting on a multiple of
    it (relative to ``start``) are materialised — e.g. hourly snapshots
    from a 10-minute-resolution trace.  Defaults to every window.

    One :class:`Sampling` through :func:`sample_trace`: ``workers > 1``
    evaluates windows on a process pool (metrics must be picklable —
    module-level functions or ``functools.partial``, not lambdas) with a
    byte-identical result, and an enabled ``obs`` times the pass, each
    snapshot and each metric function — the per-metric compute profile
    of a figure.
    """
    if observe_every is None:
        observe_every = window_seconds
    return sample_trace(
        reports,
        {None: Sampling(metrics, every=observe_every)},
        window_seconds=window_seconds,
        start=start,
        active_threshold=active_threshold,
        workers=workers,
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
