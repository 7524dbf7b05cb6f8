"""Span tracing for the traced benchmark run.

The program is not edited: :func:`install` replaces the public entry
points of each layer (engine methods, report and trace functions,
analytics kernels) with wrappers that record one span per call and
call straight through.  Spans live in memory as compact arrays
(name, parent, start, end) and are written out once the run ends.

A span's *self* time is its duration minus the time its child spans
cover, so the self times of all spans under a root add up to the root.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

#: The nine ``repro.core.metrics`` kernels the figure drivers call.
METRIC_KERNELS = (
    "daily_distinct_ips",
    "isp_shares",
    "streaming_quality",
    "degree_distributions",
    "average_degrees",
    "intra_isp_degree_fractions",
    "random_intra_isp_baseline",
    "small_world",
    "reciprocity_metrics",
)

#: Figure drivers in ``repro.core.experiments``, keyed by CLI figure name
#: (fig7 runs twice per ``--figure all``: global and China Netcom).
FIGURE_DRIVERS = {
    "fig1": "fig1_scale",
    "fig2": "fig2_isp_shares",
    "fig3": "fig3_streaming_quality",
    "fig4": "fig4_degree_distributions",
    "fig5": "fig5_degree_evolution",
    "fig6": "fig6_intra_isp_degrees",
    "fig7": "fig7_small_world",
    "fig8": "fig8_reciprocity",
    "windows": "windowed_structure",
}


class SpanRecorder:
    """Spans of one process, in call order; disabled until :meth:`enable`."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Counts measured at the same boundaries (bytes, successes, ...).
        self.counts: dict[str, float] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def add(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def name_id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str) -> _Span:
        """A context manager recording one span (the benchmark's roots)."""
        return _Span(self, self.name_id_of(name))

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call made while enabled."""
        nid = self.name_id_of(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """``fn`` (an ``__iter__``) with a span around every ``next()``.

        The consumer's own work between items stays outside the spans,
        so only the reader's time is attributed to it.
        """
        nid = self.name_id_of(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            if not self.enabled:
                yield from inner
                return
            self.add(f"{name}.passes")
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        return traced

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, inclusive s, self s)`` over all closed spans."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list[float]] = {}
        names = self.names
        for i in range(n):
            row = out.setdefault(names[self.name_id[i]], [0, 0.0, 0.0])
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, parent index, times."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    f"[{self.name_id[i]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}]\n"
                )


class _Span:
    __slots__ = ("_rec", "_nid", "_idx")

    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self._rec = rec
        self._nid = nid
        self._idx = -1

    def __enter__(self) -> _Span:
        self._idx = self._rec._open(self._nid)
        return self

    def __exit__(self, *exc: object) -> None:
        self._rec._close(self._idx)


def _rebind(module_name: str, attr: str, wrapped: Callable[..., Any]) -> None:
    """Point ``module.attr`` and every ``from module import attr`` at ``wrapped``."""
    original = getattr(sys.modules[module_name], attr)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _patch_method(cls: type, attr: str, make: Callable[[Any], Any]) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(getattr(cls, attr)))


def install_figure_clock(
    rec: SpanRecorder, after: Callable[[], None] | None = None
) -> None:
    """Wrap only the figure drivers: a few calls per ``repro analyze``.

    ``after`` runs after each driver returns, outside its span.
    """
    import repro.cli  # noqa: F401  (binds the drivers before they are wrapped)
    import repro.core.experiments as ex

    for fig, driver in FIGURE_DRIVERS.items():
        traced = rec.wrap(f"cli.{fig}", getattr(ex, driver))
        if after is not None:
            traced = _then(traced, after)
        _rebind(ex.__name__, driver, traced)


def _then(fn: Callable[..., Any], after: Callable[[], None]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        after()
        return result

    return call


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    install_figure_clock(rec)
    import repro.core.metrics as metrics
    import repro.core.snapshots as snapshots
    import repro.simulator.system  # noqa: F401  (binds build_policy before it is wrapped)
    import repro.traces.reporter as reporter
    from repro.network.latency import LatencyModel
    from repro.simulator.checkpoint import CheckpointManager
    from repro.simulator.exchange import ExchangeEngine
    from repro.soa.incremental import IncrementalWindowMetrics
    from repro.traces.records import PeerReport
    from repro.traces.segments import SegmentedTraceReader, SegmentedTraceStore

    def connected(ok: bool) -> None:
        rec.add("simulator.connect.ok", 1.0 if ok else 0.0)

    def exchanged(stats: Any) -> None:
        rec.add("simulator.exchange.transfers", stats.transfers)

    def saved(path: Path) -> None:
        rec.add("simulator.checkpoint.bytes", os.path.getsize(path))

    def snapped(snapshot: Any) -> None:
        rec.add("core.snapshot.nodes", len(snapshot.active_graph))

    wrap = rec.wrap
    _patch_method(ExchangeEngine, "maintenance_tick", lambda f: wrap("simulator.ticks", f))
    _patch_method(ExchangeEngine, "connect", lambda f: wrap("simulator.connect", f, connected))
    _patch_method(ExchangeEngine, "run_round", lambda f: wrap("simulator.exchange", f, exchanged))
    _patch_method(ExchangeEngine, "emit_reports", lambda f: wrap("simulator.reports", f))
    _patch_method(LatencyModel, "sample_link", lambda f: wrap("network.sample_link", f))
    _patch_method(CheckpointManager, "save", lambda f: wrap("simulator.checkpoint", f, saved))
    _rebind(reporter.__name__, "build_report", wrap("traces.build_report", reporter.build_report))
    _patch_method(PeerReport, "to_json", lambda f: wrap("traces.encode", f))
    _patch_method(PeerReport, "from_json", lambda f: wrap("traces.parse", f))

    def append_line(fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = wrap("traces.write", fn)

        def counted(self: Any, line: str) -> None:
            rec.add("traces.bytes", len(line) + (0 if line.endswith("\n") else 1))
            traced(self, line)

        return functools.wraps(fn)(counted)

    _patch_method(SegmentedTraceStore, "append_line", append_line)
    os.fsync = wrap("traces.fsync", os.fsync)
    _patch_method(SegmentedTraceReader, "__iter__", lambda f: rec.wrap_iter("traces.read", f))
    snapshot = wrap("core.snapshot", snapshots.build_snapshot, snapped)
    _rebind(snapshots.__name__, "build_snapshot", snapshot)
    for name in METRIC_KERNELS:
        _rebind(metrics.__name__, name, wrap(f"core.metric.{name}", getattr(metrics, name)))
    _patch_method(IncrementalWindowMetrics, "update", lambda f: wrap("soa.incremental", f))
    _install_overlay(rec)


def _install_overlay(rec: SpanRecorder) -> None:
    """Wrap the decisions of every partner policy the program builds
    (the policy class is chosen per run, by the program's default)."""
    import repro.overlay.registry as registry

    patched: set[type] = set()

    def built(policy: Any) -> None:
        cls = type(policy)
        if cls in patched:
            return
        patched.add(cls)
        for attr in ("select_suppliers", "refine_suppliers", "order_gossip_pool"):
            _patch_method(cls, attr, lambda f: rec.wrap("overlay", f))

    build = registry.build_policy

    @functools.wraps(build)
    def build_policy(*args: Any, **kwargs: Any) -> Any:
        policy = build(*args, **kwargs)
        built(policy)
        return policy

    _rebind(registry.__name__, "build_policy", build_policy)
