"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` owns every metric created through it and can
serialise its full state to plain dicts (``state()``/``restore()``) so
campaign checkpoints round-trip cumulative totals across kill/resume.

Design constraints inherited from the rest of the repo:

- **Determinism** — metrics only *observe*; nothing here reads clocks
  (durations arrive as arguments) or consumes random state.
- **Cheap hot path** — ``Counter.add`` is one dict-free float add;
  histograms use :func:`bisect.bisect_right` over fixed boundaries.

Metric names are dotted lowercase paths (``layer.component.what``),
e.g. ``sim.rounds``, ``trace.bytes_written``, ``analytics.snapshot_nodes``
— see DESIGN.md §7 for the full naming scheme.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import Any

# Default histogram boundaries (seconds): spans from sub-millisecond
# analytics helpers up to multi-minute campaign stages.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Counter:
    """A monotonically increasing total (e.g. ``trace.reports_received``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (e.g. ``sim.peers``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = value


class Histogram:
    """A fixed-boundary histogram of observations (typically durations).

    Buckets are cumulative-style on export (Prometheus ``le`` semantics)
    but stored as per-bucket counts internally; ``boundaries`` are upper
    bounds, with an implicit final ``+Inf`` bucket.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(boundaries)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: boundaries must be sorted")
        self.name = name
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Creates, owns, and serialises a process's metrics.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: calling
    twice with the same name returns the same object, so instrumented
    components can cheaply cache the handle or re-look it up.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram called ``name``."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, boundaries)
        return h

    def counters(self) -> dict[str, float]:
        """All counter values, keyed by name (sorted)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> dict[str, float]:
        """All gauge values, keyed by name (sorted)."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> dict[str, Histogram]:
        """All histograms, keyed by name (sorted)."""
        return dict(sorted(self._histograms.items()))

    def state(self) -> dict[str, Any]:
        """Serialise everything to JSON-safe plain dicts (for checkpoints)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "total": h.total,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, state: dict[str, Any]) -> None:
        """Fold in another registry's ``state()``, as if recorded here next.

        Counters and histograms add up; a gauge takes the other's value,
        the later one.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).value += float(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).value = float(value)
        for name, h_state in state.get("histograms", {}).items():
            h = self.histogram(name, tuple(h_state["boundaries"]))
            h.bucket_counts = [
                mine + int(theirs)
                for mine, theirs in zip(h.bucket_counts, h_state["bucket_counts"])
            ]
            h.count += int(h_state["count"])
            h.total += float(h_state["total"])

    def restore(self, state: dict[str, Any]) -> None:
        """Replace registry contents with a ``state()`` snapshot."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        for name, value in state.get("counters", {}).items():
            self.counter(name).value = float(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).value = float(value)
        for name, h_state in state.get("histograms", {}).items():
            h = self.histogram(name, tuple(h_state["boundaries"]))
            h.bucket_counts = [int(n) for n in h_state["bucket_counts"]]
            h.count = int(h_state["count"])
            h.total = float(h_state["total"])
