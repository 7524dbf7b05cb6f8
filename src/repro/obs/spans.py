"""Span tracing and the top-level ``Observer`` facade.

An :class:`Observer` is the single handle instrumented code touches:

- ``obs.span("round.exchange")`` — a context manager timing a region in
  wall seconds *and* simulated seconds, with nesting depth and
  exception tagging; the wall duration also feeds a histogram of the
  same name, and (when an event log is attached) a ``span`` event is
  appended to the JSONL log.
- ``obs.count(name, n)`` / ``obs.gauge_set(name, v)`` /
  ``obs.observe(name, v)`` — direct metric updates.
- ``obs.enabled`` — ``False`` on the no-op implementation so hot loops
  can skip per-item work entirely (``if obs.enabled: ...``).

The module-level :data:`NULL_OBSERVER` is the process-wide no-op
default: every instrumented constructor takes ``obs=NULL_OBSERVER`` so
observability costs nothing unless explicitly switched on.

Determinism: spans read wall time only through the injectable
:class:`repro.obs.clock.Clock` and sim time only through a callable
bound by the simulator (``bind_sim_clock``); nothing here consumes
simulation RNG, so traces are byte-identical with obs on or off.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from types import TracebackType
from typing import Any, Protocol

from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class EventSink(Protocol):
    """Anything that accepts structured observability events."""

    def emit(self, event: dict[str, Any]) -> None:
        """Append one JSON-safe event."""
        ...


class Span:
    """One timed region; use via ``with obs.span(name): ...``.

    On exit the span records its wall duration into the histogram named
    after it and, if an event sink is attached, emits a ``span`` event
    carrying wall seconds, sim seconds, nesting depth, tags, and the
    exception type name when the body raised.
    """

    __slots__ = ("_obs", "name", "tags", "_wall_start", "_sim_start", "_depth")

    def __init__(self, obs: "Observer", name: str, tags: dict[str, Any] | None) -> None:
        self._obs = obs
        self.name = name
        self.tags = tags
        self._wall_start = 0.0
        self._sim_start = 0.0
        self._depth = 0

    def __enter__(self) -> "Span":
        obs = self._obs
        self._depth = len(obs._stack)
        obs._stack.append(self.name)
        self._wall_start = obs._clock.now()
        self._sim_start = obs._sim_clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        obs = self._obs
        wall_s = obs._clock.now() - self._wall_start
        sim_s = obs._sim_clock() - self._sim_start
        obs._stack.pop()
        obs.registry.histogram(self.name).observe(wall_s)
        sink = obs._sink
        if sink is not None:
            event: dict[str, Any] = {
                "type": "span",
                "name": self.name,
                "wall_s": wall_s,
                "sim_s": sim_s,
                "depth": self._depth,
            }
            if self.tags:
                event["tags"] = self.tags
            if exc_type is not None:
                event["error"] = exc_type.__name__
            sink.emit(event)


class _NullSpan:
    """A reusable do-nothing context manager (the disabled span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _zero_sim_clock() -> float:
    """Default sim clock before a simulator binds its own."""
    return 0.0


class _EventList:
    """An event sink appending to a list."""

    def __init__(self, events: list[dict[str, Any]]) -> None:
        self.emit = events.append


class Observer:
    """The enabled observability facade: metrics registry + span tracer.

    Parameters
    ----------
    clock:
        Wall-clock seam (defaults to the monotonic host clock); tests
        pass a :class:`repro.obs.clock.ManualClock` for exact timings.
    sink:
        Optional event sink (typically a
        :class:`repro.obs.exporters.JsonlEventLog`) receiving one dict
        per finished span plus any events instrumented code emits.
    """

    enabled = True

    def __init__(self, clock: Clock | None = None, sink: EventSink | None = None) -> None:
        self.registry = MetricsRegistry()
        self._clock: Clock = clock if clock is not None else WallClock()
        self._sink = sink
        self._sim_clock: Callable[[], float] = _zero_sim_clock
        self._stack: list[str] = []

    @property
    def sink(self) -> EventSink | None:
        """The attached event sink, if any."""
        return self._sink

    @property
    def clock(self) -> Clock:
        """The wall-clock seam every duration is read through."""
        return self._clock

    def bind_sim_clock(self, sim_clock: Callable[[], float]) -> None:
        """Attach the simulator's clock so spans can report sim seconds."""
        self._sim_clock = sim_clock

    def span(self, name: str, **tags: Any) -> Span:
        """Context manager timing the enclosed region (see :class:`Span`)."""
        return Span(self, name, tags or None)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.registry.counter(name).add(amount)

    def gauge_set(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self.registry.gauge(name).set(value)

    def observe(
        self, name: str, value: float, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Record ``value`` into the histogram ``name``."""
        self.registry.histogram(name, boundaries).observe(value)

    def emit(self, event: dict[str, Any]) -> None:
        """Forward a structured event to the sink, if one is attached."""
        if self._sink is not None:
            self._sink.emit(event)

    def capture_shard(self) -> list[dict[str, Any]]:
        """Record afresh, into memory: for a forked shard of a trace pass.

        The registry starts empty and events go to the returned list, so
        the forked copy never writes to its parent's event sink; the
        parent merges the registry's ``state()`` and replays the events.
        """
        events: list[dict[str, Any]] = []
        self.registry = MetricsRegistry()
        self._sink = _EventList(events)
        return events

    def checkpoint_state(self) -> dict[str, Any] | None:
        """Serialise counter/gauge/histogram state for a checkpoint."""
        return {"registry": self.registry.state()}

    def restore_checkpoint(self, state: dict[str, Any] | None) -> None:
        """Restore metric state saved by :meth:`checkpoint_state`."""
        if state is not None:
            self.registry.restore(state["registry"])


class NullObserver:
    """The no-op observer: every operation is a constant-time no-op.

    ``enabled`` is ``False`` so hot paths can skip whole instrumented
    blocks; ``span()`` hands back a shared do-nothing context manager.
    """

    enabled = False

    def bind_sim_clock(self, sim_clock: Callable[[], float]) -> None:
        """Ignore the sim clock (nothing is timed)."""

    def span(self, name: str, **tags: Any) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1.0) -> None:
        """Drop the increment."""

    def gauge_set(self, name: str, value: float) -> None:
        """Drop the gauge update."""

    def observe(
        self, name: str, value: float, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Drop the observation."""

    def emit(self, event: dict[str, Any]) -> None:
        """Drop the event."""

    def checkpoint_state(self) -> dict[str, Any] | None:
        """No state to checkpoint."""
        return None

    def restore_checkpoint(self, state: dict[str, Any] | None) -> None:
        """Nothing to restore."""


NULL_OBSERVER = NullObserver()
"""Process-wide no-op observer; the default for every ``obs=`` parameter."""

AnyObserver = Observer | NullObserver
"""Union accepted by instrumented constructors."""
