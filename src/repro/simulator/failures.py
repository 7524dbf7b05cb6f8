"""Fault injection: infrastructure failures and degradations during a run.

The paper's system keeps streaming through flash crowds; a natural
robustness question (and a standard distributed-systems test) is what
happens when the *infrastructure* fails or degrades instead.  The fault
model spans four axes:

- **Tracker faults** — binary outages (:class:`Outage`, no bootstrap,
  no refresh, no volunteering) and fractional *brownouts*
  (:class:`Brownout`: an overloaded tracker farm serves only a fraction
  of requests; the rest time out and the client retries with bounded
  exponential backoff).
- **Origin faults** — streaming-server outages and brownouts (degraded
  origin upload capacity).
- **Network faults** — ISP-level partitions (:class:`IspPartition`:
  links crossing the cut carry nothing and new connections across it
  fail) and cross-ISP degradation windows (:class:`LinkDegradation`:
  inter-ISP throughput scaled down, modelling congested peering links).
- **Peer crashes** — :class:`CrashWindow`: peers vanish *without* a
  goodbye, so the tracker keeps stale registrations and partners only
  discover the death via the idle timeout — distinct from graceful
  departures, which unregister immediately.

A :class:`FaultPlan` bundles all of these and is the one way to
schedule them (``SystemConfig.faults``); :class:`UUSeeSystem` and the
exchange engine consult it each round.  Its binary outages live in an
:class:`OutageSchedule`, whose membership checks are O(log n) via merged
sorted windows.

Expected behaviour, asserted in tests and benchmarks: quality dips
while a fault window is active and recovers within a few rounds after
it closes, because the mesh keeps redistributing whatever peers hold
(the paper's reciprocity argument).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from collections.abc import Iterable


def _check_window(start: float, end: float) -> None:
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"window bounds must be finite, got [{start}, {end})")
    if end <= start:
        raise ValueError("window must end after it starts")


def _window_active(start: float, end: float, now: float) -> bool:
    return start <= now < end


@dataclass(frozen=True)
class Outage:
    """One binary failure window [start, end) in simulation seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)

    def active(self, now: float) -> bool:
        """Whether the component is down at ``now``."""
        return _window_active(self.start, self.end, now)

    @property
    def duration(self) -> float:
        """Outage length in seconds."""
        return self.end - self.start


class _WindowIndex:
    """Merged, sorted half-open windows with O(log n) membership tests."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, windows: Iterable[tuple[float, float]]) -> None:
        merged: list[list[float]] = []
        for start, end in sorted(windows):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        self._starts = [w[0] for w in merged]
        self._ends = [w[1] for w in merged]

    def contains(self, now: float) -> bool:
        i = bisect_right(self._starts, now) - 1
        return i >= 0 and now < self._ends[i]


@dataclass
class OutageSchedule:
    """Binary failure windows for the tracker farm and streaming servers.

    Windows are merged into sorted indexes at construction, so the
    per-round ``tracker_down``/``servers_down`` checks bisect instead of
    scanning every window.  Mutating the outage lists after construction
    is unsupported (the indexes would go stale).
    """

    tracker_outages: list[Outage] = field(default_factory=list)
    server_outages: list[Outage] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._tracker_index = _WindowIndex(
            (o.start, o.end) for o in self.tracker_outages
        )
        self._server_index = _WindowIndex(
            (o.start, o.end) for o in self.server_outages
        )

    def tracker_down(self, now: float) -> bool:
        """True while no tracking server is reachable."""
        return self._tracker_index.contains(now)

    def servers_down(self, now: float) -> bool:
        """True while the streaming origin servers are offline."""
        return self._server_index.contains(now)

    @property
    def empty(self) -> bool:
        """No failures scheduled."""
        return not self.tracker_outages and not self.server_outages


@dataclass(frozen=True)
class Brownout:
    """Fractional-capacity window: only ``capacity`` of requests succeed.

    Applied to the tracker farm it models overload (a fraction of
    bootstrap/refresh/volunteer messages are served, the rest time out);
    applied to the origin servers it scales their usable upload.
    """

    start: float
    end: float
    capacity: float  # fraction of normal service still available, 0..1

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (math.isfinite(self.capacity) and 0.0 <= self.capacity <= 1.0):
            raise ValueError(f"brownout capacity must be in [0, 1]: {self.capacity}")

    def active(self, now: float) -> bool:
        """Whether the brownout is in effect at ``now``."""
        return _window_active(self.start, self.end, now)


@dataclass(frozen=True)
class IspPartition:
    """Network partition isolating a set of ISPs from everyone else.

    While active, no traffic flows between a peer inside ``isps`` and a
    peer outside, and new connections across the cut fail.  Traffic on
    either side of the cut is unaffected.  The check is symmetric by
    construction.
    """

    start: float
    end: float
    isps: frozenset[str]

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        object.__setattr__(self, "isps", frozenset(self.isps))
        if not self.isps:
            raise ValueError("partition needs at least one ISP")

    def active(self, now: float) -> bool:
        """Whether the partition is in effect at ``now``."""
        return _window_active(self.start, self.end, now)

    def severs(self, isp_a: str, isp_b: str, now: float) -> bool:
        """Whether a link between the two ISPs crosses the active cut."""
        return self.active(now) and ((isp_a in self.isps) != (isp_b in self.isps))


@dataclass(frozen=True)
class LinkDegradation:
    """Window during which link throughput is scaled by ``factor``.

    By default only cross-ISP links degrade (a congested peering link —
    the scenario where locality-aware selection should shine); set
    ``cross_isp_only=False`` for a global degradation.
    """

    start: float
    end: float
    factor: float  # achieved-throughput multiplier, 0..1
    cross_isp_only: bool = True

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (math.isfinite(self.factor) and 0.0 <= self.factor <= 1.0):
            raise ValueError(f"degradation factor must be in [0, 1]: {self.factor}")

    def active(self, now: float) -> bool:
        """Whether the degradation is in effect at ``now``."""
        return _window_active(self.start, self.end, now)

    def applies(self, isp_a: str, isp_b: str, now: float) -> bool:
        """Whether a link between the two ISPs is degraded at ``now``."""
        if not self.active(now):
            return False
        return not self.cross_isp_only or isp_a != isp_b


@dataclass(frozen=True)
class CrashWindow:
    """Window of abrupt peer departures (no goodbye).

    Each online viewer crashes with hazard ``rate_per_hour`` while the
    window is active.  Crashed peers are *not* unregistered from the
    tracker (they said no goodbye); the tracker only learns of the death
    when it hands the stale entry to a joining peer whose connection
    attempt fails, and partners learn via the idle timeout.
    """

    start: float
    end: float
    rate_per_hour: float  # per-peer crash hazard while active

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not (math.isfinite(self.rate_per_hour) and self.rate_per_hour >= 0.0):
            raise ValueError(f"crash rate must be finite and >= 0: {self.rate_per_hour}")

    def active(self, now: float) -> bool:
        """Whether crashes are being injected at ``now``."""
        return _window_active(self.start, self.end, now)


@dataclass
class FaultPlan:
    """Every scheduled fault of a run, across all three system layers.

    The plan is consulted each round; all queries are cheap (bisect for
    the binary outages, short linear scans over the typically-few
    windows of the other kinds).
    """

    outages: OutageSchedule = field(default_factory=OutageSchedule)
    tracker_brownouts: list[Brownout] = field(default_factory=list)
    server_brownouts: list[Brownout] = field(default_factory=list)
    partitions: list[IspPartition] = field(default_factory=list)
    degradations: list[LinkDegradation] = field(default_factory=list)
    crashes: list[CrashWindow] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """No faults scheduled at all."""
        return (
            self.outages.empty
            and not self.tracker_brownouts
            and not self.server_brownouts
            and not self.partitions
            and not self.degradations
            and not self.crashes
        )

    @property
    def has_link_faults(self) -> bool:
        """Whether any partition or degradation is scheduled (fast gate)."""
        return bool(self.partitions or self.degradations)

    def tracker_capacity(self, now: float) -> float:
        """Fraction of tracker requests served at ``now`` (0 = outage)."""
        if self.outages.tracker_down(now):
            return 0.0
        capacity = 1.0
        for b in self.tracker_brownouts:
            if b.active(now):
                capacity = min(capacity, b.capacity)
        return capacity

    def server_capacity(self, now: float) -> float:
        """Fraction of origin upload capacity available at ``now``."""
        if self.outages.servers_down(now):
            return 0.0
        capacity = 1.0
        for b in self.server_brownouts:
            if b.active(now):
                capacity = min(capacity, b.capacity)
        return capacity

    def link_blocked(self, isp_a: str, isp_b: str, now: float) -> bool:
        """Whether traffic between the two ISPs is partitioned away."""
        return any(p.severs(isp_a, isp_b, now) for p in self.partitions)

    def link_factor(self, isp_a: str, isp_b: str, now: float) -> float:
        """Throughput multiplier for a link between the two ISPs."""
        factor = 1.0
        for d in self.degradations:
            if d.applies(isp_a, isp_b, now):
                factor = min(factor, d.factor)
        return factor

    def crash_hazard(self, now: float) -> float:
        """Per-peer crash hazard at ``now``, in 1/seconds."""
        return (
            sum(c.rate_per_hour for c in self.crashes if c.active(now)) / 3_600.0
        )
