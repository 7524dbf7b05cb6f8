"""Churn and topology dynamics from traces.

The paper emphasises the *evolutionary* nature of the streaming
topology but only plots metric time series; these analytics quantify
the underlying dynamics directly from the same reports, the way later
measurement studies (e.g. Stutzbach et al.'s churn work) do:

- observed stable-peer session lengths (first report .. last report);
- stable-population turnover between observation windows;
- partner-list stability between a peer's consecutive reports.

:func:`trace_dynamics` computes all three, plus the trace's report and
channel counts, in one pass over the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from repro.traces.records import PeerReport
from repro.traces.store import iter_windows


@dataclass(frozen=True)
class SessionStatistics:
    """Observed reporting spans of stable peers."""

    num_peers: int
    mean_span_s: float  # mean(first report .. last report)
    median_span_s: float
    mean_reports_per_peer: float

    @property
    def mean_session_estimate_s(self) -> float:
        """Span plus the ~20 min unobserved pre-report lifetime."""
        return self.mean_span_s + 1_200.0


@dataclass(frozen=True)
class TurnoverPoint:
    """Stable-population change between two consecutive windows."""

    time: float
    present: int  # reporters in this window
    arrived: int  # reporters not present in the previous window
    departed: int  # previous reporters absent from this window

    @property
    def turnover_rate(self) -> float:
        """(arrivals + departures) / present."""
        return (self.arrived + self.departed) / self.present if self.present else 0.0


@dataclass(frozen=True)
class PartnerStability:
    """How much partner lists persist between consecutive reports."""

    num_transitions: int
    mean_jaccard: float  # |A and B| / |A or B| over consecutive reports
    mean_kept_fraction: float  # |A and B| / |A|


@dataclass(frozen=True)
class TraceDynamics:
    """Counts, sessions, turnover and partner stability of one trace."""

    reports: int
    channels: int
    first_time: float  # of the first report in trace order (0.0 if none)
    last_time: float  # of the last report in trace order
    sessions: SessionStatistics
    turnover: list[TurnoverPoint]  # one point per non-empty window
    stability: PartnerStability

    @property
    def mean_turnover_rate(self) -> float:
        """Mean of the windows' turnover rates (0.0 without windows)."""
        turnover = self.turnover
        return (
            sum(p.turnover_rate for p in turnover) / len(turnover) if turnover else 0.0
        )


def trace_dynamics(
    reports: Iterable[PeerReport], *, window_seconds: float = 600.0
) -> TraceDynamics:
    """Fold a time-ordered trace into its :class:`TraceDynamics`.

    ``reports`` is iterated once: a per-report tally (counts, reporting
    spans, partner-set similarity between each peer's consecutive
    reports) feeds :func:`iter_windows`, which groups the same stream
    into windows for the stable-population turnover and raises
    :class:`~repro.traces.store.TraceFormatError` if the trace's time
    order regresses across a window boundary.
    """
    first_seen: dict[int, float] = {}
    last_seen: dict[int, float] = {}
    channels: set[int] = set()
    last_partners: dict[int, set[int]] = {}
    jaccards: list[float] = []
    kept: list[float] = []
    count = 0
    first = last = 0.0

    def tally() -> Iterator[PeerReport]:
        nonlocal count, first, last
        for report in reports:
            t = report.time
            if not count:
                first = t
            count += 1
            last = t
            ip = report.peer_ip
            channels.add(report.channel_id)
            if ip not in first_seen:
                first_seen[ip] = t
            last_seen[ip] = max(last_seen.get(ip, t), t)
            current = {p.ip for p in report.partners}
            previous = last_partners.get(ip)
            if previous is not None and (previous or current):
                union = previous | current
                inter = previous & current
                if union:
                    jaccards.append(len(inter) / len(union))
                if previous:
                    kept.append(len(inter) / len(previous))
            last_partners[ip] = current
            yield report

    turnover: list[TurnoverPoint] = []
    present: set[int] = set()
    for window_start, window_reports in iter_windows(tally(), window_seconds):
        current = {r.peer_ip for r in window_reports}
        turnover.append(
            TurnoverPoint(
                time=window_start,
                present=len(current),
                arrived=len(current - present),
                departed=len(present - current),
            )
        )
        present = current

    if first_seen:
        spans = sorted(last_seen[ip] - first_seen[ip] for ip in first_seen)
        n = len(spans)
        sessions = SessionStatistics(
            num_peers=n,
            mean_span_s=sum(spans) / n,
            median_span_s=spans[n // 2],
            mean_reports_per_peer=count / n,
        )
    else:
        sessions = SessionStatistics(0, 0.0, 0.0, 0.0)
    if jaccards:
        stability = PartnerStability(
            num_transitions=len(jaccards),
            mean_jaccard=sum(jaccards) / len(jaccards),
            mean_kept_fraction=sum(kept) / len(kept) if kept else 0.0,
        )
    else:
        stability = PartnerStability(0, 0.0, 0.0)
    return TraceDynamics(
        reports=count,
        channels=len(channels),
        first_time=first,
        last_time=last,
        sessions=sessions,
        turnover=turnover,
        stability=stability,
    )
