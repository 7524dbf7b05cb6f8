"""Turn an observability directory into a human-readable report.

Backs ``python -m repro obs summarize <obs-dir>``: reads the JSONL
event log tolerantly (a torn final line from a crashed run is counted,
not fatal), aggregates span events per name, merges in the
``metrics.json`` snapshot when present, and renders aligned text
tables.  Rendering is self-contained (no :mod:`repro.core` imports) so
the obs package stays a leaf in the import graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.exporters import EVENTS_FILENAME, METRICS_JSON_FILENAME


@dataclass
class SpanStats:
    """Aggregate of every ``span`` event sharing one name."""

    name: str
    count: int = 0
    wall_total: float = 0.0
    wall_max: float = 0.0
    sim_total: float = 0.0
    errors: int = 0

    @property
    def wall_mean(self) -> float:
        """Mean wall seconds per span (0.0 when empty)."""
        return self.wall_total / self.count if self.count else 0.0

    def add(self, wall_s: float, sim_s: float, error: bool) -> None:
        """Fold one span event into the aggregate."""
        self.count += 1
        self.wall_total += wall_s
        self.wall_max = max(self.wall_max, wall_s)
        self.sim_total += sim_s
        if error:
            self.errors += 1


@dataclass
class ObsSummary:
    """Everything ``obs summarize`` extracted from an obs directory."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: ``metrics.json`` histogram states (``count``, ``total``, buckets).
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    events_read: int = 0
    bad_lines: int = 0


def read_events(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Read a JSONL event log tolerantly.

    Returns ``(events, bad_lines)`` where ``bad_lines`` counts lines
    that failed to parse (e.g. a line torn by a crash) — they are
    skipped, never fatal.
    """
    events: list[dict[str, Any]] = []
    bad = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                bad += 1
    return events, bad


def summarize_dir(obs_dir: str | Path) -> ObsSummary:
    """Aggregate an obs directory (event log + metrics snapshot)."""
    directory = Path(obs_dir)
    summary = ObsSummary()
    events_path = directory / EVENTS_FILENAME
    if events_path.exists():
        events, summary.bad_lines = read_events(events_path)
        summary.events_read = len(events)
        for event in events:
            if event.get("type") != "span":
                continue
            name = str(event.get("name", "?"))
            stats = summary.spans.get(name)
            if stats is None:
                stats = summary.spans[name] = SpanStats(name)
            stats.add(
                float(event.get("wall_s", 0.0)),
                float(event.get("sim_s", 0.0)),
                "error" in event,
            )
    metrics_path = directory / METRICS_JSON_FILENAME
    if metrics_path.exists():
        state = json.loads(metrics_path.read_text(encoding="utf-8"))
        summary.counters = {str(k): float(v) for k, v in state.get("counters", {}).items()}
        summary.gauges = {str(k): float(v) for k, v in state.get("gauges", {}).items()}
        summary.histograms = {str(k): dict(v) for k, v in state.get("histograms", {}).items()}
    return summary


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned text table (first column left, rest right)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: list[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts.extend(cell.rjust(widths[i + 1]) for i, cell in enumerate(cells[1:]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _span_section(title: str, spans: list[SpanStats]) -> list[str]:
    """One titled span-timings table (empty list when no spans match)."""
    if not spans:
        return []
    rows = [
        [
            s.name,
            str(s.count),
            f"{s.wall_total:.3f}",
            f"{s.wall_mean * 1000:.3f}",
            f"{s.wall_max * 1000:.3f}",
            f"{s.sim_total:.0f}",
            str(s.errors),
        ]
        for s in spans
    ]
    table = _render_table(
        ["span", "count", "wall s", "mean ms", "max ms", "sim s", "errors"], rows
    )
    return [title, table, ""]


def _gc_section(summary: ObsSummary) -> list[str]:
    """The campaign GC policy's pause accounting (empty when not recorded)."""
    pauses = summary.histograms.get("gc.pause")
    if pauses is None:
        return []
    rows = [
        ["collections", f"{summary.counters.get('gc.collections', 0.0):g}"],
        ["gen-2 collections", f"{summary.counters.get('gc.collections.gen2', 0.0):g}"],
        ["total pause s", f"{float(pauses.get('total', 0.0)):.3f}"],
        ["max pause ms", f"{summary.gauges.get('gc.pause.max', 0.0) * 1000:.3f}"],
    ]
    return ["Garbage collection", _render_table(["gc", "value"], rows), ""]


def _checkpoint_section(summary: ObsSummary) -> list[str]:
    """One line on checkpoint saves (empty when none was recorded).

    Saves, total and longest save come from the ``checkpoint.save`` span
    events; the size per save from the ``checkpoint.bytes`` counter over
    the ``checkpoint.save`` histogram's count, both from ``metrics.json``
    and so restored together on resume.  The line ends with the
    ``process.peak_rss_mb`` gauge the last save set, when there is one.
    """
    saves = summary.spans.get("checkpoint.save")
    if saves is None:
        return []
    timed = float(summary.histograms.get("checkpoint.save", {}).get("count", 0.0))
    written = summary.counters.get("checkpoint.bytes", 0.0)
    mb_per_save = written / timed / 1e6 if timed else 0.0
    line = (
        f"Checkpoints: {saves.count} saves, {saves.wall_total:.3f} s total, "
        f"max {saves.wall_max * 1000:.1f} ms, {mb_per_save:.2f} MB per save"
    )
    peak = summary.gauges.get("process.peak_rss_mb")
    if peak is not None:
        line += f", peak RSS {peak:.1f} MB"
    return [line, ""]


def _partnership_section(summary: ObsSummary) -> list[str]:
    """One line on partnership work per round (empty when not recorded).

    The campaign adds ``exchange.connect_attempts``, ``exchange.connects``
    and ``exchange.disconnects`` once per round; each is read here over
    the ``sim.rounds`` counter.  An attempt that does not connect met a
    link that exists already, a full partner list, or a partition.
    """
    attempts = summary.counters.get("exchange.connect_attempts")
    if attempts is None:
        return []
    counters = summary.counters
    rounds = counters.get("sim.rounds", 0.0) or 1.0
    connects = counters.get("exchange.connects", 0.0)
    disconnects = counters.get("exchange.disconnects", 0.0)
    accepted = 100.0 * connects / attempts if attempts else 0.0
    return [
        f"Partnerships: {attempts / rounds:.1f} attempts, {connects / rounds:.1f} "
        f"connects ({accepted:.1f}% accepted), {disconnects / rounds:.1f} "
        "disconnects per round",
        "",
    ]


def _trace_pass_section(summary: ObsSummary) -> list[str]:
    """One line on trace read rates (empty when no pass was recorded).

    Passes and their time come from the ``analytics.trace_pass`` span
    events; the reports from the ``analytics.reports`` counter, which
    every pass adds to once per window, and the shards the passes were
    read in from the ``analytics.shards`` counter.
    """
    passes = summary.spans.get("analytics.trace_pass")
    if passes is None:
        return []
    reports = summary.counters.get("analytics.reports", 0.0)
    shards = summary.counters.get("analytics.shards", 0.0)
    rate = reports / passes.wall_total if passes.wall_total else 0.0
    return [
        f"Trace passes: {passes.count} passes, {reports:.0f} reports, "
        f"{passes.wall_total:.3f} s, {rate:.0f} reports/s, {shards:.0f} shards",
        "",
    ]


def render_summary(obs_dir: str | Path) -> str:
    """Render the full human report for ``obs summarize``."""
    summary = summarize_dir(obs_dir)
    spans = sorted(summary.spans.values(), key=lambda s: s.name)
    sim_spans = [s for s in spans if s.name.startswith(("round", "sim", "campaign"))]
    analytics_spans = [s for s in spans if s.name.startswith("analytics")]
    other_spans = [s for s in spans if s not in sim_spans and s not in analytics_spans]

    out: list[str] = [f"obs summary: {obs_dir}"]
    out.append(f"events: {summary.events_read} read, {summary.bad_lines} unparseable")
    out.append("")
    out.extend(_span_section("Round-phase timings", sim_spans))
    out.extend(_span_section("Analytics timings", analytics_spans))
    out.extend(_span_section("Other timings", other_spans))
    out.extend(_gc_section(summary))
    out.extend(_checkpoint_section(summary))
    out.extend(_partnership_section(summary))
    out.extend(_trace_pass_section(summary))
    if summary.counters:
        rows = [[name, f"{value:g}"] for name, value in sorted(summary.counters.items())]
        out.append("Counters")
        out.append(_render_table(["counter", "value"], rows))
        out.append("")
    if summary.gauges:
        rows = [[name, f"{value:g}"] for name, value in sorted(summary.gauges.items())]
        out.append("Gauges")
        out.append(_render_table(["gauge", "value"], rows))
        out.append("")
    if len(out) == 3:
        out.append("(no observability data found)")
    return "\n".join(out).rstrip() + "\n"
