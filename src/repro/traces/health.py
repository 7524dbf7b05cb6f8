"""Trace-quality accounting for dirty (real-world) traces.

A 120 GB UDP-collected trace is never clean: reports get lost,
duplicated and reordered in flight, and lines get truncated or
corrupted when the collector is killed mid-write.  ``TraceHealth``
accumulates what the tolerant read path
(``SegmentedTraceReader(tolerant=True)``, built on ``sanitize``)
skipped, deduplicated or re-sorted, so analytics over a dirty trace can report exactly how dirty
it was instead of silently pretending it was clean.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class TraceHealth:
    """Counters describing what a tolerant trace pass encountered."""

    lines_read: int = 0  # non-empty lines seen
    records_ok: int = 0  # lines parsed into well-formed reports
    parse_failures: int = 0  # corrupt/malformed lines skipped
    truncated_lines: int = 0  # incomplete final line (interrupted write)
    duplicates: int = 0  # exact re-deliveries dropped
    reordered: int = 0  # records that arrived behind a later timestamp
    max_reorder_depth_s: float = 0.0  # worst observed timestamp regression
    quarantined: int = 0  # records dropped as unusable (invalid fields,
    #   too late to place into an already-emitted window, or inside an
    #   unreadable segment)
    server_dropped: int = 0  # reports lost on the collection path before
    #   the store (the trace server's UDP drop counter), so end-to-end
    #   loss accounting lives in one report
    spill_overflow: int = 0  # reports evicted from a reporter's bounded
    #   spill buffer while the ingest server was unreachable — loss on
    #   the client side of the collection path

    @property
    def dirty(self) -> bool:
        """Whether the pass hit any fault at all."""
        return bool(
            self.parse_failures
            or self.truncated_lines
            or self.duplicates
            or self.reordered
            or self.quarantined
            or self.server_dropped
            or self.spill_overflow
        )

    def reset(self) -> None:
        """Zero every counter (reused across iterations of a reader)."""
        for f in fields(self):
            setattr(self, f.name, type(getattr(self, f.name))(0))

    def merge(self, other: TraceHealth) -> None:
        """Fold another pass's counters into this one."""
        self.lines_read += other.lines_read
        self.records_ok += other.records_ok
        self.parse_failures += other.parse_failures
        self.truncated_lines += other.truncated_lines
        self.duplicates += other.duplicates
        self.reordered += other.reordered
        self.max_reorder_depth_s = max(
            self.max_reorder_depth_s, other.max_reorder_depth_s
        )
        self.quarantined += other.quarantined
        self.server_dropped += other.server_dropped
        self.spill_overflow += other.spill_overflow

    def rows(self) -> list[tuple[str, object]]:
        """(label, value) rows for table rendering."""
        return [
            ("lines read", self.lines_read),
            ("records ok", self.records_ok),
            ("parse failures", self.parse_failures),
            ("truncated lines", self.truncated_lines),
            ("duplicates dropped", self.duplicates),
            ("reordered records", self.reordered),
            ("max reorder depth (s)", round(self.max_reorder_depth_s, 1)),
            ("quarantined records", self.quarantined),
            ("server drops (collection)", self.server_dropped),
            ("spill overflow (reporter)", self.spill_overflow),
        ]
