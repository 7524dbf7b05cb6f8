"""Bounded client-side spill buffer for unacknowledged report batches.

While the ingest server is down (restarting, SIGKILLed, overloaded),
the reporter keeps producing.  The spill buffer holds every sealed
frame until the server durably acknowledges it, so a server restart
loses nothing the client still remembers — but it is *bounded*:
holding a two-month campaign in RAM is exactly the unbounded-memory
failure this module exists to prevent.  When the cap is exceeded the
oldest frames are evicted and their report counts are added to
:attr:`overflow_reports`; the loss is counted, never silent.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from typing import Any

from repro.ingest.framing import Frame


class SpillBuffer:
    """FIFO of pending (unacked) frames with a bounded report count."""

    def __init__(self, *, max_reports: int = 100_000) -> None:
        if max_reports < 1:
            raise ValueError("max_reports must be >= 1")
        self.max_reports = max_reports
        self._frames: OrderedDict[int, Frame] = OrderedDict()  # seq -> frame
        self._reports = 0
        #: Reports dropped by eviction since construction (or restore).
        self.overflow_reports = 0
        #: Frames dropped by eviction since construction (or restore).
        self.overflow_frames = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def report_count(self) -> int:
        """Reports currently held across all pending frames."""
        return self._reports

    def push(self, frame: Frame) -> None:
        """Hold ``frame`` until acked, evicting oldest frames if full."""
        self._frames[frame.seq] = frame
        self._reports += frame.count
        while self._reports > self.max_reports and len(self._frames) > 1:
            _, evicted = self._frames.popitem(last=False)
            self._reports -= evicted.count
            self.overflow_reports += evicted.count
            self.overflow_frames += 1

    def ack(self, seq: int) -> Frame | None:
        """Drop the frame ``seq`` (server stored it durably), if held."""
        frame = self._frames.pop(seq, None)
        if frame is not None:
            self._reports -= frame.count
        return frame

    def pending(self) -> list[Frame]:
        """Every held frame, oldest first (the resend order)."""
        return list(self._frames.values())

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames.values())

    def state(self) -> dict[str, Any]:
        """Serialisable snapshot (for campaign checkpoints)."""
        return {
            "max_reports": self.max_reports,
            "frames": [
                (f.shard_id, f.seq, list(f.lines))
                for f in self._frames.values()
            ],
            "overflow_reports": self.overflow_reports,
            "overflow_frames": self.overflow_frames,
        }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> SpillBuffer:
        """Rebuild a buffer from :meth:`state` output."""
        buf = cls(max_reports=state["max_reports"])
        for shard_id, seq, lines in state["frames"]:
            buf.push(Frame(shard_id=shard_id, seq=seq, lines=tuple(lines)))
        buf.overflow_reports = state["overflow_reports"]
        buf.overflow_frames = state["overflow_frames"]
        return buf
