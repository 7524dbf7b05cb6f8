"""Sliding-window buffer map (paper Sec. 3.1).

UUSee peers exchange blocks of the media stream inside a sliding
window.  The block-level swarm (:mod:`repro.simulator.blocks`) holds one
:class:`BufferMap` per peer: it stores individual segments that arrive
inside the window, and playback drains them contiguously from the
playback point.  The system simulator's exchange rounds move media in
aggregate kbps and keep no buffer map; its reports carry a float
``buffer_fill`` instead.
"""

from __future__ import annotations


class BufferMap:
    """Occupancy of the sliding playback window, in segments."""

    __slots__ = ("window_segments", "_playback_pos", "_held")

    def __init__(self, *, window_segments: int = 120) -> None:
        if window_segments <= 0:
            raise ValueError("window must hold at least one segment")
        self.window_segments = window_segments
        self._playback_pos = 0  # absolute index of the next segment to play
        self._held: set[int] = set()  # absolute indices currently buffered

    @property
    def playback_position(self) -> int:
        """Absolute index of the next segment to play."""
        return self._playback_pos

    def has_segment(self, index: int) -> bool:
        """True when absolute segment ``index`` is buffered."""
        return index in self._held

    def receive_segment_at(self, index: int) -> bool:
        """Store the specific segment ``index`` if it is inside the window.

        Returns True when newly stored; False for duplicates or segments
        outside the current window (too old or too far ahead).
        """
        if not (self._playback_pos <= index < self._playback_pos + self.window_segments):
            return False
        if index in self._held:
            return False
        self._held.add(index)
        return True

    def advance_playback(self, segments: int) -> int:
        """Consume up to ``segments`` from the playback point.

        Playback can only consume contiguously held segments; it stalls
        at the first hole.  Returns the number actually played.
        """
        if segments < 0:
            raise ValueError("segment count must be non-negative")
        played = 0
        while played < segments and self._playback_pos in self._held:
            self._held.discard(self._playback_pos)
            self._playback_pos += 1
            played += 1
        if played < segments and not self._held:
            # Total stall with an empty buffer: skip ahead (live stream —
            # the playback point follows the broadcast, not the buffer).
            self._playback_pos += segments - played
        return played
