"""Unit tests for the sliding-window buffer map."""

import pytest

from repro.simulator import BufferMap


def holding(window, count):
    """A map of ``window`` segments holding segments ``0..count-1``."""
    b = BufferMap(window_segments=window)
    for index in range(count):
        assert b.receive_segment_at(index)
    return b


class TestBufferMap:
    def test_initial_state(self):
        b = BufferMap(window_segments=16)
        assert b.playback_position == 0
        assert not any(b.has_segment(i) for i in range(16))

    def test_receive_bounded_by_window(self):
        b = holding(4, 4)
        assert not b.receive_segment_at(4)  # beyond the window
        assert not b.receive_segment_at(2)  # duplicate
        assert not b.has_segment(4)

    def test_playback_consumes_contiguously(self):
        b = holding(8, 4)
        assert b.advance_playback(2) == 2
        assert b.playback_position == 2
        assert [b.has_segment(i) for i in range(5)] == [
            False, False, True, True, False
        ]

    def test_playback_stalls_at_hole(self):
        b = holding(8, 2)  # hold 0,1
        played = b.advance_playback(5)
        assert played == 2
        assert b.playback_position == 2 + 3  # live stream skips ahead on empty

    def test_live_skip_only_when_buffer_empty(self):
        b = holding(8, 1)  # hold segment 0
        b.advance_playback(1)
        assert b.receive_segment_at(5)  # out-of-order arrival leaves a hole
        played = b.advance_playback(3)
        assert played == 0  # stalled at hole, buffer not empty: no skip
        assert b.playback_position == 1

    def test_window_slides_with_playback(self):
        b = holding(4, 4)
        b.advance_playback(2)
        # the window is now [2, 6): 4 and 5 fit, 6 and the played 1 do not
        assert b.receive_segment_at(4) and b.receive_segment_at(5)
        assert not b.receive_segment_at(6)
        assert not b.receive_segment_at(1)
        assert all(b.has_segment(i) for i in range(2, 6))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BufferMap(window_segments=0)
        b = BufferMap(window_segments=4)
        with pytest.raises(ValueError):
            b.advance_playback(-2)
