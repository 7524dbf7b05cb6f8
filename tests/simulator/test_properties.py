"""Property-based tests for simulator data structures (hypothesis)."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.simulator import BufferMap
from repro.simulator.util import SampleableSet


class TestSampleableSetProperties:
    @given(st.lists(st.integers(0, 50)), st.lists(st.integers(0, 50)))
    def test_behaves_like_a_set(self, adds, removes):
        ours = SampleableSet()
        model: set[int] = set()
        for x in adds:
            ours.add(x)
            model.add(x)
        for x in removes:
            ours.discard(x)
            model.discard(x)
        assert len(ours) == len(model)
        assert set(ours) == model
        for x in model:
            assert x in ours

    @given(
        st.sets(st.integers(0, 100), min_size=1, max_size=40),
        st.integers(1, 50),
        st.integers(0, 2**31),
    )
    def test_sample_invariants(self, items, k, seed):
        s = SampleableSet(items)
        rng = random.Random(seed)
        picked = s.sample(rng, k)
        assert len(picked) == len(set(picked))  # distinct
        assert set(picked) <= items
        if k >= len(items):
            assert set(picked) == items

    @given(
        st.sets(st.integers(0, 30), min_size=2, max_size=20),
        st.integers(0, 2**31),
    )
    def test_exclusion_respected(self, items, seed):
        excluded = min(items)
        s = SampleableSet(items)
        rng = random.Random(seed)
        for _ in range(5):
            assert excluded not in s.sample(rng, len(items), exclude=excluded)


def apply(b, operations):
    """Run ``(is_receive, n)`` steps: store segment ``playback + n``, or
    play ``n`` segments; yields after each step."""
    for is_receive, n in operations:
        if is_receive:
            b.receive_segment_at(b.playback_position + n)
        else:
            b.advance_playback(n)
        yield


class TestBufferMapProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 20)), max_size=60))
    def test_fill_never_exceeds_window(self, operations):
        b = BufferMap(window_segments=16)
        for _ in apply(b, operations):
            start = b.playback_position
            assert all(start <= i < start + 16 for i in b._held)

    @given(st.lists(st.integers(0, 40), max_size=30))
    def test_receive_accounts_exactly(self, indices):
        b = BufferMap(window_segments=32)
        total_added = sum(b.receive_segment_at(i) for i in indices)
        assert total_added == len({i for i in indices if i < 32})
        assert total_added == sum(b.has_segment(i) for i in range(32))

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 10)), max_size=60))
    def test_playback_position_monotone(self, operations):
        b = BufferMap(window_segments=8)
        last = b.playback_position
        for _ in apply(b, operations):
            assert b.playback_position >= last
            last = b.playback_position
