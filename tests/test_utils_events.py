"""Tests for the event wheel.

The simulator drains a cycle by popping its bucket (``buckets.pop(cycle)``)
and subtracting the bucket's length from ``pending``; these tests drain the
same way.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.utils.events import EventWheel


class TestEventWheel:
    def test_schedule_and_drain(self):
        w = EventWheel()
        w.schedule(5, "a")
        w.schedule(5, "b")
        w.schedule(7, "c")
        assert w.buckets == {5: ["a", "b"], 7: ["c"]}
        assert w.buckets.pop(5) == ["a", "b"]
        assert 5 not in w.buckets
        assert 6 not in w.buckets
        assert w.buckets.pop(7) == ["c"]

    def test_drain_preserves_scheduling_order(self):
        w = EventWheel()
        for i in range(10):
            w.schedule(3, i)
        assert w.buckets.pop(3) == list(range(10))

    def test_len_tracks_pending(self):
        w = EventWheel()
        assert len(w) == 0
        assert not w
        w.schedule(1, "x")
        w.schedule(2, "y")
        w.schedule(2, "z")
        assert len(w) == 3
        assert w
        assert len(w) == sum(len(b) for b in w.buckets.values())

    def test_next_cycle(self):
        w = EventWheel()
        assert w.next_cycle() is None
        w.schedule(9, "a")
        w.schedule(4, "b")
        assert w.next_cycle() == 4

    def test_iter_all_sorted(self):
        w = EventWheel()
        w.schedule(3, "c")
        w.schedule(1, "a")
        w.schedule(2, "b")
        assert [c for c, _ in w.iter_all()] == [1, 2, 3]

    def test_clear(self):
        w = EventWheel()
        w.schedule(1, "a")
        w.clear()
        assert len(w) == 0
        assert w.buckets == {}

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
            max_size=60,
        )
    )
    def test_property_everything_scheduled_is_drained_once(self, events):
        w = EventWheel()
        for cycle, payload in events:
            w.schedule(cycle, payload)
        assert len(w) == len(events)
        for cycle in range(51):
            bucket = w.buckets.pop(cycle, [])
            assert bucket == [p for c, p in events if c == cycle]
        assert w.buckets == {}
