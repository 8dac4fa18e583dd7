"""Unit tests for SimStats windowing."""

from __future__ import annotations

from repro.core.stats import SimStats


class TestSimStats:
    def test_initial_zero(self):
        s = SimStats(2)
        assert s.cycles == 0
        assert s.committed == [0, 0]

    def test_window_without_snapshot_is_totals(self):
        s = SimStats(2)
        s.cycles = 10
        s.committed[0] = 5
        w = s.window()
        assert w["cycles"] == 10
        assert w["committed"] == [5, 0]

    def test_window_deltas(self):
        s = SimStats(2)
        s.cycles = 100
        s.committed[0] = 40
        s.fetched[1] = 7
        s.snapshot()
        s.cycles = 150
        s.committed[0] = 90
        s.committed[1] = 10
        s.fetched[1] = 17
        w = s.window()
        assert w["cycles"] == 50
        assert w["committed"] == [50, 10]
        assert w["fetched"] == [0, 10]

    def test_snapshot_is_a_copy(self):
        s = SimStats(1)
        s.committed[0] = 3
        s.snapshot()
        s.committed[0] = 8
        assert s.window()["committed"] == [5]

    def test_all_per_thread_fields_windowed(self):
        s = SimStats(1)
        for f in ("fetched", "committed", "squashed_mispredict", "squashed_flush",
                  "flush_events", "mispredicts", "branches_resolved",
                  "gated_cycles"):
            getattr(s, f)[0] = 2
        s.snapshot()
        for f in ("fetched", "committed"):
            getattr(s, f)[0] = 5
        w = s.window()
        assert w["fetched"] == [3]
        assert w["squashed_flush"] == [0]
