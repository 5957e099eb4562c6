"""Unit tests for the discrete-event loop."""

import pytest

from repro.netsim.events import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3.0, lambda: order.append("c"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_equal_times_are_fifo(self):
        loop = EventLoop()
        order = []
        for tag in "abc":
            loop.schedule(1.0, lambda t=tag: order.append(t))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.5]
        assert loop.now == 2.5

    def test_nested_scheduling(self):
        loop = EventLoop()
        order = []

        def first():
            order.append("first")
            loop.schedule(1.0, lambda: order.append("second"))

        loop.schedule(1.0, first)
        loop.run()
        assert order == ["first", "second"]
        assert loop.now == 2.0

    def test_run_until_stops_early(self):
        loop = EventLoop()
        hits = []
        loop.schedule(1.0, lambda: hits.append(1))
        loop.schedule(5.0, lambda: hits.append(5))
        loop.run(until=2.0)
        assert hits == [1]
        assert loop.pending() == 1
        loop.run()
        assert hits == [1, 5]

    def test_run_until_on_a_drained_queue_reaches_until(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        assert loop.run(until=3.0) == 3.0
        assert loop.now == 3.0

    def test_run_until_before_now_raises_instead_of_rewinding(self):
        loop = EventLoop()
        hits = []
        loop.run(until=5.0)
        loop.at(7.0, lambda: hits.append(7))
        with pytest.raises(ValueError):
            loop.run(until=3.0)
        assert loop.now == 5.0
        assert hits == []
        assert loop.pending() == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1, lambda: None)

    def test_past_absolute_time_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.at(1.0, lambda: None)

    def test_events_processed_counter(self):
        loop = EventLoop()
        for _ in range(4):
            loop.schedule(1.0, lambda: None)
        loop.run()
        assert loop.events_processed == 4
