"""ShardedLoop: per-shard lanes on one heap, one deterministic clock."""

from __future__ import annotations

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop


class TestEventLoopPrimitives:
    def test_advance_to_refuses_rewind_and_event_skips(self):
        loop = EventLoop()
        loop.advance_to(5.0)
        assert loop.now == 5.0
        with pytest.raises(ValueError):
            loop.advance_to(4.0)
        loop.at(6.0, lambda: None)
        with pytest.raises(ValueError):
            loop.advance_to(7.0)
        loop.advance_to(6.0)  # exactly at the pending event is allowed
        assert loop.now == 6.0


class TestShardedLoop:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            ShardedLoop(members=0)

    def test_delegates_scheduling_to_the_primary(self):
        loop = ShardedLoop()
        ran: list[str] = []
        loop.schedule(0.5, lambda: ran.append("a"))
        loop.at(0.25, lambda: ran.append("b"))
        assert loop.member(0).pending() == 2
        loop.run()
        assert ran == ["b", "a"]
        assert loop.now == 0.5

    def test_add_member_joins_at_the_global_now(self):
        loop = ShardedLoop()
        loop.at(1.0, lambda: None)
        loop.run()
        member = loop.add_member()
        assert member.now == loop.now == 1.0

    def test_lockstep_order_is_global_time_then_member_index(self):
        loop = ShardedLoop()
        first = loop.add_member()
        second = loop.add_member()
        order: list[str] = []
        second.at(1.0, lambda: order.append("second@1"))
        first.at(1.0, lambda: order.append("first@1"))
        first.at(2.0, lambda: order.append("first@2"))
        loop.at(0.5, lambda: order.append("primary@0.5"))
        loop.run()
        assert order == ["primary@0.5", "first@1", "second@1", "first@2"]
        # Every member's clock ends at the global now.
        assert {member.now for member in loop.members} == {2.0}

    def test_members_advance_together_so_cross_scheduling_works(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        ran: list[float] = []

        def from_primary() -> None:
            # A callback on the primary may schedule on a shard member
            # relative to *its* clock — every lane reads the one clock.
            shard.schedule(0.5, lambda: ran.append(loop.now))

        loop.at(1.0, from_primary)
        loop.run()
        assert ran == [1.5]

    def test_run_until_advances_every_member_clock(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        shard.at(10.0, lambda: None)
        loop.run(until=3.0)
        assert loop.now == 3.0
        assert shard.now == 3.0
        assert shard.pending() == 1

    def test_run_until_on_a_drained_heap_reaches_until_and_never_rewinds(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        shard.at(1.0, lambda: None)
        loop.run(until=4.0)
        assert loop.now == shard.now == 4.0
        with pytest.raises(ValueError):
            loop.run(until=3.0)
        assert loop.now == 4.0

    def test_pending_and_events_processed_aggregate(self):
        loop = ShardedLoop()
        shard = loop.add_member()
        loop.at(1.0, lambda: None)
        shard.at(1.0, lambda: None)
        assert loop.pending() == 2
        loop.run()
        assert loop.pending() == 0
        assert loop.events_processed == 2
