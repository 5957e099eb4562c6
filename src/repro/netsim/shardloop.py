"""One event heap shared by every shard, one lane per shard.

A sharded endpoint gives every worker shard its own view of the event
loop for its timers and egress, but the simulation has one clock and one
event order.  :class:`ShardedLoop` is an
:class:`~repro.netsim.events.EventLoop` (lane 0, the network and the
application driver) whose :meth:`add_member` returns lane views of the
same heap and clock.  Events are keyed ``(time, lane, seq)``, so at equal
times lane 0 runs first, then shard 1, 2, …, and each lane stays FIFO.
Replaying the same seed therefore replays the same global event order
regardless of how work is distributed across shards.
"""

from __future__ import annotations

from repro.netsim.events import EventLoop

__all__ = ["ShardedLoop"]


class _Lane(EventLoop):
    """A member's view of its :class:`ShardedLoop`: schedules into lane
    *lane* of the shared heap and reads the shared clock."""

    def __init__(self, root: ShardedLoop, lane: int) -> None:
        self._root = root
        self._lane = lane
        self._queue = root._queue
        self._counter = root._counter

    @property
    def now(self) -> float:
        return self._root.now


class ShardedLoop(EventLoop):
    """One event loop whose members schedule into per-shard lanes."""

    def __init__(self, members: int = 1) -> None:
        if members < 1:
            raise ValueError(f"need at least one member loop (members={members})")
        super().__init__()
        self._members: list[EventLoop] = [self]
        for _ in range(members - 1):
            self.add_member()

    @property
    def members(self) -> tuple[EventLoop, ...]:
        return tuple(self._members)

    def member(self, index: int) -> EventLoop:
        return self._members[index]

    def add_member(self) -> EventLoop:
        """Create, register, and return a new lane on the shared heap."""
        lane = _Lane(self, len(self._members))
        self._members.append(lane)
        return lane

    # The traced benchmark wraps ``ShardedLoop.run`` by name.
    run = EventLoop.run
