"""A minimal discrete-event scheduler.

Everything in :mod:`repro.netsim` — link serialization, propagation,
router forwarding, multipath skew — is expressed as callbacks scheduled
on one :class:`EventLoop`.  Simulated time is a float in seconds.

Events are keyed ``(time, lane, seq)``: a plain loop uses lane 0, and
:class:`~repro.netsim.shardloop.ShardedLoop` gives each shard a lane of
the same heap, so one :meth:`EventLoop.run` dispatches every shard.

The loop exposes a narrow observer seam (:class:`ScheduleObserver`,
:func:`set_schedule_observer`) used by the opt-in runtime sanitizer
:mod:`repro.analysis.simsan`: each schedule and each dispatch is
reported with the event's ``(time, seq)`` identity so the sanitizer can
fingerprint payload buffers and audit the schedule stream.  The seam is
a plain module-level hook — this module never imports the analysis
layer (the layering pass enforces that direction), and with no observer
installed the cost is one ``is None`` test per event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Protocol

from repro.obs import counter

__all__ = [
    "EventLoop",
    "ScheduleObserver",
    "set_schedule_observer",
    "get_schedule_observer",
]

_OBS_EVENTS = counter("netsim", "loop.events_processed", "event-loop callbacks run")
_OBS_SIM_TIME = counter(
    "netsim", "loop.sim_time_total", "simulated seconds advanced across run() calls"
)


class ScheduleObserver(Protocol):
    """Observer seam for :mod:`repro.analysis.simsan`; *loop* is the loop
    owning the heap, so a lane's events are scheduled and dispatched on
    its :class:`~repro.netsim.shardloop.ShardedLoop`."""

    def on_schedule(
        self, loop: "EventLoop", time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        """Called when *callback* is enqueued for *time*."""

    def on_dispatch(
        self, loop: "EventLoop", time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        """Called immediately before *callback* runs."""


_observer: ScheduleObserver | None = None


def set_schedule_observer(observer: ScheduleObserver | None) -> None:
    """Install (or, with ``None``, remove) the global schedule observer."""
    global _observer
    _observer = observer


def get_schedule_observer() -> ScheduleObserver | None:
    return _observer


class EventLoop:
    """Priority-queue event loop with stable FIFO ordering at equal times."""

    #: tie-break between loops sharing one heap; a plain loop is lane 0.
    _lane = 0

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._root = self
        self.now = 0.0
        self._processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.at(self.now + delay, callback)

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        seq = next(self._counter)
        if _observer is not None:
            _observer.on_schedule(self._root, time, seq, callback)
        heapq.heappush(self._queue, (time, self._lane, seq, callback))

    def run(self, until: float | None = None) -> float:
        """Process events (optionally only up to time *until*).

        Returns the simulated time after the last processed event.  With
        *until*, the clock ends exactly at *until*; an *until* before
        ``now`` raises :class:`ValueError`.  A lane runs its whole heap.
        """
        loop = self._root
        queue = self._queue
        started = loop.now
        try:
            while queue:
                time, _lane, seq, callback = queue[0]
                if until is not None and time > until:
                    break
                heapq.heappop(queue)
                loop.now = time
                loop._processed += 1
                _OBS_EVENTS.inc()
                if _observer is not None:
                    _observer.on_dispatch(loop, time, seq, callback)
                callback()
            if until is not None:
                self.advance_to(until)
            return loop.now
        finally:
            if loop.now > started:
                _OBS_SIM_TIME.inc(loop.now - started)

    def advance_to(self, time: float) -> None:
        """Move the idle clock forward to *time* without dispatching.

        Refuses to rewind and refuses to skip past a pending event.
        """
        if time < self.now:
            raise ValueError(f"cannot advance to {time} < now {self.now}")
        if self._queue and time > self._queue[0][0]:
            raise ValueError(
                f"cannot advance to {time} past pending event at {self._queue[0][0]}"
            )
        self._root.now = time

    def pending(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._root._processed
