"""Fixture: determinism reachability-rule (ambient:) true positives and near misses."""

import time

__all__ = ["stamp_arrival", "helper_reaches_clock", "_ambient_clock_helper", "ok_measures_cost"]


def stamp_arrival(chunk):
    # TP: wall clock directly inside a transport entry point.
    return (chunk, time.time())


def helper_reaches_clock(chunk):
    # TP (interprocedural): the entry point is clean but a helper it
    # calls touches the ambient clock.
    return _ambient_clock_helper(chunk)


def _ambient_clock_helper(chunk):
    deadline = time.monotonic() + 1.0  # flagged: reachable from transport
    return (chunk, deadline)


def ok_measures_cost(chunk):
    # Near miss: perf_counter is measurement, not protocol behaviour.
    start = time.perf_counter()
    work = len(repr(chunk))
    return work, time.perf_counter() - start
