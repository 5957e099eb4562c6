"""Unit tests for the handle runtime: null sink, install, session."""

from __future__ import annotations

import pytest

from repro.obs import (
    Registry,
    Tracer,
    active_registry,
    active_tracer,
    counter,
    gauge,
    histogram,
    install,
    session,
    tracer,
    uninstall,
)


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with the null sink installed."""
    uninstall()
    yield
    uninstall()


class TestNullSink:
    def test_handles_are_noops_without_registry(self):
        # None of these may raise or record anything.
        counter("t", "null.c").inc(5)
        gauge("t", "null.g").set(3)
        histogram("t", "null.h").observe(1)
        assert active_registry() is None
        assert active_tracer() is None

    def test_tracer_handle_is_falsy_when_disabled(self):
        handle = tracer("t")
        assert not handle
        handle.event("ignored")  # still safe to call
        with handle.span("ignored"):
            pass


class TestInstall:
    def test_install_binds_existing_handles(self):
        handle = counter("t", "bind.existing")
        registry, _ = install()
        handle.inc(3)
        assert registry.get("t", "bind.existing").value == 3

    def test_install_binds_future_handles(self):
        registry, _ = install()
        handle = counter("t", "bind.future")
        handle.inc()
        assert registry.get("t", "bind.future").value == 1

    def test_uninstall_returns_to_null(self):
        handle = counter("t", "unbind.c")
        registry, _ = install()
        handle.inc()
        uninstall()
        handle.inc(100)  # must not reach the old registry
        assert registry.get("t", "unbind.c").value == 1

    def test_handles_are_deduplicated(self):
        assert counter("t", "dedupe.c") is counter("t", "dedupe.c")
        assert tracer("dedupe-scope") is tracer("dedupe-scope")

    def test_same_name_different_scope_is_distinct(self):
        assert counter("a", "dup") is not counter("b", "dup")

    def test_clock_feeds_registry_and_tracer(self):
        time = {"now": 1.5}
        registry, trace = install(clock=lambda: time["now"])
        assert registry.now() == 1.5
        trace.event("t", "tick")
        assert trace.events[0].t == 1.5

    def test_tracer_handle_records_with_scope(self):
        _, trace = install()
        handle = tracer("myscope")
        assert handle
        handle.event("something", t=2.0, detail=7)
        assert trace.events[-1].scope == "myscope"
        assert trace.events[-1].name == "something"
        assert trace.events[-1].fields == {"detail": 7}


class TestSession:
    def test_session_restores_null_sink(self):
        handle = counter("t", "sess.c")
        with session() as (registry, _):
            handle.inc()
            assert registry.get("t", "sess.c").value == 1
        handle.inc(50)
        assert registry.get("t", "sess.c").value == 1

    def test_nested_sessions_restore_outer(self):
        handle = counter("t", "sess.nested")
        with session() as (outer, _):
            handle.inc()
            with session() as (inner, _):
                handle.inc(10)
            assert inner is not outer
            handle.inc()
            assert outer.get("t", "sess.nested").value == 2
            assert inner.get("t", "sess.nested").value == 10

    def test_session_accepts_prebuilt_sinks(self):
        registry = Registry()
        trace = Tracer()
        with session(registry=registry, tracer=trace) as (got_registry, got_tracer):
            assert got_registry is registry
            assert got_tracer is trace
