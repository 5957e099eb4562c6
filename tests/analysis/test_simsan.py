"""Tests for the simsan runtime sanitizer (repro.analysis.simsan).

The regression pair is the core contract: an injected
mutation-after-schedule bug is caught with the sanitizer installed and
— demonstrably — sails through undetected with the hook disabled, which
is exactly why the CI simsan lane exists.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.analysis import simsan
from repro.core.errors import SimSanError
from repro.netsim import events as events_mod
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop


@pytest.fixture(autouse=True)
def restore_observer():
    """Keep whatever observer the session installed (e.g. the CI simsan
    lane's) intact across these tests."""
    previous = events_mod.get_schedule_observer()
    yield
    events_mod.set_schedule_observer(previous)


def mutate_after_schedule(loop: EventLoop) -> tuple[bytearray, list[bytes]]:
    """The injected bug: a payload buffer aliased into a scheduled
    callback, then mutated before the callback runs."""
    observed: list[bytes] = []
    buf = bytearray(b"self-describing chunk payload")
    loop.at(1.0, lambda: observed.append(bytes(buf)))
    buf[0] ^= 0xFF  # the mutation the callback never agreed to
    return buf, observed


class TestRegression:
    def test_sanitizer_catches_injected_mutation(self):
        loop = EventLoop()
        with simsan.session() as san:
            mutate_after_schedule(loop)
            with pytest.raises(SimSanError, match="mutation-after-schedule"):
                loop.run()
        [violation] = san.violations
        assert violation.seq == 0
        assert "buf" in violation.buffer_label
        assert violation.scheduled_digest != violation.dispatched_digest
        # The callsite points at the scheduling line in this file, not
        # at the event-loop internals.
        assert "test_simsan.py" in violation.callsite

    def test_sanitizer_catches_mutation_on_a_shard_lane(self):
        # A lane's schedule and the loop's dispatch must meet on one key.
        loop = ShardedLoop()
        with simsan.session() as san:
            mutate_after_schedule(loop.add_member())
            with pytest.raises(SimSanError, match="mutation-after-schedule"):
                loop.run()
        assert len(san.violations) == 1

    def test_bug_is_undetected_without_the_hook(self):
        # The same injected bug with the observer disabled: the run
        # completes silently and the callback observes corrupted bytes.
        events_mod.set_schedule_observer(None)
        loop = EventLoop()
        buf, observed = mutate_after_schedule(loop)
        loop.run()  # no error — the whole point of the sanitizer
        assert observed == [bytes(buf)]
        assert observed[0] != b"self-describing chunk payload"

    def test_clean_run_raises_nothing(self):
        loop = EventLoop()
        with simsan.session() as san:
            buf = bytearray(b"stable payload")
            seen: list[bytes] = []
            loop.at(1.0, lambda: seen.append(bytes(buf)))
            loop.run()
        assert san.violations == []
        assert san.buffers_tracked == 1
        assert seen == [b"stable payload"]


class TestFingerprinting:
    def test_immutable_bytes_are_not_tracked(self):
        loop = EventLoop()
        with simsan.session() as san:
            payload = b"immutable"
            loop.at(1.0, lambda: payload)
            loop.run()
        assert san.buffers_tracked == 0
        assert san.audit.entries == 1  # the audit still records it

    def test_partial_arguments_are_tracked(self):
        loop = EventLoop()
        sink: list[int] = []

        def deliver(data: bytearray) -> None:
            sink.append(len(data))

        buf = bytearray(b"partial-carried payload")
        with simsan.session():
            loop.at(1.0, functools.partial(deliver, buf))
            buf.extend(b"!!")
            with pytest.raises(SimSanError, match="args\\[0\\]"):
                loop.run()

    def test_report_mode_records_without_raising(self):
        loop = EventLoop()
        with simsan.session(simsan.SimSanitizer(raise_on_violation=False)) as san:
            mutate_after_schedule(loop)
            loop.run()
        [violation] = san.violations
        description = violation.describe()
        assert "mutated between schedule and dispatch" in description
        assert "scheduling backtrace" in description


class TestAuditLog:
    def run_scenario(self, seed: int) -> str:
        loop = EventLoop()
        rng = random.Random(seed)
        with simsan.session() as san:
            for _ in range(20):
                loop.at(loop.now + rng.random(), lambda: None)
            loop.run()
            return san.audit.digest()

    def test_identical_seeded_runs_agree(self):
        assert self.run_scenario(7) == self.run_scenario(7)

    def test_schedule_divergence_changes_the_digest(self):
        assert self.run_scenario(7) != self.run_scenario(8)

    def test_entry_count_matches_schedules(self):
        loop = EventLoop()
        with simsan.session() as san:
            for index in range(5):
                loop.at(float(index), lambda: None)
            loop.run()
        assert san.audit.entries == 5


class TestInstallation:
    def test_session_restores_previous_observer(self):
        previous = events_mod.get_schedule_observer()
        with simsan.session() as san:
            assert events_mod.get_schedule_observer() is san
        assert events_mod.get_schedule_observer() is previous

    def test_install_uninstall_roundtrip(self):
        events_mod.set_schedule_observer(None)
        san = simsan.install()
        assert simsan.current() is san
        simsan.uninstall()
        assert simsan.current() is None
        assert events_mod.get_schedule_observer() is None

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv(simsan.ENV_VAR, "1")
        assert simsan.enabled_by_env()
        monkeypatch.setenv(simsan.ENV_VAR, "off")
        assert not simsan.enabled_by_env()
        monkeypatch.delenv(simsan.ENV_VAR)
        assert not simsan.enabled_by_env()
