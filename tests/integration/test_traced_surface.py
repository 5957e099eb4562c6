"""The system benchmark's traced run patches library attributes by name.

``systembench/layers.py`` wraps public calls of every layer (for
example ``ShardedLoop.__dict__["run"]`` and ``EventLoop.at``); a refactor
that removes or renames one of them breaks only the traced benchmark
run.  Installing and removing the instrumentation here turns that into
a fast tier-1 failure.  The benchmark files are imported read-only.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from repro.netsim.events import EventLoop

SYSTEMBENCH = Path(__file__).resolve().parents[2] / "systembench"


def test_instrument_installs_and_restores_every_traced_patch():
    sys.path.insert(0, str(SYSTEMBENCH))
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
        schedule_at = EventLoop.__dict__["at"]
        recorder = spans.SpanRecorder()
        try:
            layers.instrument(recorder)
            assert EventLoop.__dict__["at"] is not schedule_at
        finally:
            recorder.restore()
        assert EventLoop.__dict__["at"] is schedule_at
    finally:
        sys.path.remove(str(SYSTEMBENCH))
        sys.modules.pop("layers", None)
        sys.modules.pop("spans", None)
