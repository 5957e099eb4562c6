"""The system benchmark's workloads keep their outputs.

A drive's fingerprint hashes every deterministic count and simulated
latency it verified (``systembench/workloads.py``), so a change that
alters what the chunk stack sends or delivers moves it.  ``mux`` is left
out: its fingerprint folds in the obs snapshot, whose series depend on
which ``repro`` modules the process has imported.  The benchmark files
are imported read-only.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

SYSTEMBENCH = Path(__file__).resolve().parents[2] / "systembench"


@pytest.fixture
def workloads():
    sys.path.insert(0, str(SYSTEMBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(SYSTEMBENCH))
        sys.modules.pop("workloads", None)
        sys.modules.pop("speed", None)


@pytest.mark.parametrize(
    ("workload", "fingerprint"),
    [("bulk", "f0ef34a47c479d6a"), ("lossy_stripe", "cd02279715a93bdd")],
)
def test_workload_drive_is_correct_and_unchanged(workloads, workload, fingerprint):
    result = workloads.build(workload, 1).drive()
    assert result.failures == {}
    assert result.fingerprint == fingerprint
