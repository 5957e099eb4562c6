"""The eleven protolint passes (see :mod:`repro.analysis` for overview).

Eight are per-module AST checks and three (determinism, layering,
hot-path-copy) run over the :class:`~repro.analysis.graph.ProjectGraph`
the runner builds from the full module set.  budget-leak,
hot-path-copy and state-drift are built on the
:mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` engine or
the call graph's reachability queries.  Three passes bind the code to
a declarative model: wire-drift checks every header width against
:mod:`repro.core.wire_table`, state-drift cross-checks lifecycle
mutations against :mod:`repro.core.state_table`, and shard-ownership
checks that mutations stay inside their declared owner domain.
"""

from __future__ import annotations

from repro.analysis.core import Pass
from repro.analysis.passes.budget_leak import BudgetLeakPass
from repro.analysis.passes.codec_symmetry import CodecSymmetryPass
from repro.analysis.passes.determinism import DeterminismPass
from repro.analysis.passes.exception_discipline import ExceptionDisciplinePass
from repro.analysis.passes.export_drift import ExportDriftPass
from repro.analysis.passes.hot_path_copy import HotPathCopyPass
from repro.analysis.passes.layering import LayeringPass
from repro.analysis.passes.mutable_sharing import MutableSharingPass
from repro.analysis.passes.shard_ownership import ShardOwnershipPass
from repro.analysis.passes.state_drift import StateDriftPass
from repro.analysis.passes.wire_drift import WireDriftPass

__all__ = [
    "WireDriftPass",
    "CodecSymmetryPass",
    "DeterminismPass",
    "ExceptionDisciplinePass",
    "ExportDriftPass",
    "BudgetLeakPass",
    "LayeringPass",
    "HotPathCopyPass",
    "MutableSharingPass",
    "StateDriftPass",
    "ShardOwnershipPass",
    "all_passes",
]


def all_passes() -> list[Pass]:
    """Fresh instances of every pass, in documentation order."""
    return [
        WireDriftPass(),
        CodecSymmetryPass(),
        DeterminismPass(),
        ExceptionDisciplinePass(),
        ExportDriftPass(),
        BudgetLeakPass(),
        LayeringPass(),
        HotPathCopyPass(),
        MutableSharingPass(),
        StateDriftPass(),
        ShardOwnershipPass(),
    ]
