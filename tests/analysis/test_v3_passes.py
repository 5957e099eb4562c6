"""True-positive / near-miss tests for the protolint v3 checks.

budget-leak, the reachability rule of determinism and wire-drift each
get the TP-plus-nearest-legal-idiom treatment, and two acceptance
scenarios are pinned explicitly: a budget ``acquire()`` leaked only on
an exception path is caught, and injecting ``time.time()`` into
``repro.transport.endpoint`` fails determinism.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import Finding, ModuleUnit, run_passes
from repro.analysis.passes import (
    BudgetLeakPass,
    DeterminismPass,
    WireDriftPass,
)

FIXTURES = Path(__file__).parent / "fixtures" / "src" / "repro"
REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def project_findings(pass_obj, *paths: Path) -> list[Finding]:
    units = [ModuleUnit.from_path(p) for p in paths]
    return run_passes(units, [pass_obj])


def symbols(findings: list[Finding]) -> set[str]:
    return {f.symbol for f in findings}


def ambient(findings: list[Finding]) -> list[Finding]:
    """The reachability rule's findings (the determinism pass's
    module-scope rule also fires inside transport fixtures)."""
    return [f for f in findings if f.symbol.startswith("ambient:")]


def real_units() -> list[ModuleUnit]:
    return [ModuleUnit.from_path(p) for p in sorted(REPO_SRC.rglob("*.py"))]


class TestBudgetLeak:
    def test_fixture_true_positives(self):
        findings = project_findings(
            BudgetLeakPass(), FIXTURES / "host" / "bad_budget_leak.py"
        )
        assert symbols(findings) == {
            "leak:repro.host.bad_budget_leak.leak_on_exception:lease",
            "discard:repro.host.bad_budget_leak.discard_token",
            "double-release:repro.host.bad_budget_leak.double_release:lease",
        }

    def test_exception_only_leak_is_caught(self):
        # The acceptance scenario: the only leaking path is the
        # exception edge out of risky(); the normal path releases.
        src = (FIXTURES / "host" / "bad_budget_leak.py").read_text()
        assert "risky(payload)\n    lease.release()" in src
        findings = project_findings(
            BudgetLeakPass(), FIXTURES / "host" / "bad_budget_leak.py"
        )
        leak = [f for f in findings if f.symbol.startswith("leak:")]
        assert len(leak) == 1
        assert "exception" in leak[0].message

    def test_near_misses_stay_silent(self):
        findings = project_findings(
            BudgetLeakPass(), FIXTURES / "host" / "bad_budget_leak.py"
        )
        for finding in findings:
            assert "ok_finally" not in finding.symbol
            assert "ok_with" not in finding.symbol

    def test_ownership_transfers_stay_silent(self, tmp_path):
        path = tmp_path / "repro" / "host" / "handoff.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "__all__ = []\n"
            "def stores(self, budget):\n"
            "    self._lease = budget.acquire('k', 8)\n"
            "def returns(budget):\n"
            "    lease = budget.acquire('k', 8)\n"
            "    return lease\n"
            "def hands_off(budget, sink):\n"
            "    lease = budget.acquire('k', 8)\n"
            "    sink(lease)\n"
        )
        assert project_findings(BudgetLeakPass(), path) == []

    def test_rebind_while_held_is_flagged(self, tmp_path):
        path = tmp_path / "repro" / "host" / "rebind.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "__all__ = []\n"
            "def f(budget):\n"
            "    lease = budget.acquire('a', 8)\n"
            "    lease = budget.acquire('b', 8)\n"
            "    lease.release()\n"
        )
        findings = project_findings(BudgetLeakPass(), path)
        assert any(f.symbol.startswith("rebind:") for f in findings)

    def test_real_tree_is_clean(self):
        assert run_passes(real_units(), [BudgetLeakPass()]) == []


class TestSeamPurity:
    """The reachability rule of the determinism pass."""

    def test_fixture_true_positives(self):
        findings = project_findings(
            DeterminismPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        assert symbols(ambient(findings)) == {
            "ambient:repro.transport.bad_seam.stamp_arrival->time.time",
            "ambient:repro.transport.bad_seam._ambient_clock_helper->time.monotonic",
        }

    def test_perf_counter_near_miss_stays_silent(self):
        findings = project_findings(
            DeterminismPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        assert not any("perf_counter" in f.symbol for f in findings)
        assert not any(f.line >= 24 for f in findings)

    def test_interprocedural_reach_names_the_helper(self):
        findings = project_findings(
            DeterminismPass(), FIXTURES / "transport" / "bad_seam.py"
        )
        helper = [f for f in ambient(findings) if "_ambient_clock_helper" in f.symbol]
        assert helper  # caught through the call graph, not just textually

    def test_adapter_module_is_exempt(self, tmp_path):
        root = tmp_path / "repro"
        (root / "transport").mkdir(parents=True)
        (root / "netsim").mkdir(parents=True)
        user = root / "transport" / "user.py"
        user.write_text(
            "from repro.netsim.rng import draw\n"
            "__all__ = []\n"
            "def entry():\n"
            "    return draw()\n"
        )
        adapter = root / "netsim" / "rng.py"
        adapter.write_text(
            "import random\n"
            "__all__ = []\n"
            "def draw():\n"
            "    return random.random()\n"
        )
        assert project_findings(DeterminismPass(), user, adapter) == []

    def test_injecting_time_time_into_endpoint_fails(self):
        # The real tree is clean, but the same tree with a wall-clock
        # call spliced into the transport endpoint is not — proving the
        # pass watches the real seam, not a toy.
        units = real_units()
        endpoint = next(u for u in units if u.module == "repro.transport.endpoint")
        source = endpoint.source.replace(
            "from __future__ import annotations",
            "from __future__ import annotations\nimport time",
            1,
        )
        marker = "connection._touched_bytes = placed"
        assert marker in source
        source = source.replace(
            marker, marker + "\n        _stamp = time.time()", 1
        )
        tainted = ModuleUnit(
            path=endpoint.path,
            module=endpoint.module,
            source=source,
            tree=ast.parse(source),
        )
        swapped = [tainted if u.module == endpoint.module else u for u in units]
        findings = run_passes(swapped, [DeterminismPass()])
        assert any(
            f.symbol.endswith("->time.time") and "endpoint" in f.path
            for f in findings
        ), findings

    def test_real_tree_is_clean(self):
        assert run_passes(real_units(), [DeterminismPass()]) == []


class TestWireDrift:
    def test_fixture_true_positives(self):
        findings = project_findings(
            WireDriftPass(), FIXTURES / "core" / "bad_wire_drift.py"
        )
        assert symbols(findings) == {
            "format-drift:_DRIFTED_HEADER",
            "unknown-table:_PHANTOM",
        }

    def test_matching_marker_near_miss_stays_silent(self):
        findings = project_findings(
            WireDriftPass(), FIXTURES / "core" / "bad_wire_drift.py"
        )
        assert not any("_SIGNALING" in f.symbol for f in findings)

    def test_codec_docstring_drift_is_caught(self):
        codec = REPO_SRC / "core" / "codec.py"
        source = codec.read_text().replace("20      T.ID    4", "22      T.ID    4", 1)
        unit = ModuleUnit(
            path=codec, module="repro.core.codec", source=source, tree=ast.parse(source)
        )
        findings = list(WireDriftPass().check(unit))
        assert any(f.symbol == "doc-drift:T.ID" for f in findings)

    def test_deleted_marker_is_caught(self):
        codec = REPO_SRC / "core" / "codec.py"
        source = codec.read_text().replace("  # wire-table: chunk-header", "", 1)
        unit = ModuleUnit(
            path=codec, module="repro.core.codec", source=source, tree=ast.parse(source)
        )
        findings = list(WireDriftPass().check(unit))
        assert any(f.symbol == "unmarked:_HEADER" for f in findings)

    def test_real_tree_is_clean(self):
        assert run_passes(real_units(), [WireDriftPass()]) == []
