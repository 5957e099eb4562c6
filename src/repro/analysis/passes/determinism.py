"""determinism: a seeded run is exactly repeatable.

The benchmark claims in ``benchmarks/`` and the perf gates of
:mod:`repro.perf` are only meaningful because a run with a given seed
is *exactly* repeatable.  Stochastic behaviour must draw from the
per-component streams of :mod:`repro.netsim.rng` (the one adapter
module allowed to touch OS entropy) and time must come from the event
loop.  Reaching for the global :mod:`random` module, the wall clock,
OS entropy or OS I/O makes a simulation silently unreproducible.

One table, :data:`BANNED`, names that ambient authority, and one
resolver (:meth:`ProjectGraph.resolve_expr
<repro.analysis.graph.ProjectGraph.resolve_expr>`) maps every use
through the module's imports before it is looked up.  Three rules
apply it:

- **module scope** (symbols ``import:`` / ``from:`` / ``use:``): inside
  ``repro.netsim``, ``repro.transport`` and ``repro.host`` no import or
  attribute use may name a banned callable.  Type annotations and
  ``if TYPE_CHECKING:`` blocks never execute and are exempt.
- **reachability** (``ambient:``): a product-package function that any
  ``transport``/``host``/``core`` function can reach through the
  project call graph must be just as pure.  The graph's conservative
  over-approximation (unknown attribute calls fan out to every
  same-named function) is the right bias: a possible violation is
  worth a look.  A *seeded* ``random.Random(seed)`` is deterministic
  and allowed here; the tooling layers (``obs``, ``analysis``,
  ``perf``) measure the real world on purpose and are out of scope.
- **taint** (``taint:`` / ``taint-kwarg:`` / ``taint-module:``): code
  anywhere constructing an **unseeded** ``random.Random()`` must not
  hand it into a simulator callable, however many helper functions
  launder it.  The model is conservative on all call paths: the
  no-argument constructor is tainted; a function is tainted when *any*
  return path yields taint; a local assigned a tainted value stays
  tainted (no kill analysis).  Sinks are calls whose resolved target
  lives in a simulator package, plus, because attribute calls cannot
  always be resolved, any tainted ``rng=`` keyword.

``time.perf_counter`` is allowed everywhere: it measures the wall cost
of host processing, never simulated behaviour.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleUnit, ProjectPass, dotted_name
from repro.analysis.graph import FunctionInfo, ProjectGraph, package_of

__all__ = ["DeterminismPass"]

#: Wall clock, OS entropy, the global random stream and OS I/O, by
#: resolved dotted name.  An entry ending in ``.`` bans its whole module.
BANNED = (
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "os.system",
    "random.",
    "socket.",
    "select.",
    "ssl.",
    "subprocess.",
)

#: Module-scope rule and taint sinks: the simulator packages.
SIMULATOR = ("repro.netsim", "repro.transport", "repro.host")

#: The blessed randomness wrapper, exempt from every rule.
ADAPTER = "repro.netsim.rng"

#: Reachability rule: functions of these packages are the protected
#: entry points; findings are reported in the product packages.
ROOT_PACKAGES = frozenset({"transport", "host", "core"})
PRODUCT_PACKAGES = frozenset(
    {"core", "crypto", "wsc", "netsim", "host", "transport", "app", "baselines"}
)


def _banned(name: str) -> bool:
    return any(name == b or (b[-1] == "." and name.startswith(b)) for b in BANNED)


def _in_simulator(name: str) -> bool:
    return any(name == pkg or name.startswith(pkg + ".") for pkg in SIMULATOR)


def _inert_nodes(tree: ast.Module) -> set[int]:
    """ids of nodes that never execute: annotations and the bodies of
    ``if TYPE_CHECKING:`` blocks."""
    roots: list[ast.AST | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots.append(node.returns)
            roots.extend(a.annotation for a in [*args.posonlyargs, *args.args, *args.kwonlyargs])
            roots.extend(a.annotation for a in (args.vararg, args.kwarg) if a is not None)
        elif isinstance(node, ast.If) and dotted_name(node.test) in {
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        }:
            roots.extend(node.body)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _unseeded_random(graph: ProjectGraph, module: str, expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and not expr.args
        and not expr.keywords
        and graph.resolve_expr(module, expr.func) == "random.Random"
    )


def _sink(graph: ProjectGraph, module: str, call: ast.Call) -> str | None:
    """Resolved target when *call* enters a simulator package."""
    resolved = graph.resolve_expr(module, call.func)
    if resolved is None or not _in_simulator(resolved):
        return None
    return None if resolved.startswith(ADAPTER + ".") else resolved


class _Taint:
    """Which expressions of one function carry an unseeded Random."""

    def __init__(self, graph: ProjectGraph, info: FunctionInfo, tainted: set[str]) -> None:
        self.graph = graph
        self.info = info
        self.tainted = tainted
        self.locals: set[str] = set()
        # Two sweeps so a use before the (textual) assignment still sees
        # the taint — good enough for straight-line helper code.
        for _ in range(2):
            for node in graph.nodes_in(info):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if self.carries(value):
                    self.locals.update(t.id for t in targets if isinstance(t, ast.Name))

    def carries(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            if self.graph.resolve_expr(self.info.module, expr.func) == "random.Random":
                return not expr.args and not expr.keywords  # unseeded only
            # Only claim taint when *every* candidate callee is tainted
            # (keeps the rule quiet on the huge fallback sets that
            # conservative resolution produces).
            candidates, _exact = self.graph.resolve_call(self.info, expr)
            return bool(candidates) and candidates <= self.tainted
        if isinstance(expr, ast.Name):
            return expr.id in self.locals
        if isinstance(expr, ast.IfExp):
            return self.carries(expr.body) or self.carries(expr.orelse)
        return False

    def returns_taint(self) -> bool:
        return any(
            isinstance(node, ast.Return) and node.value is not None and self.carries(node.value)
            for node in self.graph.nodes_in(self.info)
        )


class DeterminismPass(ProjectPass):
    id = "determinism"
    description = "no wall clock, OS entropy or unseeded randomness reaches the simulator"

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for unit in graph.units.values():
            if _in_simulator(unit.module) and unit.module != ADAPTER:
                yield from self._module_scope(unit, graph)
        yield from self._reachability(graph)
        yield from self._taint(graph)

    # ------------------------------------------------------------------
    def _module_scope(self, unit: ModuleUnit, graph: ProjectGraph) -> Iterator[Finding]:
        inert = _inert_nodes(unit.tree)
        for node in ast.walk(unit.tree):
            if id(node) in inert:
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if _banned(root + "."):
                        yield self.finding(
                            unit,
                            node,
                            f"direct `import {root}` in simulator code: use "
                            "repro.netsim.rng substreams (or import under "
                            "typing.TYPE_CHECKING for annotations only)",
                            symbol=f"import:{root}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if _banned(node.module + "."):
                    yield self.finding(
                        unit,
                        node,
                        f"`from {node.module} import ...` in simulator code: use "
                        "repro.netsim.rng substreams",
                        symbol=f"from:{node.module}",
                    )
                    continue
                hit = sorted(
                    alias.name
                    for alias in node.names
                    if _banned(f"{node.module}.{alias.name}")
                    or any(b.startswith(f"{node.module}.{alias.name}.") for b in BANNED)
                )
                if hit:
                    yield self.finding(
                        unit,
                        node,
                        f"`from {node.module} import {', '.join(hit)}` is "
                        "nondeterministic: simulated behaviour must draw from "
                        "repro.netsim.rng",
                        symbol=f"from:{node.module}:{','.join(hit)}",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is None:
                    continue
                # Names the module does not bind are checked as written.
                if _banned(graph.resolve_expr(unit.module, node) or dotted):
                    yield self.finding(
                        unit,
                        node,
                        f"`{dotted}` is wall-clock/OS-entropy dependent or a "
                        "global random stream: simulated time comes from the "
                        "event loop, randomness from repro.netsim.rng "
                        "(substream/default_rng)",
                        symbol=f"use:{dotted}",
                    )

    # ------------------------------------------------------------------
    def _reachability(self, graph: ProjectGraph) -> Iterator[Finding]:
        roots = [
            qual
            for qual, info in graph.functions.items()
            if package_of(info.module) in ROOT_PACKAGES
        ]
        for qual in sorted(graph.reachable(roots)):
            info = graph.functions[qual]
            if info.module == ADAPTER or package_of(info.module) not in PRODUCT_PACKAGES:
                continue
            for call in graph.calls_in(info):
                resolved = graph.resolve_expr(info.module, call.func)
                if resolved is None or not _banned(resolved):
                    continue
                if resolved == "random.Random":
                    # Seeded streams are deterministic; the no-argument
                    # default seeds from OS entropy and wall clock.
                    if call.args or call.keywords:
                        continue
                    resolved = "random.Random()"
                yield self.finding_at(
                    info.unit.display_path,
                    call.lineno,
                    f"{qual} calls `{resolved}` and is reachable from the "
                    f"{'/'.join(sorted(ROOT_PACKAGES))} seam: ambient OS "
                    "authority belongs in a designated adapter module "
                    "(time from the event loop, randomness from "
                    "netsim.rng substreams)",
                    symbol=f"ambient:{qual}->{resolved}",
                )

    # ------------------------------------------------------------------
    def _taint(self, graph: ProjectGraph) -> Iterator[Finding]:
        # Taint starts only at an unseeded constructor: a tree without
        # one has nothing to trace.
        if not any(
            _unseeded_random(graph, unit.module, node)
            for unit in graph.units.values()
            for node in ast.walk(unit.tree)
        ):
            return
        tainted: set[str] = set()
        # Fixpoint over return summaries (monotone: taint only grows).
        changed = True
        while changed:
            changed = False
            for qual, info in graph.functions.items():
                if qual not in tainted and _Taint(graph, info, tainted).returns_taint():
                    tainted.add(qual)
                    changed = True

        for qual, info in graph.functions.items():
            taint = _Taint(graph, info, tainted)
            for call in graph.calls_in(info):
                target = _sink(graph, info.module, call)
                args: list[tuple[str | None, ast.expr]] = [(None, a) for a in call.args]
                args += [(kw.arg, kw.value) for kw in call.keywords]
                for name, value in args:
                    if not taint.carries(value):
                        continue
                    if target is not None:
                        yield self.finding_at(
                            info.unit.display_path,
                            value.lineno,
                            f"unseeded random.Random reaches `{target}` (argument "
                            f"{name or 'positional'}): every rng entering the "
                            "simulator must be netsim.rng.default_rng(), a "
                            "substream, or an explicitly seeded instance on all "
                            "call paths",
                            symbol=f"taint:{qual}->{target}",
                        )
                    elif name == "rng":
                        yield self.finding_at(
                            info.unit.display_path,
                            value.lineno,
                            "unseeded random.Random passed as rng= (unresolved "
                            "callee): seed it or use netsim.rng.substream so the "
                            "simulation stays reproducible",
                            symbol=f"taint-kwarg:{qual}",
                        )

        # Module-level statements (dataclass field defaults, constants)
        # live outside any function.
        for unit in graph.units.values():
            for stmt in unit.tree.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    target = _sink(graph, unit.module, node)
                    if target is None:
                        continue
                    for kw in node.keywords:
                        if _unseeded_random(graph, unit.module, kw.value):
                            yield self.finding_at(
                                unit.display_path,
                                kw.value.lineno,
                                f"unseeded random.Random() passed to `{target}` at "
                                "module level: use netsim.rng.default_rng or a "
                                "seeded substream",
                                symbol=f"taint-module:{unit.module}->{target}",
                            )
