"""wire-drift: one source of truth for every header width.

The fixed-field chunk format is the paper's entire processing argument
(Appendix A; DESIGN.md section 6): a field offset or width that drifts
between the encoder, a docstring and the docs is a silent
interoperability bug waiting for the first independent implementation.
:mod:`repro.core.wire_table` is the single generated truth — field
offsets, widths and struct formats for every wire header — and this
pass checks everything else against it alone:

- every literal ``struct`` format string (``struct.Struct(...)``,
  ``pack``/``unpack``/``unpack_from``/``pack_into``/``iter_unpack``/
  ``calcsize``) must parse and carry an explicit **network byte order**
  prefix (``>`` or ``!``) — a native-order struct in wire code is a
  silent interop bug;
- a ``struct.Struct`` assignment carrying a ``# wire-table: <id>``
  marker must use exactly that table's format string.  The bindings in
  :data:`REQUIRED_BINDINGS` must exist, carry their marker (removing
  it cannot silently detach a format from its table) and match their
  table;
- every ``X.size == CONSTANT`` comparison naming a width constant of
  :data:`WIDTH_CONSTANTS` must agree with that constant's table, and a
  required binding whose table has such a constant must keep its
  ``assert X.size == CONSTANT`` guard (deleting it is itself a finding);
- literal slice widths at unpack call sites
  (``struct.unpack(">HHI", blob[-8:])``) must equal the format size;
- the offset table in the :mod:`repro.core.codec` docstring must list
  the chunk-header fields at the generated offsets and widths, and the
  generated block in ``docs/wire-format.md`` must be byte-identical to
  :func:`repro.core.wire_table.docs_block` (regenerate with
  ``python -m repro.core.wire_table --write``).
"""

from __future__ import annotations

import ast
import re
import struct
from typing import Iterator

from repro.analysis.core import Finding, ModuleUnit, Pass, dotted_name
from repro.core.wire_table import (
    CHUNK_HEADER,
    PACKET_ENVELOPE,
    TABLES,
    WireTable,
    docs_block,
    extract_block,
)

__all__ = ["WireDriftPass"]

#: Width constants (from :mod:`repro.core.types`) a size assert may
#: name, with the table whose byte total each one must equal.
WIDTH_CONSTANTS: dict[str, WireTable] = {
    "HEADER_BYTES": CHUNK_HEADER,
    "PACKET_HEADER_BYTES": PACKET_ENVELOPE,
}

#: Struct constants that MUST stay bound to their table.
REQUIRED_BINDINGS: dict[str, dict[str, str]] = {
    "repro.core.codec": {
        "_HEADER": "chunk-header",
        "_PACKET_HEADER": "packet-envelope",
    },
    "repro.transport.connection": {
        "_SIG": "signaling-payload",
    },
}

_STRUCT_CTORS = {"struct.Struct", "Struct"}
_STRUCT_CALLS = {"pack", "unpack", "unpack_from", "pack_into", "iter_unpack", "calcsize"}

#: ``_NAME = struct.Struct("...")  # wire-table: table-id``
_MARKER_RE = re.compile(r"#\s*wire-table:\s*([a-z0-9-]+)")

#: ``0       TYPE    1     notes`` rows in the codec docstring table.
_DOC_ROW_RE = re.compile(r"^\s*(\d+)\s+(\S+)\s+(\d+)\b")


def _format_size(fmt: str) -> int | None:
    try:
        return struct.calcsize(fmt)
    except struct.error:
        return None


def _literal(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _int(expr: ast.expr | None) -> int | None:
    """Value of an int literal, possibly negated; None otherwise."""
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = _int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    return None


def _slice_width(node: ast.expr) -> int | None:
    """Byte width of ``x[:n]``, ``x[-n:]`` or ``x[a:b]`` with literal
    non-negative bounds; None when it cannot be computed."""
    if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Slice):
        return None
    lower, upper = node.slice.lower, node.slice.upper
    if node.slice.step is not None:
        return None
    low, up = _int(lower), _int(upper)
    if lower is None and up is not None and up >= 0:
        return up
    if upper is None and low is not None and low < 0:
        return -low
    if low is not None and up is not None and 0 <= low <= up:
        return up - low
    return None


class WireDriftPass(Pass):
    id = "wire-drift"
    description = "struct formats, size asserts, slices, docstring and docs match the wire table"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        nodes = list(ast.walk(unit.tree))
        structs: dict[str, tuple[str, int]] = {}  # name -> (format, size)
        yield from self._check_bindings(unit, nodes, structs)
        yield from self._check_formats(unit, nodes)
        yield from self._check_sizes(unit, nodes, structs)
        yield from self._check_slices(unit, nodes, structs)
        if unit.module == "repro.core.codec":
            yield from self._check_docstring(unit)
            yield from self._check_docs(unit)

    # ------------------------------------------------------------------
    def _check_bindings(
        self, unit: ModuleUnit, nodes: list[ast.AST], structs: dict[str, tuple[str, int]]
    ) -> Iterator[Finding]:
        """``NAME = struct.Struct(fmt)``: markers and required bindings."""
        required = dict(REQUIRED_BINDINGS.get(unit.module, {}))
        lines = unit.source.splitlines()
        for node in nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            name, value = node.targets[0], node.value
            if not (
                isinstance(name, ast.Name)
                and isinstance(value, ast.Call)
                and dotted_name(value.func) in _STRUCT_CTORS
            ):
                continue
            target = name.id
            fmt = _literal(value.args[0] if value.args else None)
            if fmt is None:
                yield self.finding(
                    unit,
                    node,
                    f"struct {target}: non-literal format string cannot be verified",
                    symbol=f"{target}:dynamic",
                    severity="warning",
                )
                continue
            size = _format_size(fmt)
            if size is not None:
                structs[target] = (fmt, size)
            marker = _MARKER_RE.search(lines[node.lineno - 1])
            table_id = required.pop(target, None)
            if marker is not None:
                table_id = marker.group(1)
            elif table_id is not None:
                yield self.finding(
                    unit,
                    node,
                    f"{target} must carry a `# wire-table: {table_id}` marker "
                    "binding it to the generated header-width table",
                    symbol=f"unmarked:{target}",
                )
            if table_id is None:
                continue
            table = TABLES.get(table_id)
            if table is None:
                yield self.finding(
                    unit,
                    node,
                    f"{target} is marked `wire-table: {table_id}` but no "
                    "such table exists in repro.core.wire_table "
                    f"(known: {', '.join(sorted(TABLES))})",
                    symbol=f"unknown-table:{target}",
                )
            elif fmt != table.struct_format:
                yield self.finding(
                    unit,
                    node,
                    f"{target} format {fmt!r} drifted from wire table "
                    f"{table_id!r} ({table.struct_format!r}, "
                    f"{table.total_bytes} bytes)",
                    symbol=f"format-drift:{target}",
                )
        for target, table_id in sorted(required.items()):
            yield self.finding(
                unit,
                1,
                f"expected `{target} = struct.Struct(...)  # wire-table: "
                f"{table_id}` in this module but found no such assignment",
                symbol=f"missing-binding:{target}",
            )

    # ------------------------------------------------------------------
    def _check_formats(self, unit: ModuleUnit, nodes: list[ast.AST]) -> Iterator[Finding]:
        """Every literal format string parses and is network byte order."""
        for node in nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not (
                dotted_name(func) in _STRUCT_CTORS
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STRUCT_CALLS
                    and dotted_name(func.value) == "struct"
                )
            ):
                continue
            fmt = _literal(node.args[0])
            if fmt is None:
                continue
            if _format_size(fmt) is None:
                yield self.finding(
                    unit,
                    node,
                    f"invalid struct format string {fmt!r}",
                    symbol=f"fmt:{fmt}:invalid",
                )
            elif not fmt.startswith((">", "!")):
                yield self.finding(
                    unit,
                    node,
                    f"struct format {fmt!r} lacks explicit network byte order "
                    "('>' or '!'): wire formats must not depend on host endianness",
                    symbol=f"fmt:{fmt}:endian",
                )

    # ------------------------------------------------------------------
    def _check_sizes(
        self, unit: ModuleUnit, nodes: list[ast.AST], structs: dict[str, tuple[str, int]]
    ) -> Iterator[Finding]:
        """``NAME.size == CONST`` agrees with the table; guards exist."""
        guarded: set[str] = set()
        for node in nodes:
            if not (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            ):
                continue
            var: str | None = None
            const: tuple[str, int] | None = None
            for side in (node.left, node.comparators[0]):
                if (
                    isinstance(side, ast.Attribute)
                    and side.attr == "size"
                    and isinstance(side.value, ast.Name)
                    and side.value.id in structs
                ):
                    var = side.value.id
                elif isinstance(side, ast.Name) and side.id in WIDTH_CONSTANTS:
                    const = (side.id, WIDTH_CONSTANTS[side.id].total_bytes)
                elif (value := _int(side)) is not None:
                    const = (str(value), value)
            if var is None or const is None:
                continue
            guarded.add(var)
            fmt, size = structs[var]
            if size != const[1]:
                yield self.finding(
                    unit,
                    node,
                    f"struct {var} format {fmt!r} is {size} bytes but is "
                    f"checked against {const[0]} = {const[1]}",
                    symbol=f"{var}:size-mismatch",
                )
        for var, table_id in REQUIRED_BINDINGS.get(unit.module, {}).items():
            const_name = next(
                (name for name, t in WIDTH_CONSTANTS.items() if t.table_id == table_id), None
            )
            if const_name and var in structs and var not in guarded:
                yield self.finding(
                    unit,
                    1,
                    f"struct {var} has no `assert {var}.size == {const_name}` "
                    "guard; the wire-format core must keep its size cross-check",
                    symbol=f"{var}:unguarded",
                )

    # ------------------------------------------------------------------
    def _check_slices(
        self, unit: ModuleUnit, nodes: list[ast.AST], structs: dict[str, tuple[str, int]]
    ) -> Iterator[Finding]:
        """Literal slice widths at unpack call sites match the format."""
        for node in nodes:
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unpack"
            ):
                continue
            owner = node.func.value
            if dotted_name(owner) == "struct" and len(node.args) == 2:
                fmt = _literal(node.args[0])
                if fmt is None:
                    continue
                what, size = repr(fmt), _format_size(fmt)
            elif isinstance(owner, ast.Name) and owner.id in structs and len(node.args) == 1:
                what, size = owner.id, structs[owner.id][1]
            else:
                continue
            width = _slice_width(node.args[-1])
            if size is not None and width is not None and width != size:
                yield self.finding(
                    unit,
                    node,
                    f"unpack of {what} needs {size} bytes but the sliced "
                    f"buffer is {width} bytes wide",
                    symbol=f"slice:{what}:{width}",
                )

    # ------------------------------------------------------------------
    def _check_docstring(self, unit: ModuleUnit) -> Iterator[Finding]:
        doc = ast.get_docstring(unit.tree, clean=False) or ""
        rows: dict[str, tuple[int, int]] = {}
        for raw in doc.splitlines():
            match = _DOC_ROW_RE.match(raw)
            if match is None:
                continue
            offset, name, size = match.groups()
            rows[name] = (int(offset), int(size))
        for field in CHUNK_HEADER.fields:
            have = rows.get(field.name)
            if have is None:
                yield self.finding(
                    unit,
                    1,
                    f"codec docstring offset table is missing field "
                    f"{field.name!r} (offset {field.offset}, "
                    f"{field.width} bytes)",
                    symbol=f"doc-missing:{field.name}",
                )
            elif have != (field.offset, field.width):
                yield self.finding(
                    unit,
                    1,
                    f"codec docstring lists {field.name} at offset "
                    f"{have[0]} size {have[1]}, but the wire table says "
                    f"offset {field.offset} size {field.width}",
                    symbol=f"doc-drift:{field.name}",
                )

    # ------------------------------------------------------------------
    def _check_docs(self, unit: ModuleUnit) -> Iterator[Finding]:
        # Resolve the repo root from the analyzed file's real location;
        # fixture copies of the codec live elsewhere and are skipped.
        try:
            root = unit.path.resolve().parents[3]
        except IndexError:
            return
        docs = root / "docs" / "wire-format.md"
        if not (root / "pyproject.toml").exists() or not docs.exists():
            return
        have = extract_block(docs.read_text(encoding="utf-8"))
        if have is None:
            yield self.finding(
                unit,
                1,
                "docs/wire-format.md has no generated header-width block "
                "(run `python -m repro.core.wire_table --write`)",
                symbol="docs-block-missing",
            )
        elif have != docs_block():
            yield self.finding(
                unit,
                1,
                "docs/wire-format.md generated block is stale (run "
                "`python -m repro.core.wire_table --write`)",
                symbol="docs-block-stale",
            )
