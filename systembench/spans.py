"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: the recorder
replaces public calls of each layer — a class attribute, or the module
binding the calling layer uses — with a wrapper that records
``(name, start, end, parent)``.  Every callback put on an event loop is
wrapped too, named after the layer that scheduled it, so the loop's own
self time is the dispatch work alone.

Self time is a span's duration minus the time its child spans cover.
Calls are counted per outermost span of a name (a ``FrameStore.place``
that calls ``PlacementBuffer.place`` is one placement call, not two).
Work is counted per chunk or per call, never per word.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

__all__ = ["SpanRecorder", "layer_of_module"]

_perf = time.perf_counter


def layer_of_module(module: str | None) -> str:
    """``repro.netsim.link`` -> ``netsim``; anything outside the package is
    the benchmark's own code."""
    if module and module.startswith("repro."):
        return module.split(".")[1]
    return "bench"


class SpanRecorder:
    """Records nested spans and per-boundary counts in flat lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay installed)."""
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self._outer_calls = [0] * len(self.names)
        self._depth = [0] * len(self.names)
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._outer_calls.append(0)
            self._depth.append(0)
        return nid

    # -- recording -----------------------------------------------------

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of name id *nid*."""
        stack = self._stack
        index = len(self.span_end)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        depth = self._depth[nid]
        if depth == 0:
            self._outer_calls[nid] += 1
        self._depth[nid] = depth + 1
        stack.append(index)
        self.span_start.append(_perf())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[index] = _perf()
            stack.pop()
            self._depth[nid] = depth

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: tuple[str, Callable] | None = None,
    ) -> Callable:
        """A span-recording stand-in for *fn*.

        *tally* is ``(count_name, amount)`` where ``amount(result, args)``
        gives the work the call did, added to ``counts[count_name]``.
        """
        nid = self.name_id(name)
        call = self.call
        if tally is None:

            def spanned(*args, **kwargs):
                return call(nid, fn, *args, **kwargs)

        else:
            count_name, amount = tally

            def spanned(*args, **kwargs):
                result = call(nid, fn, *args, **kwargs)
                self.counts[count_name] += amount(result, args)
                return result

        return spanned

    def counting(
        self,
        count_name: str,
        fn: Callable,
        amount: Callable | None = None,
    ) -> Callable:
        """A stand-in for *fn* that only counts (no span): one per call, or
        ``amount(result, args)``."""

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[count_name] += 1 if amount is None else amount(result, args)
            return result

        return counted

    def callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap an event-loop callback in a ``<layer>.callback`` span."""
        layer = layer_of_module(getattr(callback, "__module__", None))
        nid = self.name_id(f"{layer}.callback")
        call = self.call
        return lambda: call(nid, callback)

    # -- patching ------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` for the traced run; :meth:`restore` undoes it."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_span(
        self,
        owner: object,
        attr: str,
        name: str,
        tally: tuple[str, Callable] | None = None,
    ) -> None:
        """Record a span around ``owner.attr`` (function, method or
        classmethod)."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            self.patch(owner, attr, classmethod(self.wrap(name, original.__func__, tally)))
        else:
            self.patch(owner, attr, self.wrap(name, original, tally))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def table(self, scale: Callable[[float], float] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls and self seconds, each span's
        self time multiplied by ``scale(start)`` when *scale* is given."""
        count = len(self.span_end)
        child = [0.0] * count
        for index in range(count):
            parent = self.span_parent[index]
            if parent >= 0:
                child[parent] += self.span_end[index] - self.span_start[index]
        rows: dict[str, dict[str, float]] = {}
        for index in range(count):
            name = self.names[self.span_name[index]]
            duration = self.span_end[index] - self.span_start[index]
            row = rows.setdefault(name, {"calls": 0, "self_s": 0.0})
            factor = 1.0 if scale is None else scale(self.span_start[index])
            row["self_s"] += (duration - child[index]) * factor
        for name, row in rows.items():
            row["calls"] = self._outer_calls[self._ids[name]]
        return rows

    def dump(self, path: Path, meta: dict) -> int:
        """Write every span (gzip JSON lines, times relative to the first
        span) and return how many were written."""
        origin = self.span_start[0] if self.span_start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "names": self.names}) + "\n")
            for index in range(len(self.span_end)):
                out.write(
                    json.dumps(
                        [
                            index,
                            self.span_name[index],
                            self.span_parent[index],
                            round((self.span_start[index] - origin) * 1e6, 3),
                            round((self.span_end[index] - origin) * 1e6, 3),
                        ]
                    )
                    + "\n"
                )
        return len(self.span_end)
