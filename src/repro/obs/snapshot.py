"""Flat, diffable snapshots of a metric registry.

The exporters in :mod:`repro.obs.export` serialize instruments as
self-describing records; this module flattens the same state into a
single ``{"scope.name.field": value}`` mapping whose keys are stable
and whose values are plain JSON scalars.  Two observed runs with the
same seeds produce byte-identical snapshots, so the perf subsystem
(:mod:`repro.perf`) can diff them key by key and treat *any* drift in a
counter as a regression signal.

Layout of the flattened keys:

- counters   -> ``scope.name`` (the running total)
- gauges     -> ``scope.name`` and ``scope.name.high_water``
- histograms -> ``scope.name.count``, ``scope.name.sum``,
  ``scope.name.min``, ``scope.name.max`` and one
  ``scope.name.bucket[<exponent>]`` entry per occupied bucket
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Registry

__all__ = ["Scalar", "SnapshotDelta", "metric_snapshot", "diff_snapshots"]

Scalar = float | int | str | None


def metric_snapshot(registry: Registry) -> dict[str, Scalar]:
    """Flatten every instrument in *registry* into one sorted mapping.

    The mapping is deterministic: keys are sorted, values are plain
    scalars, and nothing wall-clock dependent is included.
    """
    flat: dict[str, Scalar] = {}
    for sample in registry.samples():
        base = f"{sample.scope}.{sample.name}"
        data = sample.data
        if sample.kind == "counter":
            flat[base] = _scalar(data["value"])
        elif sample.kind == "gauge":
            flat[base] = _scalar(data["value"])
            flat[f"{base}.high_water"] = _scalar(data["high_water"])
        else:  # histogram
            flat[f"{base}.count"] = _scalar(data["count"])
            flat[f"{base}.sum"] = _scalar(data["sum"])
            flat[f"{base}.min"] = _scalar(data["min"])
            flat[f"{base}.max"] = _scalar(data["max"])
            buckets = data["buckets"]
            if isinstance(buckets, dict):
                for exponent, count in sorted(
                    buckets.items(), key=lambda kv: int(kv[0])
                ):
                    flat[f"{base}.bucket[{exponent}]"] = _scalar(count)
    return dict(sorted(flat.items()))


def _scalar(value: object) -> Scalar:
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise ValueError(f"non-scalar snapshot value {value!r}")


@dataclass(frozen=True, slots=True)
class SnapshotDelta:
    """One key whose value differs between two snapshots.

    ``old`` is None for keys only present in the new snapshot and
    ``new`` is None for keys that disappeared.
    """

    key: str
    old: Scalar
    new: Scalar

    @property
    def kind(self) -> str:
        if self.old is None and self.new is not None:
            return "added"
        if self.new is None and self.old is not None:
            return "removed"
        return "changed"


def diff_snapshots(
    old: dict[str, Scalar], new: dict[str, Scalar]
) -> list[SnapshotDelta]:
    """Every key whose value differs, in sorted key order.

    Equality is exact — these are deterministic counters, so there is
    no tolerance: a one-byte drift in ``host.touch_bytes_total`` is a
    real behavioural change, not noise.
    """
    deltas: list[SnapshotDelta] = []
    for key in sorted(set(old) | set(new)):
        old_value = old.get(key)
        new_value = new.get(key)
        if old_value != new_value:
            deltas.append(SnapshotDelta(key, old_value, new_value))
    return deltas
