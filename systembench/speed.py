"""Wall time scaled to a reference machine speed.

On the shared 2-vCPU cloud VM this benchmark was written on, the speed
of the core flips between levels up to 1.6x apart, every few seconds.
Neither CPU time nor steal time shows it.  A raw wall-clock median
therefore moves by up to ±20% from one run to the next.  During a drive
the benchmark times a fixed pure-Python probe every 10 ms.  It then
scales each wall interval by ``REFERENCE_S / probe``: the time the work
would have taken at the speed where the probe takes ``REFERENCE_S``.

Code of different kinds slows by different amounts, so the probe is the
geometric mean of two loops.  One is a tight dict-and-integer loop,
which tracks the receive path best.  The other allocates small objects
and slices bytes, which tracks the framer best.  On that VM, over 29
``lossy_stripe`` drives in two minutes, the combined probe cut the
drive-to-drive variation of the median receive time from 16% to 2.5%.
It cut that of the median ``send_frame`` time from 16% to 4.1%.

The probe shares no code with the stack, so a change to the stack moves
the scaled times just as it moves the raw ones.  Probe time is never
inside a timed call, and it is subtracted from the drive's wall time.
The raw wall figures are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import time

__all__ = ["REFERENCE_S", "probe", "SpeedTrack"]

#: the probe's duration at the reference speed: a round figure (on that
#: VM the probe takes about 85 us uncontended and 135 us contended).
REFERENCE_S = 100e-6
INTERVAL_S = 0.01
SWITCH_TOLERANCE = 0.15

_perf = time.perf_counter
_BUF = bytes(range(256)) * 4


class _Cell:
    __slots__ = ("value", "data")

    def __init__(self, value: int, data: bytes) -> None:
        self.value = value
        self.data = data


def _dict_loop() -> float:
    started = _perf()
    table: dict[int, int] = {}
    total = 0
    for i in range(600):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return _perf() - started


def _object_loop() -> float:
    started = _perf()
    table: dict[int, _Cell] = {}
    out = []
    for i in range(150):
        key = (i * 37) & 511
        piece = _BUF[key : key + 64]
        cell = _Cell(int.from_bytes(piece[:4], "big"), piece)
        table[key] = cell
        out.append(table.get((key * 7) & 511, cell).value ^ len(cell.data))
    b"".join(_BUF[j : j + 8] for j in range(0, 256, 8))
    return _perf() - started


def probe() -> float:
    """Seconds the probe takes now: the geometric mean of both loops,
    each the best of three so its caches are warm."""
    return math.sqrt(
        min(_dict_loop(), _dict_loop(), _dict_loop())
        * min(_object_loop(), _object_loop(), _object_loop())
    )


class SpeedTrack:
    """Probes taken during one drive, and the scaling they imply."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe.  Call
        it only between timed calls."""
        now = _perf()
        if now < self._next:
            return
        duration = probe()
        end = _perf()
        self.starts.append(now)
        self.ends.append(end)
        self.factors.append(REFERENCE_S / duration)
        self._next = end + INTERVAL_S

    def scale_calls(self, starts: list[float], durations: list[float]) -> list[float]:
        """Scale each timed call by the mean of the probes around it.

        A call whose probes before and after disagree by more than
        ``SWITCH_TOLERANCE`` ran while the machine changed speed; it is
        left out, since no factor fits it.  Which calls that drops
        depends only on when the machine switched, not on the calls.
        """
        scaled = []
        last = len(self.starts) - 1
        for start, duration in zip(starts, durations):
            index = max(bisect.bisect_right(self.starts, start) - 1, 0)
            before = self.factors[index]
            after = self.factors[min(index + 1, last)]
            if abs(before - after) <= SWITCH_TOLERANCE * max(before, after):
                scaled.append(duration * (before + after) / 2)
        return scaled

    def factor(self, at: float) -> float:
        """Scale factor in force at wall time *at* (the latest probe's)."""
        index = bisect.bisect_right(self.starts, at) - 1
        return self.factors[max(index, 0)]

    def scaled(self, start: float, end: float) -> float:
        """Scaled length of the wall interval ``[start, end]``, probe time
        excluded.  A probe is taken at *start*."""
        total = 0.0
        for index, probe_end in enumerate(self.ends):
            if probe_end < start or probe_end > end:
                continue
            following = (
                self.starts[index + 1] if index + 1 < len(self.starts) else end
            )
            total += (min(following, end) - probe_end) * self.factors[index]
        return total

    @property
    def probe_s(self) -> float:
        return sum(end - start for start, end in zip(self.starts, self.ends))
