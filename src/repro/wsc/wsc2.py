"""WSC-2: the weighted sum code of Section 4 / [MCAU 93a].

"A WSC-2 encoder takes 32-bit symbols of data and creates two 32-bit
parity symbols, P0 and P1":

    P0 = sum_i d_i                (GF(2^32) addition = XOR)
    P1 = sum_i alpha^i (x) d_i    (multiplication in GF(2^32))

"Acceptable values for i are 0 <= i < 2^29 - 2; if we have less than
2^29 - 2 data symbols, the i values left unused are equivalent to
encoding a symbol of zero at that i value.  Consequently, WSC-2 will
work correctly as long as the error detection protocol specifies which
unique value of i should be used for each symbol."

Because field addition is commutative and associative, the code can be
computed **on disordered data**: contributions may be accumulated in any
arrival order, split across any number of accumulators and combined.
That is the property the whole chunk design leans on (a CRC has no such
property — see :mod:`repro.wsc.crc` and the CLAIM-WSC bench).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.wsc.gf32 import alpha_pow, gf_mul, mul_alpha

__all__ = [
    "MAX_POSITIONS",
    "Wsc2Accumulator",
    "wsc2_encode",
    "symbols_from_bytes",
    "bytes_from_symbols",
]

#: The paper's position budget: 0 <= i < 2^29 - 2.
MAX_POSITIONS = (1 << 29) - 2

_WORD = struct.Struct(">I")


def symbols_from_bytes(data: bytes) -> list[int]:
    """Big-endian 32-bit symbols; the tail is zero-padded to a word."""
    if len(data) % 4:
        data = data + b"\x00" * (4 - len(data) % 4)
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)]


def bytes_from_symbols(symbols: Iterable[int]) -> bytes:
    """Inverse of :func:`symbols_from_bytes` (no padding removal)."""
    return b"".join(_WORD.pack(s) for s in symbols)


@dataclass
class Wsc2Accumulator:
    """An order-independent WSC-2 accumulator.

    Contributions are added one symbol or one contiguous run at a time,
    in any order; accumulators merge with :meth:`combine`.  The final
    ``(p0, p1)`` pair equals what a single in-order pass would produce.

    A run ``d_s .. d_{s+L-1}`` contributes ``alpha^s * H`` to P1 where
    ``H = sum_j alpha^j d_{s+j}`` is computed by a cheap Horner loop
    (one shift-reduce per symbol) and the single ``alpha^s`` scaling is
    square-and-multiply (:func:`~repro.wsc.gf32.alpha_pow`: one
    bit-serial :func:`~repro.wsc.gf32.gf_mul` per set bit of ``s``, over
    precomputed ``alpha^(2^k)``) — so per-chunk cost is linear in the
    chunk with only O(log s) full multiplications.
    """

    p0: int = 0
    p1: int = 0

    def add_symbol(self, position: int, value: int) -> None:
        """Add symbol *value* at weight position *position*."""
        self._check(position, 1)
        self.p0 ^= value
        self.p1 ^= gf_mul(alpha_pow(position), value)

    def add_run(self, start: int, values: Sequence[int]) -> None:
        """Add a contiguous run of symbols starting at *start*."""
        if not values:
            return
        self._check(start, len(values))
        p0 = 0
        horner = 0
        # Horner over the run, highest index first, gives
        # H = v_0 + alpha*(v_1 + alpha*(v_2 + ...)) = sum_j alpha^j v_j.
        for value in reversed(values):
            horner = mul_alpha(horner) ^ value
            p0 ^= value
        self.p0 ^= p0
        self.p1 ^= gf_mul(alpha_pow(start), horner)

    def add_bytes(self, start: int, data: bytes) -> None:
        """Add a byte run occupying symbol positions start, start+1, ..."""
        self.add_run(start, symbols_from_bytes(data))

    def combine(self, other: "Wsc2Accumulator") -> None:
        """Merge another accumulator's contributions into this one."""
        self.p0 ^= other.p0
        self.p1 ^= other.p1

    def value(self) -> tuple[int, int]:
        """The (P0, P1) parity pair."""
        return self.p0, self.p1

    def matches(self, p0: int, p1: int) -> bool:
        """Compare against a received parity pair."""
        return self.p0 == p0 and self.p1 == p1

    @staticmethod
    def _check(start: int, count: int) -> None:
        if start < 0 or start + count > MAX_POSITIONS:
            raise ValueError(
                f"positions [{start}, {start + count}) outside the WSC-2 "
                f"budget 0..{MAX_POSITIONS - 1}"
            )


def wsc2_encode(symbols: Sequence[int], start: int = 0) -> tuple[int, int]:
    """One-shot encoding of an in-order symbol sequence."""
    acc = Wsc2Accumulator()
    acc.add_run(start, symbols)
    return acc.value()
