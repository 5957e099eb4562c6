"""wire-drift fixture: struct formats, size asserts and slices that disagree with the wire table."""

import struct

from repro.core.types import HEADER_BYTES, PACKET_HEADER_BYTES

__all__ = ["decode_header", "encode_header", "read_trailer"]

# 38 bytes, but checked against the 44-byte documented header width.
_HEADER = struct.Struct(">BBHIIQIQIH")
assert _HEADER.size == HEADER_BYTES

# Native byte order in a wire format.
_ENVELOPE = struct.Struct("HBB")
assert _ENVELOPE.size == PACKET_HEADER_BYTES


def encode_header(values):
    return _HEADER.pack(*values)


def decode_header(data):
    return _HEADER.unpack(data[:HEADER_BYTES])


def read_trailer(blob):
    # ">HHI" is 8 bytes; the slice only provides 6.
    return struct.unpack(">HHI", blob[-6:])
