"""Which public call of each layer the traced run wraps, and under what name.

Each entry wraps a layer boundary where its callers reach it: a class
attribute when every caller goes through the class, or the module
binding the calling layer imported (``pack_chunks`` is one function, but
the endpoint egress, the sharded egress and the router each bind it, and
only the router's binding is fragmentation).
"""

from __future__ import annotations

from spans import SpanRecorder

__all__ = ["instrument"]


def instrument(recorder: SpanRecorder) -> None:
    """Install every layer span and boundary count on *recorder*."""
    import repro.netsim.router as router_module
    import repro.transport.endpoint as endpoint_module
    import repro.transport.sender as sender_module
    import repro.transport.shard as shard_module
    from repro.core.builder import ChunkStreamBuilder
    from repro.core.packet import Packet
    from repro.core.types import ChunkType
    from repro.host.budget import SharedPlacementBudget
    from repro.host.delivery import FrameStore, PlacementBuffer
    from repro.host.pool import ShardBudget
    from repro.netsim.events import EventLoop
    from repro.netsim.link import Link
    from repro.netsim.router import ChunkRouter
    from repro.netsim.shardloop import ShardedLoop
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.transport.sender import ChunkTransportSender
    from repro.transport.shard import ShardRouter
    from repro.wsc.endtoend import EndToEndReceiver
    from repro.wsc.wsc2 import Wsc2Accumulator

    span = recorder.patch_span

    def data_chunks(chunks) -> int:
        return sum(1 for chunk in chunks if chunk.type is ChunkType.DATA)

    def data_chunks_packed(packets, _args) -> int:
        return sum(data_chunks(packet.chunks) for packet in packets)

    # repro.core
    span(
        ChunkStreamBuilder, "add_frame", "core.add_frame",
        ("core.chunks_framed", lambda chunks, _args: len(chunks)),
    )
    for egress in (endpoint_module, shard_module):
        span(
            egress, "pack_chunks", "core.pack",
            ("transport.data_chunks_sent", data_chunks_packed),
        )
    span(Packet, "decode", "core.decode")
    span(Packet, "encode", "core.encode")
    span(router_module, "pack_chunks", "core.fragment")

    # repro.wsc
    span(sender_module, "encode_tpdu", "wsc.encode_tpdu")
    span(EndToEndReceiver, "receive", "wsc.verify")
    span(
        Wsc2Accumulator, "add_run", "wsc.add_run",
        ("wsc.symbols", lambda _result, args: len(args[2])),
    )

    # repro.transport (rx, ack_rx and send_frame are the benchmark's own calls)
    span(ShardRouter, "route", "transport.shard_route")
    recorder.patch(
        ChunkTransportSender, "retransmit",
        recorder.counting(
            "transport.retransmitted_chunks",
            ChunkTransportSender.retransmit,
            lambda chunks, _args: data_chunks(chunks),
        ),
    )

    # repro.host
    span(PlacementBuffer, "place", "host.place")
    span(FrameStore, "place", "host.place")
    span(SharedPlacementBudget, "reserve", "host.budget")
    span(SharedPlacementBudget, "release", "host.budget")
    span(ShardBudget, "release", "host.budget")

    # repro.netsim: the loop's run, every callback it dispatches, links, routers
    span(EventLoop, "run", "netsim.loop")
    span(ShardedLoop, "run", "netsim.loop")
    schedule_at = EventLoop.at
    recorder.patch(
        EventLoop, "at",
        lambda loop, when, callback: schedule_at(loop, when, recorder.callback(callback)),
    )
    recorder.patch(
        EventLoop, "advance_to",
        recorder.counting("netsim.shardloop.advance_calls", EventLoop.advance_to),
    )
    span(Link, "send", "netsim.link")
    span(ChunkRouter, "receive", "netsim.router")

    # repro.obs: instrument updates reach these only while a registry is installed
    for instrument_class, attrs in (
        (Counter, ("inc",)),
        (Gauge, ("set", "inc", "dec")),
        (Histogram, ("observe",)),
    ):
        for attr in attrs:
            recorder.patch(
                instrument_class, attr,
                recorder.counting("obs.updates", instrument_class.__dict__[attr]),
            )
