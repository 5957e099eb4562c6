"""Sharded endpoint: C.ID-hashed workers, one pool, one wire.

The label ``(C.ID, offset, length)`` makes every chunk self-describing,
so which worker owns a chunk is a pure function of bytes already in its
header — no shared lookup state, no coordination on the fast path.
:class:`ShardedEndpoint` exploits exactly that: it partitions the
connection table across N :class:`EndpointShard` workers by
:func:`shard_for` (a CRC-32 of the C.ID, deterministic across runs and
interpreters — ``hash()`` would change with ``PYTHONHASHSEED``), each
worker being a full :class:`~repro.transport.endpoint.ChunkEndpoint`
with its own connection table, sessions, timers, and egress queue.

Three shared things remain, each with its own seam:

- **ingress** — the :class:`ShardRouter` decodes each wire packet
  exactly once and hands every shard its chunk group through
  :meth:`~repro.transport.endpoint.ChunkEndpoint.receive_chunks`; an
  Appendix A mixed-C.ID packet simply fans out to several shards;
- **memory** — a :class:`~repro.host.pool.GlobalBudgetPool` lends token
  blocks to per-shard :class:`~repro.host.pool.ShardBudget`\\ s
  (fair-share refusal stays shard-local; eviction returns blocks);
- **egress** — shard sessions enqueue chunks into per-shard queues (via
  the ``egress_sink`` seam), and a cross-shard packer drains the queues
  round-robin into MTU-sized envelopes, so packets mixing conversations
  *and shards* are the normal transmit path.

Each shard schedules into its own lane of a
:class:`~repro.netsim.shardloop.ShardedLoop`: one heap, one clock, events
ordered by ``(time, lane, seq)`` — same seed, same global event order,
same delivered bytes.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.bounded import BoundedSet
from repro.core.chunk import Chunk
from repro.core.errors import CodecError, EndpointError
from repro.core.packet import Packet, pack_chunks
from repro.host.pool import GlobalBudgetPool
from repro.netsim.shardloop import ShardedLoop
from repro.obs import counter, journey_handle
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import (
    ChunkEndpoint,
    Connection,
    ConnectionTable,
    EndpointEvents,
)
from repro.transport.reliability import AdaptiveTpduPolicy

__all__ = ["shard_for", "EndpointShard", "ShardRouter", "ShardedEndpoint"]

_OBS_FANOUT = counter(
    "transport", "shard.fanout_packets", "ingress packets spanning >1 shard"
)
_OBS_CROSS_SHARD = counter(
    "transport", "shard.cross_shard_packets", "egress packets mixing >1 shard"
)
_OBS_PACKETS_SENT = counter("transport", "endpoint.packets_sent", "egress packets packed")
_OBS_MIXED_PACKETS = counter(
    "transport", "endpoint.mixed_packets", "egress packets mixing >1 conversation"
)
_OBS_JOURNEY = journey_handle()


def shard_for(c_id: int, shards: int) -> int:
    """The worker shard owning conversation *c_id*, in ``[0, shards)``.

    CRC-32 over the C.ID's 4 wire bytes (it is a ``>I`` field), so the
    mapping is total over the 32-bit C.ID space, stable across runs,
    interpreters, and ``PYTHONHASHSEED`` — the same property that lets
    in-network elements partition by label without agreeing on anything
    beyond the header format.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard (shards={shards})")
    return zlib.crc32(c_id.to_bytes(4, "big")) % shards


@dataclass
class EndpointShard:
    """One worker: a whole endpoint plus its cross-shard egress queue.

    Deliberately method-free — every behaviour lives on the wrapped
    :class:`ChunkEndpoint` (per-shard state) or on the owning
    :class:`ShardedEndpoint` (the per-endpoint composition), so the
    shard-ownership pass can hold the boundary.
    """

    index: int
    endpoint: ChunkEndpoint
    egress: deque[Chunk] = field(default_factory=deque)


@dataclass
class ShardRouter:
    """Decode-once ingress: wire packets in, per-shard chunk groups out.

    Routing is label-driven demux (Section 2) applied one level up: the
    router never looks at payload bytes and keeps no per-connection
    state — its only inputs are the chunk headers the wire already
    carries.  Mixed-C.ID packets (Appendix A) fan out to every owning
    shard; the per-connection event dictionaries are disjoint across
    shards by construction, so merging is a plain union.
    """

    shards: tuple[EndpointShard, ...]
    packets_received: int = 0
    decode_failures: int = 0
    #: ingress packets whose chunks belonged to more than one shard.
    fanout_packets: int = 0

    def route(self, frame: bytes) -> EndpointEvents:
        """Decode *frame* once and dispatch its chunks to owning shards."""
        self.packets_received += 1
        try:
            packet = Packet.decode(frame)
        except CodecError:
            self.decode_failures += 1
            events = EndpointEvents()
            events.decode_failed = True
            return events
        count = len(self.shards)
        groups: dict[int, list[Chunk]] = {}
        for chunk in packet.chunks:
            groups.setdefault(shard_for(chunk.c.ident, count), []).append(chunk)
        if len(groups) > 1:
            self.fanout_packets += 1
            _OBS_FANOUT.inc()
        merged = EndpointEvents()
        for index in sorted(groups):
            events = self.shards[index].endpoint.receive_chunks(groups[index])
            merged.per_connection.update(events.per_connection)
            merged.established.extend(events.established)
            merged.refused_chunks += events.refused_chunks
            merged.decode_failed |= events.decode_failed
        return merged


class ShardedEndpoint:
    """N C.ID-hashed endpoint workers behind one wire and one pool.

    Drop-in for :class:`ChunkEndpoint` at the driver surface
    (``open_connection`` / ``connection`` / ``receive_packet`` /
    ``sweep`` / ``stats``): every conversation-scoped call is forwarded
    to the shard :func:`shard_for` names, so callers never see the
    partition.  Construct it over a :class:`ShardedLoop` — the sharded
    endpoint adds one lane per shard and leaves lane 0 (the loop
    itself) for the network and the application driver.
    """

    def __init__(
        self,
        loop: ShardedLoop,
        transmit: Callable[[bytes], None] | None = None,
        mtu: int = 1500,
        shards: int = 4,
        pool: GlobalBudgetPool | None = None,
        idle_timeout: float = 30.0,
        close_linger: float | None = None,
        max_connections: int | None = None,
        accept_unsignaled: bool = False,
        flush_window: float = 0.0,
        per_connection_metrics: bool = True,
        min_progress_bytes: int | None = None,
        progress_window: float = 10.0,
        on_evict: Callable[[Connection], None] | None = None,
        tombstone_capacity: int | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard (shards={shards})")
        self.loop = loop
        self.transmit = transmit
        self.mtu = mtu
        self.flush_window = flush_window
        self.pool = pool if pool is not None else GlobalBudgetPool()
        # Divide the endpoint-wide bounds so N shards never hold more
        # than one endpoint would: tombstone FIFOs and the admission cap
        # both split N ways (rounded up so the totals are never under
        # the single-endpoint figure by more than rounding).
        endpoint_tombstones = (
            tombstone_capacity
            if tombstone_capacity is not None
            else BoundedSet.max_entries
        )
        shard_tombstones = max(1, -(-endpoint_tombstones // shards))
        shard_cap = (
            None if max_connections is None else max(1, -(-max_connections // shards))
        )
        workers: list[EndpointShard] = []
        for index in range(shards):
            endpoint = ChunkEndpoint(
                loop=loop.add_member(),
                transmit=None,
                mtu=mtu,
                budget=self.pool.shard_budget(index, shards),
                table=ConnectionTable(tombstone_capacity=shard_tombstones),
                idle_timeout=idle_timeout,
                close_linger=close_linger,
                max_connections=shard_cap,
                accept_unsignaled=accept_unsignaled,
                flush_window=flush_window,
                per_connection_metrics=per_connection_metrics,
                min_progress_bytes=min_progress_bytes,
                progress_window=progress_window,
                on_evict=on_evict,
                shard_index=index,
            )
            worker = EndpointShard(index=index, endpoint=endpoint)
            endpoint.egress_sink = self._sink_for(index)
            workers.append(worker)
        self._shards = tuple(workers)
        self.router = ShardRouter(shards=self._shards)
        self._rr_next = 0
        self._flush_scheduled = False
        self.bytes_sent = 0
        self.packets_sent = 0
        self.mixed_packets = 0
        #: egress packets whose chunks came from more than one shard.
        self.cross_shard_packets = 0

    # -- composition surface -------------------------------------------
    @property
    def shards(self) -> tuple[EndpointShard, ...]:
        return self._shards

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, cid: int) -> int:
        """The shard index owning conversation *cid*."""
        return shard_for(cid, len(self._shards))

    def endpoint_for(self, cid: int) -> ChunkEndpoint:
        """The worker endpoint owning conversation *cid*."""
        return self._shards[self.shard_of(cid)].endpoint

    # -- driver surface (ChunkEndpoint-compatible) ---------------------
    def open_connection(
        self,
        config: ConnectionConfig,
        rto: float = 0.05,
        max_retries: int = 12,
        policy: AdaptiveTpduPolicy | None = None,
    ) -> Connection:
        """Open a locally originated conversation on its owning shard."""
        return self.endpoint_for(config.connection_id).open_connection(
            config, rto=rto, max_retries=max_retries, policy=policy
        )

    def connection(self, cid: int) -> Connection | None:
        return self.endpoint_for(cid).connection(cid)

    def close_connection(self, cid: int) -> None:
        self.endpoint_for(cid).close_connection(cid)

    def receive_packet(self, frame: bytes) -> EndpointEvents:
        """Decode once, route chunk groups to their owning shards."""
        return self.router.route(frame)

    def sweep(self, now: float | None = None) -> list[int]:
        """Run every shard's eviction sweep; returns all evicted C.IDs."""
        evicted: list[int] = []
        for shard in self._shards:
            evicted.extend(shard.endpoint.sweep(now))
        return evicted

    # -- cross-shard egress --------------------------------------------
    def _sink_for(self, index: int) -> Callable[[list[Chunk]], None]:
        def sink(chunks: list[Chunk]) -> None:
            self._on_shard_egress(index, chunks)

        return sink

    def _on_shard_egress(self, index: int, chunks: list[Chunk]) -> None:
        """Egress seam: shard *index*'s session handed the packer chunks."""
        self._shards[index].egress.extend(chunks)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.loop.schedule(self.flush_window, self._flush)

    def _drain_round_robin(self) -> list[Chunk]:
        """One chunk per non-empty shard queue per cycle, rotating the
        starting shard between flushes so no shard is structurally
        first in every envelope."""
        count = len(self._shards)
        queues = [
            self._shards[(self._rr_next + offset) % count].egress
            for offset in range(count)
        ]
        self._rr_next = (self._rr_next + 1) % count
        drained: list[Chunk] = []
        while True:
            progressed = False
            for queue in queues:
                if queue:
                    drained.append(queue.popleft())
                    progressed = True
            if not progressed:
                return drained

    def _flush(self) -> None:
        self._flush_scheduled = False
        chunks = self._drain_round_robin()
        if not chunks:
            return
        if self.transmit is None:
            raise EndpointError("sharded endpoint egress needs a transmit callback")
        count = len(self._shards)
        for packet in pack_chunks(chunks, self.mtu):
            conversations = {c.c.ident for c in packet.chunks}
            if len(conversations) > 1:
                self.mixed_packets += 1
                _OBS_MIXED_PACKETS.inc()
            owners = {shard_for(cid, count) for cid in conversations}
            if len(owners) > 1:
                self.cross_shard_packets += 1
                _OBS_CROSS_SHARD.inc()
            if _OBS_JOURNEY:
                for chunk in packet.chunks:
                    if chunk.is_data:
                        _OBS_JOURNEY.chunk(
                            "packed",
                            chunk,
                            t=self.loop.now,
                            shard=shard_for(chunk.c.ident, count),
                        )
            encoded = packet.encode()
            self.bytes_sent += len(encoded)
            self.packets_sent += 1
            _OBS_PACKETS_SENT.inc()
            self.transmit(encoded)

    def flush(self) -> None:
        """Force pending cross-shard egress onto the wire immediately."""
        self._flush()

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Endpoint-wide totals: shard sums plus router/packer/pool."""
        totals: dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.endpoint.stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["packets_received"] = self.router.packets_received
        totals["decode_failures"] = self.router.decode_failures
        totals["fanout_packets"] = self.router.fanout_packets
        totals["packets_sent"] = self.packets_sent
        totals["mixed_packets"] = self.mixed_packets
        totals["cross_shard_packets"] = self.cross_shard_packets
        totals["pool_lent"] = self.pool.lent_total
        totals["pool_peak_lent"] = self.pool.peak_lent
        totals["pool_refusals"] = self.pool.refusals
        return totals
