"""The system benchmark's three workloads, built and driven through public calls.

Every workload is a pure function of ``(name, seed)``: the seed fixes the
payload bytes, the conversation arrival schedule and every link's loss
stream.  Arrivals are open-loop in *simulated* time, so the offered load
does not depend on how fast the code runs; wall-clock figures are work
done per second at the stated input size.

The three workloads cover three packet regimes of one chunk stack:

- ``bulk``: a handful of long conversations in large frames, full
  1500-byte packets, lossless — per-byte work (framing, WSC) dominates;
- ``mux``: thousands of tiny conversations on an 8-shard endpoint with
  obs installed, 1% loss — per-connection and per-packet work dominates;
- ``lossy_stripe``: mid-sized conversations striped over 8 skewed paths,
  fragmented to 576-byte packets with 2% loss — the disorder,
  duplicate and retransmission paths run.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import EndpointError
from repro.netsim import (
    EventLoop,
    HopSpec,
    ShardedLoop,
    aurora_stripe,
    build_chunk_path,
    build_shared_bottleneck,
)
from repro.obs import metric_snapshot, session
from repro.transport import ChunkEndpoint, ConnectionConfig, ShardedEndpoint
from speed import SpeedTrack

__all__ = ["WORKLOADS", "TAILS", "Conversation", "IterationResult", "Scenario", "build"]

WORKLOADS = ("bulk", "mux", "lossy_stripe")

#: The tail percentile reported per workload and sample kind: the highest
#: one with at least ten samples of one iteration beyond it, at the
#: smallest per-iteration count any seed gives (checked on every run).
TAILS = {
    "bulk": {"rx_packet": 0.99, "tx_frame": 0.9, "sim_frame_latency": 0.9},
    "mux": {"rx_packet": 0.99, "tx_frame": 0.997, "sim_frame_latency": 0.997},
    "lossy_stripe": {"rx_packet": 0.995, "tx_frame": 0.95, "sim_frame_latency": 0.95},
}


@dataclass(frozen=True)
class Conversation:
    """One conversation: its C.ID, when it starts and the frames it sends."""

    cid: int
    start: float
    frames: tuple[bytes, ...]
    #: simulated seconds between consecutive frames (0 = all at once).
    interval: float
    tpdu_units: int = 256

    @property
    def payload(self) -> bytes:
        return b"".join(self.frames)


@dataclass
class IterationResult:
    """What one drive of a scenario measured and verified.

    ``*_scaled*`` fields are wall times scaled to the reference machine
    speed (see :mod:`speed`); the others are raw wall time.
    """

    drive_s: float
    drive_scaled_s: float
    rx_us: list[float]
    rx_scaled_us: list[float]
    tx_us: list[float]
    tx_scaled_us: list[float]
    latency_ms: list[float]
    attempted: int
    #: C.ID -> why that conversation failed.
    failures: dict[int, str]
    verified_bytes: int
    #: deterministic counts, each read from the component that owns it;
    #: they and the latencies must repeat exactly at the same seed.
    counts: dict[str, int | float | str]
    snapshot_s: float = 0.0

    @property
    def fingerprint(self) -> str:
        text = repr(sorted(self.counts.items())) + repr(self.latency_ms)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Scenario:
    """A built workload: topology, endpoints, payloads and schedule.

    A scenario is single-use: :meth:`drive` runs its simulation once.
    """

    name: str
    loop: EventLoop | ShardedLoop
    conversations: list[Conversation]
    obs: bool = False
    sweep_every: float = 0.0
    idle_timeout: float = 30.0
    sender: ChunkEndpoint | ShardedEndpoint | None = None
    receiver: ChunkEndpoint | ShardedEndpoint | None = None
    links: list = field(default_factory=list)
    routers: list = field(default_factory=list)
    #: set for the traced run: the benchmark's own calls into the
    #: transport (open_connection, send_frame, sweep, receive_packet on
    #: both sides) become spans.
    recorder: object | None = None
    speed: SpeedTrack = field(default_factory=SpeedTrack)

    _sent_at: dict[tuple[int, int], float] = field(default_factory=dict)
    _completed: dict[int, int] = field(default_factory=dict)
    _rx_at: list[float] = field(default_factory=list)
    _rx_us: list[float] = field(default_factory=list)
    _tx_at: list[float] = field(default_factory=list)
    _tx_us: list[float] = field(default_factory=list)
    _latency_ms: list[float] = field(default_factory=list)
    _ok_verdicts: int = 0
    _bad_verdicts: dict[int, int] = field(default_factory=dict)
    _refused_open: set[int] = field(default_factory=set)
    _evicted_rx: dict[int, tuple] = field(default_factory=dict)
    _evicted_tx: dict[int, object] = field(default_factory=dict)

    # -- the benchmark's calls into the stack --------------------------

    def _call(self, span: str, fn: Callable, *args, **kwargs):
        if self.recorder is None:
            return fn(*args, **kwargs)
        return self.recorder.call(self.recorder.name_id(span), fn, *args, **kwargs)

    def deliver_data(self, frame: bytes) -> None:
        """The data receiver's ingress: time ``receive_packet``, then
        record verdicts and completed frames."""
        self.speed.tick()
        started = time.perf_counter()
        events = self._call("transport.rx", self.receiver.receive_packet, frame)
        self._rx_us.append((time.perf_counter() - started) * 1e6)
        self._rx_at.append(started)
        now = self.loop.now
        for cid, received in events.per_connection.items():
            for verdict in received.verdicts:
                if verdict.ok:
                    self._ok_verdicts += 1
                else:
                    self._bad_verdicts[cid] = self._bad_verdicts.get(cid, 0) + 1
            for frame_id in received.completed_frames:
                self._completed[cid] = self._completed.get(cid, 0) + 1
                self._latency_ms.append((now - self._sent_at[(cid, frame_id)]) * 1e3)

    def deliver_ack(self, frame: bytes) -> None:
        self._call("transport.ack_rx", self.sender.receive_packet, frame)

    def _frame_event(self, conv: Conversation, index: int) -> Callable[[], None]:
        def send() -> None:
            if index == 0:
                try:
                    self._call(
                        "transport.open",
                        self.sender.open_connection,
                        ConnectionConfig(conv.cid, tpdu_units=conv.tpdu_units),
                    )
                except EndpointError:
                    self._refused_open.add(conv.cid)
            connection = self.sender.connection(conv.cid)
            if connection is None or connection.sender is None:
                return
            self._sent_at[(conv.cid, index)] = self.loop.now
            self.speed.tick()
            started = time.perf_counter()
            self._call(
                "transport.send_frame",
                connection.send_frame,
                conv.frames[index],
                frame_id=index,
                end_of_connection=index == len(conv.frames) - 1,
            )
            self._tx_us.append((time.perf_counter() - started) * 1e6)
            self._tx_at.append(started)

        return send

    def _sweep(self) -> None:
        self._call("transport.sweep", self.receiver.sweep)
        self._call("transport.sweep", self.sender.sweep)

    def on_receiver_evict(self, connection) -> None:
        """Eviction drops the sessions; keep them for verification."""
        self._evicted_rx[connection.connection_id] = (connection, connection.receiver)

    def on_sender_evict(self, connection) -> None:
        self._evicted_tx[connection.connection_id] = connection.sender

    def schedule(self) -> None:
        """Put every frame send (and any sweeps) on the simulated clock."""
        horizon = 0.0
        for conv in self.conversations:
            for index in range(len(conv.frames)):
                at = conv.start + index * conv.interval
                self.loop.at(at, self._frame_event(conv, index))
                horizon = max(horizon, at)
        if self.sweep_every > 0:
            # A fixed number of sweeps, so the loop still drains.
            ticks = int((horizon + 2 * self.idle_timeout) / self.sweep_every) + 1
            for tick in range(1, ticks + 1):
                self.loop.at(tick * self.sweep_every, self._sweep)

    # -- running and checking ------------------------------------------

    def drive(self) -> IterationResult:
        """Run the simulation to quiescence, then verify every conversation."""
        observed = session(clock=lambda: self.loop.now) if self.obs else nullcontext()
        with observed as installed:
            started = time.perf_counter()
            self.speed.tick()
            self.loop.run()
            ended = time.perf_counter()
            if installed is not None:
                snapshot = metric_snapshot(installed[0])
                snapshot_s = (time.perf_counter() - ended) * self.speed.factor(ended)
        result = self._verify(
            ended - started - self.speed.probe_s, self.speed.scaled(started, ended)
        )
        if installed is not None:
            result.snapshot_s = snapshot_s
            result.counts["obs.series"] = len(snapshot)
            digest = hashlib.sha256(repr(sorted(snapshot.items())).encode()).hexdigest()
            result.counts["obs.snapshot_digest"] = digest[:16]
        return result

    def _receiver_session(self, cid: int) -> tuple:
        connection = self.receiver.connection(cid)
        if connection is not None and connection.receiver is not None:
            return connection, connection.receiver
        return self._evicted_rx.get(cid, (None, None))

    def _sender_session(self, cid: int):
        connection = self.sender.connection(cid)
        if connection is not None and connection.sender is not None:
            return connection.sender
        return self._evicted_tx.get(cid)

    def _verify(self, drive_s: float, drive_scaled_s: float) -> IterationResult:
        """Check every conversation byte for byte; record each violation."""
        failures: dict[int, str] = {}
        verified_bytes = placed = touched = duplicates = chunks_in = 0
        retransmitted_tpdus = 0
        for conv in self.conversations:
            sender = self._sender_session(conv.cid)
            connection, session_ = self._receiver_session(conv.cid)
            if sender is not None:
                retransmitted_tpdus += sender.retransmissions
            if conv.cid in self._refused_open:
                failures[conv.cid] = "refused at open"
                continue
            if sender is None or sender.gave_up:
                failures[conv.cid] = "sender gave up"
                continue
            if session_ is None:
                failures[conv.cid] = "never established at the receiver"
                continue
            receiver = session_.receiver
            placed_here = receiver.stream.bytes_placed
            placed += placed_here
            touched += connection.ledger.total_bytes_moved
            duplicates += receiver.duplicate_chunks
            chunks_in += receiver.chunks_received
            if receiver.stream_bytes() != conv.payload:
                failures[conv.cid] = "delivered bytes differ from the bytes sent"
            elif self._bad_verdicts.get(conv.cid):
                failures[conv.cid] = "a WSC verdict was not ok"
            elif connection.ledger.touches_per_payload_byte(placed_here) != 1.0:
                failures[conv.cid] = "touches per byte is not exactly 1.0"
            elif self._completed.get(conv.cid, 0) != len(conv.frames):
                failures[conv.cid] = "not every frame completed"
            else:
                verified_bytes += len(conv.payload)
        tx, rx = self.sender.stats(), self.receiver.stats()
        counts: dict[str, int | float | str] = {
            f"sender.{key}": value for key, value in sorted(tx.items())
        }
        counts.update({f"receiver.{key}": value for key, value in sorted(rx.items())})
        counts.update(
            {
                "netsim.events": self.loop.events_processed,
                "netsim.frames_lost": sum(link.stats.frames_lost for link in self.links),
                "netsim.frames_delivered": sum(
                    link.stats.frames_delivered for link in self.links
                ),
                "netsim.router_chunks_split": sum(
                    router.stats.chunks_split for router in self.routers
                ),
                "sim.end_s": self.loop.now,
                "host.bytes_placed": placed,
                "host.bytes_touched": touched,
                "transport.duplicate_chunks": duplicates,
                "transport.chunks_received": chunks_in,
                "transport.retransmitted_tpdus": retransmitted_tpdus,
                "transport.rx.calls": len(self._rx_us),
                "transport.send_frame.calls": len(self._tx_us),
                "wsc.tpdus_ok": self._ok_verdicts,
                "wsc.tpdus_failed": sum(self._bad_verdicts.values()),
            }
        )
        return IterationResult(
            drive_s=drive_s,
            drive_scaled_s=drive_scaled_s,
            rx_us=self._rx_us,
            rx_scaled_us=self.speed.scale_calls(self._rx_at, self._rx_us),
            tx_us=self._tx_us,
            tx_scaled_us=self.speed.scale_calls(self._tx_at, self._tx_us),
            latency_ms=self._latency_ms,
            attempted=len(self.conversations),
            failures=failures,
            verified_bytes=verified_bytes,
            counts=counts,
        )


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------


def _words(rng: random.Random, low: int, high: int) -> int:
    """A byte count in ``[low, high]`` that is a whole number of 4-byte units."""
    return 4 * rng.randint(low // 4, high // 4)


def _bulk(seed: int) -> Scenario:
    """4 x 256 KiB in 8 KiB frames, 1 KiB TPDUs, lossless 622 Mbps bottleneck.

    Starts are jittered, not Poisson: with four conversations, Poisson
    gaps would make the queueing (and so every latency) a seed lottery.
    The 155 Mbps access link queues the whole burst for longer than the
    50 ms retransmission timeout, so some retransmissions are spurious.
    """
    rng = random.Random(f"{seed}/bulk")
    conversations = [
        Conversation(
            cid=1 + k,
            start=k * 0.001 + rng.uniform(0.0, 0.00025),
            frames=tuple(rng.randbytes(8 * 1024) for _ in range(32)),
            interval=0.0,
        )
        for k in range(4)
    ]
    loop = EventLoop()
    scenario = Scenario("bulk", loop, conversations)
    scenario.sender = ChunkEndpoint(loop, mtu=1500, per_connection_metrics=False)
    scenario.receiver = ChunkEndpoint(loop, mtu=1500, per_connection_metrics=False)
    net = build_shared_bottleneck(
        loop,
        pairs=[(scenario.deliver_data, scenario.deliver_ack)],
        bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
        reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005),
        seed=seed,
    )
    port = net.ports[0]
    scenario.sender.transmit = port.send
    scenario.receiver.transmit = port.send_reverse
    scenario.links = [port.access, net.forward_link, net.reverse_link]
    return scenario


def _mux(seed: int) -> Scenario:
    """2,000 Poisson-arriving conversations of 256 B - 1 KiB on 8 shards.

    70% send one frame; 30% are paced "video" of four equal frames 4 ms
    apart, one TPDU per frame so each frame's timer starts when it is
    sent.  1% loss both ways; obs installed with per-connection labels;
    idle connections are swept (evicted) as the run goes.
    """
    rng = random.Random(f"{seed}/mux")
    conversations = []
    start = 0.0
    for k in range(2000):
        start += rng.expovariate(1000.0)
        if rng.random() < 0.3:
            size = _words(rng, 64, 256)
            frames = tuple(rng.randbytes(size) for _ in range(4))
            conversations.append(
                Conversation(1000 + k, start, frames, 0.004, tpdu_units=size // 4)
            )
        else:
            frames = (rng.randbytes(_words(rng, 256, 1024)),)
            conversations.append(Conversation(1000 + k, start, frames, 0.0))
    loop = ShardedLoop()
    scenario = Scenario(
        "mux", loop, conversations, obs=True, sweep_every=0.25, idle_timeout=1.0
    )
    common = dict(mtu=1500, shards=8, flush_window=0.001, idle_timeout=1.0)
    scenario.sender = ShardedEndpoint(loop, on_evict=scenario.on_sender_evict, **common)
    scenario.receiver = ShardedEndpoint(
        loop, on_evict=scenario.on_receiver_evict, **common
    )
    net = build_shared_bottleneck(
        loop.member(0),
        pairs=[(scenario.deliver_data, scenario.deliver_ack)],
        bottleneck=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=0.01),
        reverse=HopSpec(mtu=1500, rate_bps=622e6, delay=0.0005, loss_rate=0.01),
        seed=seed,
    )
    port = net.ports[0]
    scenario.sender.transmit = port.send
    scenario.receiver.transmit = port.send_reverse
    scenario.links = [port.access, net.forward_link, net.reverse_link]
    return scenario


def _lossy_stripe(seed: int) -> Scenario:
    """8 x 128 KiB in 4 KiB frames over an 8-path skewed stripe at MTU
    9180, then a router fragmenting to MTU 576 onto a 2%-loss hop."""
    rng = random.Random(f"{seed}/lossy_stripe")
    conversations = [
        Conversation(
            cid=1 + k,
            start=k * 0.002 + rng.uniform(0.0, 0.0005),
            frames=tuple(rng.randbytes(4 * 1024) for _ in range(32)),
            interval=0.0,
        )
        for k in range(8)
    ]
    loop = EventLoop()
    scenario = Scenario("lossy_stripe", loop, conversations)
    scenario.sender = ChunkEndpoint(loop, mtu=9180, per_connection_metrics=False)
    scenario.receiver = ChunkEndpoint(loop, mtu=576, per_connection_metrics=False)
    path = build_chunk_path(
        loop,
        [
            HopSpec(mtu=9180, rate_bps=1.2e9, delay=0.0001),
            HopSpec(mtu=576, rate_bps=622e6, delay=0.0005, loss_rate=0.02),
        ],
        deliver=scenario.deliver_data,
        seed=seed,
    )
    stripe = aurora_stripe(loop, deliver=path.send, paths=8, mtu=9180, seed=seed)
    back = build_chunk_path(
        loop,
        [HopSpec(mtu=576, rate_bps=622e6, delay=0.001)],
        deliver=scenario.deliver_ack,
        seed=seed,
    )
    scenario.sender.transmit = stripe.send
    scenario.receiver.transmit = back.send
    scenario.links = [*stripe.links, *path.links, *back.links]
    scenario.routers = list(path.routers)
    return scenario


_BUILDERS = {"bulk": _bulk, "mux": _mux, "lossy_stripe": _lossy_stripe}


def build(name: str, seed: int, recorder: object | None = None) -> Scenario:
    """Construct workload *name* at *seed* and schedule its traffic."""
    scenario = _BUILDERS[name](seed)
    scenario.recorder = recorder
    scenario.schedule()
    return scenario
