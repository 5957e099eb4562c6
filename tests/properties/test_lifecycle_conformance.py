"""Property suite: the declared lifecycle FSM conforms to the live endpoint.

:mod:`repro.analysis.modelcheck` explores the *declared* transition
relation; this suite closes the loop in the other direction — any
receiver-side event sequence the model accepts must drive a live
:class:`~repro.transport.endpoint.ChunkEndpoint`, and a four-shard
:class:`~repro.transport.shard.ShardedEndpoint`, through the matching
observable lifecycle: same table membership, same closed state, same
tombstones, refusals exactly where the model refuses.

The driver replays one conversation against a real endpoint with tight
timeouts; virtual time advances one second per event so every ``sweep``
the model accepts is past both the idle timeout and the close linger.
Sequences are cut at the first event the model has no enabled
transition for (the model's alphabet is a subset of what the wire can
carry — conformance is claimed for accepted prefixes only).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.modelcheck import ModelConfig, apply_step, enabled, initial_state
from repro.core.packet import Packet
from repro.core.state_table import STATE_TABLE
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.endpoint import ChunkEndpoint, ConnectionState
from repro.transport.sender import ChunkTransportSender
from repro.transport.shard import ShardedEndpoint

from tests.conftest import make_chunk

CID = 9

#: Test alphabet -> model event.  Receiver side only: acks and local
#: opens exercise the sender half, which this driver does not model.
EVENT_NAMES = {
    "signal": "signaling-chunk",
    "data": "data-chunk",
    "cst": "cst-chunk",
    "sweep": "sweep",
}

#: One conversation, one pool token, a cap no 8-event run can reach,
#: and a FIFO a single conversation can never overflow.
MODEL = ModelConfig(
    conversations=1, pool_tokens=1, placement_cap=32, tombstone_capacity=4
)

#: Model lifecycle state -> the observable class a live endpoint shows.
OBSERVABLE = {
    "CLOSED": "absent",
    "ESTABLISHING": "open",
    "ESTABLISHED": "open",
    "CLOSING": "closing",
    "EVICTED-idle": "evicted",
    "EVICTED-stalled": "evicted",
    "TOMBSTONED": "evicted",
}


def plain_endpoint() -> tuple[ChunkEndpoint, ChunkEndpoint]:
    endpoint = ChunkEndpoint(EventLoop(), idle_timeout=0.5, close_linger=0.5)
    return endpoint, endpoint


def sharded_endpoint() -> tuple[ShardedEndpoint, ChunkEndpoint]:
    endpoint = ShardedEndpoint(
        ShardedLoop(), shards=4, idle_timeout=0.5, close_linger=0.5
    )
    return endpoint, endpoint.endpoint_for(CID)


#: Endpoint kind -> (driver surface, the worker whose table owns CID).
ENDPOINTS = {"plain": plain_endpoint, "sharded": sharded_endpoint}


def observe(endpoint: ChunkEndpoint | ShardedEndpoint, owner: ChunkEndpoint) -> str:
    connection = endpoint.connection(CID)
    if connection is not None:
        return "closing" if connection.state is ConnectionState.CLOSED else "open"
    if CID in owner.table.evicted_ids:
        return "evicted"
    return "absent"


def model_step(state, event):
    """The unique enabled transition for *event*, or None (rejected)."""
    candidates = [
        (idx, t)
        for idx, t in enabled(state, STATE_TABLE, MODEL)
        if t.event == event
    ]
    if not candidates:
        return None
    # Guards partition (pool-has-token vs pool-exhausted), so a single
    # conversation never sees two enabled transitions for one event.
    assert len(candidates) == 1, candidates
    return candidates[0]


def wire_chunks(sender: ChunkTransportSender, name: str, transition_id: str):
    """The chunks one test event puts on the wire."""
    if name == "signal":
        return [sender.establishment_chunk()]
    if transition_id in ("data", "close"):
        return sender.send_frame(b"\xa5" * 8, end_of_connection=(name == "cst"))
    # Refused by both model and endpoint: the content is arbitrary, and
    # the sender's builder may already be closed by an earlier C.ST.
    return [make_chunk(units=4, c_id=CID)]


events = st.lists(st.sampled_from(sorted(EVENT_NAMES)), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(events)
def test_model_accepted_sequences_drive_the_live_endpoint(sequence):
    for kind, make_endpoint in ENDPOINTS.items():
        endpoint, owner = make_endpoint()
        sender = ChunkTransportSender(ConnectionConfig(connection_id=CID, tpdu_units=16))
        state = initial_state(MODEL)
        now = 0.0

        for name in sequence:
            step = model_step(state, EVENT_NAMES[name])
            if step is None:
                break  # conformance holds for the accepted prefix
            idx, transition = step
            state, _ = apply_step(state, idx, transition, STATE_TABLE, MODEL)
            now += 1.0

            if name == "sweep":
                endpoint.sweep(now=now)
                refused = 0
            else:
                chunks = wire_chunks(sender, name, transition.transition_id)
                refused = endpoint.receive_packet(
                    Packet(chunks=chunks).encode()
                ).refused_chunks

            # The model refuses exactly where the endpoint refuses.
            model_refused = transition.transition_id.startswith("refuse-")
            assert (refused > 0) == model_refused, (kind, name, transition.transition_id)

            # And the observable lifecycle class matches the model state.
            assert observe(endpoint, owner) == OBSERVABLE[state.convs[0].state], (
                kind,
                name,
                transition.transition_id,
                state.convs[0],
            )


@settings(max_examples=50, deadline=None)
@given(events)
def test_refusal_counters_split_like_the_model(sequence):
    # refuse-unknown bumps refused_unknown; refuse-evicted-* /
    # refuse-tombstoned bump refused_evicted.  Replay and compare the
    # per-kind refusal tallies (in refused chunks, so count per chunk).
    for kind, make_endpoint in ENDPOINTS.items():
        endpoint, _owner = make_endpoint()
        sender = ChunkTransportSender(ConnectionConfig(connection_id=CID, tpdu_units=16))
        state = initial_state(MODEL)
        now = 0.0
        expect_unknown = 0
        expect_evicted = 0

        for name in sequence:
            step = model_step(state, EVENT_NAMES[name])
            if step is None:
                break
            idx, transition = step
            state, _ = apply_step(state, idx, transition, STATE_TABLE, MODEL)
            now += 1.0
            if name == "sweep":
                endpoint.sweep(now=now)
                continue
            chunks = wire_chunks(sender, name, transition.transition_id)
            endpoint.receive_packet(Packet(chunks=chunks).encode())
            if transition.transition_id == "refuse-unknown":
                expect_unknown += len(chunks)
            elif transition.transition_id.startswith("refuse-"):
                expect_evicted += len(chunks)

        stats = endpoint.stats()
        assert stats["refused_unknown"] == expect_unknown, kind
        assert stats["refused_evicted"] == expect_evicted, kind
