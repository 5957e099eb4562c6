"""Property suite: the segment framer forms the chunks Figure 2's rule forms.

``ChunkStreamBuilder.add_frame`` cuts each frame at TPDU and frame ends
and builds one chunk per segment.  The oracle is the per-unit path: label
every atomic unit with its (C, T, X) tuples and group them with
:func:`chunks_from_labels`, the Section 2 sharing rule.  Frame by frame,
both must return the same chunks and leave the builder in the same state,
whatever the unit size, TPDU size changes, frame IDs and payload types.
"""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import ChunkStreamBuilder, LabeledUnit, chunks_from_labels
from repro.core.chunk import Chunk
from repro.core.tuples import FramingTuple
from tests.conftest import make_payload


def add_frame_per_unit(
    builder: ChunkStreamBuilder,
    payload: bytes,
    frame_id: int | None = None,
    end_of_connection: bool = False,
) -> list[Chunk]:
    """The per-unit labeller: one ``LabeledUnit`` per atomic unit, then
    Figure 2's grouping.  Advances *builder*'s state as ``add_frame`` does."""
    x_id = next(builder.xpdu_ids) if frame_id is None else frame_id
    unit_bytes = builder.unit_bytes
    n_units = len(payload) // unit_bytes
    units: list[LabeledUnit] = []
    for i in range(n_units):
        last_of_frame = i == n_units - 1
        last_of_tpdu = builder._t_sn == builder._current_tpdu_units - 1
        if end_of_connection and last_of_frame:
            last_of_tpdu = True
        units.append(
            LabeledUnit(
                data=payload[i * unit_bytes : (i + 1) * unit_bytes],
                c=FramingTuple(
                    builder.connection_id,
                    builder._c_sn,
                    st=end_of_connection and last_of_frame,
                ),
                t=FramingTuple(builder._t_id, builder._t_sn, st=last_of_tpdu),
                x=FramingTuple(x_id, i, st=last_of_frame),
                size=builder.unit_words,
            )
        )
        builder._c_sn += 1
        if last_of_tpdu:
            builder._t_id = next(builder.tpdu_ids)
            builder._t_sn = 0
            builder._current_tpdu_units = builder.tpdu_units
        else:
            builder._t_sn += 1
    if end_of_connection:
        builder._closed = True
    return chunks_from_labels(units)


PAYLOAD_TYPES = (bytes, bytearray, memoryview)

frames = st.lists(
    st.tuples(
        st.integers(1, 200),  # units in the frame
        st.one_of(st.none(), st.integers(0, 0xFFFF)),  # explicit frame_id
        st.one_of(st.none(), st.integers(1, 64)),  # set_tpdu_units first
        st.sampled_from(PAYLOAD_TYPES),
    ),
    min_size=1,
    max_size=12,
)


@given(
    unit_words=st.sampled_from((1, 2, 3)),
    tpdu_units=st.integers(1, 64),
    connection_id=st.integers(0, 0xFFFFFFFF),
    start_c_sn=st.integers(0, 1 << 24),
    first_tpdu_id=st.integers(0, 1000),
    frames=frames,
    close=st.booleans(),
)
def test_segment_framer_matches_per_unit_labelling(
    unit_words, tpdu_units, connection_id, start_c_sn, first_tpdu_id, frames, close
):
    def builder() -> ChunkStreamBuilder:
        return ChunkStreamBuilder(
            connection_id=connection_id,
            tpdu_units=tpdu_units,
            unit_words=unit_words,
            start_c_sn=start_c_sn,
            tpdu_ids=itertools.count(first_tpdu_id),
        )

    framer, oracle = builder(), builder()
    for index, (units, frame_id, resize, kind) in enumerate(frames):
        if resize is not None:
            framer.set_tpdu_units(resize)
            oracle.set_tpdu_units(resize)
        data = make_payload(units, unit_words, seed=index + 1)
        end = close and index == len(frames) - 1
        got = framer.add_frame(kind(data), frame_id=frame_id, end_of_connection=end)
        want = add_frame_per_unit(oracle, data, frame_id=frame_id, end_of_connection=end)
        assert got == want
        assert all(type(chunk.payload) is bytes for chunk in got)
        assert framer.current_tpdu_id == oracle.current_tpdu_id
        assert framer.next_c_sn == oracle.next_c_sn
