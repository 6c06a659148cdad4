"""Wire chunking: framing invariants and payload slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import WireChunk, chunk_message, next_message_id


def _chunks(body, chunk_bytes=4096, packet=64, inline=0, payload=None):
    return chunk_message(
        src=0,
        dst=1,
        header="H",
        body_bytes=body,
        payload=payload,
        packet_bytes=packet,
        chunk_bytes=chunk_bytes,
        inline_bytes=inline,
    )


class TestChunking:
    def test_header_only_message(self):
        chunks = _chunks(0)
        assert len(chunks) == 1
        c = chunks[0]
        assert c.is_header and c.is_last and c.seq == 0 and c.npackets == 1

    def test_inline_bytes_recorded_on_header(self):
        chunks = _chunks(0, inline=12)
        assert chunks[0].nbytes == 12
        assert chunks[0].is_last

    def test_multi_chunk_framing(self):
        chunks = _chunks(10000, chunk_bytes=4096)
        assert [c.seq for c in chunks] == [0, 1, 2, 3]
        assert chunks[0].is_header and not chunks[0].is_last
        assert chunks[-1].is_last
        assert sum(c.nbytes for c in chunks[1:]) == 10000

    def test_packet_counts_round_up(self):
        chunks = _chunks(65, chunk_bytes=4096)
        assert chunks[1].npackets == 2  # 65 bytes -> 2 x 64B packets

    def test_payload_views_cover_message(self):
        payload = np.arange(10000, dtype=np.uint8)
        chunks = _chunks(10000, payload=payload)
        rebuilt = np.concatenate([c.payload for c in chunks[1:]])
        assert np.array_equal(rebuilt, payload)

    def test_shared_message_id(self):
        chunks = _chunks(9000)
        assert len({c.msg_id for c in chunks}) == 1

    def test_message_ids_unique_across_messages(self):
        a = _chunks(100)[0].msg_id
        b = _chunks(100)[0].msg_id
        assert a != b

    def test_explicit_message_id(self):
        chunks = _chunks(0)
        forced = chunk_message(
            src=0, dst=1, header="H", body_bytes=0,
            packet_bytes=64, chunk_bytes=4096, msg_id=12345,
        )
        assert forced[0].msg_id == 12345
        assert chunks[0].msg_id != 12345

    def test_bad_chunk_bytes_rejected(self):
        with pytest.raises(ValueError):
            _chunks(100, chunk_bytes=100)  # not multiple of 64
        with pytest.raises(ValueError):
            _chunks(100, chunk_bytes=32)  # smaller than a packet

    def test_negative_body_rejected(self):
        with pytest.raises(ValueError):
            _chunks(-1)

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            WireChunk(
                msg_id=1, src=0, dst=1, seq=0, npackets=0,
                nbytes=0, is_header=True, is_last=True,
            )
        with pytest.raises(ValueError):
            WireChunk(
                msg_id=1, src=0, dst=1, seq=0, npackets=1,
                nbytes=0, is_header=False, is_last=True,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.integers(0, 200_000),
        chunk_kb=st.sampled_from([64, 256, 1024, 4096, 8192]),
    )
    def test_framing_invariants(self, body, chunk_kb):
        chunks = _chunks(body, chunk_bytes=chunk_kb)
        # exactly one header, exactly one last, sequential seq
        assert sum(c.is_header for c in chunks) == 1
        assert sum(c.is_last for c in chunks) == 1
        assert chunks[-1].is_last
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        # body bytes conserved
        assert sum(c.nbytes for c in chunks[1:]) == body
        # payload packets consistent with sizes
        for c in chunks[1:]:
            assert c.npackets == -(-c.nbytes // 64)
            assert 0 < c.nbytes <= chunk_kb

    def test_next_message_id_monotonic(self):
        a = next_message_id()
        b = next_message_id()
        assert b == a + 1


def _oracle_chunks(
    *, body, chunk_bytes, packet, inline, payload, msg_id, header="H"
):
    """Reference chunker: one eagerly built WireChunk per chunk."""
    chunks = [
        WireChunk(
            msg_id=msg_id, src=0, dst=1, seq=0, npackets=1, nbytes=inline,
            is_header=True, is_last=body == 0, header=header,
        )
    ]
    offset = 0
    seq = 1
    while offset < body:
        take = min(chunk_bytes, body - offset)
        chunks.append(
            WireChunk(
                msg_id=msg_id, src=0, dst=1, seq=seq,
                npackets=-(-take // packet), nbytes=take, is_header=False,
                is_last=offset + take >= body, header=None,
                payload=(
                    payload[offset : offset + take]
                    if payload is not None else None
                ),
                payload_offset=offset,
            )
        )
        offset += take
        seq += 1
    return chunks


def _same_chunk(a, b):
    for name in (
        "msg_id", "src", "dst", "seq", "npackets", "nbytes", "is_header",
        "is_last", "header", "payload_offset", "meta",
    ):
        assert getattr(a, name) == getattr(b, name), name
    if b.payload is None:
        assert a.payload is None
    else:
        assert np.array_equal(a.payload, b.payload)


@pytest.mark.property
@settings(max_examples=200, deadline=None)
@given(
    packet=st.sampled_from([8, 16, 64]),
    packets_per_chunk=st.integers(1, 4),
    body_chunks=st.integers(0, 3),
    tail=st.integers(0, 255),
    inline=st.integers(0, 12),
    with_payload=st.booleans(),
)
def test_train_matches_list_oracle(
    packet, packets_per_chunk, body_chunks, tail, inline, with_payload
):
    chunk_bytes = packet * packets_per_chunk
    body = body_chunks * chunk_bytes + tail % chunk_bytes
    payload = (
        (np.arange(body) % 251).astype(np.uint8) if with_payload else None
    )
    train = _chunks(
        body, chunk_bytes=chunk_bytes, packet=packet, inline=inline,
        payload=payload,
    )
    oracle = _oracle_chunks(
        body=body, chunk_bytes=chunk_bytes, packet=packet, inline=inline,
        payload=payload, msg_id=train[0].msg_id,
    )
    n = len(oracle)
    assert len(train) == n
    assert train.total_bytes == sum(c.nbytes for c in oracle)
    # indexing, negative indexing, slicing and iteration all materialize
    # the same chunks the oracle builds eagerly
    for got, want in zip(train, oracle, strict=True):
        _same_chunk(got, want)
    for i in range(-n, n):
        _same_chunk(train[i], oracle[i])
    for got, want in zip(train[1:], oracle[1:], strict=True):
        _same_chunk(got, want)
    with pytest.raises(IndexError):
        train[n]
    # every payload chunk is built fresh, with its own meta
    if n > 1:
        assert train[1] is not train[1]
        assert train[1].meta is not train[1].meta
    for i in range(n):
        assert train.npackets(i) == oracle[i].npackets
        # O(1) run end == brute-force maximal equal-npackets scan
        end = i + 1
        while end < n and oracle[end].npackets == oracle[i].npackets:
            end += 1
        assert train.run_end(i) == end, i
    for start in range(1, n):
        for end in range(start + 1, n + 1):
            assert train.body_range(start, end) == (
                oracle[start].payload_offset,
                sum(c.nbytes for c in oracle[start:end]),
            )
