"""Wire-level message representation.

The SeaStar router moves fixed 64-byte packets; simulating 8 MB transfers
packet-by-packet would cost ~131k events per message, so the fabric moves
**chunks** — runs of consecutive packets belonging to one message — whose
durations are computed from per-packet costs (see
``SeaStarConfig.chunk_bytes``).  A chunk with ``seq == 0`` carries the
message header (and any piggybacked small payload); subsequent chunks carry
payload ranges as zero-copy references into the sender's buffer.

:func:`chunk_message` returns a :class:`MessageTrain`: the header chunk
plus a descriptor of the body (``body_bytes``, ``chunk_bytes``,
``packet_bytes`` and the payload reference).  Every payload chunk but the
last is full-size, so chunk ``i``'s size, byte range and packet count —
and the end of the equal-``npackets`` *run* it belongs to — are
arithmetic.  The train indexes like a list of :class:`WireChunk`, but a
payload chunk object is built only when it is indexed, i.e. when it really
travels the chunk-exact pipeline; the TX bulk path deposits a whole run as
one byte range and never builds its chunks.

In-order, fixed-path delivery means a message's chunks always arrive in
``seq`` order, which the receive logic asserts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional, overload

__all__ = ["WireChunk", "MessageTrain", "chunk_message", "next_message_id"]

_msg_counter = itertools.count(1)


def next_message_id() -> int:
    """Globally unique wire message id (monotonic)."""
    return next(_msg_counter)


@dataclass(eq=False, slots=True)
class WireChunk:
    """A contiguous run of packets of one message on the wire.

    Attributes
    ----------
    msg_id:
        Wire message identifier; all chunks of one message share it.
    src, dst:
        Source and destination node ids.
    seq:
        Chunk sequence number within the message; 0 is the header chunk.
    npackets:
        Number of 64-byte packets this chunk represents (>= 1).
    nbytes:
        Payload bytes carried (0 for a bare header chunk).
    is_header / is_last:
        Message framing flags.  A single-chunk message has both set.
    header:
        The Portals wire header object (header chunks only).
    payload:
        Zero-copy reference (e.g. a NumPy view) to this chunk's payload
        range in the sender's buffer, or None.
    payload_offset:
        Offset of this chunk's payload within the message body.
    """

    msg_id: int
    src: int
    dst: int
    seq: int
    npackets: int
    nbytes: int
    is_header: bool
    is_last: bool
    header: Any = None
    payload: Any = None
    payload_offset: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.npackets < 1:
            raise ValueError("a chunk carries at least one packet")
        if self.seq == 0 and not self.is_header:
            raise ValueError("chunk 0 must be the header chunk")


@dataclass(eq=False)
class MessageTrain(Sequence[WireChunk]):
    """One message's wire chunks: a header chunk plus a body descriptor.

    ``len()``, indexing and iteration see the logical chunks, header
    first.  Index 0 is always the same header object; a payload chunk is
    built fresh (with its own ``meta``) on every access, so a caller that
    needs one object per chunk indexes each position once.
    """

    head: WireChunk
    body_bytes: int
    chunk_bytes: int
    packet_bytes: int
    payload: Any = None

    def __post_init__(self) -> None:
        nbody = -(-self.body_bytes // self.chunk_bytes)
        self._n = 1 + nbody
        self._full_packets = self.chunk_bytes // self.packet_bytes
        tail = self.body_bytes - (nbody - 1) * self.chunk_bytes if nbody else 0
        self._tail_bytes = tail
        self._tail_packets = -(-tail // self.packet_bytes)

    @property
    def msg_id(self) -> int:
        """Wire message id shared by every chunk."""
        return self.head.msg_id

    @property
    def total_bytes(self) -> int:
        """Payload bytes of the message, inline header bytes included."""
        return self.head.nbytes + self.body_bytes

    def __len__(self) -> int:
        return self._n

    @overload
    def __getitem__(self, i: int) -> WireChunk: ...

    @overload
    def __getitem__(self, i: slice) -> list[WireChunk]: ...

    def __getitem__(self, i: int | slice) -> WireChunk | list[WireChunk]:
        if isinstance(i, slice):
            return [self.chunk(k) for k in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("chunk index out of range")
        return self.chunk(i)

    def __iter__(self) -> Iterator[WireChunk]:
        for i in range(self._n):
            yield self.chunk(i)

    def npackets(self, i: int) -> int:
        """Packets of chunk ``i`` (``0 <= i < len``), without building it."""
        if i == 0:
            return 1
        return self._tail_packets if i == self._n - 1 else self._full_packets

    def run_end(self, i: int) -> int:
        """Exclusive end of the maximal equal-``npackets`` run holding ``i``.

        Payload chunks are full-size except possibly the last, so a run
        breaks at most at the header and at the tail; a tail whose packet
        count rounds up to a full chunk's joins the run.
        """
        n = self._n
        if i == 0:
            return n if n > 1 and self.npackets(1) == 1 else 1
        if i == n - 1 or self._tail_packets == self._full_packets:
            return n
        return n - 1

    def body_range(self, start: int, end: int) -> tuple[int, int]:
        """``(offset, nbytes)`` of the body carried by chunks ``[start, end)``
        (``1 <= start < end <= len``)."""
        offset = (start - 1) * self.chunk_bytes
        return offset, min(self.body_bytes, (end - 1) * self.chunk_bytes) - offset

    def chunk(self, i: int) -> WireChunk:
        """Build chunk ``i`` (``0 <= i < len``); index 0 is the header."""
        if i == 0:
            return self.head
        head = self.head
        offset = (i - 1) * self.chunk_bytes
        is_last = i == self._n - 1
        take = self._tail_bytes if is_last else self.chunk_bytes
        # __new__ + direct stores: the dataclass kwargs/__post_init__ path
        # costs more than the rest of this method, and every invariant it
        # checks holds by construction (npackets >= 1, seq > 0)
        c = WireChunk.__new__(WireChunk)
        c.msg_id = head.msg_id
        c.src = head.src
        c.dst = head.dst
        c.seq = i
        c.npackets = self._tail_packets if is_last else self._full_packets
        c.nbytes = take
        c.is_header = False
        c.is_last = is_last
        c.header = None
        payload = self.payload
        c.payload = payload[offset : offset + take] if payload is not None else None
        c.payload_offset = offset
        c.meta = {}
        return c


def chunk_message(
    *,
    src: int,
    dst: int,
    header: Any,
    body_bytes: int,
    payload: Any = None,
    packet_bytes: int,
    chunk_bytes: int,
    inline_bytes: int = 0,
    msg_id: Optional[int] = None,
) -> MessageTrain:
    """Describe one message as a train of wire chunks.

    ``body_bytes`` is the payload carried in dedicated payload packets
    (i.e. excluding any bytes piggybacked in the header packet, which the
    caller accounts for via ``inline_bytes`` purely for bookkeeping).
    ``payload`` must support slicing if ``body_bytes > 0``.
    """
    if body_bytes < 0:
        raise ValueError("body_bytes must be >= 0")
    if chunk_bytes < packet_bytes or chunk_bytes % packet_bytes:
        raise ValueError("chunk_bytes must be a positive multiple of packet_bytes")
    head = WireChunk(
        msg_id=next_message_id() if msg_id is None else msg_id,
        src=src,
        dst=dst,
        seq=0,
        npackets=1,
        nbytes=inline_bytes,
        is_header=True,
        is_last=body_bytes == 0,
        header=header,
    )
    return MessageTrain(
        head,
        body_bytes=body_bytes,
        chunk_bytes=chunk_bytes,
        packet_bytes=packet_bytes,
        payload=payload,
    )
