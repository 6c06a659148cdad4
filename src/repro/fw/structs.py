"""Firmware data structures (Figure 3 of the paper).

* :class:`LowerPending` — in SeaStar SRAM; everything the firmware needs
  to progress one message.
* :class:`UpperPending` — the 1-1 mapped host-memory half; everything the
  *host* needs about the message.  The firmware only ever writes it
  (reading across HT is a costly round trip).
* :class:`Source` — per-peer-node state: the RX pending list and, for the
  go-back-N extension, sequencing state.
* :class:`FwProcess` — one firmware-level process (the generic kernel
  implementation, or an accelerated application) with its mailbox, event
  sink and two pending pools (RX managed by firmware, TX managed by the
  host).
* :class:`NicControlBlock` — the single global block: source free list and
  hash, TX pending list, counters.

There is **no dynamic allocation**: pools are fixed at init and carved
from the 384 KB SRAM allocator, so exhaustion is a real, observable
condition (section 4.3).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..portals.header import PortalsHeader
from ..sim import Counters

__all__ = [
    "PendingKind",
    "LowerPending",
    "UpperPending",
    "Source",
    "FwProcess",
    "NicControlBlock",
    "FreeList",
]


class FreeList:
    """A fixed pool of pre-allocated structures.

    ``alloc`` returns None when empty — the caller decides between panic
    and go-back-N recovery.  Statistics track the high-water mark so runs
    can verify the paper's observation that usage never approached
    dangerous levels.
    """

    def __init__(self, items: list, name: str = ""):
        self.name = name
        self.capacity = len(items)
        self._free = deque(items)
        self.high_water = 0

    def alloc(self):
        """Take one item, or None when exhausted."""
        if not self._free:
            return None
        item = self._free.popleft()
        in_use = self.capacity - len(self._free)
        if in_use > self.high_water:
            self.high_water = in_use
        return item

    def free(self, item) -> None:
        """Return one item to the pool."""
        if len(self._free) >= self.capacity:
            raise RuntimeError(f"free list {self.name!r} over-freed")
        self._free.append(item)

    @property
    def available(self) -> int:
        """Items currently free."""
        return len(self._free)

    @property
    def in_use(self) -> int:
        """Items currently allocated."""
        return self.capacity - len(self._free)


class PendingKind(enum.Enum):
    """What a pending structure is tracking."""

    TX = "tx"
    RX = "rx"


@dataclass(eq=False)
class UpperPending:
    """Host-memory half of a pending (1-1 mapped with the lower half)."""

    pending_id: int
    header: Optional[PortalsHeader] = None
    inline_data: Optional[np.ndarray] = None
    host_ctx: Any = None
    """Opaque host-side context (the kernel's in-flight operation record
    or the accelerated library's MD reference)."""


@dataclass(eq=False)
class LowerPending:
    """SRAM half of a pending: progression state + buffer info."""

    pending_id: int
    owner_pid: int
    kind: Optional[PendingKind] = None
    state: str = "free"
    header: Optional[PortalsHeader] = None
    reply_buffer: Optional[np.ndarray] = None
    """GET pendings: where the reply payload must land."""

    direct_eq: Any = None
    """GET pendings (generic mode): the user-level event queue the
    firmware writes REPLY_END into directly — no matching is needed at
    the initiator, so no interrupt is either (section 3.1: the firmware
    delivers "notifications to user-level event queues")."""

    md_ref: Any = None
    """GET pendings: the initiating MD, echoed into the completion event."""

    direct_event: Any = None
    """REPLY pendings: pre-built GET_END the firmware posts into
    ``direct_eq`` when the reply has been sent."""

    msg_id: int = 0
    dest_node: int = -1
    retries: int = 0
    upper: Optional[UpperPending] = None

    def reset(self) -> None:
        """Scrub for return to the free list."""
        self.kind = None
        self.state = "free"
        self.header = None
        self.reply_buffer = None
        self.direct_eq = None
        self.md_ref = None
        self.direct_event = None
        self.msg_id = 0
        self.dest_node = -1
        self.retries = 0
        if self.upper is not None:
            self.upper.header = None
            self.upper.inline_data = None
            self.upper.host_ctx = None


@dataclass(eq=False)
class Source:
    """Per-peer-node state (one pool for the whole firmware)."""

    src_node: int = -1
    rx_pending_list: deque = field(default_factory=deque)
    active: bool = False

    # go-back-N sequencing (message-level)
    next_tx_seq: int = 0
    """Next wire sequence this node will assign when *sending to* the
    peer (kept here on the sending side's source struct for the peer)."""

    expect_rx_seq: int = 0
    """Next request sequence expected *from* the peer."""

    rejecting_from_seq: Optional[int] = None
    """While recovering, the first sequence that was NACKed; later
    sequences are also refused until the sender rolls back."""

    def reset(self) -> None:
        """Scrub for return to the free list (sequence state survives a
        reallocation for the same peer only because lookups are hashed by
        node; a recycled struct starts clean)."""
        self.src_node = -1
        self.rx_pending_list.clear()
        self.active = False
        self.next_tx_seq = 0
        self.expect_rx_seq = 0
        self.rejecting_from_seq = None


@dataclass(eq=False)
class FwProcess:
    """One firmware-level process (Figure 2's mailbox owners)."""

    fw_pid: int
    host_pid: int
    accelerated: bool
    mailbox: Any
    event_sink: Callable[[Any], None]
    """Deliver one firmware event to this process's host-side event queue
    (the kernel EQ for generic, the user EQ machinery for accelerated)."""

    tx_pendings: FreeList = None  # type: ignore[assignment]
    rx_pendings: FreeList = None  # type: ignore[assignment]
    upper_table: dict[int, UpperPending] = field(default_factory=dict)
    ni: Any = None
    """Accelerated only: the process's NetworkInterface for firmware-side
    matching."""

    stats: Counters = field(default_factory=Counters)


@dataclass(eq=False)
class NicControlBlock:
    """The single global firmware control block."""

    sources: FreeList = None  # type: ignore[assignment]
    source_hash: dict[int, Source] = field(default_factory=dict)
    tx_pending_list: deque = field(default_factory=deque)
    heartbeat: int = 0
    counters: Counters = field(default_factory=Counters)

    def lookup_source(self, node: int) -> Optional[Source]:
        """Hash-table lookup of the source struct for ``node``."""
        return self.source_hash.get(node)

    def attach_source(self, node: int) -> Optional[Source]:
        """Find-or-allocate the source struct for ``node``.

        Returns None when the source pool is exhausted.
        """
        src = self.source_hash.get(node)
        if src is not None:
            return src
        src = self.sources.alloc()
        if src is None:
            return None
        src.src_node = node
        src.active = True
        self.source_hash[node] = src
        return src
