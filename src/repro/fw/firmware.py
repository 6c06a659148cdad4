"""The SeaStar firmware model (sections 4.1–4.3 of the paper).

A single-threaded event loop on the embedded PowerPC: commands arrive in
per-process mailboxes, new-message notifications arrive from the RX DMA
engine, completion notifications from both engines.  Handlers run to
completion; each charges the PowerPC a cost from
:class:`~repro.hw.config.SeaStarConfig`.

Both operating modes are implemented:

* **generic** — the firmware copies headers to the host and interrupts it
  for every Portals decision (matching on the host).  This is the mode
  the paper measures.
* **accelerated** — matching runs here on the NIC via the same
  platform-independent :mod:`repro.portals.matching` logic the kernel
  uses, completions are written straight into user event queues, and no
  interrupts fire.  The paper describes this as in-progress future work;
  we implement it (the ablation benchmarks quantify what it buys).

Resource exhaustion follows section 4.3: free lists can empty.  Policy
``PANIC`` reproduces the current behaviour ("panic the node, which
results in application failure"); policy ``GO_BACK_N`` implements the
recovery protocol the authors were building — receivers NACK messages
they cannot accept (and everything after, in per-source message order)
and senders replay from the refused sequence after a backoff.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ..hw.config import SeaStarConfig
from ..hw.dma import DepositPlan, Transmission
from ..hw.seastar import SeaStar
from ..net.packet import WireChunk, chunk_message
from ..portals.constants import MsgType
from ..portals.errors import NicPanic
from ..portals.header import PortalsHeader, ProcessId
from ..portals.matching import commit_operation, match_request
from ..sim import Channel, Counters, Event, Simulator
from .commands import (
    FwEvent,
    FwEventKind,
    InitProcessCmd,
    NicStatsCmd,
    ReleasePendingCmd,
    RxDepositCmd,
    TxAckCmd,
    TxGetCmd,
    TxPutCmd,
    TxReplyCmd,
)
from .mailbox import Mailbox
from .structs import (
    FreeList,
    FwProcess,
    LowerPending,
    NicControlBlock,
    PendingKind,
    Source,
    UpperPending,
)

__all__ = ["Firmware", "ExhaustionPolicy", "RetxRecord"]


class ExhaustionPolicy(enum.Enum):
    """What to do when a firmware free list empties."""

    PANIC = "panic"
    GO_BACK_N = "go_back_n"


@dataclass(eq=False)
class RetxRecord:
    """Sender-side retransmission state for one in-flight-or-recent
    request (go-back-N)."""

    seq: int
    dst_node: int
    header: PortalsHeader
    payload: Optional[np.ndarray]
    proc: FwProcess
    lower: Optional[LowerPending]
    host_ctx: Any
    retries: int = 0

    acked: bool = False
    """Receiver confirmed delivery (via cumulative SACK, reliable mode)
    — or the record was superseded; never retransmit again."""

    failed: bool = False
    """Retries exhausted and SEND_FAILED surfaced; latched so the
    failure event fires exactly once per message."""

    ack_pending: bool = False
    """The initiator asked for a Portals ACK that has not arrived yet.

    A cumulative SACK proves the *data* landed (``acked``), but the ACK
    control message rides the same lossy wire back — a link that dies in
    that window eats the host's only terminal event.  While this flag is
    set the record still counts as live traffic for the peer monitor, so
    a peer-death declaration can sweep it into a SEND_FAILED verdict
    (Portals semantics: PTL_NI_FAIL means *not known to be delivered*,
    which is exactly the truth here)."""


class Firmware:
    """One node's firmware instance, attached to its SeaStar."""

    GENERIC_FW_PID = 1

    def __init__(
        self,
        sim: Simulator,
        config: SeaStarConfig,
        seastar: SeaStar,
        *,
        policy: ExhaustionPolicy = ExhaustionPolicy.PANIC,
    ):
        self.sim = sim
        self.config = config
        self.seastar = seastar
        self.node_id = seastar.node_id
        self.policy = policy
        self.panicked = False
        self.counters = Counters()
        self.tracer = None
        """Optional machine-wide :class:`~repro.sim.Tracer`; when set,
        the firmware emits per-message lifecycle records."""

        # SRAM layout: control block, then the global source pool.
        seastar.sram.reserve("nic_control_block", 1, 4096)
        sources = FreeList(
            [Source() for _ in range(config.num_sources)], name="sources"
        )
        seastar.sram.reserve(
            "sources", config.num_sources, config.source_struct_bytes
        )
        self.control = NicControlBlock(sources=sources)

        # Firmware-internal pendings for ACK/NAK/accelerated-REPLY traffic.
        self._pending_ids = itertools.count(1)
        self._pendings: dict[int, LowerPending] = {}
        self.internal_pool = self._make_pending_pool(
            fw_pid=0, count=config.fw_internal_pendings, name="fw_internal"
        )
        seastar.sram.reserve(
            "fw_internal_pendings",
            config.fw_internal_pendings,
            config.pending_struct_bytes,
        )

        self.processes: dict[int, FwProcess] = {}  # fw_pid -> process
        self.generic: Optional[FwProcess] = None
        self._accel_by_pid: dict[int, FwProcess] = {}
        self._fw_pids = itertools.count(self.GENERIC_FW_PID)

        # go-back-N sender state
        self._tx_history: dict[tuple[int, int], RetxRecord] = {}
        self._history_order: list[tuple[int, int]] = []
        self._retx_queues: dict[int, list[RetxRecord]] = {}
        self._retx_scheduled: set[int] = set()
        # reliable transport: highest cumulatively-SACKed seq per dst node
        self._acked_through: dict[int, int] = {}

        # crash / peer-death state (chaos machinery).  All of this stays
        # empty/None on a healthy run, so the hot path only ever pays
        # falsy attribute checks — the event schedule is untouched.
        self._dead = False
        self._crash_until: Optional[int] = None
        self._peer_timeout: Optional[int] = None
        self._peer_last_heard: dict[int, int] = {}
        self._peer_watches: set[int] = set()
        self._peer_dead: set[int] = set()
        self.peer_death_times: dict[int, int] = {}
        """When (ps) this firmware declared each peer dead."""

        self.work: Channel = Channel(sim, name=f"fwwork:{self.node_id}")
        seastar.attach_firmware(self._on_header)
        # fault injection: the pipe's reassembly stage reports messages
        # that failed the end-to-end CRC (or lost chunks) here
        seastar.port.on_transport_error = self._on_transport_error
        sim.process(self._main_loop(), name=f"fw:{self.node_id}")

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _make_pending_pool(self, fw_pid: int, count: int, name: str) -> FreeList:
        items = []
        for _ in range(count):
            pid = next(self._pending_ids)
            lower = LowerPending(pending_id=pid, owner_pid=fw_pid)
            lower.upper = UpperPending(pending_id=pid)
            self._pendings[pid] = lower
            items.append(lower)
        return FreeList(items, name=name)

    def register_generic(
        self, event_sink: Callable[[FwEvent], None]
    ) -> tuple[FwProcess, list[LowerPending]]:
        """Register the kernel's generic Portals process.

        Returns the process and the host-managed TX pending pool (the
        kernel owns its free list; the firmware only ever sees ids).
        """
        if self.generic is not None:
            raise RuntimeError("generic process already registered")
        proc, tx_pool = self._register(
            host_pid=-1,
            accelerated=False,
            event_sink=event_sink,
            tx_count=self.config.generic_tx_pendings,
            rx_count=self.config.generic_rx_pendings,
            ni=None,
        )
        self.generic = proc
        return proc, tx_pool

    def register_accelerated(
        self,
        host_pid: int,
        event_sink: Callable[[FwEvent], None],
        ni: Any,
    ) -> tuple[FwProcess, list[LowerPending]]:
        """Register an accelerated application process.

        Limited NIC resources bound how many fit (section 4.1: "one or
        two on each Catamount compute node") — the SRAM allocator enforces
        the real constraint.
        """
        if host_pid in self._accel_by_pid:
            raise RuntimeError(f"pid {host_pid} already accelerated")
        proc, tx_pool = self._register(
            host_pid=host_pid,
            accelerated=True,
            event_sink=event_sink,
            tx_count=self.config.accel_tx_pendings,
            rx_count=self.config.accel_rx_pendings,
            ni=ni,
        )
        self._accel_by_pid[host_pid] = proc
        return proc, tx_pool

    def _register(self, host_pid, accelerated, event_sink, tx_count, rx_count, ni):
        fw_pid = next(self._fw_pids)
        mailbox = Mailbox(self.sim, name=f"mbox:{self.node_id}:{fw_pid}")
        proc = FwProcess(
            fw_pid=fw_pid,
            host_pid=host_pid,
            accelerated=accelerated,
            mailbox=mailbox,
            event_sink=event_sink,
            ni=ni,
        )
        self.seastar.sram.reserve(
            f"pendings:fw_pid{fw_pid}",
            tx_count + rx_count,
            self.config.pending_struct_bytes,
        )
        rx_pool = self._make_pending_pool(fw_pid, rx_count, f"rx:{fw_pid}")
        proc.rx_pendings = rx_pool
        tx_pool_list = self._make_pending_pool(fw_pid, tx_count, f"tx:{fw_pid}")
        tx_items = [tx_pool_list.alloc() for _ in range(tx_count)]
        proc.tx_pendings = tx_pool_list  # drained: host manages these
        for lower in tx_items:
            proc.upper_table[lower.pending_id] = lower.upper
        self.processes[fw_pid] = proc
        self.sim.process(self._mailbox_pump(proc), name=f"mbpump:{fw_pid}")
        return proc, tx_items

    def _mailbox_pump(self, proc: FwProcess):
        while True:
            cmd = yield proc.mailbox.commands.get()
            proc.mailbox.commands.consumed()
            self.work.put(("cmd", proc, cmd))

    # ------------------------------------------------------------------
    # Hardware callbacks (run in engine process context — keep O(1))
    # ------------------------------------------------------------------
    def _on_header(self, chunk: WireChunk) -> None:
        self.work.put(("rx_header", chunk))

    def _on_transport_error(self, header: Optional[PortalsHeader], reason: str) -> None:
        self.work.put(("transport_error", header, reason))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _trace(self, category: str, **detail) -> None:
        if self.tracer is not None:
            detail["node"] = self.node_id
            self.tracer.emit(category, detail)

    def _span(self, name: str, msg_id: Optional[int] = None, **args):
        if self.tracer is None:
            return None
        return self.tracer.begin(
            name, node=self.node_id, component="fw", msg_id=msg_id, **args
        )

    def _span_end(self, span, **args) -> None:
        if span is not None:
            self.tracer.end(span, **args)

    def _end_tx_cmd_span(self, span, cmd) -> None:
        """Close a ``fw.tx_cmd`` span, backfilling the message id the
        chunker just assigned (both here and on the host's open
        ``host.tx_kernel`` span, which began before the id existed)."""
        if span is None:
            return
        lower = self._pendings[cmd.pending_id]
        if lower.msg_id > 0:
            span.msg_id = lower.msg_id
            host_span = getattr(cmd.host_ctx, "trace_span", None)
            if host_span is not None and host_span.msg_id is None:
                host_span.msg_id = lower.msg_id
        self.tracer.end(span)

    def _main_loop(self):
        ppc = self.seastar.ppc
        cfg = self.config
        # hoisted: one work item per message on the measured hot path,
        # and neither the channel nor the control block is ever replaced
        # (both live in SRAM and survive watchdog restarts)
        work_get = self.work.get
        control = self.control
        while True:
            item = yield work_get()
            if self._dead:
                # a dead firmware never touches another work item; park
                # on an event nobody will trigger so further traffic just
                # queues in the channel and the simulation still drains
                yield Event(self.sim)
            if self._crash_until is not None:
                # watchdog reboot in progress: SRAM (sources, seq state,
                # pendings) survives, queued work waits out the reset
                delay = self._crash_until - self.sim.now
                self._crash_until = None
                self.counters.incr("fw_restarts")
                if delay > 0:
                    yield delay
            control.heartbeat += 1
            kind = item[0]
            if kind == "cmd":
                _, proc, cmd = item
                yield from self._handle_command(proc, cmd)
            elif kind == "rx_header":
                yield from self._handle_rx_header(item[1])
            elif kind == "tx_done":
                yield from self._handle_tx_done(item[1], item[2])
            elif kind == "deposit_done":
                yield from self._handle_deposit_done(item[1], item[2])
            elif kind == "accel_deposit_done":
                yield from self._handle_accel_deposit_done(*item[1:])
            elif kind == "reply_done":
                yield from self._handle_reply_done(item[1], item[2])
            elif kind == "discard_done":
                yield from ppc.handler(cfg.fw_release_cmd)
            elif kind == "retransmit_flush":
                yield from self._handle_retransmit_flush(item[1])
            elif kind == "transport_error":
                yield from self._handle_transport_error(item[1], item[2])
            elif kind == "peer_dead":
                yield from self._handle_peer_dead(item[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown firmware work item {kind!r}")

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------
    def _handle_command(self, proc: FwProcess, cmd: Any):
        ppc = self.seastar.ppc
        cfg = self.config
        if isinstance(cmd, TxPutCmd):
            span = self._span("fw.tx_cmd", op="put")
            yield from ppc.handler(cfg.fw_tx_cmd + cfg.fw_tx_dma_setup)
            self._start_put(proc, cmd)
            self._end_tx_cmd_span(span, cmd)
        elif isinstance(cmd, TxGetCmd):
            span = self._span("fw.tx_cmd", op="get")
            yield from ppc.handler(cfg.fw_tx_cmd + cfg.fw_tx_dma_setup)
            self._start_get(proc, cmd)
            self._end_tx_cmd_span(span, cmd)
        elif isinstance(cmd, TxReplyCmd):
            span = self._span("fw.tx_cmd", op="reply")
            yield from ppc.handler(cfg.fw_tx_cmd + cfg.fw_tx_dma_setup)
            self._start_reply(proc, cmd)
            self._end_tx_cmd_span(span, cmd)
        elif isinstance(cmd, TxAckCmd):
            yield from ppc.handler(cfg.fw_tx_cmd)
            self._send_control(
                op=MsgType.ACK,
                dst_node=cmd.target.nid,
                dst_pid=cmd.target.pid,
                initiator_ctx=cmd.initiator_ctx,
                meta={"mlength": cmd.mlength, "offset": cmd.offset},
            )
        elif isinstance(cmd, RxDepositCmd):
            lower = self._pendings[cmd.pending_id]
            span = self._span("fw.rx_cmd", msg_id=lower.msg_id)
            extra = max(0, cmd.dma_commands - 1) * (cfg.fw_rx_dma_setup // 4)
            yield from ppc.handler(cfg.fw_rx_cmd + cfg.fw_rx_dma_setup + extra)
            self._program_deposit(proc, cmd)
            self._span_end(span)
        elif isinstance(cmd, ReleasePendingCmd):
            span = self._span("fw.release", pending_id=cmd.pending_id)
            yield from ppc.handler(cfg.fw_release_cmd)
            self._release_rx_pending(proc, cmd.pending_id)
            self._span_end(span)
        elif isinstance(cmd, InitProcessCmd):
            yield from ppc.handler(cfg.fw_tx_cmd)
            proc.mailbox.results.post({"ok": True, "fw_pid": proc.fw_pid})
        elif isinstance(cmd, NicStatsCmd):
            yield from ppc.handler(cfg.fw_tx_cmd)
            proc.mailbox.results.post(self.stats_snapshot())
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown firmware command {cmd!r}")

    # -- transmit path ----------------------------------------------------------
    def _start_put(self, proc: FwProcess, cmd: TxPutCmd) -> None:
        lower = self._pendings[cmd.pending_id]
        hdr = PortalsHeader(
            op=MsgType.PUT,
            src=ProcessId(self.node_id, proc.host_pid if proc.accelerated else cmd.host_ctx.src_pid),
            dst=cmd.target,
            ptl_index=cmd.ptl_index,
            match_bits=cmd.match_bits,
            length=cmd.length,
            offset=cmd.remote_offset,
            hdr_data=cmd.hdr_data,
            ack_req=cmd.ack_req,
            initiator_ctx=cmd.pending_id,
        )
        lower.kind = PendingKind.TX
        lower.state = "tx_queued"
        lower.header = hdr
        lower.dest_node = cmd.target.nid
        lower.upper.header = hdr
        lower.upper.host_ctx = cmd.host_ctx
        self._transmit_request(proc, lower, hdr, cmd.payload, cmd.host_ctx)

    def _start_get(self, proc: FwProcess, cmd: TxGetCmd) -> None:
        lower = self._pendings[cmd.pending_id]
        hdr = PortalsHeader(
            op=MsgType.GET,
            src=ProcessId(self.node_id, proc.host_pid if proc.accelerated else cmd.host_ctx.src_pid),
            dst=cmd.target,
            ptl_index=cmd.ptl_index,
            match_bits=cmd.match_bits,
            length=cmd.length,
            offset=cmd.remote_offset,
            initiator_ctx=cmd.pending_id,
        )
        lower.kind = PendingKind.TX
        lower.state = "get_outstanding"
        lower.header = hdr
        lower.reply_buffer = cmd.reply_buffer
        lower.direct_eq = cmd.direct_eq
        lower.md_ref = cmd.md_ref
        lower.dest_node = cmd.target.nid
        lower.upper.header = hdr
        lower.upper.host_ctx = cmd.host_ctx
        self._transmit_request(proc, lower, hdr, None, cmd.host_ctx)

    def _transmit_request(self, proc, lower, hdr, payload, host_ctx) -> None:
        if self._peer_dead and lower.dest_node in self._peer_dead:
            # the peer was already declared dead: fail fast instead of
            # burning a source + the full retry/backoff budget
            self.counters.incr("dead_peer_sends")
            proc.event_sink(
                FwEvent(
                    kind=FwEventKind.SEND_FAILED,
                    pending_id=lower.pending_id,
                    header=hdr,
                    host_ctx=host_ctx,
                )
            )
            return
        src = self.control.attach_source(lower.dest_node)
        if src is None:
            self._tx_source_exhausted(proc, lower, hdr, payload, host_ctx)
            return
        hdr.wire_seq = src.next_tx_seq
        src.next_tx_seq += 1
        if self.policy is ExhaustionPolicy.GO_BACK_N:
            reliable = self.config.reliable_transport
            record = RetxRecord(
                seq=hdr.wire_seq,
                dst_node=lower.dest_node,
                header=hdr,
                # With a lossy wire the host may legitimately reuse its
                # buffer after the local SEND_END, so the firmware must
                # retain the bytes it may need to retransmit (the real
                # NIC holds them in the TX pending's SRAM view).  On the
                # lossless default wire the original reference suffices.
                payload=(
                    np.array(payload, copy=True)
                    if reliable and payload is not None
                    else payload
                ),
                proc=proc,
                lower=lower,
                host_ctx=host_ctx,
                ack_pending=bool(hdr.ack_req),
            )
            self._record_history(record)
            if reliable:
                self.sim.process(
                    self._ack_watchdog(record),
                    name=f"fw:watchdog:{self.node_id}:{lower.dest_node}:{hdr.wire_seq}",
                )
                if self._peer_timeout is not None:
                    self._ensure_peer_watch(lower.dest_node)
        self._submit(proc, lower, hdr, payload)

    def _submit(self, proc, lower, hdr, payload) -> None:
        cfg = self.config
        inline = None
        body = hdr.length if hdr.op in (MsgType.PUT, MsgType.REPLY) else 0
        if body and body <= cfg.small_msg_bytes and payload is not None:
            inline = np.array(payload[:body], copy=True)
            hdr.inline_data = inline
            body = 0
        chunks = chunk_message(
            src=self.node_id,
            dst=hdr.dst.nid,
            header=hdr,
            body_bytes=body,
            payload=payload,
            packet_bytes=cfg.packet_bytes,
            chunk_bytes=cfg.chunk_bytes,
            inline_bytes=len(inline) if inline is not None else 0,
        )
        lower.msg_id = chunks[0].msg_id
        self.control.tx_pending_list.append(lower)
        self.counters.incr("tx_messages")
        self._trace(
            "fw.tx", op=hdr.op.value, msg_id=lower.msg_id, dst=hdr.dst.nid,
            nbytes=hdr.length,
        )
        tx = Transmission(
            chunks=chunks,
            on_sent=lambda _tx, p=proc, lo=lower: self.work.put(("tx_done", p, lo)),
            tag=lower,
        )
        self.seastar.tx.submit(tx)

    def _start_reply(self, proc: FwProcess, cmd: TxReplyCmd) -> None:
        lower = self._pendings[cmd.pending_id]
        hdr = PortalsHeader(
            op=MsgType.REPLY,
            src=ProcessId(self.node_id, proc.host_pid),
            dst=cmd.target,
            length=cmd.length,
            initiator_ctx=cmd.initiator_ctx,
        )
        if getattr(cmd, "failed", False):
            hdr.meta["failed"] = True
        lower.kind = PendingKind.TX
        lower.state = "reply_queued"
        lower.header = hdr
        lower.direct_eq = cmd.direct_eq
        lower.direct_event = cmd.direct_event
        lower.dest_node = cmd.target.nid
        lower.upper.header = hdr
        lower.upper.host_ctx = cmd.host_ctx
        self._submit(proc, lower, hdr, cmd.payload)

    def _send_control(
        self,
        *,
        op: MsgType,
        dst_node: int,
        dst_pid: int,
        initiator_ctx: Optional[int],
        meta: Optional[dict] = None,
        length: int = 0,
        payload: Optional[np.ndarray] = None,
    ) -> bool:
        """Send a firmware-originated control message (ACK/NAK/accel REPLY)
        from the internal pending pool.  Returns False when the pool is
        empty (control traffic is then dropped; senders recover by
        timeout/retry in go-back-N mode, and ACK loss is permitted by
        Portals semantics)."""
        lower = self.internal_pool.alloc()
        if lower is None:
            self.counters.incr("control_drops")
            return False
        hdr = PortalsHeader(
            op=op,
            src=ProcessId(self.node_id, 0),
            dst=ProcessId(dst_node, dst_pid),
            length=length,
            initiator_ctx=initiator_ctx,
        )
        if meta:
            hdr.meta.update(meta)
        lower.kind = PendingKind.TX
        lower.state = "control"
        lower.header = hdr
        lower.dest_node = dst_node
        self._submit_internal(lower, hdr, payload)
        return True

    def _submit_internal(self, lower, hdr, payload) -> None:
        cfg = self.config
        body = hdr.length if hdr.op is MsgType.REPLY else 0
        inline = None
        if body and body <= cfg.small_msg_bytes and payload is not None:
            inline = np.array(payload[:body], copy=True)
            hdr.inline_data = inline
            body = 0
        chunks = chunk_message(
            src=self.node_id,
            dst=hdr.dst.nid,
            header=hdr,
            body_bytes=body,
            payload=payload,
            packet_bytes=cfg.packet_bytes,
            chunk_bytes=cfg.chunk_bytes,
            inline_bytes=len(inline) if inline is not None else 0,
        )
        lower.msg_id = chunks[0].msg_id
        on_sent = lambda _tx, lo=lower: self._recycle_internal(lo)  # noqa: E731
        self.counters.incr("control_messages")
        self.seastar.tx.submit(Transmission(chunks=chunks, on_sent=on_sent, tag=lower))

    def _recycle_internal(self, lower: LowerPending) -> None:
        lower.reset()
        self.internal_pool.free(lower)

    # -- deposit programming ------------------------------------------------------
    def _program_deposit(self, proc: FwProcess, cmd: RxDepositCmd) -> None:
        lower = self._pendings[cmd.pending_id]
        plan = DepositPlan(
            msg_id=lower.msg_id,
            dest=cmd.dest,
            accept_bytes=cmd.accept_bytes,
            on_complete=lambda _p, pr=proc, lo=lower: self.work.put(
                ("deposit_done", pr, lo)
            ),
            tag=lower,
        )
        assert self.seastar.rx is not None
        self.seastar.rx.program(plan)

    def _program_discard(self, msg_id: int) -> None:
        plan = DepositPlan(
            msg_id=msg_id,
            dest=None,
            accept_bytes=0,
            on_complete=lambda _p: self.work.put(("discard_done",)),
        )
        assert self.seastar.rx is not None
        self.seastar.rx.program(plan)
        self.counters.incr("discards")

    def _release_rx_pending(self, proc: FwProcess, pending_id: int) -> None:
        lower = self._pendings[pending_id]
        src = self.control.lookup_source(lower.header.src.nid) if lower.header else None
        if src is not None and lower in src.rx_pending_list:
            src.rx_pending_list.remove(lower)
        lower.reset()
        proc.rx_pendings.free(lower)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _handle_rx_header(self, chunk: WireChunk):
        ppc = self.seastar.ppc
        cfg = self.config
        hdr: PortalsHeader = chunk.header
        span = self._span("fw.rx", msg_id=chunk.msg_id, op=hdr.op.value)
        yield from ppc.handler(cfg.fw_rx_header)
        self.counters.incr("rx_headers")
        if self._peer_timeout is not None:
            # any traffic from a peer proves it alive (SACKs included)
            self._peer_last_heard[hdr.src.nid] = self.sim.now
        self._trace(
            "fw.rx_header", op=hdr.op.value, msg_id=chunk.msg_id,
            src=hdr.src.nid, nbytes=hdr.length,
        )

        if hdr.op is MsgType.PUT or hdr.op is MsgType.GET:
            yield from self._rx_request(chunk, hdr)
        elif hdr.op is MsgType.REPLY:
            yield from self._rx_reply(chunk, hdr)
        elif hdr.op is MsgType.ACK:
            yield from self._rx_ack(chunk, hdr)
        elif hdr.op is MsgType.NAK:
            yield from self._rx_nak(chunk, hdr)
        elif hdr.op is MsgType.SACK:
            yield from self._rx_sack(hdr)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown wire op {hdr.op}")
        self._span_end(span)

    def _rx_request(self, chunk: WireChunk, hdr: PortalsHeader):
        cfg = self.config
        ppc = self.seastar.ppc
        source = self.control.attach_source(hdr.src.nid)
        if source is None:
            yield from self._rx_exhausted(chunk, hdr, None, "sources")
            return

        # go-back-N: per-source request ordering.
        if hdr.wire_seq < source.expect_rx_seq:
            # Duplicate of something already accepted; drain and drop.
            # In reliable mode re-SACK so a spurious (timeout-raced)
            # retransmission terminates the sender's watchdog even if
            # the original SACK was itself lost.
            self.counters.incr("duplicates")
            if cfg.reliable_transport:
                yield from ppc.charge(cfg.fw_tx_cmd)
                self._send_transport_ack(hdr.src.nid, source.expect_rx_seq - 1)
            if not chunk.is_last:
                self._program_discard(chunk.msg_id)
            return
        if hdr.wire_seq > source.expect_rx_seq:
            # A predecessor was refused; refuse this too to preserve order.
            yield from self._rx_exhausted(chunk, hdr, source, "order")
            return

        proc = self._accel_by_pid.get(hdr.dst.pid, self.generic)
        if proc is None:
            raise RuntimeError("no firmware process registered for traffic")
        lower = proc.rx_pendings.alloc()
        if lower is None:
            yield from self._rx_exhausted(chunk, hdr, source, "pendings")
            return

        source.expect_rx_seq += 1
        if source.rejecting_from_seq is not None:
            source.rejecting_from_seq = None
            self.counters.incr("gobackn_recovered")
        if cfg.reliable_transport:
            # cumulative transport ack: everything through this seq is in
            yield from ppc.charge(cfg.fw_tx_cmd)
            self._send_transport_ack(hdr.src.nid, source.expect_rx_seq - 1)

        lower.kind = PendingKind.RX
        lower.state = "rx_header"
        lower.header = hdr
        lower.msg_id = chunk.msg_id
        lower.upper.header = hdr
        lower.upper.inline_data = hdr.inline_data
        source.rx_pending_list.append(lower)

        if proc.accelerated:
            yield from self._rx_request_accel(proc, lower, chunk, hdr)
        else:
            # Generic: copy header (and inline payload) to the host's
            # upper pending, post the event, raise the interrupt.
            yield from ppc.charge(cfg.fw_event_post + cfg.fw_interrupt_raise)
            proc.event_sink(
                FwEvent(
                    kind=FwEventKind.RX_HEADER,
                    pending_id=lower.pending_id,
                    header=hdr,
                    msg_id=chunk.msg_id,
                )
            )

    def _rx_request_accel(self, proc, lower, chunk, hdr):
        """Accelerated mode: matching on the NIC, no interrupts."""
        cfg = self.config
        ppc = self.seastar.ppc
        yield from ppc.charge(cfg.fw_match_overhead)
        result = match_request(proc.ni.table, hdr)
        mlist = proc.ni.table.match_list(hdr.ptl_index)
        if not result.matched:
            proc.ni.counters.incr("drops")
            self.counters.incr("accel_drops")
            if not chunk.is_last:
                self._program_discard(chunk.msg_id)
            if hdr.op is MsgType.GET:
                # the initiator is waiting on a reply: send a zero-length
                # one flagged as dropped (mirrors the generic kernel path)
                self._send_control(
                    op=MsgType.REPLY,
                    dst_node=hdr.src.nid,
                    dst_pid=hdr.src.pid,
                    initiator_ctx=hdr.initiator_ctx,
                    meta={"failed": True},
                )
            self._release_accel_pending(proc, lower)
            return
        start_events = commit_operation(mlist, result, hdr, started=True)
        for ev in start_events:
            yield from ppc.charge(cfg.fw_event_post)
            result.md.eq.post(ev)

        if hdr.op is MsgType.GET:
            data = result.md.region(result.offset, result.mlength)
            sent = self._send_control(
                op=MsgType.REPLY,
                dst_node=hdr.src.nid,
                dst_pid=hdr.src.pid,
                initiator_ctx=hdr.initiator_ctx,
                length=result.mlength,
                payload=data,
            )
            if not sent:
                self.counters.incr("accel_reply_drops")
            end_events = commit_operation(mlist, result, hdr, started=False)
            for ev in end_events:
                yield from ppc.charge(cfg.fw_event_post)
                result.md.eq.post(ev)
            self._release_accel_pending(proc, lower)
            return

        # PUT
        if hdr.inline_data is not None or hdr.length == 0:
            if result.mlength > 0:
                dest = result.md.region(result.offset, result.mlength)
                dest[:] = hdr.inline_data[: result.mlength]
                yield from ppc.charge(cfg.ht_write_latency)
            yield from self._accel_complete_put(proc, lower, hdr, result, mlist)
            return
        # Payload message: program the engine (even when truncation left
        # nothing to accept — the wire must drain), finish at deposit_done.
        yield from ppc.charge(cfg.fw_rx_dma_setup)
        dest = (
            result.md.region(result.offset, result.mlength)
            if result.mlength > 0
            else None
        )
        plan = DepositPlan(
            msg_id=lower.msg_id,
            dest=dest,
            accept_bytes=result.mlength,
            on_complete=lambda _p, a=(proc, lower, hdr, result, mlist): self.work.put(
                ("accel_deposit_done",) + a
            ),
            tag=lower,
        )
        assert self.seastar.rx is not None
        self.seastar.rx.program(plan)

    def _accel_complete_put(self, proc, lower, hdr, result, mlist):
        cfg = self.config
        ppc = self.seastar.ppc
        end_events = commit_operation(mlist, result, hdr, started=False)
        for ev in end_events:
            yield from ppc.charge(cfg.fw_event_post)
            result.md.eq.post(ev)
        if hdr.ack_req and result.md.eq is not None:
            from ..portals.constants import MDOptions

            if not (result.md.options & MDOptions.ACK_DISABLE):
                self._send_control(
                    op=MsgType.ACK,
                    dst_node=hdr.src.nid,
                    dst_pid=hdr.src.pid,
                    initiator_ctx=hdr.initiator_ctx,
                    meta={"mlength": result.mlength, "offset": result.offset},
                )
        self._release_accel_pending(proc, lower)

    def _handle_accel_deposit_done(self, proc, lower, hdr, result, mlist):
        yield from self.seastar.ppc.handler(self.config.fw_event_post)
        yield from self._accel_complete_put(proc, lower, hdr, result, mlist)

    def _release_accel_pending(self, proc, lower) -> None:
        src = self.control.lookup_source(lower.header.src.nid)
        if src is not None and lower in src.rx_pending_list:
            src.rx_pending_list.remove(lower)
        lower.reset()
        proc.rx_pendings.free(lower)

    def _rx_reply(self, chunk: WireChunk, hdr: PortalsHeader):
        cfg = self.config
        ppc = self.seastar.ppc
        lower = self._pendings.get(hdr.initiator_ctx)
        if lower is None or lower.state != "get_outstanding":
            self.counters.incr("orphan_replies")
            if not chunk.is_last:
                self._program_discard(chunk.msg_id)
            return
        proc = self.processes.get(lower.owner_pid)
        irq = 0 if proc.accelerated else cfg.fw_interrupt_raise
        if hdr.meta.get("failed"):
            lower.state = "reply_failed"
            yield from ppc.charge(cfg.fw_event_post + irq)
            proc.event_sink(
                FwEvent(
                    kind=FwEventKind.REPLY_COMPLETE,
                    pending_id=lower.pending_id,
                    header=hdr,
                    host_ctx=lower.upper.host_ctx,
                    mlength=0,
                    meta={"failed": True},
                )
            )
            return
        if hdr.inline_data is not None or hdr.length == 0:
            if hdr.length > 0:
                lower.reply_buffer[: hdr.length] = hdr.inline_data[: hdr.length]
                yield from ppc.charge(cfg.ht_write_latency)
            yield from self._complete_reply(proc, lower, hdr)
            return
        # Payload reply: the GET's own pending tracks the deposit — "the
        # lower pending structure can be set up immediately" without host
        # involvement.
        yield from ppc.charge(cfg.fw_rx_dma_setup)
        plan = DepositPlan(
            msg_id=chunk.msg_id,
            dest=lower.reply_buffer[: hdr.length],
            accept_bytes=hdr.length,
            on_complete=lambda _p, pr=proc, lo=lower, h=hdr: self.work.put(
                ("reply_done", pr, (lo, h))
            ),
            tag=lower,
        )
        assert self.seastar.rx is not None
        self.seastar.rx.program(plan)

    def _handle_reply_done(self, proc, payload):
        lower, hdr = payload
        yield from self.seastar.ppc.handler(0)
        yield from self._complete_reply(proc, lower, hdr)

    def _complete_reply(self, proc, lower, hdr):
        """Finish a GET at the initiator.

        When the host supplied a user EQ reference (generic mode), the
        firmware writes REPLY_END straight into process space — the
        initiator needs no Portals matching for a reply, so the
        completion interrupt is unnecessary (section 3.1: the firmware
        delivers "notifications to user-level event queues").  The
        kernel still gets a lazily-delivered bookkeeping event so the
        pending returns to the host pool on its next interrupt.
        """
        cfg = self.config
        ppc = self.seastar.ppc
        lower.state = "reply_done"
        if lower.direct_eq is not None and not proc.accelerated:
            yield from ppc.charge(cfg.fw_event_post)
            md = lower.md_ref
            if md is not None:
                md.pending_ops -= 1
            from ..portals.constants import EventKind as _EK
            from ..portals.constants import NIFailType as _NF
            from ..portals.events import PortalsEvent as _PE

            lower.direct_eq.post(
                _PE(
                    kind=_EK.REPLY_END,
                    initiator=hdr.src,
                    mlength=hdr.length,
                    rlength=lower.header.length if lower.header else hdr.length,
                    md_user_ptr=md.user_ptr if md is not None else None,
                    md_handle=md,
                    ni_fail_type=_NF.OK,
                )
            )
            proc.event_sink(
                FwEvent(
                    kind=FwEventKind.REPLY_COMPLETE,
                    pending_id=lower.pending_id,
                    header=hdr,
                    host_ctx=lower.upper.host_ctx,
                    mlength=hdr.length,
                    meta={"lazy": True, "direct_done": True},
                )
            )
            return
        irq = 0 if proc.accelerated else cfg.fw_interrupt_raise
        yield from ppc.charge(cfg.fw_event_post + irq)
        proc.event_sink(
            FwEvent(
                kind=FwEventKind.REPLY_COMPLETE,
                pending_id=lower.pending_id,
                header=hdr,
                host_ctx=lower.upper.host_ctx,
                mlength=hdr.length,
            )
        )

    def _rx_ack(self, chunk: WireChunk, hdr: PortalsHeader):
        cfg = self.config
        lower = self._pendings.get(hdr.initiator_ctx)
        if lower is None or lower.upper is None or lower.upper.host_ctx is None:
            self.counters.incr("orphan_acks")
            return
        # The host's terminal event is here: the retransmit record no
        # longer needs the peer monitor guarding its verdict.
        for (node, _seq), record in self._tx_history.items():
            if node == hdr.src.nid and record.lower is lower:
                record.ack_pending = False
                break
        proc = self.processes.get(lower.owner_pid)
        irq = 0 if proc.accelerated else cfg.fw_interrupt_raise
        yield from self.seastar.ppc.charge(cfg.fw_event_post + irq)
        proc.event_sink(
            FwEvent(
                kind=FwEventKind.ACK_RECEIVED,
                pending_id=lower.pending_id,
                header=hdr,
                host_ctx=lower.upper.host_ctx,
                mlength=hdr.meta.get("mlength", 0),
                offset=hdr.meta.get("offset", 0),
            )
        )

    # ------------------------------------------------------------------
    # Transmit completion
    # ------------------------------------------------------------------
    def _handle_tx_done(self, proc, lower: LowerPending):
        span = self._span(
            "fw.tx_done", msg_id=lower.msg_id if lower.msg_id > 0 else None
        )
        try:
            yield from self._tx_done_body(proc, lower)
        finally:
            self._span_end(span)

    def _tx_done_body(self, proc, lower: LowerPending):
        cfg = self.config
        ppc = self.seastar.ppc
        if lower in self.control.tx_pending_list:
            self.control.tx_pending_list.remove(lower)
        hdr = lower.header
        if hdr is not None and hdr.op is MsgType.GET:
            # The GET pending stays live until the reply consumes it.
            yield from ppc.handler(0)
            return
        if lower.state == "retransmit":
            # go-back-N replay: firmware-internal, no host notification
            yield from ppc.handler(cfg.fw_release_cmd)
            if lower.owner_pid == 0:
                self._recycle_internal(lower)
            return
        if (
            hdr is not None
            and hdr.op is MsgType.REPLY
            and lower.direct_event is not None
            and lower.direct_eq is not None
            and not proc.accelerated
        ):
            # Write GET_END straight into the target process's EQ; the
            # kernel reconciles (commit + pending recycle) lazily.
            yield from ppc.handler(cfg.fw_event_post)
            lower.direct_eq.post(lower.direct_event)
            proc.event_sink(
                FwEvent(
                    kind=FwEventKind.TX_COMPLETE,
                    pending_id=lower.pending_id,
                    header=hdr,
                    host_ctx=lower.upper.host_ctx if lower.upper else None,
                    meta={"lazy": True, "direct_done": True},
                    msg_id=lower.msg_id,
                )
            )
            return
        irq = 0 if (proc is not None and proc.accelerated) else cfg.fw_interrupt_raise
        yield from ppc.handler(cfg.fw_event_post + irq)
        proc.event_sink(
            FwEvent(
                kind=FwEventKind.TX_COMPLETE,
                pending_id=lower.pending_id,
                header=hdr,
                host_ctx=lower.upper.host_ctx if lower.upper else None,
                msg_id=lower.msg_id,
            )
        )

    # ------------------------------------------------------------------
    # Exhaustion and go-back-N
    # ------------------------------------------------------------------
    def _rx_exhausted(self, chunk: WireChunk, hdr: PortalsHeader, source, what: str):
        self.counters.incr(f"exhausted_{what}")
        if self.policy is ExhaustionPolicy.PANIC and what != "order":
            self.panicked = True
            raise NicPanic(
                f"node {self.node_id}: {what} pool exhausted by message from "
                f"{hdr.src} (the paper's current behaviour: panic the node)"
            )
        # go-back-N refusal
        yield from self.seastar.ppc.charge(self.config.fw_tx_cmd)
        if source is not None and source.rejecting_from_seq is None:
            source.rejecting_from_seq = hdr.wire_seq
        if not chunk.is_last:
            self._program_discard(chunk.msg_id)
        self.counters.incr("naks_sent")
        self._send_control(
            op=MsgType.NAK,
            dst_node=hdr.src.nid,
            dst_pid=hdr.src.pid,
            initiator_ctx=hdr.initiator_ctx,
            meta={"nak_seq": hdr.wire_seq, "nak_node": self.node_id},
        )

    def _tx_source_exhausted(self, proc, lower, hdr, payload, host_ctx) -> None:
        self.counters.incr("exhausted_tx_sources")
        if self.policy is ExhaustionPolicy.PANIC:
            self.panicked = True
            raise NicPanic(
                f"node {self.node_id}: source pool exhausted on transmit to "
                f"node {lower.dest_node}"
            )
        record = RetxRecord(
            seq=-1,
            dst_node=lower.dest_node,
            header=hdr,
            payload=payload,
            proc=proc,
            lower=lower,
            host_ctx=host_ctx,
            ack_pending=bool(hdr.ack_req),
        )
        self._queue_retransmit(record)

    def _record_history(self, record: RetxRecord) -> None:
        key = (record.dst_node, record.seq)
        self._tx_history[key] = record
        self._history_order.append(key)
        while len(self._history_order) > 1024:
            old = self._history_order.pop(0)
            self._tx_history.pop(old, None)

    def _rx_nak(self, chunk: WireChunk, hdr: PortalsHeader):
        yield from self.seastar.ppc.charge(self.config.fw_tx_cmd)
        self.counters.incr("naks_received")
        seq = hdr.meta.get("nak_seq")
        node = hdr.meta.get("nak_node")
        record = self._tx_history.get((node, seq))
        if record is None:
            self.counters.incr("nak_unmatched")
            return
        self._queue_retransmit(record)

    def _send_transport_ack(self, dst_node: int, through_seq: int) -> None:
        """Send a cumulative SACK: requests through ``through_seq`` are in.

        Control-pool exhaustion just drops it — the sender's watchdog
        retransmits and the duplicate path re-SACKs later.
        """
        sent = self._send_control(
            op=MsgType.SACK,
            dst_node=dst_node,
            dst_pid=0,
            initiator_ctx=None,
            meta={"ack_through": through_seq, "ack_node": self.node_id},
        )
        if sent:
            self.counters.incr("sacks_sent")

    def _rx_sack(self, hdr: PortalsHeader):
        yield from self.seastar.ppc.charge(self.config.fw_release_cmd)
        self.counters.incr("sacks_received")
        node = hdr.meta.get("ack_node")
        through = hdr.meta.get("ack_through", -1)
        if node is None:
            return
        if through > self._acked_through.get(node, -1):
            self._acked_through[node] = through
        for (dst, seq), record in self._tx_history.items():
            if dst == node and seq <= through:
                record.acked = True

    def _handle_transport_error(self, hdr: Optional[PortalsHeader], reason: str):
        """A message failed the end-to-end 32-bit CRC (or lost chunks).

        The RX path detected damage before anything reached Portals;
        charge the CRC-verdict handler and NAK the sender so go-back-N
        replays the message.  ``hdr`` is None when the header chunk
        itself was lost — then only the sender's watchdog can recover.
        """
        cfg = self.config
        yield from self.seastar.ppc.handler(cfg.fw_crc_check)
        self.counters.incr("crc_errors" if reason == "corrupt" else "transport_losses")
        self._trace(
            "fw.transport_error",
            reason=reason,
            op=hdr.op.value if hdr is not None else None,
            src=hdr.src.nid if hdr is not None else None,
        )
        if hdr is None:
            self.counters.incr("headerless_losses")
            return
        if (
            hdr.op in (MsgType.PUT, MsgType.GET)
            and self.policy is ExhaustionPolicy.GO_BACK_N
        ):
            source = self.control.lookup_source(hdr.src.nid)
            if source is not None and hdr.wire_seq < source.expect_rx_seq:
                # a damaged *duplicate* of something already accepted:
                # don't NAK backwards, just restate where we are
                if cfg.reliable_transport:
                    self._send_transport_ack(hdr.src.nid, source.expect_rx_seq - 1)
                return
            self.counters.incr("naks_sent")
            self._send_control(
                op=MsgType.NAK,
                dst_node=hdr.src.nid,
                dst_pid=hdr.src.pid,
                initiator_ctx=hdr.initiator_ctx,
                meta={"nak_seq": hdr.wire_seq, "nak_node": self.node_id},
            )
        else:
            # damaged control traffic (ACK/NAK/SACK/REPLY) carries no
            # wire_seq; timers and duplicate re-SACKs absorb the loss
            self.counters.incr("control_message_losses")

    def _backoff_delay(self, attempt: int, base: Optional[int] = None) -> int:
        """Exponential retransmit backoff: ``base * factor**attempt``.

        Capped by ``gobackn_backoff_max`` (but never below ``base``, so
        callers with a large size-scaled base still wait at least one
        expected round trip)."""
        cfg = self.config
        if base is None:
            base = cfg.gobackn_backoff
        delay = int(base * cfg.gobackn_backoff_factor ** min(attempt, 32))
        return min(delay, max(base, cfg.gobackn_backoff_max))

    def _expected_wire_time(self, length: int) -> int:
        """Rough lower bound on one message's transmit+wire time (ps)."""
        cfg = self.config
        npackets = 1 + cfg.packets_for(length)
        return npackets * cfg.bottleneck_per_packet()

    def _ack_watchdog(self, record: RetxRecord):
        """Reliable transport: retransmit on timeout until SACKed.

        The base delay scales with the message's expected wire time (a
        64 KB message takes longer to arrive than a SACK round trip) and
        grows exponentially with each attempt.  Terminates as soon as
        the record is acked or declared failed, so a run always drains.
        """
        cfg = self.config
        base = cfg.retransmit_timeout + 2 * self._expected_wire_time(
            record.header.length
        )
        attempt = 0
        while True:
            yield self._backoff_delay(attempt, base)
            if record.acked or record.failed:
                return
            if self._dead:
                # this firmware crashed for good; without the exit the
                # watchdog would retransmit forever and the run would
                # never drain
                return
            if record.seq <= self._acked_through.get(record.dst_node, -1):
                record.acked = True
                return
            attempt += 1
            self.counters.incr("timeout_retransmits")
            self._queue_retransmit(record)

    def _queue_retransmit(self, record: RetxRecord) -> None:
        if record.acked or record.failed:
            return
        queue = self._retx_queues.setdefault(record.dst_node, [])
        if record not in queue:
            queue.append(record)
        if record.dst_node not in self._retx_scheduled:
            self._retx_scheduled.add(record.dst_node)
            delay = self._backoff_delay(record.retries)
            self.sim.process(self._retx_timer(record.dst_node, delay))

    def _retx_timer(self, dst_node: int, delay: int):
        yield delay
        self.counters.incr("backoff_time_ps", delay)
        self.work.put(("retransmit_flush", dst_node))

    def _handle_retransmit_flush(self, dst_node: int):
        cfg = self.config
        self._retx_scheduled.discard(dst_node)
        queue = self._retx_queues.pop(dst_node, [])
        queue.sort(key=lambda r: r.seq)
        for record in queue:
            if record.acked or record.failed:
                # SACKed (or already failed) while waiting out the
                # backoff: nothing to replay
                self.counters.incr("retransmits_suppressed")
                continue
            yield from self.seastar.ppc.handler(cfg.fw_tx_cmd)
            record.retries += 1
            if record.retries > cfg.gobackn_max_retries:
                # latch the failure so the host sees exactly one
                # SEND_FAILED per message no matter how many NAKs or
                # timeouts still reference the record
                record.failed = True
                self.counters.incr("gobackn_failures")
                record.proc.event_sink(
                    FwEvent(
                        kind=FwEventKind.SEND_FAILED,
                        pending_id=record.lower.pending_id if record.lower else -1,
                        header=record.header,
                        host_ctx=record.host_ctx,
                    )
                )
                continue
            self.counters.incr("retransmits")
            lower = record.lower
            if lower is None or lower.state == "free":
                # The original pending was already recycled (PUT completed
                # from the TX side's view); replay from an internal one.
                lower = self.internal_pool.alloc()
                if lower is None:
                    self._queue_retransmit(record)
                    continue
                lower.kind = PendingKind.TX
                lower.state = "retransmit"
                lower.header = record.header
                lower.dest_node = record.dst_node
                lower.upper.host_ctx = record.host_ctx
                record.lower = lower
            if record.seq < 0:
                # Deferred first transmission (source exhaustion on TX).
                # The attempt supersedes this placeholder record: a
                # successful transmit records fresh history under the
                # real seq, a re-exhaustion queues a fresh placeholder.
                record.acked = True
                self._transmit_request(
                    record.proc, lower, record.header, record.payload, record.host_ctx
                )
            else:
                # Replays are firmware-internal: the host already saw its
                # local completion; don't notify it again at tx_done.
                if record.header.op is not MsgType.GET:
                    lower.state = "retransmit"
                record.header.inline_data = None
                self._submit(record.proc, lower, record.header, record.payload)

    def release_host_refs(self) -> None:
        """Drop every pending's references into host memory once the run
        is over.

        A pending the host recycles keeps its last operation's reply
        buffer, MD, event and host context until it is reused, and the
        pools live as long as the machine.
        """
        for lower in self._pendings.values():
            lower.reply_buffer = None
            lower.md_ref = None
            lower.direct_event = None
            if lower.upper is not None:
                lower.upper.host_ctx = None

    # ------------------------------------------------------------------
    # Crash injection and peer-death detection (chaos campaigns)
    # ------------------------------------------------------------------
    def crash(self, restart_after: Optional[int] = None) -> None:
        """Stop the embedded PowerPC at work-item granularity.

        ``restart_after=None`` is permanent (node death): the main loop
        parks forever on the next work item and arriving traffic queues
        unprocessed.  A positive value models the NIC watchdog rebooting
        the firmware after that many ps — SRAM state survives the reset,
        so the go-back-N sequence space stays coherent and queued work
        simply drains late.
        """
        self.counters.incr("fw_crashes")
        if restart_after is None:
            self._dead = True
        else:
            self._crash_until = self.sim.now + restart_after
        self._trace("fw.crash", restart_after=restart_after)

    def enable_peer_monitor(self, timeout_ps: int) -> None:
        """Arm passive peer-liveness detection.

        There is no explicit heartbeat message (a perpetual ticker would
        keep the event heap alive forever and the simulation would never
        drain): the reliable transport's SACK stream *is* the liveness
        signal.  While this node holds unacked traffic for a peer, a
        watch process polls; ``timeout_ps`` of SACK silence declares the
        peer dead and fails every outstanding message exactly once.
        """
        if timeout_ps <= 0:
            raise ValueError("peer monitor timeout must be > 0")
        self._peer_timeout = timeout_ps

    def _ensure_peer_watch(self, dst: int) -> None:
        if dst in self._peer_watches or dst in self._peer_dead:
            return
        self._peer_watches.add(dst)
        self._peer_last_heard.setdefault(dst, self.sim.now)
        self.sim.process(
            self._watch_peer(dst), name=f"fw:peerwatch:{self.node_id}:{dst}"
        )

    def _live_records_to(self, dst: int) -> bool:
        """Any record toward ``dst`` still owed a terminal verdict?

        Unacked data is live; so is SACKed data whose Portals ACK has
        not come back (``ack_pending``) — losing that ACK to a dead link
        must not strand the host without a terminal event.
        """
        for (node, _seq), record in self._tx_history.items():
            if node != dst or record.failed:
                continue
            if not record.acked or record.ack_pending:
                return True
        return False

    def _watch_peer(self, dst: int):
        """Poll SACK recency while traffic to ``dst`` is outstanding.

        Exits as soon as nothing is owed (so a run always drains) or the
        peer is declared dead; new sends re-arm the watch.
        """
        timeout = self._peer_timeout
        assert timeout is not None
        poll = max(1, timeout // 4)
        try:
            while True:
                yield poll
                if self._dead or dst in self._peer_dead:
                    return
                if not self._live_records_to(dst):
                    return
                if self.sim.now - self._peer_last_heard.get(dst, 0) >= timeout:
                    self.work.put(("peer_dead", dst))
                    return
        finally:
            self._peer_watches.discard(dst)

    def _handle_peer_dead(self, node: int):
        """Declare ``node`` dead: fail all outstanding traffic to it.

        Idempotent — records fully resolved (SACKed with the Portals ACK
        in hand, or already failed) in the window between the watch
        firing and this handler running are skipped, and the
        ``acked``/``failed`` latches keep the host's view at exactly one
        terminal event per message.  Records still awaiting an ACK are
        swept even when the data was SACKed: the ACK died with the link.
        """
        cfg = self.config
        yield from self.seastar.ppc.handler(cfg.fw_tx_cmd)
        if node in self._peer_dead:
            return
        self._peer_dead.add(node)
        self.peer_death_times[node] = self.sim.now
        self.counters.incr("peer_deaths_detected")
        self._trace("fw.peer_dead", peer=node)
        for (dst, _seq), record in list(self._tx_history.items()):
            if dst != node or record.failed:
                continue
            if record.acked and not record.ack_pending:
                continue
            # A SACKed record with ack_pending set lost its Portals ACK
            # to the dead link: the data landed, but the initiator does
            # not know it.  PTL_NI_FAIL ("not known to be delivered") is
            # the honest exactly-once verdict.
            record.failed = True
            self.counters.incr("peer_death_failures")
            yield from self.seastar.ppc.charge(cfg.fw_event_post)
            record.proc.event_sink(
                FwEvent(
                    kind=FwEventKind.SEND_FAILED,
                    pending_id=record.lower.pending_id if record.lower else -1,
                    header=record.header,
                    host_ctx=record.host_ctx,
                )
            )

    # ------------------------------------------------------------------
    # Generic deposit completion
    # ------------------------------------------------------------------
    def _handle_deposit_done(self, proc, lower: LowerPending):
        cfg = self.config
        span = self._span(
            "fw.rx_complete", msg_id=lower.msg_id if lower.msg_id > 0 else None
        )
        irq = 0 if proc.accelerated else cfg.fw_interrupt_raise
        yield from self.seastar.ppc.handler(cfg.fw_event_post + irq)
        lower.state = "rx_done"
        proc.event_sink(
            FwEvent(
                kind=FwEventKind.RX_COMPLETE,
                pending_id=lower.pending_id,
                header=lower.header,
                msg_id=lower.msg_id,
            )
        )
        self._span_end(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Firmware counters + pool occupancy (NicStatsCmd result)."""
        return {
            "counters": self.counters.snapshot(),
            "heartbeat": self.control.heartbeat,
            "sources_in_use": self.control.sources.in_use,
            "sources_high_water": self.control.sources.high_water,
            "sram_used": self.seastar.sram.used_bytes,
            "sram_free": self.seastar.sram.free_bytes,
        }
