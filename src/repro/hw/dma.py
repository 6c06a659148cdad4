"""TX and RX DMA engine models.

The engines are the SeaStar's workhorses: the TX engine reads message data
from host memory over HT and packetizes it onto the wire; the RX engine
de-multiplexes arriving packets into host buffers *according to commands
programmed by the firmware* (section 4.3).  Both are modeled as single
processes with an effective per-64-byte-packet processing cost that was
derived from the paper's measured peak bandwidth (see
``SeaStarConfig.tx_dma_per_packet``) — that one number subsumes the HT
transfer, engine occupancy and link serialization of the steady-state
pipeline, which is why per-chunk HT time is *not* charged separately (it
would double count the bottleneck).  One HT round-trip latency is charged
per message for the initial descriptor/data fetch.

Key behavioural points reproduced:

* All transmits serialize through a single TX FIFO regardless of
  destination (paper: section 4.3) — the engine is one process.
* A transmit yields when the wire backs up (the fabric window models the
  TX FIFO filling).
* The RX engine can only deposit a message once the firmware has
  programmed a :class:`DepositPlan` for it; payload chunks of an
  unprogrammed message stall the engine (head-of-line), which is the
  mechanism behind both the generic-mode latency shape and the resource-
  exhaustion scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..net.fabric import Fabric, NetworkPort
from ..net.packet import MessageTrain, WireChunk
from ..sim import Channel, Counters, Event, Simulator
from .config import SeaStarConfig

__all__ = ["Transmission", "DepositPlan", "TxDmaEngine", "RxDmaEngine"]


@dataclass(eq=False)
class Transmission:
    """One message queued on the TX engine."""

    chunks: MessageTrain
    on_sent: Callable[["Transmission"], None]
    """Invoked when the last chunk has been handed to the wire — the point
    at which the firmware unlinks the TX pending and posts completion."""

    tag: Any = None
    """Opaque firmware context (the lower pending)."""

    started_at: Optional[int] = None
    finished_at: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        """Payload bytes (including any inline header payload)."""
        return self.chunks.total_bytes


@dataclass(eq=False)
class DepositPlan:
    """Firmware-programmed instructions for depositing one message.

    ``dest`` is a writable NumPy byte view (or None to discard);
    ``accept_bytes`` bounds how much of the body is stored (truncation —
    the rest is discarded, "implicitly the number of bytes to discard" in
    the paper's receive-command description).
    """

    msg_id: int
    dest: Optional[np.ndarray]
    accept_bytes: int
    on_complete: Callable[["DepositPlan"], None]
    tag: Any = None
    deposited_bytes: int = 0
    discarded_bytes: int = 0
    meta: dict = field(default_factory=dict)


class TxDmaEngine:
    """Transmit side: streams queued transmissions onto the fabric."""

    def __init__(
        self,
        sim: Simulator,
        config: SeaStarConfig,
        fabric: Fabric,
        node_id: int,
    ):
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.node_id = node_id
        self.queue: Channel = Channel(sim, name=f"txq:{node_id}")
        self.counters = Counters()
        self.busy_time = 0
        self.tracer = None
        """Optional machine-wide :class:`~repro.sim.SpanTracer`."""
        self.m_busy = None
        """Optional metrics :class:`~repro.metrics.Timeline` (chunk engine)."""
        self.m_fetch = None
        """Optional metrics timeline for the per-message HT header fetch."""
        self.m_msg_bytes = None
        """Optional metrics :class:`~repro.metrics.Histogram` of message sizes."""
        sim.process(self._run(), name=f"txdma:{node_id}")

    def submit(self, tx: Transmission) -> None:
        """Enqueue a message for transmission (firmware-side call)."""
        if not tx.chunks:
            raise ValueError("transmission has no chunks")
        self.queue.put(tx)
        self.counters.incr("submitted")

    def _run(self):
        cfg = self.config
        sim = self.sim
        queue_get = self.queue.get
        fabric_send = self.fabric.send
        counts = self.counters.counts()
        per_packet = cfg.tx_dma_per_packet
        ht_read = cfg.ht_read_latency
        while True:
            tx: Transmission = yield queue_get()
            tx.started_at = sim.now
            tracer = self.tracer
            m_busy = self.m_busy
            span = (
                tracer.begin("txdma.fetch", node=self.node_id,
                             component="txdma", msg_id=tx.chunks.msg_id)
                if tracer is not None else None
            )
            # Initial fetch of header/descriptor from host memory.
            # (int yields are flattened sleeps — see repro.sim.core)
            yield ht_read
            if tracer is not None:
                tracer.end(span)
            if self.m_fetch is not None:
                self.m_fetch.add(sim.now - ht_read, sim.now)
            train = tx.chunks
            n = len(train)
            # A span tracer observes every chunk boundary, so the whole
            # message runs chunk-exact; busy timelines take a bulk run as
            # one closed-form record (_bulk_commit).
            may_bulk = sim.bulk_events and tracer is None
            i = 0
            while i < n:
                npackets = train.npackets(i)
                cspan = (
                    tracer.begin("txdma.chunk", node=self.node_id,
                                 component="txdma", msg_id=train.msg_id,
                                 seq=i, npackets=npackets)
                    if tracer is not None else None
                )
                cost = npackets * per_packet
                yield cost
                self.busy_time += cost
                if m_busy is not None:
                    m_busy.add(sim.now - cost, sim.now)
                if may_bulk and i > 0:
                    # The previous chunk drained during this chunk's cost
                    # sleep (the clean-pipe inequality _bulk_ready checks),
                    # so the pipe is provably quiescent right now — the one
                    # point where batching is sound.  The run-final chunk
                    # always goes through the real pipeline so a trailing
                    # odd-size chunk overlaps an in-transit predecessor
                    # exactly as on the chunk-exact path.
                    last = train.run_end(i) - 1
                    nbulk = last - i
                    if nbulk >= 1:
                        ready = self._bulk_ready(train, npackets, cost)
                        if ready is not None:
                            # one heap record stands in for nbulk full
                            # release/transit/deposit cycles
                            yield nbulk * cost
                            self.busy_time += nbulk * cost
                            self._bulk_commit(ready, train, i, last, counts)
                            sim.note_bulk(10 * nbulk - 1)
                            i = last
                # Only a chunk that really enters the wire is built.
                chunk = train.chunk(i)
                # Blocks when the wire window (TX FIFO) is full: the
                # transmit state machine "yields ... until there is more
                # room in the FIFO".
                yield fabric_send(chunk)
                if tracer is not None:
                    tracer.end(cspan)
                counts["packets"] += chunk.npackets
                i += 1
            tx.finished_at = sim.now
            counts["messages"] += 1
            if self.m_msg_bytes is not None:
                self.m_msg_bytes.observe(tx.total_bytes)
            tx.on_sent(tx)

    # -- bulk event batching --------------------------------------------------
    def _bulk_ready(self, train: MessageTrain, npackets: int, cost: int):
        """Prove the (src, dst) pipe is untraced, clean, and fast enough.

        Returns ``(rx_engine, plan, pipe)`` when a run of ``npackets``-sized
        chunks may be batched, else None.  The conditions mirror, one for
        one, every way a per-chunk boundary could be observed or could
        interleave with other traffic:

        * no span tracer or fault injector anywhere on the path (the
          engine's own tracer is checked by the caller).  A metrics
          registry does not refuse: its busy timelines and hop counter
          take the run in closed form;
        * no stochastic link retries (the RNG must be drawn per chunk);
        * exactly two attached ports — a third node could share the wire
          counters mid-run;
        * the clean-pipe inequality: one chunk's TX cost covers its whole
          serialize + flight + deposit transit, so the previous chunk has
          provably drained by the time the next is released;
        * serializer, in-flight window, arrival process, and RX engine all
          parked empty on their stores;
        * the receiver's :class:`DepositPlan` already programmed (a
          head-of-line stall must run chunk-exact).
        """
        fabric = self.fabric
        if (
            fabric.tracer is not None
            or fabric.injector is not None
            or len(fabric.ports) != 2
        ):
            return None
        cfg = self.config
        if cfg.link_crc_retry_prob > 0.0:
            return None
        pipe = fabric._pipes.get((train.head.src, train.head.dst))
        if pipe is None or pipe.hops < 1:
            return None
        link = fabric.link
        transit = link.chunk_transit_time(npackets, pipe.hops)
        if cost < transit + npackets * cfg.rx_dma_per_packet:
            return None
        window = pipe.window
        if window._items or window._putters or not window._getters:
            return None
        in_flight = pipe._in_flight
        if in_flight._items or in_flight._putters or not in_flight._getters:
            return None
        port = fabric.ports.get(train.head.dst)
        if port is None:
            return None
        rx_engine = port.rx_engine
        if (
            rx_engine is None
            or rx_engine.tracer is not None
            or rx_engine._plan_waiter is not None
        ):
            return None
        rx_store = port.rx
        if rx_store._items or rx_store._putters or not rx_store._getters:
            return None
        plan = rx_engine._plans.get(train.msg_id)
        if plan is None:
            return None
        return rx_engine, plan, pipe

    def _bulk_commit(self, ready, train: MessageTrain, start: int,
                     end: int, counts) -> None:
        """Commit the side effects of chunks ``[start, end)`` released in bulk.

        Every counter, busy-time, and deposit mutation the chunk-exact
        path would have made across those release/transit/deposit cycles,
        applied in one pass; the caller has already slept the batched TX
        cost and verified via :meth:`_bulk_ready` that nothing else could
        have touched the pipe in between.  Attached busy timelines and
        the wire hop counter take the run in closed form, and the run's
        payload lands as one byte-range deposit.
        """
        nbulk = end - start
        npackets = train.npackets(start)
        fabric = self.fabric
        cfg = self.config
        rx_engine, plan, pipe = ready
        cost = npackets * cfg.tx_dma_per_packet
        rx_cost = npackets * cfg.rx_dma_per_packet
        # chunk ``start`` was released at t0, one cost sleep before the
        # next; the run's wire and deposit stages follow at the same period
        t0 = self.sim.now - nbulk * cost
        if self.m_busy is not None:
            self.m_busy.add_run(t0, cost, cost, nbulk)
        if pipe.m_busy is not None:
            pipe.m_busy.add_run(t0, npackets * fabric.link.packet_time, cost, nbulk)
            pipe.m_hop_traversals.incr(pipe.hops * nbulk)
        if rx_engine.m_busy is not None:
            transit = fabric.link.chunk_transit_time(npackets, pipe.hops)
            rx_engine.m_busy.add_run(t0 + transit, rx_cost, cost, nbulk)
        counts["packets"] += npackets * nbulk
        fcounts = fabric.counters.counts()
        fcounts["chunks_sent"] += nbulk
        fcounts["packets_sent"] += npackets * nbulk
        fcounts["chunks_delivered"] += nbulk
        fabric.link.carry(npackets, nbulk)
        port = fabric.ports[train.head.dst]
        pcounts = port.stats.counts()
        pcounts["chunks_received"] += nbulk
        pcounts["packets_received"] += npackets * nbulk
        rx_engine.busy_time += rx_cost * nbulk
        rx_engine.counters.counts()["packets"] += npackets * nbulk
        offset, nbytes = train.body_range(start, end)
        data = train.payload
        if data is not None:
            data = data[offset : offset + nbytes]
        rx_engine._deposit(plan, offset, nbytes, data)


class RxDmaEngine:
    """Receive side: consumes arriving chunks from the node's port.

    Header chunks are handed to ``on_header`` (the firmware's new-message
    handler).  Payload chunks wait for their :class:`DepositPlan`, then are
    copied into the destination buffer with per-packet cost.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SeaStarConfig,
        port: NetworkPort,
        on_header: Callable[[WireChunk], None],
    ):
        self.sim = sim
        self.config = config
        self.port = port
        self.on_header = on_header
        self.counters = Counters()
        self.busy_time = 0
        self.tracer = None
        """Optional machine-wide :class:`~repro.sim.SpanTracer`."""
        self.m_busy = None
        """Optional metrics :class:`~repro.metrics.Timeline` (header+deposit)."""
        self._plans: dict[int, DepositPlan] = {}
        self._plan_waiter: Optional[tuple[int, Event]] = None
        # the TX-side bulk gate reaches the receive engine through the port
        port.rx_engine = self
        sim.process(self._run(), name=f"rxdma:{port.node_id}")

    # -- firmware interface ---------------------------------------------------
    def program(self, plan: DepositPlan) -> None:
        """Install the deposit plan for ``plan.msg_id`` (firmware call)."""
        if plan.msg_id in self._plans:
            raise ValueError(f"message {plan.msg_id} already programmed")
        self._plans[plan.msg_id] = plan
        if self._plan_waiter is not None and self._plan_waiter[0] == plan.msg_id:
            _, event = self._plan_waiter
            self._plan_waiter = None
            event.succeed(plan)

    def pending_plans(self) -> int:
        """Number of installed-but-unfinished plans."""
        return len(self._plans)

    # -- engine ----------------------------------------------------------------
    def _run(self):
        cfg = self.config
        sim = self.sim
        rx_get = self.port.rx.get
        plans = self._plans
        counts = self.counters.counts()
        per_packet = cfg.rx_dma_per_packet
        deposit = self._deposit
        while True:
            chunk: WireChunk = yield rx_get()
            tracer = self.tracer
            m_busy = self.m_busy
            if chunk.is_header:
                span = (
                    tracer.begin("rxdma.header", node=self.port.node_id,
                                 component="rxdma", msg_id=chunk.msg_id)
                    if tracer is not None else None
                )
                cost = chunk.npackets * per_packet
                yield cost
                self.busy_time += cost
                if m_busy is not None:
                    m_busy.add(sim.now - cost, sim.now)
                if tracer is not None:
                    tracer.end(span)
                counts["headers"] += 1
                self.on_header(chunk)
                continue
            plan = plans.get(chunk.msg_id)
            if plan is None:
                # Head-of-line stall until the firmware programs the engine
                # for this message (generic mode: after the host interrupt
                # and match).  Subsequent traffic backs up behind us,
                # backpressuring the wire.
                waiter = Event(sim)
                self._plan_waiter = (chunk.msg_id, waiter)
                counts["stalls"] += 1
                plan = yield waiter
            npackets = chunk.npackets
            span = (
                tracer.begin("rxdma.deposit", node=self.port.node_id,
                             component="rxdma", msg_id=chunk.msg_id,
                             seq=chunk.seq, npackets=npackets)
                if tracer is not None else None
            )
            cost = npackets * per_packet
            yield cost
            self.busy_time += cost
            if m_busy is not None:
                m_busy.add(sim.now - cost, sim.now)
            if tracer is not None:
                tracer.end(span)
            counts["packets"] += npackets
            deposit(plan, chunk.payload_offset, chunk.nbytes, chunk.payload)
            if chunk.is_last:
                del plans[chunk.msg_id]
                counts["messages"] += 1
                plan.on_complete(plan)

    def _deposit(self, plan: DepositPlan, start: int, nbytes: int, data: Any) -> None:
        """Copy the accepted part of body bytes ``[start, start + nbytes)``
        to host memory.

        ``data`` holds exactly those bytes (a chunk's payload view, or a
        bulk run's slice of the message payload), or None when the
        sender supplied no bytes.  One chunk or a whole run: the accepted
        prefix is clamped against ``accept_bytes`` either way, so a range
        deposit equals the sum of its chunks' deposits.
        """
        end = start + nbytes
        dest = plan.dest
        if end <= plan.accept_bytes:
            # common case: the whole range is accepted
            if nbytes > 0 and dest is not None and data is not None:
                dest[start:end] = data
            plan.deposited_bytes += nbytes
            return
        take = max(0, plan.accept_bytes - start)
        if take > 0 and dest is not None and data is not None:
            dest[start : start + take] = data[:take]
        plan.deposited_bytes += take
        plan.discarded_bytes += nbytes - take
