"""Whole-plane traffic scenarios and the per-partition node model.

The full Portals stack (`repro.machine.Node`) boots firmware, OS kernel
and NIC engines per node — perfect for a NetPIPE pair, far too heavy for
10,368 of them.  The plane scenarios instead run a *light* per-node
traffic model grounded in the same :class:`SeaStarConfig` constants the
stack is calibrated with:

* **injection** — each node serializes its outgoing chunks onto its link
  at link rate (``packet_time`` per 64-byte packet), one chunk at a
  time, exactly like the TX side of :mod:`repro.net.fabric`'s pipes;
* **flight** — a chunk's wire time is the fabric's closed form,
  ``LinkModel.chunk_transit_time``: serialization plus per-hop
  fall-through latency over the dimension-ordered route (whose length
  equals ``Torus3D.distance``; asserted by tests/test_net_routing.py);
* **ejection** — each destination drains arrivals through its RX link at
  link rate, which is what makes incast/hotspot traffic queue.  Chunks
  wait in a per-destination inbox heap; only a message's *last* chunk
  puts a record on the simulator heap, a *fold record* at its arrival
  time ``T`` (one per distinct ``(dst, T)``).  The fold drains every
  inbox chunk with arrival ``<= T`` through the RX link.  Nothing can
  still join that set: a submit at ``t`` yields arrivals ``> t`` and a
  cross-partition import lands at or above the safe floor.  So a
  message's delivery is computed once, when its last chunk lands, and
  the simulator heap holds one record per message instead of two per
  chunk.

Unlike the full stack there is no RX-window backpressure onto senders:
receive buffering is unbounded and contention shows up purely as
ejection queueing.  Every quantity the model records is a deterministic
function of the arrival set — simultaneous arrivals are folded in the
canonical order ``(arrival, src, msg_id, chunk_seq)``, never in heap
order — which is what makes partitioned runs byte-identical to serial
ones (see :mod:`repro.sim.parallel.engine`).

Scenarios (all deterministic, parameterized by dims and message size):

* ``neighbor`` — every node sends one message to each of its ``x+``,
  ``y+``, ``z+`` neighbors at t=0 (nearest-neighbor plane traffic);
* ``incast``  — every node sends one message to the root at t=0
  (hotspot);
* ``tree``    — a binomial broadcast from the root: each node forwards
  to its subtree children the moment its own copy is fully delivered
  (the dependent-send chain that makes cross-partition lookahead earn
  its keep).
"""

from __future__ import annotations

import hashlib
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Set, Tuple

from ...hw.config import DEFAULT_CONFIG, SeaStarConfig
from ...net.topology import Torus3D

__all__ = [
    "PlaneScenario",
    "PlanePartition",
    "SCENARIO_NAMES",
    "initial_sends",
    "tree_children",
    "result_document",
    "result_metrics",
    "trace_digest",
]

SCENARIO_NAMES = ("neighbor", "incast", "tree")

#: message key: (src, dst, per-src send sequence number)
MsgKey = Tuple[int, int, int]

#: one wire chunk in flight: (dst, arrival_ps, src, msg_key, chunk_seq,
#: npackets, nchunks, nbytes, submit_ps) — a plain tuple so it crosses
#: partition boundaries as JSON without a schema class
Chunk = Tuple[int, int, int, MsgKey, int, int, int, int, int]


@dataclass(frozen=True)
class PlaneScenario:
    """One deterministic whole-plane traffic run."""

    name: str
    dims: Tuple[int, int, int]
    wrap: Tuple[bool, bool, bool] = (False, False, True)
    msg_bytes: int = 2048
    root: int = 0

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.msg_bytes < 1:
            raise ValueError("msg_bytes must be >= 1")

    def topology(self) -> Torus3D:
        return Torus3D(self.dims, wrap=self.wrap)


def tree_children(rank: int, nranks: int) -> List[int]:
    """Binomial-tree children of ``rank`` in a broadcast over ``nranks``.

    Standard binomial order: the root peels off the largest subtree
    first; a non-root node relays to sub-ranks below the bit that
    attached it.  Pure function of (rank, nranks), so every partition
    derives the same forwarding plan without coordination.
    """
    if not 0 <= rank < nranks:
        raise ValueError(f"rank {rank} outside 0..{nranks - 1}")
    children: List[int] = []
    # highest power of two covering the range
    span = 1
    while span < nranks:
        span <<= 1
    # the bit that attached this rank (root: the full span)
    limit = span if rank == 0 else (rank & -rank)
    bit = limit >> 1
    while bit:
        child = rank | bit
        if child < nranks and child != rank:
            children.append(child)
        bit >>= 1
    return children


def initial_sends(scenario: PlaneScenario, topo: Torus3D) -> List[Tuple[int, int]]:
    """The (src, dst) pairs submitted at t=0, in canonical order."""
    sends: List[Tuple[int, int]] = []
    if scenario.name == "neighbor":
        for src in range(topo.num_nodes):
            nbrs = topo.neighbors(src)
            for port in ("x+", "y+", "z+"):
                dst = nbrs.get(port)
                if dst is not None and dst != src:
                    sends.append((src, dst))
    elif scenario.name == "incast":
        root = scenario.root % topo.num_nodes
        for src in range(topo.num_nodes):
            if src != root:
                sends.append((src, root))
    else:  # tree: only the root transmits at t=0
        root = scenario.root % topo.num_nodes
        for child in tree_children(root, topo.num_nodes):
            sends.append((root, child))
    return sends


class PlanePartition:
    """The plane-traffic model for one partition's node set.

    Drives one :class:`~repro.sim.core.Simulator`.  Chunks whose
    destination lives in another partition are handed to ``exporter``
    instead of being scheduled locally; the engine turns them into
    timestamped channel messages and the peer calls
    :meth:`import_chunk`.
    """

    def __init__(
        self,
        sim: Any,
        scenario: PlaneScenario,
        topo: Torus3D,
        my_nodes: Tuple[int, ...],
        exporter: Optional[Callable[[Chunk], None]] = None,
        config: SeaStarConfig = DEFAULT_CONFIG,
    ):
        self.sim = sim
        self.scenario = scenario
        self.topo = topo
        self.config = config
        self.my_nodes = frozenset(my_nodes)
        self._exporter = exporter
        self._packet_time = config.link_packet_time()
        self._hop_latency = config.hop_latency
        self._chunk_bytes = config.chunk_bytes
        self._packet_bytes = config.packet_bytes
        # per-node link state (ints, picoseconds)
        self._tx_free: Dict[int, int] = {}
        self._rx_busy: Dict[int, int] = {}
        self._send_seq: Dict[int, int] = {}
        # per-destination inbox heaps of chunk tuples (canonical order),
        # and the (dst, arrival) fold records already on the sim heap
        self._inbox: DefaultDict[int, List[Chunk]] = defaultdict(list)
        self._folds: Set[Tuple[int, int]] = set()
        #: delivered messages: msg_key -> (nbytes, submit_ps, delivery_ps)
        self.delivered: Dict[MsgKey, Tuple[int, int, int]] = {}
        # tree bookkeeping: nodes that already forwarded
        self._forwarded: set = set()

    # -- injection ----------------------------------------------------------

    def _chunk_sizes(self, nbytes: int) -> List[int]:
        sizes = [self._chunk_bytes] * (nbytes // self._chunk_bytes)
        if nbytes % self._chunk_bytes:
            sizes.append(nbytes % self._chunk_bytes)
        return sizes

    def _npackets(self, size: int) -> int:
        # at least the header packet: the plane model never piggybacks,
        # so serialization is always >= one packet_time and the
        # cross-partition lookahead bound (chunk_transit_time(1, hops))
        # is honored by construction
        return max(1, -(-size // self._packet_bytes))

    def submit(self, src: int, dst: int, nbytes: int, now: int) -> None:
        """Inject one message at time ``now`` (must equal ``sim.now``)."""
        if src not in self.my_nodes:
            raise ValueError(f"node {src} is not owned by this partition")
        seq = self._send_seq.get(src, 0)
        self._send_seq[src] = seq + 1
        msg: MsgKey = (src, dst, seq)
        hops = self.topo.distance(src, dst)
        sizes = self._chunk_sizes(nbytes)
        free = self._tx_free.get(src, 0)
        for chunk_seq, size in enumerate(sizes):
            npackets = self._npackets(size)
            start = free if free > now else now
            ser = npackets * self._packet_time
            free = start + ser
            arrival = free + hops * self._hop_latency
            rec: Chunk = (
                dst,
                arrival,
                src,
                msg,
                chunk_seq,
                npackets,
                len(sizes),
                nbytes,
                now,
            )
            if dst in self.my_nodes:
                self._receive(rec)
            else:
                assert self._exporter is not None, "cross-partition send w/o exporter"
                self._exporter(rec)
        self._tx_free[src] = free

    # -- ejection -----------------------------------------------------------

    def import_chunk(self, rec: Chunk) -> None:
        """Accept a cross-partition chunk (engine-validated timestamp)."""
        if rec[0] not in self.my_nodes:
            raise ValueError(f"chunk for node {rec[0]} imported to wrong partition")
        self._receive(rec)

    def _receive(self, rec: Chunk) -> None:
        dst, arrival = rec[0], rec[1]
        # the tuple leads with (dst, arrival, src, msg_key, chunk_seq), so
        # heap order within one destination IS the canonical fold order
        heapq.heappush(self._inbox[dst], rec)
        # only a message's last chunk can complete a delivery, so only it
        # earns a heap record: one fold per (dst, arrival) of last chunks
        if rec[4] == rec[6] - 1 and (dst, arrival) not in self._folds:
            self._folds.add((dst, arrival))
            self.sim.schedule_at(arrival, (dst, arrival)).add_callback(self._on_fold)

    def _on_fold(self, event: Any) -> None:
        dst, until = event.value
        self._folds.discard((dst, until))
        # every chunk arriving at or before `until` is in the inbox by now:
        # a submit at t yields arrivals > t, and imports land at or above
        # the partition's safe floor, which is past `until`
        inbox = self._inbox[dst]
        pop = heapq.heappop
        packet_time = self._packet_time
        busy = self._rx_busy.get(dst, 0)
        while inbox and inbox[0][1] <= until:
            rec = pop(inbox)
            _, arrival, _, msg, chunk_seq, npackets, nchunks, nbytes, submit = rec
            start = busy if busy > arrival else arrival
            busy = start + npackets * packet_time
            # a message's chunks arrive in chunk_seq order, so its last
            # chunk is the last of them folded
            if chunk_seq == nchunks - 1:
                self.delivered[msg] = (nbytes, submit, busy)
                self._on_message_delivered(dst, busy)
        self._rx_busy[dst] = busy

    def _on_message_delivered(self, node: int, when: int) -> None:
        """Scenario hook: dependent sends (binomial tree forwarding)."""
        if self.scenario.name != "tree" or node in self._forwarded:
            return
        self._forwarded.add(node)
        children = tree_children(node, self.topo.num_nodes)
        if not children:
            return
        # delivery time is strictly beyond sim.now (the fold completes only
        # messages whose last chunk arrives at now, then appends at least
        # one packet_time), so the forward submit is an ordinary future event
        self.sim.schedule_at(when, (node, tuple(children))).add_callback(
            self._on_forward
        )

    def _on_forward(self, event: Any) -> None:
        node, children = event.value
        for child in children:
            self.submit(node, child, self.scenario.msg_bytes, self.sim.now)

    # -- bootstrap ----------------------------------------------------------

    def submit_initial(self) -> None:
        """Inject this partition's share of the t=0 sends (call at t=0)."""
        for src, dst in initial_sends(self.scenario, self.topo):
            if src in self.my_nodes:
                self.submit(src, dst, self.scenario.msg_bytes, 0)
        if self.scenario.name == "tree":
            root = self.scenario.root % self.topo.num_nodes
            if root in self.my_nodes:
                self._forwarded.add(root)


# -- results ----------------------------------------------------------------


def result_document(
    scenario: PlaneScenario,
    delivered: Dict[MsgKey, Tuple[int, int, int]],
) -> Dict[str, Any]:
    """The gated, partition-invariant result of one scenario run.

    Every field is a deterministic function of the delivered-message
    set; nothing host- or partitioning-dependent (wall clock, heap seq,
    events scheduled) may appear here.
    """
    messages = [
        [src, dst, seq, nbytes, submit, delivery]
        for (src, dst, seq), (nbytes, submit, delivery) in sorted(delivered.items())
    ]
    return {
        "scenario": scenario.name,
        "dims": list(scenario.dims),
        "wrap": [bool(w) for w in scenario.wrap],
        "msg_bytes": scenario.msg_bytes,
        "root": scenario.root,
        "messages": messages,
    }


def trace_digest(doc: Dict[str, Any]) -> float:
    """48-bit content digest of a result document, as an exact float.

    Lets the golden gate pin the *full* message trace without committing
    megabytes: 12 hex digits < 2**48, exactly representable in a JSON
    double, so byte-identity of the golden file implies byte-identity of
    every delivery record behind it.
    """
    import json

    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return float(int(hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12], 16))


def result_metrics(doc: Dict[str, Any]) -> Dict[str, float]:
    """Scalar anchors derived from a result document (golden-gated)."""
    prefix = doc["scenario"]
    messages = doc["messages"]
    latencies = [m[5] - m[4] for m in messages]
    makespan = max((m[5] for m in messages), default=0)
    total_bytes = sum(m[3] for m in messages)
    out = {
        f"{prefix}_messages": float(len(messages)),
        f"{prefix}_total_bytes": float(total_bytes),
        f"{prefix}_makespan_us": makespan / 1e6,
        f"{prefix}_trace_digest": trace_digest(doc),
    }
    if latencies:
        out[f"{prefix}_max_latency_us"] = max(latencies) / 1e6
        out[f"{prefix}_mean_latency_us"] = (sum(latencies) / len(latencies)) / 1e6
    return out
