"""Machine builders: from a two-node benchmark pair to Red Storm.

:class:`Machine` owns the simulator, the fabric and the nodes.  Nodes are
created lazily (`node(i)`), so a Red Storm-shaped topology (10k+ slots)
costs nothing until nodes are actually booted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..fw.firmware import ExhaustionPolicy
from ..hw.config import DEFAULT_CONFIG, SeaStarConfig
from ..net.fabric import Fabric
from ..net.topology import Torus3D
from ..oskern.kernel import OSType
from ..sim import Simulator
from .node import Node

__all__ = [
    "Machine",
    "PartitionPlan",
    "build_pair",
    "build_redstorm",
    "partition_nodes",
]


@dataclass(frozen=True)
class PartitionPlan:
    """A slab decomposition of a :class:`Torus3D` for parallel DES.

    Partitions are contiguous half-open coordinate ranges along one
    axis; every partition is a union of full coordinate planes, so the
    minimum cross-partition route cost depends only on the axis ranges
    (see :func:`repro.net.routing.slab_cut_hops`).  ``nodes[i]`` lists
    the node ids owned by partition ``i``; every node appears in exactly
    one partition.
    """

    axis: int
    ranges: tuple[tuple[int, int], ...]
    nodes: tuple[tuple[int, ...], ...]

    @property
    def nparts(self) -> int:
        return len(self.ranges)

    def owner_of(self, topo: Torus3D, node: int) -> int:
        """Partition index owning ``node`` (O(nparts))."""
        v = topo.axis_coord(node, self.axis)
        for idx, (lo, hi) in enumerate(self.ranges):
            if lo <= v < hi:
                return idx
        raise ValueError(f"node {node} outside every slab range")


def partition_nodes(
    topo: Torus3D, nparts: int, axis: Optional[int] = None
) -> PartitionPlan:
    """Split a topology into ``nparts`` balanced slabs for parallel DES.

    The slab axis defaults to the largest dimension (most room to cut).
    Slab extents differ by at most one plane.  ``nparts`` is clamped to
    the axis extent — a partition must own at least one full plane, or
    its cross-partition lookahead would be undefined.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if axis is None:
        axis = max(range(3), key=lambda a: topo.dims[a])
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    extent = topo.dims[axis]
    eff = min(nparts, extent)
    ranges = tuple(((extent * k) // eff, (extent * (k + 1)) // eff) for k in range(eff))
    # slab index of every coordinate value along the cut axis
    slab_of = [idx for idx, (lo, hi) in enumerate(ranges) for _ in range(lo, hi)]
    buckets: list[list[int]] = [[] for _ in range(eff)]
    # node ids are x-fastest; walking them in order keeps each bucket
    # sorted without a per-bucket sort afterwards
    for node in range(topo.num_nodes):
        buckets[slab_of[topo.axis_coord(node, axis)]].append(node)
    return PartitionPlan(
        axis=axis,
        ranges=ranges,
        nodes=tuple(tuple(b) for b in buckets),
    )


class Machine:
    """A simulated XT3 installation."""

    def __init__(
        self,
        topology: Torus3D,
        config: SeaStarConfig = DEFAULT_CONFIG,
        *,
        os_type: OSType = OSType.CATAMOUNT,
        policy: ExhaustionPolicy = ExhaustionPolicy.PANIC,
        seed: int = 0,
        trace: bool = False,
        metrics: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        bulk_events: Optional[bool] = None,
    ):
        # bulk_events=None defers to BULK_EVENTS_DEFAULT; the DMA hot
        # path additionally falls back to chunk-exact automatically when
        # a tracer or fault injector is attached (a metrics registry
        # records bulk runs in closed form and keeps the fast path)
        self.sim = Simulator(bulk_events=bulk_events)
        self.config = config
        self.topology = topology
        self.os_type = os_type
        self.policy = policy
        self.fault_plan = fault_plan
        # a no-op plan means *no injector*: the fabric then runs the
        # exact same code path (and event schedule) as a plain machine
        self.injector: FaultInjector | None = (
            FaultInjector(self.sim, fault_plan)
            if fault_plan is not None and not fault_plan.is_noop()
            else None
        )
        self.fabric = Fabric(
            self.sim, topology, config, seed=seed, injector=self.injector
        )
        self.nodes: dict[int, Node] = {}
        from ..sim import SpanTracer

        self.tracer: SpanTracer | None = SpanTracer(self.sim) if trace else None
        # the fabric's pipes consult the machine tracer for wire spans;
        # None (the default) leaves the hot path untouched
        self.fabric.tracer = self.tracer
        from ..metrics import MetricsRegistry

        self.metrics: MetricsRegistry | None = (
            MetricsRegistry(self.sim) if metrics else None
        )
        # pipes register wire instruments lazily on first send, so the
        # registry must be attached before any traffic flows
        self.fabric.metrics = self.metrics

    def node(self, node_id: int, *, os_type: Optional[OSType] = None) -> Node:
        """Boot (or fetch) the node at ``node_id``."""
        existing = self.nodes.get(node_id)
        if existing is not None:
            return existing
        node = Node(
            self.sim,
            self.config,
            self.fabric,
            node_id,
            os_type=os_type or self.os_type,
            policy=self.policy,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.nodes[node_id] = node
        if self.injector is not None:
            self.injector.attach_node(node.firmware)
        return node

    def run(self, until: Optional[int] = None) -> int:
        """Advance the simulation."""
        return self.sim.run(until=until)

    def release_host_memory(self) -> None:
        """Let reference counting free the run's host buffers.

        A machine is a web of reference cycles that only a full cyclic
        collection frees, so every buffer reachable from it would outlive
        the run until then.  This drops the machine's references into
        host memory: suspended processes are closed (their frames hold
        the last message handled), firmware pendings forget their host
        state, and every NI drops its MDs' buffers.  Call once the run is
        over; counters, metrics and traces stay readable.
        """
        self.sim.close()
        for node in self.nodes.values():
            node.firmware.release_host_refs()
            for proc in node.processes.values():
                proc.ni.release_buffers()

    @property
    def now(self) -> int:
        """Current simulation time (ps)."""
        return self.sim.now


def build_pair(
    config: SeaStarConfig = DEFAULT_CONFIG,
    *,
    os_type: OSType = OSType.CATAMOUNT,
    policy: ExhaustionPolicy = ExhaustionPolicy.PANIC,
    hops: int = 1,
    trace: bool = False,
    metrics: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    bulk_events: Optional[bool] = None,
) -> tuple[Machine, Node, Node]:
    """Two nodes ``hops`` apart on a line — the NetPIPE configuration.

    ``hops=1`` is the nearest-neighbor placement of the paper's tests.
    """
    if hops < 0:
        raise ValueError("hops must be >= 0")
    length = max(2, hops + 1)
    topo = Torus3D((length, 1, 1), wrap=(False, False, False))
    machine = Machine(
        topo,
        config,
        os_type=os_type,
        policy=policy,
        trace=trace,
        metrics=metrics,
        fault_plan=fault_plan,
        bulk_events=bulk_events,
    )
    a = machine.node(0)
    b = machine.node(hops if hops > 0 else 1)
    return machine, a, b


def build_redstorm(
    dims: tuple[int, int, int] = (27, 16, 24),
    config: SeaStarConfig = DEFAULT_CONFIG,
    **kw,
) -> Machine:
    """A Red Storm-shaped machine: mesh in x/y, torus only in z
    (section 5.1), 27x16x24 = 10,368 node slots by default."""
    topo = Torus3D(dims, wrap=(False, False, True))
    return Machine(topo, config, **kw)
