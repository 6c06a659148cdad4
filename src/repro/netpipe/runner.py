"""NetPIPE measurement patterns and result types.

Three patterns, matching Figures 4-7:

* **ping-pong** — alternating exchange; reported latency is half the
  round trip, reported bandwidth is message bytes over half the round
  trip (Figures 4 and 5);
* **stream** — uni-directional back-to-back messages, timed at the
  receiver (Figure 6);
* **bi-directional** — both sides exchange simultaneously; reported
  bandwidth counts both directions (Figure 7).

All times are *simulated* picoseconds from the DES clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..fw.firmware import ExhaustionPolicy
from ..hw.config import DEFAULT_CONFIG, SeaStarConfig
from ..machine.builder import build_pair

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
from ..oskern.kernel import OSType
from ..sim import rate_mb_s, to_us
from .sizes import netpipe_sizes

__all__ = ["Measurement", "Series", "NetPipeRunner", "run_series"]


@dataclass(frozen=True)
class Measurement:
    """One (pattern, size) data point."""

    pattern: str
    nbytes: int
    total_ps: int
    repeats: int
    bytes_moved: int

    @property
    def latency_us(self) -> float:
        """One-way latency in microseconds (ping-pong convention: half
        the average round trip)."""
        if self.pattern == "pingpong":
            return to_us(self.total_ps) / (2 * self.repeats)
        return to_us(self.total_ps) / self.repeats

    @property
    def bandwidth_mb_s(self) -> float:
        """Throughput in MB/s (MB = 2**20, NetPIPE convention).

        For ping-pong, NetPIPE reports bytes over *half* the round trip
        (the one-way transfer time), so a large-message ping-pong
        approaches the link's uni-directional rate."""
        if self.pattern == "pingpong":
            return rate_mb_s(2 * self.bytes_moved, self.total_ps)
        return rate_mb_s(self.bytes_moved, self.total_ps)


@dataclass
class Series:
    """A full size sweep for one module + pattern."""

    module: str
    pattern: str
    points: list[Measurement]

    def sizes(self) -> list[int]:
        """Message sizes measured."""
        return [p.nbytes for p in self.points]

    def latencies_us(self) -> list[float]:
        """One-way latencies (us) per size."""
        return [p.latency_us for p in self.points]

    def bandwidths(self) -> list[float]:
        """Bandwidths (MB/s) per size."""
        return [p.bandwidth_mb_s for p in self.points]


def _stream_count(nbytes: int) -> int:
    """Messages per streaming measurement: enough to reach steady state,
    bounded so huge sizes stay tractable."""
    target = 512 * 1024
    return max(4, min(64, target // max(1, nbytes)))


class NetPipeRunner:
    """Drives one module through one pattern over a size schedule."""

    def __init__(
        self,
        module,
        *,
        config: SeaStarConfig = DEFAULT_CONFIG,
        os_type: OSType = OSType.CATAMOUNT,
        policy: ExhaustionPolicy = ExhaustionPolicy.PANIC,
        hops: int = 1,
        repeats: int = 3,
        warmup: int = 1,
        trace: bool = False,
        metrics: bool = False,
        fault_plan: "FaultPlan | None" = None,
        bulk_events: Optional[bool] = None,
    ):
        self.module = module
        self.config = config
        self.os_type = os_type
        self.policy = policy
        self.hops = hops
        self.repeats = repeats
        self.warmup = warmup
        self.trace = trace
        self.metrics = metrics
        self.fault_plan = fault_plan
        self.bulk_events = bulk_events
        #: the machine of the most recent :meth:`run` (chaos reporting);
        #: its counters, metrics and traces stay readable, but its
        #: processes are stopped and its host buffers released
        self.machine = None
        #: per-size measurement windows ``(nbytes, t0, t1)`` of the most
        #: recent :meth:`run` — the timed portion only (warmup excluded),
        #: which is what utilization attribution integrates over
        self.windows: list[tuple[int, int, int]] = []

    def run(self, pattern: str, sizes: Optional[Sequence[int]] = None) -> Series:
        """Execute the sweep; returns the measured series."""
        sizes = list(sizes if sizes is not None else netpipe_sizes())
        if not sizes:
            raise ValueError("no sizes to measure")
        machine, node_a, node_b = build_pair(
            self.config,
            os_type=self.os_type,
            policy=self.policy,
            hops=self.hops,
            trace=self.trace,
            metrics=self.metrics,
            fault_plan=self.fault_plan,
            bulk_events=self.bulk_events,
        )
        self.machine = machine
        self.windows = []
        max_bytes = max(sizes)
        ep_a, ep_b = self.module.make_endpoints(machine, node_a, node_b, max_bytes)
        points: list[Measurement] = []
        if pattern == "pingpong":
            a, b = self._pingpong(ep_a, ep_b, sizes, points)
        elif pattern == "stream":
            a, b = self._stream(ep_a, ep_b, sizes, points)
        elif pattern == "bidir":
            a, b = self._bidir(ep_a, ep_b, sizes, points)
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
        pa = machine.sim.process(a, name="netpipe:a")
        pb = machine.sim.process(b, name="netpipe:b")
        machine.run()
        for side, proc in (("a", pa), ("b", pb)):
            if not proc.triggered:
                raise RuntimeError(f"NetPIPE side {side} deadlocked")
            if not proc.ok:
                raise proc.value
        machine.release_host_memory()
        return Series(module=self.module.name, pattern=pattern, points=points)

    # -- patterns -----------------------------------------------------------
    def _pingpong(self, ep_a, ep_b, sizes, points):
        reps, warm = self.repeats, self.warmup

        def side_a():
            yield from ep_a.setup()
            for n in sizes:
                yield from ep_a.begin_round(n)
                for _ in range(warm):
                    yield from ep_a.send(n)
                    yield from ep_a.recv(n)
                t0 = ep_a_now()
                for _ in range(reps):
                    yield from ep_a.send(n)
                    yield from ep_a.recv(n)
                t1 = ep_a_now()
                points.append(Measurement("pingpong", n, t1 - t0, reps, n * reps))
                self.windows.append((n, t0, t1))
                yield from ep_a.end_round()

        def side_b():
            yield from ep_b.setup()
            for n in sizes:
                yield from ep_b.begin_round(n)
                for _ in range(warm + reps):
                    yield from ep_b.recv(n)
                    yield from ep_b.send(n)
                yield from ep_b.end_round()

        ep_a_now = lambda: ep_a.proc.sim.now if hasattr(ep_a, "proc") else ep_a.mpi.sim.now  # noqa: E731
        return side_a(), side_b()

    def _stream(self, ep_a, ep_b, sizes, points):
        warm = self.warmup

        def side_a():  # sender
            yield from ep_a.setup()
            for n in sizes:
                count = _stream_count(n)
                yield from ep_a.begin_round(n)
                for _ in range(warm):
                    yield from ep_a.send(n)
                # Sync: wait for the receiver's go-ahead, so the timed
                # window at the receiver starts before any timed message
                # is on the wire.
                yield from ep_a.recv(1)
                for _ in range(count):
                    yield from ep_a.send(n)
                # Round-boundary handshake: wait for the receiver's ack.
                yield from ep_a.recv(1)
                yield from ep_a.flush_sends(warm + count)
                yield from ep_a.end_round()

        def side_b():  # receiver (times the stream)
            yield from ep_b.setup()
            for n in sizes:
                count = _stream_count(n)
                yield from ep_b.begin_round(n)
                recv = getattr(ep_b, "stream_recv", None)
                for _ in range(warm):
                    if recv is not None:
                        yield from recv(n, warm)
                    else:
                        yield from ep_b.recv(n)
                yield from ep_b.send(1)
                t0 = ep_b_now()
                remaining = count
                for _ in range(count):
                    if recv is not None:
                        yield from recv(n, remaining)
                    else:
                        yield from ep_b.recv(n)
                    remaining -= 1
                t1 = ep_b_now()
                points.append(Measurement("stream", n, t1 - t0, count, n * count))
                self.windows.append((n, t0, t1))
                yield from ep_b.send(1)
                yield from ep_b.end_round()

        ep_b_now = lambda: ep_b.proc.sim.now if hasattr(ep_b, "proc") else ep_b.mpi.sim.now  # noqa: E731
        return side_a(), side_b()

    def _bidir(self, ep_a, ep_b, sizes, points):
        reps, warm = self.repeats, self.warmup

        def side(ep, record):
            def body():
                yield from ep.setup()
                for n in sizes:
                    yield from ep.begin_round(n)
                    for _ in range(warm):
                        yield from ep.exchange(n)
                    t0 = now(ep)
                    for _ in range(reps):
                        yield from ep.exchange(n)
                    if record:
                        t1 = now(ep)
                        points.append(
                            Measurement("bidir", n, t1 - t0, reps, 2 * n * reps)
                        )
                        self.windows.append((n, t0, t1))
                    yield from ep.end_round()

            return body()

        def now(ep):
            return ep.proc.sim.now if hasattr(ep, "proc") else ep.mpi.sim.now

        return side(ep_a, True), side(ep_b, False)


def run_series(
    module,
    pattern: str,
    sizes: Optional[Sequence[int]] = None,
    **runner_kw,
) -> Series:
    """One-call convenience: build a runner and execute the sweep."""
    return NetPipeRunner(module, **runner_kw).run(pattern, sizes)
