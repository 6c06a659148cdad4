"""Machine-wide metrics registry with typed instruments.

Four instrument kinds cover every component the simulator models:

* :class:`MetricCounter` — monotonic event counts (packets, traps, hops);
* :class:`Gauge` — sampled level series (FIFO depth, SRAM bytes in use),
  summarized with *time-weighted* statistics;
* :class:`Timeline` — busy/occupancy intervals on the simulated clock
  (DMA engines, HyperTransport cave, PPC firmware, wire links), the
  basis for utilization attribution;
* :class:`Histogram` — fixed-bucket distributions (message sizes).

Instrumentation sites follow the same zero-cost-when-disabled contract
as :class:`repro.sim.monitor.SpanTracer`: components hold ``None`` by
default and only append to plain Python lists when an instrument is
attached.  No instrument ever schedules a simulation event, so enabling
metrics cannot move simulated time — benchmark results stay
bit-identical with metrics on or off.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence

from ..sim.core import Simulator
from ..sim.monitor import TimeSeries

__all__ = [
    "MetricCounter",
    "Gauge",
    "Timeline",
    "Histogram",
    "MetricsRegistry",
]


class MetricCounter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount


class Gauge:
    """A sampled level, backed by a :class:`TimeSeries`.

    Summaries use step-function (time-weighted) semantics: the sampled
    value holds until the next sample.  That is the right average for
    occupancy-style series — FIFO depth, SRAM bytes in use — where a
    plain sample mean would over-weight bursts of rapid changes.
    """

    __slots__ = ("name", "series")

    def __init__(self, name: str):
        self.name = name
        self.series = TimeSeries(name)

    def sample(self, time: int, value: float) -> None:
        """Record the gauge level at ``time``."""
        self.series.sample(time, value)

    def __len__(self) -> int:
        return len(self.series)

    @property
    def last(self) -> float:
        """Most recent sampled value; raises ValueError when empty."""
        self.series._require_samples()
        return self.series.values[-1]

    def summary(self, until: Optional[int] = None) -> Dict[str, Any]:
        """Summary statistics (time-weighted mean, min/max/last)."""
        if not len(self.series):
            return {"samples": 0}
        return {
            "samples": len(self.series),
            "last": self.series.values[-1],
            "min": self.series.min,
            "max": self.series.max,
            "time_weighted_mean": self.series.time_weighted_mean(until=until),
        }


class Timeline:
    """Busy intervals ``[t0, t1)`` on the simulated clock.

    Instrumentation appends the interval when the work *completes*
    (``add(now - cost, now)``).  Serialized engines therefore append in
    nondecreasing start order, and since intervals never overlap on a
    capacity-1 engine the ends are nondecreasing too; :meth:`busy_between`
    relies on both orders.
    """

    __slots__ = ("name", "starts", "ends")

    def __init__(self, name: str):
        self.name = name
        self.starts: List[int] = []
        self.ends: List[int] = []

    def add(self, t0: int, t1: int) -> None:
        """Append one busy interval (``t0 <= t1``)."""
        self.starts.append(t0)
        self.ends.append(t1)

    def add_run(self, t0: int, length: int, period: int, count: int) -> None:
        """Append ``count`` intervals ``[t0 + k*period, t0 + k*period + length)``.

        The closed form of a train of identical jobs released back to
        back: equal to ``count`` :meth:`add` calls, in the same order.
        ``length <= period`` because a capacity-1 engine never overlaps
        its own intervals.
        """
        if count < 0:
            raise ValueError(f"timeline {self.name!r}: negative run count")
        if period <= 0 or not 0 <= length <= period:
            raise ValueError(
                f"timeline {self.name!r}: run needs 0 <= length <= period, period > 0"
            )
        stop = t0 + count * period
        self.starts.extend(range(t0, stop, period))
        self.ends.extend(range(t0 + length, stop + length, period))

    def __len__(self) -> int:
        return len(self.starts)

    def busy_total(self) -> int:
        """Total busy picoseconds across all intervals."""
        return sum(self.ends) - sum(self.starts)

    def busy_between(self, w0: int, w1: int) -> int:
        """Exact busy overlap with the window ``[w0, w1)``.

        Intervals straddling a window edge contribute only the part
        inside the window.  Closed form over the sorted ``starts`` and
        ``ends``: intervals ``lo:hi`` meet the window, those before
        ``head`` start before ``w0`` and those from ``tail`` end after
        ``w1``, so each side is a slice sum plus clipped edges.
        """
        if w1 <= w0:
            return 0
        starts, ends = self.starts, self.ends
        lo = bisect_right(ends, w0)
        hi = bisect_left(starts, w1, lo)
        head = bisect_left(starts, w0, lo, hi)
        tail = bisect_right(ends, w1, lo, hi)
        return (
            sum(ends[lo:tail]) + (hi - tail) * w1
            - sum(starts[head:hi]) - (head - lo) * w0
        )

    def utilization(self, w0: int, w1: int) -> float:
        """Busy fraction of the window ``[w0, w1)``."""
        if w1 <= w0:
            return 0.0
        return self.busy_between(w0, w1) / (w1 - w0)


class Histogram:
    """Fixed-bucket histogram with ascending upper-bound ``edges``.

    An observation lands in the first bucket whose edge is ``>= value``
    (Prometheus ``le`` semantics); values above the last edge land in
    the overflow bucket, so ``counts`` has ``len(edges) + 1`` entries.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum")

    def __init__(self, name: str, edges: Sequence[float]):
        if not edges:
            raise ValueError(f"histogram {name!r}: needs at least one edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram {name!r}: edges must be strictly ascending")
        self.name = name
        self.edges: List[float] = list(edges)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value


class MetricsRegistry:
    """Get-or-create factory and catalogue for all instruments.

    One registry serves the whole machine; components receive their
    instruments from the machine builder (see ``Machine(metrics=True)``)
    and the registry stays the single place to snapshot or export them.
    Names are namespaced by convention: ``node{N}.{component}.{what}``
    for per-node instruments, ``wire.{src}->{dst}.busy`` for fabric
    pipes.  Attribution keys off the ``.busy`` timeline suffix.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = kind(name, *args)
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> MetricCounter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, MetricCounter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def timeline(self, name: str) -> Timeline:
        """Get or create the busy timeline ``name``."""
        return self._get_or_create(name, Timeline)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create the histogram ``name`` (edges must match)."""
        hist = self._get_or_create(name, Histogram, edges)
        if hist.edges != list(edges):
            raise ValueError(
                f"histogram {name!r} already registered with different edges"
            )
        return hist

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Any]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def instruments(self) -> Dict[str, Any]:
        """Live name → instrument mapping (read-only by convention)."""
        return self._instruments

    def timelines(self) -> Dict[str, Timeline]:
        """All registered timelines by name."""
        return {n: i for n, i in self._instruments.items() if isinstance(i, Timeline)}

    def release(self) -> None:
        """Drop every timeline's intervals once the caller has read them.

        Components hold their instruments directly, and a finished
        machine is cyclic garbage that only a full collection frees; an
        8 MB sweep records tens of MB of intervals that would otherwise
        wait with it.
        """
        for timeline in self.timelines().values():
            timeline.starts = []
            timeline.ends = []

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready summary of every instrument.

        Timelines report interval count, total busy ps and whole-run
        utilization (vs ``sim.now``); gauges report time-weighted
        statistics; histograms report edges/counts/sum.
        """
        now = self.sim.now
        counters: Dict[str, int] = {}
        gauges: Dict[str, Any] = {}
        timelines: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, MetricCounter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.summary(until=now)
            elif isinstance(inst, Timeline):
                busy = inst.busy_total()
                timelines[name] = {
                    "intervals": len(inst),
                    "busy_ps": busy,
                    "utilization": (busy / now) if now > 0 else 0.0,
                }
            elif isinstance(inst, Histogram):
                histograms[name] = {
                    "edges": inst.edges,
                    "counts": inst.counts,
                    "count": inst.count,
                    "sum": inst.sum,
                }
        return {
            "now_ps": now,
            "counters": counters,
            "gauges": gauges,
            "timelines": timelines,
            "histograms": histograms,
        }
