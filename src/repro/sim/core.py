"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine in the style of SimPy,
written from scratch so the whole stack has no dependencies outside the
standard library and NumPy.

Model
-----
* :class:`Simulator` owns an event heap keyed by ``(time, seq)``; ``seq`` is
  a monotonically increasing tie-breaker so simultaneous events always fire
  in scheduling order — runs are bit-for-bit reproducible.
* :class:`Event` is a one-shot occurrence.  It is *triggered* when given a
  value (or failure) and scheduled, and *processed* once its callbacks have
  run.
* :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
  events; the process resumes when the yielded event fires.  A process is
  itself an event that succeeds with the generator's return value, so
  processes can wait on each other (fork/join).
* :class:`Timeout` fires after a fixed delay.
* :class:`AnyOf` / :class:`AllOf` compose events.

Flattened sleeps (the hot path)
-------------------------------
A process may also yield a bare non-negative ``int`` — a pure delay in
picoseconds, equivalent to ``yield sim.timeout(n)``.  By default
(``Simulator(direct_resume=True)``) the kernel services it without
constructing a Timeout at all: the heap gets a flattened 5-slot record
``[when, seq, None, process, value]`` and the run loop resumes the
process directly when it pops.  Records are plain lists so spent sleep
records can be recycled through a small arena (``_ARENA_MAX``) instead
of being reallocated — the run loop returns each popped sleep record to
the arena and the scheduler reuses it for the next sleep, cutting
allocator churn on the hottest path in the repository.  This removes one Event object, one callbacks
list, one bound-method callback and one dispatch per sleep — the
dominant per-event cost of DMA/wire/CPU modeling — while allocating
``seq`` at exactly the point the Timeout would have been created, so
event ordering (and therefore every simulated result) is bit-identical.
The ``seq`` doubles as the wake token: :meth:`Process.interrupt` disarms
a pending sleep by resetting the process's token, and the stale record
is ignored when it surfaces.  ``Simulator(direct_resume=False)`` routes
int yields through a real :class:`Timeout` instead (the legacy path,
kept so tests can A/B the two).

:class:`Resolved` extends the same idea to already-satisfied waits:
channel/store operations that complete immediately return a ``Resolved``
marker instead of a pre-triggered Event, and yielding it parks the
process on a flattened record carrying the value.  The wake-up still
round-trips the heap (same-time ordering is load-bearing), but without
the Event object, callbacks list, or callback dispatch.  Producers may
only return ``Resolved`` when they schedule nothing else afterwards in
the same call — the marker's heap slot is claimed at yield time, so any
scheduling in between would reorder same-time records.

Failures propagate: a failed event *thrown* into a waiting generator raises
there; an unhandled failure escapes :meth:`Simulator.run` as
:class:`SimulationError`.

Defusal semantics
-----------------
A failed event must be *consumed* by someone, or the simulation stops.
Consumption marks the event **defused** (:attr:`Event.defused`):

* a :class:`Process` that receives the failure (it is thrown into the
  generator) defuses it;
* a :class:`Process` that *abandoned* the event (it was interrupted and
  the stale callback fires later) defuses it — the interrupt took
  responsibility for the wait;
* an :class:`AnyOf`/:class:`AllOf` that propagates a sub-event's failure
  as its own defuses the sub-event (the condition's failure then needs
  its own consumer);
* anything else may call :meth:`Event.defuse` explicitly.

A failure that fires with **no** consumer — even when stale callbacks
were still registered — raises :class:`SimulationError` from
:meth:`Simulator.step`.  Notably, a sub-event that fails *after* its
condition already triggered (a raced ``AnyOf``) has no consumer: the
condition ignores it, nothing defuses it, and the failure surfaces
instead of being silently swallowed.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Interrupt",
    "Resolved",
    "DIRECT_RESUME_DEFAULT",
    "BULK_EVENTS_DEFAULT",
]

#: module default for :class:`Simulator`'s ``direct_resume`` flag —
#: whether int yields use flattened sleep records (fast path) or build
#: legacy :class:`Timeout` events.  Both produce bit-identical runs.
DIRECT_RESUME_DEFAULT = True

#: module default for :class:`Simulator`'s ``bulk_events`` flag —
#: whether model code (the DMA/fabric hot path) may coalesce provably
#: independent per-chunk event trains into single bulk heap records.
#: Both settings produce bit-identical simulated results; bulk mode only
#: changes how many *heap records* it takes to compute them.
BULK_EVENTS_DEFAULT = True

#: upper bound on the recycled-sleep-record arena; enough to cover every
#: simultaneously queued sleep in the benchmark fleet without pinning
#: unbounded garbage on pathological workloads
_ARENA_MAX = 512

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """An event failure that no process handled."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause`` which is carried to the
    interrupted generator.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinels for event state
_PENDING = object()

# Sentinel stored in Process._waiting_on while the process is parked on a
# flattened sleep record (no Event exists to point at).
_SLEEP = object()


class Resolved:
    """An already-satisfied wait, cheaper than a pre-triggered Event.

    Yielding a ``Resolved`` resumes the process at the *current* time with
    ``value`` after one trip through the event heap (so same-time ordering
    against other records is preserved), without constructing an Event.
    Returned by channel/store fast paths; exposes ``triggered``/``ok``/
    ``value`` so non-yielding callers that immediately unwrap the result
    (``assert ev.triggered; ev.value``) work with either representation.
    """

    __slots__ = ("value",)

    triggered = True
    ok = True

    def __init__(self, value: Any = None):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Resolved {self.value!r}>"


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it: the event is placed on the simulator heap and, when the
    clock reaches it, every registered callback runs exactly once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused: bool = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True once some waiter has taken responsibility for a failure."""
        return self._defused

    def defuse(self) -> None:
        """Mark this event's failure as consumed.

        A defused failure no longer escalates to :class:`SimulationError`
        when the event is processed.  Waiters that consume (or abandon) a
        failure call this automatically; call it directly only when a
        failure is intentionally ignored.
        """
        self._defused = True

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay`` ps."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if delay == 0:
            sim = self.sim
            _heappush(sim._heap, [sim.now, sim._seq, self])
            sim._seq += 1
        else:
            self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay`` ps."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        if delay == 0:
            sim = self.sim
            _heappush(sim._heap, [sim.now, sim._seq, self])
            sim._seq += 1
        else:
            self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately (same-timestep semantics).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` picoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        _heappush(sim._heap, [sim.now + delay, sim._seq, self])
        sim._seq += 1


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields :class:`Event` instances.  When a yielded event
    succeeds, the generator resumes with the event's value; when it fails,
    the exception is thrown into the generator.

    A generator may also yield a bare non-negative ``int`` — a pure delay
    in picoseconds (see the module docstring's *Flattened sleeps*): on the
    default fast path no Timeout is built, the process is resumed directly
    from a flattened heap record, and the generator receives ``None``
    exactly as it would from an un-valued Timeout.
    """

    __slots__ = ("_gen", "_waiting_on", "name", "_sleep_seq", "_send", "_waited")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Any] = None
        self._sleep_seq = -1
        # bound-method caches: one allocation here instead of one per step
        self._send = gen.send
        self._waited = self._process_waited
        self.name = name or getattr(gen, "__name__", "process")
        sim._gens.add(gen)
        # Kick off at the current time.
        start = Event(sim)
        start._ok = True
        start._value = None
        sim._schedule(start, 0)
        start.add_callback(self._start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its callback is
        disarmed); the process resumes immediately with the exception.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        target = self._waiting_on
        if target is None:
            raise RuntimeError(
                f"process {self.name!r} is not waiting and cannot be interrupted"
            )
        self._waiting_on = None
        # Disarm a pending flattened sleep: its heap record carries the
        # old token and is ignored when it surfaces.
        self._sleep_seq = -1
        # Deliver via a fresh failed event so ordering goes through the heap.
        poke = Event(self.sim)
        poke._ok = False
        poke._value = Interrupt(cause)
        self.sim._schedule(poke, 0)
        poke.add_callback(self._resume_interrupt)

    # -- internal ----------------------------------------------------------
    def _resume_interrupt(self, poke: Event) -> None:
        # The interrupt machinery owns the poke's failure either way: if
        # the process already finished, the interrupt is simply moot.
        poke._defused = True
        if not self.is_alive:
            return
        self._step(throw=poke._value)

    def _start(self, _event: Event) -> None:
        self._step(send=None)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            self.fail(exc)
            return
        tt = type(target)
        if tt is int:
            # Flattened sleep.  The record allocates `seq` at exactly the
            # point a Timeout would have been constructed, so scheduling
            # order — and every simulated result — is unchanged.
            if target >= 0:
                sim = self.sim
                if sim.direct_resume:
                    seq = sim._seq
                    self._waiting_on = _SLEEP
                    self._sleep_seq = seq
                    arena = sim._arena
                    if arena:
                        rec = arena.pop()
                        rec[0] = sim.now + target
                        rec[1] = seq
                        rec[3] = self
                        rec[4] = None
                        _heappush(sim._heap, rec)
                    else:
                        _heappush(sim._heap, [sim.now + target, seq, None, self, None])
                    sim._seq = seq + 1
                    return
                target = Timeout(sim, target)
            else:
                self._gen.close()
                self.fail(ValueError(f"negative timeout delay: {target}"))
                return
        elif tt is Resolved:
            # Flattened already-satisfied wait: resume at the current
            # time with the carried value after one heap round-trip.
            sim = self.sim
            if sim.direct_resume:
                seq = sim._seq
                self._waiting_on = _SLEEP
                self._sleep_seq = seq
                arena = sim._arena
                if arena:
                    rec = arena.pop()
                    rec[0] = sim.now
                    rec[1] = seq
                    rec[3] = self
                    rec[4] = target.value
                    _heappush(sim._heap, rec)
                else:
                    _heappush(sim._heap, [sim.now, seq, None, self, target.value])
                sim._seq = seq + 1
                return
            target = Event(sim).succeed(target.value)
        elif not isinstance(target, Event):
            err = TypeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Events, Resolved waits, or int delays"
            )
            self._gen.close()
            self.fail(err)
            return
        if target.sim is not self.sim:
            self._gen.close()
            self.fail(RuntimeError("yielded an event from a different simulator"))
            return
        self._waiting_on = target
        # inlined Event.add_callback (hot: once per wait)
        cb = target.callbacks
        if cb is None:
            self._waited(target)
        else:
            cb.append(self._waited)

    def _process_waited(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Abandoned (interrupt): the interrupt delivered the wake-up,
            # so this waiter takes responsibility for the stale outcome.
            if not event._ok:
                event._defused = True
            return
        self._waiting_on = None
        if event._ok:
            self._step(event._value)
        else:
            event._defused = True
            self._step(throw=event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Condition(Event):
    """Base for AnyOf/AllOf composition events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        if any(e.sim is not sim for e in self.events):
            raise RuntimeError("all composed events must share one simulator")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
        else:
            for event in self.events:
                event.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        # Only events whose callbacks have run count as "happened";
        # Timeouts are value-bearing from creation, so `triggered` alone
        # would wrongly include the future.
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of its events fires.

    Succeeds with a dict ``{event: value}`` of all events triggered so far;
    fails if the first event to fire failed.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Raced: a sub-event fired after the condition resolved.  A
            # late failure is deliberately NOT defused here — nobody is
            # listening, so it must surface via SimulationError.
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when all of its events have fired (or any fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Same raced-late-failure policy as AnyOf: leave it live.
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class Simulator:
    """The simulation clock and event loop.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5 * NS)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_active",
        "direct_resume",
        "bulk_events",
        "_bulk_extra",
        "_arena",
        "_gens",
    )

    def __init__(
        self,
        direct_resume: Optional[bool] = None,
        bulk_events: Optional[bool] = None,
    ) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        self._seq: int = 0
        self._active: bool = False
        #: whether int yields use flattened sleep records (fast path) or
        #: legacy Timeout events; both are bit-identical in simulated time
        self.direct_resume: bool = (
            DIRECT_RESUME_DEFAULT if direct_resume is None else bool(direct_resume)
        )
        #: whether model code may coalesce provably independent event
        #: trains into bulk records (see :meth:`note_bulk`); both settings
        #: are bit-identical in simulated results
        self.bulk_events: bool = (
            BULK_EVENTS_DEFAULT if bulk_events is None else bool(bulk_events)
        )
        # logical events represented by bulk records but never pushed
        self._bulk_extra: int = 0
        # free-list of spent flattened-sleep records, recycled by _step
        self._arena: list[list] = []
        # every process generator not yet freed, for close()
        self._gens: weakref.WeakSet[Generator] = weakref.WeakSet()

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create an un-triggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ps from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start running ``gen`` as a process."""
        return Process(self, gen, name=name)

    def close(self) -> None:
        """Stop every process that is still suspended.

        Closing a generator releases its frame, and with it whatever its
        locals hold: a finished run's daemons (DMA engines, firmware
        loops) still hold the last message they handled.  Their
        ``finally`` clauses run here instead of whenever the cyclic
        collector reaches them.  Call only once the simulation is over.
        """
        for gen in list(self._gens):
            gen.close()

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event combinator: first of ``events``."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event combinator: all of ``events``."""
        return AllOf(self, events)

    # -- engine -------------------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, [self.now + delay, self._seq, event])
        self._seq += 1

    def note_bulk(self, elided: int) -> None:
        """Record ``elided`` logical events serviced by one bulk record.

        Model code that coalesces a provably independent event train into
        a single heap record (see ``bulk_events``) calls this with the
        number of records it *didn't* push, so ``events_scheduled`` — the
        denominator for events/sec reporting — counts the same logical
        work whichever path ran.
        """
        self._bulk_extra += elided

    def step(self) -> None:
        """Process the single next record on the heap.

        A record is either ``(when, seq, event)`` — run the event's
        callbacks — or a flattened sleep ``(when, seq, None, process)`` —
        resume the process directly (if its wake token still matches;
        an interrupt may have disarmed it).
        """
        entry = _heappop(self._heap)
        when = entry[0]
        if when < self.now:  # pragma: no cover - defensive
            raise RuntimeError("event heap time went backwards")
        self.now = when
        event = entry[2]
        if event is None:
            proc = entry[3]
            seq = entry[1]
            value = entry[4]
            arena = self._arena
            if len(arena) < _ARENA_MAX:
                # drop object refs before pooling so the arena pins nothing
                entry[3] = None
                entry[4] = None
                arena.append(entry)
            if proc._sleep_seq == seq:
                proc._sleep_seq = -1
                proc._waiting_on = None
                proc._step(value)
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Nothing consumed this failure — stale callbacks from
            # abandoned waiters do not count as handling it.
            exc = event._value
            if isinstance(exc, BaseException):
                raise SimulationError(f"unhandled event failure: {exc!r}") from exc

    def run(self, until: Optional[int] = None) -> int:
        """Run until the heap is empty or the clock passes ``until``.

        Returns the simulation time at exit.  ``until`` is an absolute
        time in picoseconds and the boundary is *inclusive*: a record
        scheduled at exactly ``until`` still fires; only records strictly
        after ``until`` are left on the heap.  The clock is left at
        ``until`` if the horizon was reached (with or without events
        still outstanding), and never moves backwards.

        The loop body is an inlined :meth:`step` (minus the defensive
        monotonicity check — the heap guarantees it): this is the hottest
        code in the repository.
        """
        if self._active:
            raise RuntimeError("simulator is already running")
        self._active = True
        heap = self._heap
        pop = _heappop
        arena = self._arena
        arena_append = arena.append
        try:
            if until is None:
                while heap:
                    entry = pop(heap)
                    self.now = entry[0]
                    event = entry[2]
                    if event is None:
                        proc = entry[3]
                        seq = entry[1]
                        value = entry[4]
                        if len(arena) < _ARENA_MAX:
                            entry[3] = None
                            entry[4] = None
                            arena_append(entry)
                        if proc._sleep_seq == seq:
                            proc._sleep_seq = -1
                            proc._waiting_on = None
                            proc._step(value)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise SimulationError(
                                f"unhandled event failure: {exc!r}"
                            ) from exc
            else:
                while heap:
                    if heap[0][0] > until:
                        if until > self.now:
                            self.now = until
                        break
                    entry = pop(heap)
                    self.now = entry[0]
                    event = entry[2]
                    if event is None:
                        proc = entry[3]
                        seq = entry[1]
                        value = entry[4]
                        if len(arena) < _ARENA_MAX:
                            entry[3] = None
                            entry[4] = None
                            arena_append(entry)
                        if proc._sleep_seq == seq:
                            proc._sleep_seq = -1
                            proc._waiting_on = None
                            proc._step(value)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise SimulationError(
                                f"unhandled event failure: {exc!r}"
                            ) from exc
                else:
                    if until > self.now:
                        self.now = until
        finally:
            self._active = False
        return self.now

    def schedule_at(self, when: int, value: Any = None) -> Event:
        """Schedule an already-succeeded event at absolute time ``when``.

        The relative-delay API (:meth:`timeout`, ``Event.succeed(delay=)``)
        covers model code, which always reasons forward from ``now``.  The
        partition-parallel driver (:mod:`repro.sim.parallel`) instead
        *imports* cross-partition arrivals carrying absolute timestamps
        assigned by another simulator; this is the one sanctioned way to
        re-anchor such a record on this heap.  ``when`` must not precede
        the current clock — a violation here is a causality bug, not a
        modeling choice, so it raises instead of clamping.
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when} ps: clock already at {self.now} ps"
            )
        ev = Event(self)
        ev._ok = True
        ev._value = value
        self._schedule(ev, when - self.now)
        return ev

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def events_scheduled(self) -> int:
        """Total logical events scheduled so far.

        Heap records actually pushed (events + flattened sleeps) plus the
        logical events bulk records stood in for (:meth:`note_bulk`).
        Monotonic; the denominator for wall-clock events/sec reporting
        (:mod:`repro.perf`).  Identical whichever int-yield path is in
        use (flattened sleeps allocate the same ``seq`` a Timeout would
        have) and whether or not bulk batching ran (``note_bulk`` restores
        the elided count).
        """
        return self._seq + self._bulk_extra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now}ps queued={len(self._heap)}>"
