"""The batch queue: memoized, single-flight, pool-sharded execution.

Only work that needs a simulation waits for anything:

1. **Hits run on the caller's thread.**  :meth:`BatchQueue.enqueue`
   normalizes and keys each request and reads the content-addressed
   store; a hit is answered at once — one JSON read, no queue, no
   dispatcher, no simulation.
2. **Single-flight dedup.**  A miss registers its key in an in-flight
   map.  A request whose key is already queued or executing joins that
   pending entry instead of queueing again, so identical questions
   simulate **once** whenever their work overlaps, however far apart
   they arrived.
3. **Drain without a window.**  One dispatcher thread blocks for the
   first queued miss, then takes whatever else is already queued (up
   to ``max_batch``) and executes the batch: inline for a single miss
   (or when the service runs single-worker), otherwise sharded across
   the self-healing worker pool (:func:`repro.benchrunner.pool.run_pool`),
   inheriting its crash/hang tolerance and retry-with-backoff.  Misses
   that arrive while a batch runs shard together on the next pass.
   Before executing, the dispatcher drops entries whose every waiter
   timed out (``abandoned``) and re-reads the store for each key, which
   closes the race where a miss registered just after its twin stored
   and left the map.  The re-read is not a lookup: ``cache`` in a
   response, and the store's hit/miss stats, always report the
   request's one lookup, so with no failures
   ``requests == hits + executed + deduplicated``.
4. Fresh results are stored (with their provenance records) in the same
   store ``repro bench --cache`` reads, then every waiter wakes.

At most :data:`MAX_INFLIGHT_MISSES` distinct misses may be queued or
executing; past that, a new miss raises :class:`Overloaded` (HTTP 429
with ``Retry-After``).  Hits and joins of an in-flight key are never
refused.

Every response carries ``cache: hit|miss``, the content address, and
the artifact's provenance record, so a caller can always answer "where
did this number come from and under what code version".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

from ..cache import ResultCache, cache_key, code_version, provenance_record
from ..benchrunner.pool import PoolTask, run_pool
from ..telemetry.recorder import default_flight_dir
from ..telemetry.serve import ServeTelemetry
from .api import RequestError, execute_payload, normalize_request

__all__ = [
    "MAX_INFLIGHT_MISSES",
    "BatchQueue",
    "Overloaded",
    "QueueStats",
    "ServiceError",
    "Ticket",
]

#: distinct misses that may be queued or executing at once; a miss is at
#: least one simulation, so a deeper backlog only grows every waiter's
#: latency toward its timeout
MAX_INFLIGHT_MISSES = 256


class ServiceError(RuntimeError):
    """A request that failed during execution (HTTP 500)."""


class Overloaded(ServiceError):
    """A new miss refused because the in-flight cap is reached (HTTP 429)."""


@dataclass
class QueueStats:
    """Dispatcher accounting, exposed at ``/v1/stats``."""

    requests: int = 0
    batches: int = 0
    deduplicated: int = 0
    executed: int = 0
    errors: int = 0
    abandoned: int = 0
    rejected: int = 0

    def to_jsonable(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class _Pending:
    """One in-flight key: the work every waiter on that key shares."""

    request: Dict[str, Any]
    key: str
    waiters: int = 1
    done: threading.Event = field(default_factory=threading.Event)
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    t_dispatch: float = 0.0
    execute_s: float = 0.0
    store_s: float = 0.0


@dataclass
class Ticket:
    """One request's handle between :meth:`BatchQueue.enqueue` and
    :meth:`BatchQueue.wait`: an answered hit, a refusal, or a share of
    an in-flight :class:`_Pending`."""

    request: Optional[Dict[str, Any]] = None
    key: str = ""
    normalize_s: float = 0.0
    lookup_s: float = 0.0
    t_enqueue: float = 0.0
    response: Optional[Dict[str, Any]] = None
    refusal: Optional[Exception] = None
    pending: Optional[_Pending] = None


def _response(cache: str, key: str, artifact: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "cache": cache,
        "key": key,
        "result": artifact["result"],
        "provenance": artifact["provenance"],
    }


class BatchQueue:
    """The service's execution core (usable with or without HTTP)."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        workers: int = 1,
        max_batch: int = 32,
        task_timeout_s: float = 600.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.cache = cache
        self.workers = workers
        self.max_batch = max_batch
        self.task_timeout_s = task_timeout_s
        self.stats = QueueStats()
        self.telemetry = ServeTelemetry()
        self._code = code_version()
        # one lock guards the in-flight map, the miss queue, the stats and
        # the telemetry series; the condition wakes the dispatcher
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._inflight: Dict[str, _Pending] = {}
        self._queue: Deque[_Pending] = deque()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        with self._ready:
            self._stopping = True
            self._ready.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def depth(self) -> int:
        """Misses queued and not yet taken by the dispatcher."""
        with self._lock:
            return len(self._queue)

    # -- the front door ------------------------------------------------------

    def submit(
        self, doc: Any, *, timeout_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Answer one request: :meth:`enqueue` then :meth:`wait`.

        Raises :class:`~repro.serve.api.RequestError` on malformed input,
        :class:`Overloaded` when a new miss would pass the in-flight cap,
        and :class:`ServiceError` on execution failure or timeout.
        Thread-safe; any number of callers may block here concurrently.
        """
        return self.wait(self.enqueue([doc])[0], timeout_s=timeout_s)

    def enqueue(self, docs: Sequence[Any]) -> List[Ticket]:
        """Register requests without waiting; one :class:`Ticket` each.

        Hits are answered here, on the caller's thread.  The misses are
        registered under one hold of the lock, so the dispatcher's next
        pass sees all of them and they dedup and shard together.
        Malformed or refused requests come back as tickets whose
        :meth:`wait` raises.
        """
        tickets = [self._lookup(doc) for doc in docs]
        with self._lock:
            for ticket in tickets:
                if ticket.refusal is not None:
                    continue
                self.stats.requests += 1
                if ticket.response is None:
                    self._register(ticket)
        return tickets

    def wait(
        self, ticket: Ticket, *, timeout_s: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block until ``ticket`` is answered; raise what it failed with.

        A wait that times out detaches from its pending entry; once no
        waiter is left the dispatcher drops the entry unexecuted.
        """
        if ticket.refusal is not None:
            raise ticket.refusal
        pending = ticket.pending
        if pending is None:  # a hit
            self._span(ticket)
            assert ticket.response is not None
            return ticket.response
        if not pending.done.wait(timeout=timeout_s):
            with self._lock:
                if not pending.done.is_set():
                    pending.waiters -= 1
                    raise ServiceError("request timed out in the batch queue")
        self._span(ticket, pending)
        if pending.error is not None:
            raise ServiceError(pending.error)
        assert pending.response is not None
        return pending.response

    def _lookup(self, doc: Any) -> Ticket:
        """Normalize, key, and read the store (outside the lock)."""
        t_norm = time.perf_counter()
        try:
            request = normalize_request(doc)
        except RequestError as exc:
            return Ticket(refusal=exc)
        ticket = Ticket(request=request, key=cache_key(request, code=self._code))
        ticket.normalize_s = time.perf_counter() - t_norm
        if self.cache is not None:
            t_lookup = time.perf_counter()
            artifact = self.cache.get(ticket.key)
            ticket.lookup_s = time.perf_counter() - t_lookup
            if artifact is not None:
                ticket.response = _response("hit", ticket.key, artifact)
        ticket.t_enqueue = time.perf_counter()
        return ticket

    def _register(self, ticket: Ticket) -> None:
        """Join the key's in-flight entry or queue a new one (lock held)."""
        pending = self._inflight.get(ticket.key)
        if pending is not None:
            pending.waiters += 1
            self.stats.deduplicated += 1
        elif len(self._inflight) >= MAX_INFLIGHT_MISSES:
            self.stats.rejected += 1
            ticket.refusal = Overloaded(
                f"{MAX_INFLIGHT_MISSES} distinct misses already in flight"
            )
            return
        else:
            assert ticket.request is not None
            pending = _Pending(request=ticket.request, key=ticket.key)
            self._inflight[ticket.key] = pending
            self._queue.append(pending)
            self.telemetry.queue_depth.sample(len(self._queue))
            self._ready.notify()
        ticket.pending = pending

    def _span(self, ticket: Ticket, pending: Optional[_Pending] = None) -> None:
        """One per-request span record in the telemetry ring; a hit
        (no ``pending``) waits, executes and stores nothing."""
        assert ticket.request is not None
        if pending is None:
            cache, queue_wait_s, execute_s, store_s = "hit", 0.0, 0.0, 0.0
        else:
            cache = "miss" if pending.error is None else "error"
            queue_wait_s = max(0.0, pending.t_dispatch - ticket.t_enqueue)
            execute_s, store_s = pending.execute_s, pending.store_s
        with self._lock:
            self.telemetry.record_request(
                req_kind=ticket.request.get("kind"),
                key=ticket.key[:12],
                cache=cache,
                normalize_s=round(ticket.normalize_s, 6),
                queue_wait_s=round(queue_wait_s, 6),
                lookup_s=round(ticket.lookup_s, 6),
                execute_s=round(execute_s, 6),
                store_s=round(store_s, 6),
            )

    # -- the dispatcher ------------------------------------------------------

    def _next_batch(self) -> List[_Pending]:
        """Block for the first queued miss, then take what else is queued."""
        with self._ready:
            while not self._queue and not self._stopping:
                self._ready.wait()
            if self._stopping:
                return []
            take = min(len(self._queue), self.max_batch)
            return [self._queue.popleft() for _ in range(take)]

    def _loop(self) -> None:  # pragma: no cover - exercised via submit()
        while True:
            batch = self._next_batch()
            if not batch:
                return  # stopping
            try:
                self._process(batch)
            except BaseException as exc:  # noqa: BLE001 - wake the waiters
                detail = f"{type(exc).__name__}: {exc}"
                self.telemetry.recorder.record("dispatcher-error", error=detail)
                flight = default_flight_dir()
                if flight is not None:
                    self.telemetry.recorder.dump(
                        flight,
                        reason="invariant-failure",
                        role="serve-dispatch",
                        detail=detail,
                    )
                with self._lock:
                    for pending in batch:
                        if not pending.done.is_set():
                            pending.error = detail
                            self._finish(pending)

    def _finish(self, pending: _Pending) -> None:
        """Retire ``pending`` from the map and wake its waiters (lock held)."""
        if self._inflight.get(pending.key) is pending:
            del self._inflight[pending.key]
        pending.done.set()

    def _process(self, batch: List[_Pending]) -> None:
        t_start = time.perf_counter()
        with self._lock:
            live: List[_Pending] = []
            for pending in batch:
                if pending.waiters > 0:
                    pending.t_dispatch = t_start
                    live.append(pending)
                else:  # every waiter timed out: nobody wants the answer
                    self.stats.abandoned += 1
                    self._finish(pending)
            if not live:
                return
            self.stats.batches += 1
            self.telemetry.batch_size.sample(len(live))
            self.telemetry.queue_depth.sample(len(self._queue))

        # 1. re-read the store: a twin may have stored after this key's
        #    lookup missed but before it registered.  The twin's simulation
        #    answers it, so it counts as deduplicated, like a join.
        todo: List[_Pending] = []
        for pending in live:
            artifact = (
                self.cache.peek(pending.key) if self.cache is not None else None
            )
            if artifact is None:
                todo.append(pending)
                continue
            with self._lock:
                self.stats.deduplicated += 1
                pending.response = _response("miss", pending.key, artifact)
                self._finish(pending)
        if not todo:
            return

        # 2. execute the misses (keys are unique: the map deduplicated them)
        outputs: Dict[str, Dict[str, Any]] = {}
        failures: Dict[str, str] = {}
        if self.workers > 1 and len(todo) > 1:
            outcome = run_pool(
                [PoolTask(task_id=p.key, payload=p.request) for p in todo],
                execute_payload,
                workers=self.workers,
                timeout_s=self.task_timeout_s,
            )
            outputs = outcome.results
            failures = dict(outcome.failed)
        else:
            for pending in todo:
                try:
                    outputs[pending.key] = execute_payload(pending.request)
                except Exception as exc:  # noqa: BLE001 - report per-request
                    failures[pending.key] = f"{type(exc).__name__}: {exc}"

        # 3. store each fresh result before its key leaves the map, so a
        #    later request finds it either in flight or in the store
        for pending in todo:
            output = outputs.get(pending.key)
            artifact = self._store(pending, output) if output is not None else None
            with self._lock:
                if artifact is None:
                    self.stats.errors += 1
                    pending.error = failures.get(pending.key, "execution failed")
                else:
                    self.stats.executed += 1
                    pending.response = _response("miss", pending.key, artifact)
                self._finish(pending)

    def _store(self, pending: _Pending, output: Dict[str, Any]) -> Dict[str, Any]:
        request = pending.request
        pending.execute_s = output["wall_s"]
        t_store = time.perf_counter()
        if self.cache is not None:
            artifact = self.cache.put(
                pending.key,
                output["result"],
                request=request,
                kind=request["kind"],
                wall_s=output["wall_s"],
                workers=self.workers,
                code=self._code,
            )
        else:
            artifact = {
                "result": output["result"],
                "provenance": provenance_record(
                    request,
                    kind=request["kind"],
                    wall_s=output["wall_s"],
                    workers=self.workers,
                    code=self._code,
                ),
            }
        pending.store_s = time.perf_counter() - t_store
        return artifact
