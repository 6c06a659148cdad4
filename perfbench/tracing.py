"""The traced run: spans around layer calls, and a per-package profile.

Two instruments, both installed only for the traced group:

* ``Tracer`` replaces a fixed set of public functions and methods with
  wrappers that record a span (name, thread, start, end, parent span,
  request key) and bump counters.  Spans of one served request carry the
  request's cache key, on the HTTP thread and on the dispatcher thread
  alike.  Spans stay in memory and are written as one Chrome trace at
  exit.
* ``Profiler`` runs ``cProfile`` in every thread.  The coroutine layers
  (net, hw, fw, portals, ...) run as generators resumed by the event
  loop, which no wrapper can time; their self time comes from here.
  Time in builtins and in the standard library is charged to the
  nearest caller inside the repository, time blocked in waits is left
  out, and the traced wall time not covered by any layer is the
  ``unattributed`` row.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import json
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept in memory; later ones are counted as dropped
MAX_SPANS = 200_000

#: layer rows reported as ``<layer>.self_s`` metrics
LAYERS = (
    "sim",
    "sim.parallel",
    "net",
    "hw",
    "fw",
    "portals",
    "nal",
    "oskern",
    "mpi",
    "netpipe",
    "machine",
    "metrics",
    "benchrunner",
    "cache",
    "serve",
)

#: builtins whose self time is spent blocked, not computing
_WAITS = ("acquire", "sleep", "select", "poll", "recv", "accept", "waitpid", "connect")


class Tracer:
    """Span and counter wrappers around layer entry points."""

    def __init__(self, t0: float) -> None:
        self.t0 = t0
        self.spans: List[tuple] = []
        self.dropped = 0
        self.totals: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.parallel: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_keys: Dict[int, str] = {}
        self._sims: Dict[int, Tuple[int, int]] = {}
        self._restore: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def annotate(self, **args: Any) -> None:
        """Attach ``args`` to every span open on this thread."""
        for entry in self._stack():
            entry[1].update(args)

    def span(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            span_args: Dict[str, Any] = tag(args, kwargs) if tag else {}
            stack.append((sid, span_args))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.totals[name] += t1 - t0
                tracer.calls[name] += 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (name, threading.get_ident(), t0, t1, sid, parent, span_args)
                    )
                else:
                    tracer.dropped += 1

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch_function(self, module: Any, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` everywhere it was imported by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(mod, attr, replacement)
                self._restore.append(functools.partial(setattr, mod, attr, original))

    def _patch_method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> None:
        from repro import cache, serve
        from repro.benchrunner import executor, pool
        from repro.machine import builder
        from repro.net import packet
        from repro.netpipe import runner
        from repro.serve import api, batch
        from repro.sim import core, parallel
        from repro.telemetry.serve import ServeTelemetry

        span = self.span

        def shard_tag(args: tuple, kwargs: dict) -> Dict[str, Any]:
            return {"shard": args[0].shard_id}

        def key_tag(args: tuple, kwargs: dict) -> Dict[str, Any]:
            return {"req": args[1][:16]}

        def payload_tag(args: tuple, kwargs: dict) -> Dict[str, Any]:
            key = self._request_keys.get(id(args[0]))
            return {"req": key[:16]} if key else {}

        self._patch_function(executor, "execute_shard", lambda f: span("execute_shard", f, shard_tag))
        self._patch_function(builder, "build_pair", lambda f: span("build_pair", f))
        self._patch_function(api, "normalize_request", lambda f: span("normalize_request", f))
        self._patch_function(api, "execute_payload", lambda f: span("execute_payload", f, payload_tag))
        self._patch_method(serve.ReproServer, "handle", lambda f: span("ReproServer.handle", f))
        self._patch_method(batch.BatchQueue, "submit", lambda f: span("BatchQueue.submit", f))
        self._patch_method(cache.ResultCache, "get", lambda f: self._cache_get(span("ResultCache.get", f, key_tag)))
        self._patch_method(cache.ResultCache, "put", lambda f: span("ResultCache.put", f, key_tag))
        self._patch_function(cache, "cache_key", lambda f: self._cache_key(span("cache_key", f)))
        self._patch_method(runner.NetPipeRunner, "run", lambda f: self._points(span("NetPipeRunner.run", f)))
        self._patch_method(core.Simulator, "__init__", self._sim_init)
        self._patch_method(core.Simulator, "run", lambda f: self._sim_run(span("Simulator.run", f)))
        self._patch_function(parallel, "run_scenario", lambda f: self._scenario(span("run_scenario", f)))
        self._patch_function(packet, "chunk_message", self._chunks)
        self._patch_function(pool, "run_pool", self._pool)
        self._patch_method(ServeTelemetry, "record_request", self._serve_record)

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- counting wrappers ---------------------------------------------------

    def _cache_get(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            self.counts["cache.hits" if out is not None else "cache.misses"] += 1
            return out

        return wrapper

    def _cache_key(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(request: Any, *args: Any, **kwargs: Any) -> str:
            key = fn(request, *args, **kwargs)
            self._request_keys[id(request)] = key
            self.annotate(req=key[:16])
            return key

        return wrapper

    def _points(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            series = fn(*args, **kwargs)
            self.counts["netpipe.points"] += len(series.points)
            return series

        return wrapper

    def _sim_init(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> None:
            fn(sim, *args, **kwargs)
            self._sims[id(sim)] = (0, 0)

        return wrapper

    def _sim_run(self, fn: Callable) -> Callable:
        # heap records pushed are the private ``_seq`` counter; the public
        # ``events_scheduled`` adds the logical events bulk records stood for
        @functools.wraps(fn)
        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return fn(sim, *args, **kwargs)
            finally:
                pushes, logical = sim._seq, sim.events_scheduled
                seen_pushes, seen_logical = self._sims.get(id(sim), (0, 0))
                self.counts["sim.heap_pushes"] += pushes - seen_pushes
                self.counts["sim.logical_events"] += logical - seen_logical
                self._sims[id(sim)] = (pushes, logical)

        return wrapper

    def _scenario(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(scenario: Any, nparts: int = 1, **kwargs: Any) -> Any:
            kwargs["telemetry"] = True
            started = time.time()
            out = fn(scenario, nparts, **kwargs)
            self.parallel.append(
                {"scenario": scenario.name, "started": started, "info": out["info"]}
            )
            return out

        return wrapper

    def _chunks(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            chunks = fn(*args, **kwargs)
            self.counts["net.wire_chunks"] += len(chunks)
            return chunks

        return wrapper

    def _pool(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outcome = fn(*args, **kwargs)
            counters = outcome.counters()
            self.counts["benchrunner.pool.spawns"] += counters["pool.spawns"]
            self.counts["benchrunner.pool.retries"] += counters["pool.retries"]
            return outcome

        return wrapper

    def _serve_record(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(telemetry: Any, **fields: Any) -> None:
            self.counts["serve.queue_wait_s"] += fields.get("queue_wait_s", 0.0)
            fn(telemetry, **fields)

        return wrapper

    # -- outputs -------------------------------------------------------------

    def span_table(self) -> List[tuple]:
        """(name, calls, total s, self s): self = duration minus children."""
        child: Dict[int, float] = defaultdict(float)
        for _, _, t0, t1, _, parent, _ in self.spans:
            if parent:
                child[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        for name, _, t0, t1, sid, _, _ in self.spans:
            self_s[name] += (t1 - t0) - child.get(sid, 0.0)
        return sorted(
            ((n, self.calls[n], self.totals[n], self_s[n]) for n in self.totals),
            key=lambda row: -row[2],
        )

    def chrome_trace(self) -> Dict[str, Any]:
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events: List[Dict[str, Any]] = []
        for name, ident, t0, t1, sid, parent, args in self.spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": max(0.0, (t0 - self.t0) * 1e6),
                    "dur": (t1 - t0) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {"span": sid, "parent": parent, **args},
                }
            )
        names = {t.ident: t.name for t in threading.enumerate()}
        for ident, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": names.get(ident, f"thread-{tid}")},
                }
            )
        return {"traceEvents": events, "otherData": {"dropped_spans": self.dropped}}


class Profiler:
    """cProfile in the calling thread and in every thread started later."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _thread_hook(self, frame: Any, event: str, arg: Any) -> None:
        sys.setprofile(None)
        prof = cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
        prof.enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._main = cProfile.Profile()
        self._profiles.append(self._main)
        self._main.enable()

    def stop(self) -> pstats.Stats:
        self._main.disable()
        threading.setprofile(None)
        with self._lock:
            profiles = list(self._profiles)
        stats = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            stats.add(prof)
        return stats


def layer_of(filename: str) -> Optional[str]:
    """The repository layer a source file belongs to, or None."""
    path = filename.replace(os.sep, "/")
    i = path.rfind("/src/repro/")
    if i >= 0:
        parts = path[i + len("/src/repro/") :].split("/")
        if len(parts) == 1:
            return "repro"
        if parts[0] == "sim" and parts[1] == "parallel":
            return "sim.parallel"
        return parts[0]
    if f"/{Path(__file__).parent.name}/" in path:
        return "perfbench"
    return None


def self_times(stats: pstats.Stats) -> Tuple[Dict[str, float], float, int]:
    """Per-layer self seconds, seconds blocked in waits, and the calls of
    ``RxDmaEngine._deposit`` (one per chunk deposited)."""
    table = stats.stats  # type: ignore[attr-defined]
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func: tuple, depth: int = 0) -> Dict[str, float]:
        """How ``func``'s cost splits over repository layers."""
        if func in owners:
            return owners[func]
        layer = layer_of(func[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            callers = table[func][4] if func in table else {}
            weight = sum(edge[3] for edge in callers.values())
            if depth > 50 or weight <= 0:
                share = {"host": 1.0}
            else:
                share = defaultdict(float)
                owners[func] = {"host": 1.0}  # cycle guard
                for caller, edge in callers.items():
                    for name, frac in owner(caller, depth + 1).items():
                        share[name] += frac * edge[3] / weight
                share = dict(share)
        owners[func] = share
        return share

    rows: Dict[str, float] = defaultdict(float)
    blocked = 0.0
    deposits = 0
    for func, (_, ncalls, tottime, _, callers) in table.items():
        if func[0] == "~" and any(w in func[2] for w in _WAITS):
            blocked += tottime
            continue
        if func[0].endswith(os.path.join("hw", "dma.py")) and func[2] == "_deposit":
            deposits += ncalls
        if layer_of(func[0]) is not None or not callers:
            for name, frac in owner(func).items():
                rows[name] += tottime * frac
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            part = tottime * edge[2] / edge_total if edge_total > 0 else tottime / len(callers)
            for name, frac in owner(caller).items():
                rows[name] += part * frac
    return dict(rows), blocked, deposits


def write_chrome_trace(doc: Dict[str, Any], path: Path) -> None:
    """Validate ``doc`` with the repository's own checker, then write it."""
    from repro.trace.export import validate_chrome_trace

    validate_chrome_trace(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
