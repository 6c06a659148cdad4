"""The serve workload's request trace and its closed-loop HTTP client.

The trace is a pure function of the seed, built only from traffic the
repository itself sends:

* the fleet: every put shard of Figures 4-7 in ``repro bench --fast``
  (25 shards), asked as the sweep request that reproduces it: pattern =
  the figure's pattern, sizes = the shard's size schedule.  Every seed
  asks for the same 25 sweeps, in a seeded order; each group of a run
  draws its own order from the seed.  The fig4 and fig5
  shards over ``(128, 256, 512)`` are the same pingpong sweep, so one of
  them is a repeat.  Only put is asked because every serve request the
  repository sends is a put sweep; all four variants would cost ~20 s a
  cold pass;
* the CI requests: the ``serve-smoke`` job's put sweep over
  ``[1, 1024, 65536]`` and the ``telemetry-smoke`` job's put sweep over
  ``[1, 1024]``.  Both jobs send their request twice, so each appears
  twice here.  The ``serve-smoke`` pair opens the trace: both clients
  send it at once, so the server deduplicates it.  The
  ``telemetry-smoke`` pair goes to a seeded later position.

So 3 of the 29 requests repeat an earlier one; each is answered by
deduplication or from the cache the cold pass is filling, as timing
falls.  The share of repeats follows from these sources; no measured
serve traffic says how often real callers repeat themselves.

The server only ever receives these generated documents.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: the figure shards that make up the fleet part of the trace
FLEET_SPECS = ("fig4", "fig5", "fig6", "fig7")
FLEET_VARIANT = "put"
#: the put sweeps the CI serve jobs send, each twice
CI_SIZES = {"serve-smoke": [1, 1024, 65536], "telemetry-smoke": [1, 1024]}
#: closed loop: each client waits for its reply before sending again
CLIENTS = 2


def fleet_requests() -> List[Dict[str, Any]]:
    """The sweep request of every put shard of Figures 4-7 in
    ``repro bench --fast``."""
    from repro import benchrunner

    return [
        {
            "kind": "sweep",
            "module": FLEET_VARIANT,
            "pattern": benchrunner.SPECS[shard.spec].pattern,
            "sizes": list(shard.sizes),
        }
        for shard in benchrunner.discover_shards(fast=True)
        if shard.spec in FLEET_SPECS and shard.variant == FLEET_VARIANT
    ]


def generate_trace(seed: int, group: int = 0) -> List[Dict[str, Any]]:
    """The serve-smoke pair, then the fleet in a seeded order with the
    telemetry-smoke pair at a seeded place.  Each ``group`` of a seed
    gets its own order of the same requests."""
    rng = random.Random(f"{seed}/{group}")
    trace = fleet_requests()
    rng.shuffle(trace)
    smoke, telemetry = ({"kind": "sweep", "module": "put", "sizes": s} for s in CI_SIZES.values())
    at = rng.randrange(len(trace) + 1)
    trace[at:at] = [telemetry, dict(telemetry)]
    return [smoke, dict(smoke), *trace]


def repeated_share(trace: List[Dict[str, Any]]) -> float:
    """Share of requests in ``trace`` that an earlier request already asked."""
    seen = set()
    repeats = 0
    for doc in trace:
        blob = json.dumps(doc, sort_keys=True)
        repeats += blob in seen
        seen.add(blob)
    return repeats / len(trace)


@dataclass
class Reply:
    latency_s: float
    status: int
    body: Optional[Dict[str, Any]]
    error: Optional[str] = None


class LoopClient:
    """``CLIENTS`` keep-alive connections driving one server, closed loop."""

    def __init__(self, host: str, port: int, clients: int = CLIENTS) -> None:
        self.host = host
        self.port = port
        self.conns = [self._connect() for _ in range(clients)]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def drive(self, trace: List[Dict[str, Any]]) -> Tuple[float, List[Reply]]:
        """Send ``trace``; each request goes out on whichever connection is
        free, in trace order.  Returns the pass's wall time and one reply
        per trace entry; a transport error is a reply with status 0."""
        replies: List[Optional[Reply]] = [None] * len(trace)
        lock = threading.Lock()
        pending = iter(range(len(trace)))

        def client(slot: int) -> None:
            while True:
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                body = json.dumps(trace[i]).encode("utf-8")
                conn = self.conns[slot]
                t0 = time.perf_counter()
                try:
                    conn.request(
                        "POST",
                        "/v1/query",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    data = resp.read()
                except (OSError, http.client.HTTPException) as exc:
                    replies[i] = Reply(time.perf_counter() - t0, 0, None, repr(exc))
                    conn.close()
                    self.conns[slot] = self._connect()
                    continue
                latency = time.perf_counter() - t0
                try:
                    replies[i] = Reply(latency, resp.status, json.loads(data))
                except ValueError as exc:
                    replies[i] = Reply(latency, resp.status, None, repr(exc))

        threads = [
            threading.Thread(target=client, args=(k,), name=f"bench-client-{k}")
            for k in range(len(self.conns))
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return wall, [
            r if r is not None else Reply(0.0, 0, None, "never sent") for r in replies
        ]
