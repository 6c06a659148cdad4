"""Conservative (null-message / lookahead-window) parallel DES driver.

The machine is cut into axis-aligned slabs (:func:`repro.machine.builder.
partition_nodes`); each partition runs the ordinary single-threaded
:class:`~repro.sim.core.Simulator` over its nodes, and cross-partition
wire chunks travel as timestamped channel messages between partitions.

Synchronization is the classic Chandy–Misra–Bryant window scheme run as
synchronous global rounds:

1. every partition publishes ``(next, exports)`` — the timestamp of its
   earliest pending event and the chunks it exported since the last
   round;
2. every partition reads all peers' publications, imports the chunks
   destined to it (at their original timestamps, into the destination's
   inbox: :meth:`PlanePartition.import_chunk`), and computes the *import-adjusted*
   earliest pending time ``N'_k`` of every partition — identical inputs,
   so every partition derives identical values;
3. the lower bound on any partition's next execution is the fixed point
   ``E_j = min_k (N'_k + D[k][j])`` where ``D`` is the all-pairs
   shortest-path closure of the lookahead matrix ``L`` — a chunk leaving
   partition ``k`` cannot arrive at ``i`` earlier than its send time
   plus ``L[k][i]``;
4. partition ``i`` may then safely simulate every event strictly below
   the horizon ``H_i = min_{k != i} (E_k + L[k][i])`` — anything a peer
   has not yet sent will arrive at or beyond it.

The lookahead is physical, not tuned: ``L[i][j]`` is
``LinkModel.chunk_transit_time(1, hops)`` — one packet's serialization
plus per-hop fall-through over the *minimum* dimension-ordered route
crossing the cut (:func:`repro.net.routing.slab_cut_hops`).  The plane
model never emits a chunk that beats it (at least one packet serializes
before the first hop), and :class:`PartitionRunner` re-checks every
import at runtime, raising :class:`CausalityError` rather than
reordering history.

Progress is guaranteed: the partition holding the globally earliest
event has ``H >= N'_min + min(L) > N'_min``, so every round executes at
least that event; termination is when every ``N'`` is infinite (no
pending events anywhere and no chunks in flight — in-flight chunks are
folded into ``N'`` the round they are published).

**Exactness contract.**  Partitioned runs reproduce the serial run's
*results* byte-identically: every delivered-message record and every
metric derived from them (see :func:`repro.sim.parallel.scenario.
result_document`) is a deterministic function of the arrival set,
folded in the canonical order ``(arrival, src, msg_id, chunk_seq)``.
The documented relaxation is that *heap-level* bookkeeping is not
reproduced: event interleaving within a timestamp, heap sequence
numbers, and ``events_scheduled`` all legitimately differ between
partitionings (each partition owns a private heap), so they live in the
informational ``info`` half of the run document, never in the gated
``result`` half.  tests/test_parallel_sim.py and the Hypothesis suite
assert the identity; docs/architecture.md spells out the contract.

Two transports drive the same round protocol:

* ``memory`` — all partitions step round-robin in one process (used by
  the property suite and the differential harness's fast paths);
* ``pool``   — one long-lived task per partition on the self-healing
  spawn pool (:mod:`repro.benchrunner.pool`), exchanging round files in
  a per-run temporary directory via the repo's atomic-rename discipline.  A
  partition SIGKILLed mid-run is respawned by the pool and
  deterministically re-simulates from t=0, republishing byte-identical
  round files until it catches up; peers simply keep polling.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...hw.config import DEFAULT_CONFIG, SeaStarConfig
from ...machine.builder import PartitionPlan, partition_nodes
from ...net.link import LinkModel
from ...net.routing import slab_cut_hops
from ...telemetry.recorder import default_flight_dir, dump_flight
from ...telemetry.rounds import RoundRecorder, doc_tail_events, straggler_report
from ..core import Simulator
from .scenario import Chunk, MsgKey, PlanePartition, PlaneScenario, result_document

__all__ = [
    "CausalityError",
    "PartitionRunner",
    "lookahead_matrix",
    "lookahead_closure",
    "run_scenario",
    "INF",
]

INF = float("inf")

#: exchange-file poll deadline: how long a partition waits for a peer's
#: round file before declaring the run wedged.  Generous because a
#: SIGKILLed peer must be respawned by the pool (backoff included) and
#: re-simulate from t=0 before its file appears.
DEFAULT_EXCHANGE_DEADLINE_S = 300.0

#: exchange-file poll backoff: a missing peer file is re-checked after
#: POLL_MIN_S, then after doubling sleeps capped at POLL_MAX_S.  Most
#: rounds' files land within a millisecond of each other, so a short
#: first sleep saves the fixed 5 ms a round used to cost; the cap keeps
#: a long wait (a respawning peer) from spinning.
POLL_MIN_S = 0.0002
POLL_MAX_S = 0.005


class CausalityError(RuntimeError):
    """An imported chunk carried a timestamp below the safe horizon."""


# -- lookahead geometry ------------------------------------------------------


def lookahead_matrix(
    scenario: PlaneScenario,
    plan: PartitionPlan,
    config: SeaStarConfig = DEFAULT_CONFIG,
) -> List[List[int]]:
    """Pairwise conservative lookahead (ps) between slab partitions.

    ``L[i][j]`` bounds how soon a chunk sent by partition ``i`` can
    arrive at partition ``j``: one packet's serialization plus the
    minimum cut's per-hop latency, i.e. ``LinkModel.chunk_transit_time(1,
    min_hops)``.  Strictly positive for ``i != j`` (disjoint slabs are
    at least one hop apart), which is what guarantees progress.
    """
    topo = scenario.topology()
    hops = slab_cut_hops(topo, plan.axis, list(plan.ranges))
    link = LinkModel(config)
    n = plan.nparts
    out: List[List[int]] = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(0 if i == j else link.chunk_transit_time(1, hops[i][j]))
        out.append(row)
    return out


def lookahead_closure(lookahead: List[List[int]]) -> List[List[int]]:
    """All-pairs shortest paths over the lookahead graph (Floyd–Warshall).

    ``D[k][j]`` is the cheapest multi-partition relay cost from ``k`` to
    ``j`` (0 on the diagonal): an event at ``k`` at time ``t`` cannot
    cause an event at ``j`` before ``t + D[k][j]``, however many
    partitions the causal chain crosses.
    """
    n = len(lookahead)
    dist = [[0 if i == j else lookahead[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            row = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return dist


def _nprimes(docs: List[Dict[str, Any]], nparts: int) -> List[float]:
    """Import-adjusted earliest pending time per partition.

    Identical for every computing partition: inputs are the same
    published docs, so the fleet stays in lock-step without a second
    barrier per round.
    """
    nprime: List[float] = []
    for k in range(nparts):
        best = INF
        nxt = docs[k]["next"]
        if nxt is not None:
            best = float(nxt)
        for doc in docs:
            for rec in doc["exports"].get(str(k), ()):
                if rec[1] < best:
                    best = float(rec[1])
        nprime.append(best)
    return nprime


def _horizons(
    nprime: List[float], closure: List[List[int]], lookahead: List[List[int]]
) -> List[float]:
    """The per-partition safe horizon for this round (may be ``INF``)."""
    n = len(nprime)
    bound = [min(nprime[k] + closure[k][j] for k in range(n)) for j in range(n)]
    return [
        min((bound[k] + lookahead[k][i] for k in range(n) if k != i), default=INF)
        for i in range(n)
    ]


# -- exchange transports -----------------------------------------------------


class MemoryExchange:
    """In-process transport: a dict shared by round-robin partitions."""

    def __init__(self) -> None:
        self._docs: Dict[Tuple[int, int], Dict[str, Any]] = {}

    def publish(self, round_no: int, part: int, doc: Dict[str, Any]) -> None:
        self._docs[(round_no, part)] = doc

    def collect(self, round_no: int, nparts: int) -> List[Dict[str, Any]]:
        return [self._docs.pop((round_no, k)) for k in range(nparts)]


class DirExchange:
    """File transport: one atomically-renamed JSON per (round, partition).

    Readers poll for peers' files; a torn file is impossible (the writer
    renames into place) and a *re*written file — a respawned partition
    republishing after a crash — carries byte-identical content by
    determinism, so late reads and re-reads are both safe.

    Polling is accounted, not silent: ``poll_wait_s`` accumulates the
    wall-clock time this side spent sleeping on missing peer files (and
    ``polls`` the number of sleeps, which back off from ``POLL_MIN_S``
    to ``POLL_MAX_S`` within one collect), which feeds the straggler
    report's transport-wait attribution and the wedged-run diagnostics.
    """

    def __init__(self, path: str, deadline_s: float = DEFAULT_EXCHANGE_DEADLINE_S):
        self.path = path
        self.deadline_s = deadline_s
        self.poll_wait_s = 0.0
        self.polls = 0
        os.makedirs(path, exist_ok=True)

    def _filename(self, round_no: int, part: int) -> str:
        return os.path.join(self.path, f"r{round_no:06d}-p{part:03d}.json")

    def publish(self, round_no: int, part: int, doc: Dict[str, Any]) -> None:
        from ...benchrunner.pool import atomic_write_bytes

        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        atomic_write_bytes(self._filename(round_no, part), blob.encode("utf-8"))

    def collect(self, round_no: int, nparts: int) -> List[Dict[str, Any]]:
        docs: List[Optional[Dict[str, Any]]] = [None] * nparts
        deadline = time.monotonic() + self.deadline_s
        missing = set(range(nparts))
        backoff = POLL_MIN_S
        while missing:
            for part in sorted(missing):
                try:
                    with open(self._filename(round_no, part), encoding="utf-8") as fh:
                        docs[part] = json.load(fh)
                except (OSError, ValueError):
                    continue
                missing.discard(part)
            if not missing:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"exchange wedged: round {round_no} missing partitions "
                    f"{sorted(missing)} after {self.deadline_s}s "
                    f"({self.poll_wait_s:.1f}s cumulative poll-wait over "
                    f"{self.polls} polls)"
                )
            slept = time.monotonic()
            time.sleep(backoff)
            self.poll_wait_s += time.monotonic() - slept
            self.polls += 1
            backoff = min(backoff * 2, POLL_MAX_S)
        return [doc for doc in docs if doc is not None]


# -- the per-partition driver ------------------------------------------------


def _chunk_to_jsonable(rec: Chunk) -> List[Any]:
    return [rec[0], rec[1], rec[2], list(rec[3]), *rec[4:]]


def _chunk_from_jsonable(rec: List[Any]) -> Chunk:
    return (
        rec[0],
        rec[1],
        rec[2],
        (rec[3][0], rec[3][1], rec[3][2]),
        rec[4],
        rec[5],
        rec[6],
        rec[7],
        rec[8],
    )


class PartitionRunner:
    """One partition's simulator plus its side of the round protocol."""

    def __init__(
        self,
        scenario: PlaneScenario,
        plan: PartitionPlan,
        idx: int,
        config: SeaStarConfig = DEFAULT_CONFIG,
    ):
        self.scenario = scenario
        self.plan = plan
        self.idx = idx
        topo = scenario.topology()
        self.topo = topo
        self.sim = Simulator()
        # node -> owning partition, for routing exports
        self._owner = [0] * topo.num_nodes
        for part, nodes in enumerate(plan.nodes):
            for node in nodes:
                self._owner[node] = part
        self._exports: Dict[int, List[Chunk]] = {}
        exporter = self._export if plan.nparts > 1 else None
        self.model = PlanePartition(
            self.sim,
            scenario,
            topo,
            plan.nodes[idx],
            exporter=exporter,
            config=config,
        )
        #: everything strictly below the floor has been simulated; an
        #: import below it would rewrite history
        self.floor: float = 0.0
        self.model.submit_initial()

    def _export(self, rec: Chunk) -> None:
        self._exports.setdefault(self._owner[rec[0]], []).append(rec)

    def publish_doc(self, round_no: int) -> Dict[str, Any]:
        """Drain exports and snapshot the earliest pending event time."""
        exports: Dict[str, List[List[Any]]] = {}
        for dest in sorted(self._exports):
            recs = sorted(self._exports[dest], key=lambda r: (r[1], r[2], r[3], r[4]))
            exports[str(dest)] = [_chunk_to_jsonable(r) for r in recs]
        self._exports.clear()
        return {
            "part": self.idx,
            "round": round_no,
            "next": self.sim.peek(),
            "exports": exports,
        }

    def absorb(self, docs: List[Dict[str, Any]]) -> int:
        """Import every chunk destined to this partition, checked.

        Returns the number of chunks imported (a telemetry fact; callers
        that don't record simply ignore it).
        """
        mine = str(self.idx)
        imported = 0
        for doc in docs:
            for raw in doc["exports"].get(mine, ()):
                rec = _chunk_from_jsonable(raw)
                if rec[1] < self.floor:
                    raise CausalityError(
                        f"partition {self.idx}: import at {rec[1]} ps below "
                        f"safe floor {self.floor} ps (from partition "
                        f"{doc['part']})"
                    )
                self.model.import_chunk(rec)
                imported += 1
        return imported

    def advance(self, horizon: float) -> None:
        """Simulate strictly below ``horizon`` (all of it when ``INF``)."""
        if horizon == INF:
            self.sim.run()
            self.floor = INF
            return
        until = int(horizon) - 1
        if until >= self.sim.now:
            self.sim.run(until=until)
        if horizon > self.floor:
            self.floor = horizon


# -- whole-run drivers -------------------------------------------------------


def _merge_delivered(
    parts: List[Dict[MsgKey, Tuple[int, int, int]]],
) -> Dict[MsgKey, Tuple[int, int, int]]:
    merged: Dict[MsgKey, Tuple[int, int, int]] = {}
    for delivered in parts:
        overlap = merged.keys() & delivered.keys()
        if overlap:  # pragma: no cover - defensive
            raise RuntimeError(f"message delivered by two partitions: {overlap}")
        merged.update(delivered)
    return merged


def _causality_flight_dump(
    flight_dir: str, role: str, recorder: Optional[RoundRecorder], exc: BaseException
) -> None:
    """Dump the recorder's round tail plus the failure event itself."""
    events: List[Dict[str, Any]] = recorder.tail_events() if recorder else []
    events.append(
        {
            "t_unix": round(time.time(), 6),
            "kind": "causality-error",
            "detail": str(exc),
        }
    )
    dump_flight(
        flight_dir,
        reason="causality-error",
        role=role,
        events=events,
        detail=str(exc),
    )


def _run_rounds_memory(
    scenario: PlaneScenario,
    plan: PartitionPlan,
    config: SeaStarConfig,
    *,
    telemetry: bool = False,
    flight_dir: Optional[str] = None,
) -> Tuple[Dict[MsgKey, Tuple[int, int, int]], Dict[str, Any]]:
    runners = [
        PartitionRunner(scenario, plan, i, config=config)
        for i in range(plan.nparts)
    ]
    recording = telemetry or flight_dir is not None
    recorders = [RoundRecorder(i) for i in range(plan.nparts)] if recording else None
    lookahead = lookahead_matrix(scenario, plan, config)
    closure = lookahead_closure(lookahead)
    rounds = 0
    while True:
        if recorders is None:
            docs = [r.publish_doc(rounds) for r in runners]
            nprime = _nprimes(docs, plan.nparts)
            for r in runners:
                r.absorb(docs)
            if all(v == INF for v in nprime):
                break
            horizons = _horizons(nprime, closure, lookahead)
            for i, r in enumerate(runners):
                r.advance(horizons[i])
            rounds += 1
            continue
        # instrumented round: identical protocol, with per-phase timing
        # recorded host-side (never into the simulated clock)
        docs = []
        t0s: List[float] = []
        publish_s: List[float] = []
        for i, r in enumerate(runners):
            t0 = recorders[i].offset()
            docs.append(r.publish_doc(rounds))
            t0s.append(t0)
            publish_s.append(recorders[i].offset() - t0)
        nprime = _nprimes(docs, plan.nparts)
        imports: List[int] = []
        absorb_s: List[float] = []
        for i, r in enumerate(runners):
            ta = recorders[i].offset()
            try:
                imports.append(r.absorb(docs))
            except CausalityError as exc:
                if flight_dir is not None:
                    _causality_flight_dump(
                        flight_dir, f"memory-part{i:02d}", recorders[i], exc
                    )
                raise
            absorb_s.append(recorders[i].offset() - ta)
        done = all(v == INF for v in nprime)
        horizons = (
            [INF] * plan.nparts if done else _horizons(nprime, closure, lookahead)
        )
        advance_s = [0.0] * plan.nparts
        if not done:
            for i, r in enumerate(runners):
                tv = recorders[i].offset()
                r.advance(horizons[i])
                advance_s[i] = recorders[i].offset() - tv
        for i, r in enumerate(runners):
            recorders[i].record_round(
                round_no=rounds,
                t0_s=t0s[i],
                publish_s=publish_s[i],
                collect_s=0.0,
                absorb_s=absorb_s[i],
                advance_s=advance_s[i],
                poll_wait_s=0.0,
                horizon_ps=None if horizons[i] == INF else int(horizons[i]),
                nprime_ps=None if nprime[i] == INF else int(nprime[i]),
                exports=sum(len(v) for v in docs[i]["exports"].values()),
                imports=imports[i],
                events=r.sim.events_scheduled,
            )
        if done:
            break
        rounds += 1
    delivered = _merge_delivered([r.model.delivered for r in runners])
    info: Dict[str, Any] = {
        "rounds": rounds,
        "events_scheduled": sum(r.sim.events_scheduled for r in runners),
    }
    if telemetry and recorders is not None:
        parts = [rec.to_jsonable() for rec in recorders]
        info["telemetry"] = {
            "partitions": parts,
            "straggler": straggler_report(parts),
        }
    return delivered, info


def _partition_main(payload: Tuple[Any, ...]) -> Dict[str, Any]:
    """Pool-worker entry: run ONE partition for the whole scenario.

    Lives at module level so the spawn pool can pickle it.  State never
    crosses process boundaries except through the exchange directory, so
    a SIGKILLed attempt re-runs from t=0 and — by determinism —
    republishes byte-identical round files before producing the same
    partition result.
    """
    (
        scenario,
        nparts,
        idx,
        axis,
        exchange_dir,
        deadline_s,
        config,
        telemetry,
        flight_dir,
    ) = payload
    plan = partition_nodes(scenario.topology(), nparts, axis)
    runner = PartitionRunner(scenario, plan, idx, config=config)
    recording = telemetry or flight_dir is not None
    rec = RoundRecorder(idx) if recording else None
    lookahead = lookahead_matrix(scenario, plan, config)
    closure = lookahead_closure(lookahead)
    exchange = DirExchange(exchange_dir, deadline_s=deadline_s)
    rounds = 0
    while True:
        t0 = rec.offset() if rec is not None else 0.0
        doc = runner.publish_doc(rounds)
        exchange.publish(rounds, idx, doc)
        t1 = rec.offset() if rec is not None else 0.0
        wait0 = exchange.poll_wait_s
        docs = exchange.collect(rounds, plan.nparts)
        t2 = rec.offset() if rec is not None else 0.0
        nprime = _nprimes(docs, plan.nparts)
        try:
            imports = runner.absorb(docs)
        except CausalityError as exc:
            if flight_dir is not None:
                _causality_flight_dump(flight_dir, f"part{idx:02d}", rec, exc)
            raise
        t3 = rec.offset() if rec is not None else 0.0
        done = all(v == INF for v in nprime)
        if not done:
            horizon = _horizons(nprime, closure, lookahead)[idx]
            runner.advance(horizon)
        else:
            horizon = INF
        if rec is not None:
            t4 = rec.offset()
            rec.record_round(
                round_no=rounds,
                t0_s=t0,
                publish_s=t1 - t0,
                collect_s=t2 - t1,
                absorb_s=t3 - t2,
                advance_s=t4 - t3,
                poll_wait_s=exchange.poll_wait_s - wait0,
                horizon_ps=None if horizon == INF else int(horizon),
                nprime_ps=None if nprime[idx] == INF else int(nprime[idx]),
                exports=sum(len(v) for v in doc["exports"].values()),
                imports=imports,
                events=runner.sim.events_scheduled,
            )
        if done:
            break
        rounds += 1
    result = {
        "part": idx,
        "rounds": rounds,
        "events_scheduled": runner.sim.events_scheduled,
        "delivered": [
            [k[0], k[1], k[2], v[0], v[1], v[2]]
            for k, v in sorted(runner.model.delivered.items())
        ],
    }
    if rec is not None:
        result["telemetry"] = rec.to_jsonable()
        result["poll_wait_s"] = round(exchange.poll_wait_s, 6)
        result["polls"] = exchange.polls
    return result


def _run_rounds_pool(
    scenario: PlaneScenario,
    plan: PartitionPlan,
    config: SeaStarConfig,
    *,
    deadline_s: float,
    pool_timeout_s: float,
    progress: Optional[Callable[[str], None]],
    telemetry: bool = False,
    flight_dir: Optional[str] = None,
) -> Tuple[Dict[MsgKey, Tuple[int, int, int]], Dict[str, Any]]:
    from ...benchrunner.pool import PoolTask, run_pool

    # a fresh directory per run: round files left by an earlier run would
    # be read back as this run's rounds
    exdir = tempfile.mkdtemp(prefix="repro-plane-")
    tasks = [
        PoolTask(
            task_id=f"plane-{scenario.name}-part{idx:02d}",
            payload=(
                scenario,
                plan.nparts,
                idx,
                plan.axis,
                exdir,
                deadline_s,
                config,
                telemetry,
                flight_dir,
            ),
        )
        for idx in range(plan.nparts)
    ]
    try:
        # every partition must hold a worker slot for the whole run —
        # they synchronize with each other, so workers == nparts is a
        # liveness requirement, not a tuning knob
        outcome = run_pool(
            tasks,
            _partition_main,
            workers=plan.nparts,
            timeout_s=pool_timeout_s,
            progress=progress,
        )
    finally:
        shutil.rmtree(exdir, ignore_errors=True)
    # flight dumps never live in exdir (removed above): the
    # parent-side post-mortem interleaves pool lifecycle events with the
    # round tails the surviving workers returned
    if flight_dir is not None and (outcome.degradations or outcome.failed):
        events_log: List[Dict[str, Any]] = [
            {
                "t_unix": ev["t_unix"],
                "kind": f"pool.{ev['event']}",
                **{k: v for k, v in ev.items() if k not in ("t_unix", "event")},
            }
            for ev in outcome.lifecycle
        ]
        for task in tasks:
            doc = outcome.results.get(task.task_id)
            if doc and doc.get("telemetry"):
                events_log.extend(doc_tail_events(doc["telemetry"]))
        detail = "; ".join(
            f"{d['task']}: {d['event']}" for d in outcome.degradations
        ) or "; ".join(f"{tid}: {err}" for tid, err in sorted(outcome.failed.items()))
        dump_flight(
            flight_dir,
            reason="worker-crash",
            role="pool-parent",
            events=events_log,
            detail=detail,
        )
    if outcome.failed:
        detail = "; ".join(
            f"{tid}: {err}" for tid, err in sorted(outcome.failed.items())
        )
        raise RuntimeError(f"partitions failed permanently: {detail}")
    parts: List[Dict[MsgKey, Tuple[int, int, int]]] = []
    events = 0
    rounds = 0
    for task in tasks:
        doc = outcome.results[task.task_id]
        events += doc["events_scheduled"]
        rounds = max(rounds, doc["rounds"])
        parts.append(
            {(m[0], m[1], m[2]): (m[3], m[4], m[5]) for m in doc["delivered"]}
        )
    delivered = _merge_delivered(parts)
    info: Dict[str, Any] = {
        "rounds": rounds,
        "events_scheduled": events,
        "pool": outcome.counters(),
    }
    if outcome.degradations:
        info["degradations"] = outcome.degradations
    if telemetry:
        part_docs = [
            outcome.results[task.task_id].get("telemetry") for task in tasks
        ]
        info["telemetry"] = {
            "partitions": part_docs,
            "straggler": straggler_report(part_docs),
        }
        info["poll_wait_s"] = round(
            sum(
                outcome.results[task.task_id].get("poll_wait_s", 0.0)
                for task in tasks
            ),
            6,
        )
    return delivered, info


def run_scenario(
    scenario: PlaneScenario,
    nparts: int = 1,
    *,
    transport: str = "memory",
    axis: Optional[int] = None,
    config: SeaStarConfig = DEFAULT_CONFIG,
    exchange_deadline_s: float = DEFAULT_EXCHANGE_DEADLINE_S,
    pool_timeout_s: float = 600.0,
    progress: Optional[Callable[[str], None]] = None,
    telemetry: bool = False,
    flight_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one plane scenario, serial or partitioned.

    Returns ``{"result": ..., "info": ...}``: ``result`` is the gated,
    partition-invariant document (identical bytes whatever ``nparts`` or
    ``transport``), ``info`` carries host/partitioning facts (rounds,
    events scheduled, wall clock, pool degradations) that legitimately
    vary — the documented relaxation of the exactness contract.

    ``telemetry=True`` records per-partition round phase timing into
    ``info["telemetry"]`` (partitions + straggler report); it is
    host-side only, so the ``result`` half is bit-identical either way.
    ``flight_dir`` (default: ``$REPRO_FLIGHT_DIR``) enables post-mortem
    flight dumps on ``CausalityError`` or worker crash.  The pool
    transport exchanges its round files in a fresh temporary directory
    that the run always removes.

    ``nparts`` is clamped to the slab axis extent (a partition owns at
    least one full coordinate plane); the effective count is reported in
    ``info["partitions"]``.
    """
    if transport not in ("memory", "pool"):
        raise ValueError(f"unknown transport {transport!r}")
    if flight_dir is None:
        flight_dir = default_flight_dir()
    topo = scenario.topology()
    plan = partition_nodes(topo, nparts, axis)
    t0 = time.perf_counter()
    if plan.nparts == 1:
        sim = Simulator()
        model = PlanePartition(
            sim, scenario, topo, plan.nodes[0], exporter=None, config=config
        )
        model.submit_initial()
        sim.run()
        delivered = model.delivered
        info: Dict[str, Any] = {
            "rounds": 0,
            "events_scheduled": sim.events_scheduled,
        }
    elif transport == "memory":
        delivered, info = _run_rounds_memory(
            scenario, plan, config, telemetry=telemetry, flight_dir=flight_dir
        )
    else:
        delivered, info = _run_rounds_pool(
            scenario,
            plan,
            config,
            deadline_s=exchange_deadline_s,
            pool_timeout_s=pool_timeout_s,
            progress=progress,
            telemetry=telemetry,
            flight_dir=flight_dir,
        )
    info["partitions"] = plan.nparts
    info["transport"] = transport if plan.nparts > 1 else "serial"
    info["wall_s"] = round(time.perf_counter() - t0, 4)
    return {"result": result_document(scenario, delivered), "info": info}
