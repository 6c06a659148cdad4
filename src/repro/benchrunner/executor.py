"""Shard execution: in-process serial, or fanned across a worker pool.

Every shard is an independent single-threaded DES run with its own
machine and (where applicable) its own fixed seed, so the pool adds
parallelism without touching determinism: results depend only on the
shard description, never on which process ran it or in what order.
Workers are spawned (not forked) so each starts from clean module
state.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from .discovery import SPECS, Shard, discover_shards
from .pool import PoolTask, run_pool
from .schema import SeriesData, ShardResult, merge_shards

__all__ = ["execute_shard", "run_bench", "shard_cache_request"]


def _make_module(variant: str) -> Any:
    from ..mpi import MPICH1, MPICH2
    from ..netpipe import MPIModule, PortalsGetModule, PortalsPutModule

    if variant == "put":
        return PortalsPutModule()
    if variant == "get":
        return PortalsGetModule()
    if variant == "mpich1":
        return MPIModule(MPICH1)
    if variant == "mpich2":
        return MPIModule(MPICH2)
    raise ValueError(f"unknown module variant {variant!r}")


# -- ablation runners -------------------------------------------------------
# Each mirrors one benchmarks/bench_*.py sweep and returns a flat
# {metric: value} dict of simulated quantities.


def _lat_sizes(fast: bool, max_bytes: int) -> List[int]:
    from ..netpipe.sizes import decade_sizes, netpipe_sizes

    return decade_sizes(1, max_bytes) if fast else netpipe_sizes(1, max_bytes)


def _run_ablation_smallmsg(fast: bool) -> Dict[str, float]:
    from ..analysis import latency_at
    from ..hw.config import SeaStarConfig
    from ..netpipe import PortalsPutModule, netpipe_sizes, run_series

    sizes = netpipe_sizes(1, 256)  # needs 12/13-byte resolution in any mode
    with_opt = run_series(PortalsPutModule(), "pingpong", sizes)
    without = run_series(
        PortalsPutModule(),
        "pingpong",
        sizes,
        config=SeaStarConfig(small_msg_bytes=0),
    )
    return {
        "latency_1b_on_us": latency_at(with_opt, 1),
        "latency_1b_off_us": latency_at(without, 1),
        "step_on_us": latency_at(with_opt, 13) - latency_at(with_opt, 12),
        "step_off_us": latency_at(without, 13) - latency_at(without, 12),
    }


def _run_ablation_accel(fast: bool) -> Dict[str, float]:
    from ..analysis import half_bandwidth_point, latency_at, peak_bandwidth
    from ..netpipe import PortalsPutModule, netpipe_sizes, run_series
    from ..netpipe.sizes import decade_sizes

    lat_sizes = _lat_sizes(fast, 1024)
    bw_sizes = (
        decade_sizes(1, 1024 * 1024)
        if fast
        else netpipe_sizes(1, 8 * 1024 * 1024, perturbation=0)
    )
    generic_lat = run_series(PortalsPutModule(), "pingpong", lat_sizes)
    accel_lat = run_series(PortalsPutModule(accelerated=True), "pingpong", lat_sizes)
    generic_bw = run_series(PortalsPutModule(), "pingpong", bw_sizes)
    accel_bw = run_series(PortalsPutModule(accelerated=True), "pingpong", bw_sizes)
    return {
        "generic_latency_1b_us": latency_at(generic_lat, 1),
        "accel_latency_1b_us": latency_at(accel_lat, 1),
        "generic_half_bw_bytes": float(half_bandwidth_point(generic_bw)),
        "accel_half_bw_bytes": float(half_bandwidth_point(accel_bw)),
        "generic_peak_mb_s": peak_bandwidth(generic_bw),
        "accel_peak_mb_s": peak_bandwidth(accel_bw),
    }


def _run_ablation_interrupt_cost(fast: bool) -> Dict[str, float]:
    from ..analysis import latency_at
    from ..hw.config import SeaStarConfig
    from ..netpipe import PortalsPutModule, run_series
    from ..sim import us

    out: Dict[str, float] = {}
    for irq in [0.5, 1.0, 2.0, 3.0, 4.0]:
        cfg = SeaStarConfig(interrupt_overhead=us(irq))
        generic = run_series(PortalsPutModule(), "pingpong", [1, 1024], config=cfg)
        accel = run_series(
            PortalsPutModule(accelerated=True), "pingpong", [1], config=cfg
        )
        tag = f"irq{irq:g}us"
        out[f"put_1b_us_{tag}"] = latency_at(generic, 1)
        out[f"put_1kb_us_{tag}"] = latency_at(generic, 1024)
        out[f"accel_1b_us_{tag}"] = latency_at(accel, 1)
    return out


def _run_ablation_crc(fast: bool) -> Dict[str, float]:
    from ..analysis import peak_bandwidth
    from ..hw.config import SeaStarConfig
    from ..netpipe import PortalsPutModule, run_series

    out: Dict[str, float] = {}
    for prob in [0.0, 0.001, 0.01, 0.05, 0.2]:
        cfg = SeaStarConfig(link_crc_retry_prob=prob)
        series = run_series(PortalsPutModule(), "pingpong", [1 << 20], config=cfg)
        out[f"bw_1mib_mb_s_p{prob:g}"] = peak_bandwidth(series)
    return out


def _run_redstorm_distance(fast: bool) -> Dict[str, float]:
    from ..analysis import latency_at
    from ..netpipe import PortalsPutModule, run_series

    out: Dict[str, float] = {}
    for accelerated, tag in [(False, "generic"), (True, "accel")]:
        for hops in [1, 5, 13, 27, 40, 53]:
            series = run_series(
                PortalsPutModule(accelerated=accelerated),
                "pingpong",
                [8],
                hops=hops,
            )
            out[f"{tag}_8b_us_h{hops}"] = latency_at(series, 8)
    return out


#: per-scenario message payloads for the whole-plane Red Storm sweep
_PLANE_MSG_BYTES = {"neighbor": 2048, "incast": 4096, "tree": 8192}


def plane_dims(fast: bool) -> tuple:
    """Plane sweep topology: >= 1k nodes even in fast mode."""
    return (16, 8, 8) if fast else (27, 16, 24)


def _run_redstorm_plane(fast: bool, partitions: int = 1) -> Dict[str, float]:
    """Whole-plane traffic over a Red Storm-shaped machine.

    Three canonical patterns — nearest-neighbor exchange, incast onto
    node 0, binomial broadcast tree — over >= 1k simulated nodes
    ((16, 8, 8) fast, full Red Storm (27, 16, 24) otherwise), mesh in
    x/y and torus in z.  ``partitions`` > 1 runs each scenario under the
    conservative parallel DES driver (repro.sim.parallel); the metrics
    are byte-identical for every partition count — that is the
    exactness contract the differential harness enforces — so the
    partition count never appears in the metric set.

    The pool transport spawns one process per partition, which
    daemonic pool workers are forbidden to do; inside one (run_bench
    routes partitioned shards around the pool, so only a partitions=1
    shard should ever land here) we degrade to the in-process memory
    transport, which runs the identical round protocol.
    """
    import multiprocessing

    from ..sim.parallel import (
        PlaneScenario,
        result_metrics,
        run_scenario,
    )

    dims = plane_dims(fast)
    transport = "pool"
    if multiprocessing.current_process().daemon:  # pragma: no cover - defensive
        transport = "memory"
    out: Dict[str, float] = {}
    for name in ("neighbor", "incast", "tree"):
        scenario = PlaneScenario(
            name=name, dims=dims, msg_bytes=_PLANE_MSG_BYTES[name]
        )
        run = run_scenario(scenario, partitions, transport=transport)
        out.update(result_metrics(run["result"]))
    return out


def _run_inline_overheads(fast: bool) -> Dict[str, float]:
    from ..hw.config import SeaStarConfig
    from ..hw.processors import Opteron
    from ..sim import Simulator, to_ns, to_us

    trap_rounds, irq_rounds = 1000, 200

    sim = Simulator()
    cpu = Opteron(sim, SeaStarConfig())

    def traps() -> Any:
        for _ in range(trap_rounds):
            yield from cpu.trap()

    sim.process(traps())
    sim.run()
    trap_ns = to_ns(sim.now) / trap_rounds

    sim2 = Simulator()
    cpu2 = Opteron(sim2, SeaStarConfig())

    def empty_handler() -> Any:
        if False:
            yield

    def body() -> Any:
        for _ in range(irq_rounds):
            cpu2.raise_interrupt(empty_handler, coalesce=False)
            yield sim2.timeout(5_000_000)

    sim2.process(body())
    sim2.run()
    irq_us = to_us(cpu2.busy_time) / irq_rounds
    return {"null_trap_ns": trap_ns, "interrupt_us": irq_us}


def _run_inline_sram(fast: bool) -> Dict[str, float]:
    from ..hw import SramExhausted
    from ..machine.builder import build_pair

    machine, na, _nb = build_pair()
    used, free = na.seastar.sram.used_bytes, na.seastar.sram.free_bytes

    machine2, na2, _nb2 = build_pair()
    extra = 0
    while extra <= 64:
        try:
            na2.create_process(accelerated=True)
        except SramExhausted:
            break
        extra += 1
    return {
        "sram_used_bytes": float(used),
        "sram_free_bytes": float(free),
        "extra_accel_processes": float(extra),
    }


_ABLATIONS: Dict[str, Callable[[bool], Dict[str, float]]] = {
    "ablation_smallmsg": _run_ablation_smallmsg,
    "ablation_accel": _run_ablation_accel,
    "ablation_interrupt_cost": _run_ablation_interrupt_cost,
    "ablation_crc": _run_ablation_crc,
    "redstorm_distance": _run_redstorm_distance,
    "redstorm_plane": _run_redstorm_plane,
    "inline_overheads": _run_inline_overheads,
    "inline_sram": _run_inline_sram,
}


# -- execution --------------------------------------------------------------


def execute_shard(shard: Shard, *, stats: bool = False) -> ShardResult:
    """Run one shard to completion in this process.

    ``stats=True`` runs figure shards with the metrics registry enabled
    and attaches per-size utilization attribution rows.  The simulated
    series is identical either way (metrics never schedule events), so
    the gated ``figures`` half of the document is unaffected.
    """
    from ..netpipe import NetPipeRunner, run_series

    spec = SPECS[shard.spec]
    t0 = time.perf_counter()
    if spec.kind == "figure":
        assert spec.pattern is not None
        utilization = None
        if stats:
            from ..metrics import attribute_windows

            runner = NetPipeRunner(_make_module(shard.variant), metrics=True)
            series = runner.run(spec.pattern, list(shard.sizes))
            utilization = [
                {
                    "nbytes": row.nbytes,
                    "window_ps": row.window_ps,
                    "utilization": {
                        k: row.utilization[k] for k in sorted(row.utilization)
                    },
                    "saturating": row.saturating,
                }
                for row in attribute_windows(runner.machine.metrics, runner.windows)
            ]
            runner.machine.metrics.release()
        else:
            series = run_series(
                _make_module(shard.variant), spec.pattern, list(shard.sizes)
            )
        result = ShardResult(
            shard_id=shard.shard_id,
            figure=shard.spec,
            variant=shard.variant,
            series=SeriesData.from_series(series),
            utilization=utilization,
        )
    else:
        if shard.spec == "redstorm_plane":
            # the one spec that threads the parallel-DES partition count
            metrics = _run_redstorm_plane(shard.fast, partitions=shard.partitions)
        else:
            metrics = _ABLATIONS[shard.spec](shard.fast)
        result = ShardResult(
            shard_id=shard.shard_id,
            figure=shard.spec,
            variant=shard.variant,
            metrics=metrics,
        )
    result.wall_s = time.perf_counter() - t0
    return result


def _pool_worker(args: tuple) -> ShardResult:  # pragma: no cover - subprocess
    shard, stats = args
    return execute_shard(shard, stats=stats)


def shard_cache_request(shard: Shard, *, stats: bool) -> Dict[str, Any]:
    """The canonical cache request describing one shard's simulated
    content.

    Everything that can change the result is here (spec, variant, the
    exact size list, fast-mode flag, whether the metrics appendix runs);
    everything that cannot (worker count, checkpoint dirs, timeouts,
    the parallel-DES partition count — partitioned results are
    byte-identical to serial by the exactness contract) is deliberately
    absent, so any execution strategy shares one key.
    """
    return {
        "kind": "bench-shard",
        "spec": shard.spec,
        "variant": shard.variant,
        "chunk": shard.chunk,
        "sizes": list(shard.sizes),
        "fast": shard.fast,
        "stats": stats,
    }


def run_bench(
    *,
    fast: bool = False,
    workers: int = 1,
    filter: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    stats: bool = False,
    shard_timeout_s: float = 1800.0,
    checkpoint_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    partitions: int = 1,
) -> Dict[str, Any]:
    """Run the discovered shard set; return the results document.

    ``workers <= 1`` runs every shard in-process (the reference serial
    path); otherwise shards fan out over the self-healing pool
    (:mod:`repro.benchrunner.pool`): hung shards are SIGKILLed after
    ``shard_timeout_s`` and retried with backoff, crashed workers are
    detected and their shards re-run, and ``checkpoint_dir`` lets an
    interrupted sweep resume past its completed shards.  All paths
    produce byte-identical ``figures`` content; survived trouble is
    recorded under ``wallclock.degradations``.  ``stats=True`` adds the
    informational ``utilization`` appendix (figure shards run with
    metrics enabled; simulated content is unchanged).

    ``cache_dir`` points at a content-addressed result store
    (:mod:`repro.cache`): shards whose key — canonical hash of the
    shard request plus the code version — is already stored are served
    from it without any simulation (and, pooled, without spawning a
    worker); misses simulate as usual and are stored afterwards.
    Hit/miss accounting lands under ``wallclock.cache``.  Cold, hot, or
    disabled, the gated ``figures`` half is byte-identical.

    ``partitions`` > 1 runs partitionable sweeps (redstorm_plane) under
    the conservative parallel DES driver.  The pool transport spawns
    one process per partition, and daemonic pool workers may not spawn
    children, so when shards fan out (``workers`` > 1) the partitioned
    shards run in the parent process alongside the pool — they bring
    their own parallelism.  Results are byte-identical for every
    partition count (asserted by tests/test_parallel_sim.py), so a
    cached serial result legitimately serves a partitioned request.
    """
    shards = discover_shards(fast=fast, filter=filter, partitions=partitions)
    if not shards:
        raise ValueError(f"no shards match filter {filter!r}")
    t0 = time.perf_counter()
    degradations: List[Dict[str, Any]] = []
    resumed: List[str] = []
    pool_counters: Optional[Dict[str, int]] = None

    cache = None
    cache_doc: Optional[Dict[str, Any]] = None
    keys: Dict[str, str] = {}
    by_id: Dict[str, ShardResult] = {}
    pending: List[Shard] = shards
    if cache_dir is not None:
        from ..cache import ResultCache, cache_key, code_version

        cache = ResultCache(cache_dir)
        code = code_version()
        pending = []
        for shard in shards:
            key = cache_key(shard_cache_request(shard, stats=stats), code=code)
            keys[shard.shard_id] = key
            t_load = time.perf_counter()
            artifact = cache.get(key)
            if artifact is None:
                pending.append(shard)
                continue
            res = ShardResult.from_jsonable(artifact["result"])
            res.wall_s = time.perf_counter() - t_load
            by_id[shard.shard_id] = res
            if progress:
                progress(f"{shard.shard_id}: cache hit ({key[:12]})")

    if workers <= 1 and checkpoint_dir is None:
        for shard in pending:
            res = execute_shard(shard, stats=stats)
            by_id[shard.shard_id] = res
            if progress:
                progress(f"{res.shard_id}: {res.wall_s:.2f}s")
    elif pending:
        # partitioned shards spawn their own per-partition processes,
        # which a daemonic pool worker cannot; run them in the parent
        inparent = [s for s in pending if s.partitions > 1]
        pooled = [s for s in pending if s.partitions <= 1]
        for shard in inparent:
            res = execute_shard(shard, stats=stats)
            by_id[shard.shard_id] = res
            if progress:
                progress(
                    f"{res.shard_id}: {res.wall_s:.2f}s "
                    f"({shard.partitions} partitions, in-parent)"
                )
        if pooled:
            tasks = [
                PoolTask(task_id=shard.shard_id, payload=(shard, stats))
                for shard in pooled
            ]
            outcome = run_pool(
                tasks,
                _pool_worker,
                workers=workers,
                timeout_s=shard_timeout_s,
                checkpoint_dir=checkpoint_dir,
                progress=progress,
            )
            if outcome.failed:
                detail = "; ".join(
                    f"{tid}: {err}" for tid, err in sorted(outcome.failed.items())
                )
                raise RuntimeError(f"shards failed permanently: {detail}")
            by_id.update(outcome.results)
            degradations = outcome.degradations
            resumed = outcome.resumed
            pool_counters = outcome.counters()

    if cache is not None:
        for shard in pending:
            res = by_id[shard.shard_id]
            cache.put(
                keys[shard.shard_id],
                res.to_jsonable(),
                request=shard_cache_request(shard, stats=stats),
                kind="bench-shard",
                wall_s=res.wall_s,
                workers=max(1, workers),
            )
        cache_doc = cache.stats.to_jsonable()
        cache_doc["cached_shards"] = sorted(
            s.shard_id for s in shards if s not in pending
        )

    # deterministic document order regardless of completion order
    results = [by_id[s.shard_id] for s in shards]
    total = time.perf_counter() - t0
    titles = {name: spec.title for name, spec in SPECS.items()}
    return merge_shards(
        results,
        mode="fast" if fast else "full",
        workers=max(1, workers),
        total_wall_s=total,
        titles=titles,
        degradations=degradations,
        resumed=resumed,
        cache=cache_doc,
        pool=pool_counters,
    )
