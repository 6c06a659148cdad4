"""Wall-clock benchmark of the Portals/SeaStar reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {figures,observed,plane,serve} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs one untraced and one traced group and reports the
per-layer metrics, the self-time table and the tracing overhead, and
writes the traced group's spans to ``.perfbench/trace-<workload>-<seed>.json``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import workloads

SRC = workloads.ROOT / "src"
#: fresh processes timed for ``setup_s``, before and again after the groups
SETUP_PROBES = 2


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of every order statistic, so the estimate moves
    smoothly with the samples.  The plain sample quantile jumps when the
    requests around it differ in size, as the shards of a fleet do: it
    spread past the bound where this one stays inside (README.md)."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[q])[0])


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count); the 90th below 11 samples."""
    n = len(values)
    q = (n - 10) / n if n >= 11 else 0.9
    return quantile(values, q), 100.0 * q, n


def probe_setup(name: str) -> int:
    """Set up one workload in this fresh process and report when ready."""
    workload = workloads.WORKLOADS[name](0, Path(tempfile.gettempdir()))
    workload.setup()
    print(repr(time.time()), flush=True)
    workload.close()
    return 0


def measure_setup(name: str) -> List[float]:
    """Process start to first timed call, in ``SETUP_PROBES`` fresh processes.

    Each probe process runs the workload's set-up and prints the wall
    clock when it is ready for its first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_groups(workload: Any, checks: Any, seconds: float) -> List[Any]:
    """``seconds`` worth of groups at the workload's nominal pace."""
    count = max(1, round(seconds / workload.GROUP_S))
    return [workload.run_group(checks) for _ in range(count)]


def paper_report(rows: List[tuple]) -> float:
    print("paper anchors (held out: outputs, never calibration inputs)")
    for fig, variant, metric, got, want, err in rows:
        gap = workloads.KNOWN_GAPS.get((fig, variant, metric))
        note = f"  known gap: {gap}" if gap else ""
        print(f"  {fig}/{variant}/{metric:<16} {got:>12.6g} vs paper {want:>10.6g}  {err:6.2f}%{note}")
    if len(rows) != 8:
        raise RuntimeError(f"expected the paper's 8 anchors, found {len(rows)}")
    return max(row[5] for row in rows)


def measured_run(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    setup = measure_setup(args.workload)
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    try:
        groups = run_groups(workload, checks, args.seconds)
        # the high-water mark of the groups, before the untimed checks
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(args.workload)
        workload.finish(checks)
        paper_err = paper_report(workloads.paper_rows(workload.paper_docs()))
    finally:
        workload.close()

    lat = [x for g in groups for x in g.latencies_s]
    alt = [x for g in groups for x in g.contrast_latencies_s]
    lat_tail, lat_pct, lat_n = tail(lat)
    alt_tail, alt_pct, alt_n = tail(alt)
    metrics = {
        "wall_s": (statistics.median(g.wall_s for g in groups), "s"),
        "contrast_wall_s": (statistics.median(g.contrast_wall_s for g in groups), "s"),
        "p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "tail_ms": (lat_tail * 1e3, "ms"),
        "contrast_p50_ms": (quantile(alt, 0.5) * 1e3, "ms"),
        "contrast_tail_ms": (alt_tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "paper_err_pct": (paper_err, "%"),
    }
    print(f"reference: {workload.REFERENCE}")
    print(f"contrast:  {workload.CONTRAST}")
    for line in workload.describe():
        print(line)
    print(f"groups: {len(groups)}; requests per pass: {len(groups[0].latencies_s)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:14.6f} {unit}")
    print(f"  tail_ms is p{lat_pct:.1f} of n={lat_n}; contrast_tail_ms is p{alt_pct:.1f} of n={alt_n}")
    print(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}")
    for g in groups:
        if g.counts:
            print(f"  group counts: {g.counts}")
    return finish(checks, metrics)


def traced_run(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    import tracing
    from repro.telemetry.rounds import round_counters, straggler_report

    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    try:
        g0 = time.perf_counter()
        workload.run_group(checks)
        untraced_wall = time.perf_counter() - g0

        tracer = tracing.Tracer(time.perf_counter())
        profiler = tracing.Profiler()
        tracer.install()
        profiler.start()
        workload.restart()
        g0 = time.perf_counter()
        try:
            group = workload.run_group(checks)
        finally:
            traced_wall = time.perf_counter() - g0
            stats = profiler.stop()
            tracer.uninstall()
        workload.finish(checks)
    finally:
        workload.close()

    workloads.STATE.mkdir(exist_ok=True)
    trace_path = workloads.STATE / f"trace-{args.workload}-{args.seed}.json"
    tracing.write_chrome_trace(tracer.chrome_trace(), trace_path)

    rows, blocked, deposits = tracing.self_times(stats)
    unattributed = traced_wall - sum(rows.values())
    print(f"self time of the traced group ({traced_wall:.3f} s wall), by layer:")
    for name, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14} {value:10.4f} s  {100 * value / traced_wall:5.1f}%")
    print(f"  {'unattributed':<14} {unattributed:10.4f} s  {100 * unattributed / traced_wall:5.1f}%")
    print(f"  (sum {sum(rows.values()) + unattributed:.4f} s; blocked in waits, all threads: {blocked:.4f} s)")
    print(f"tracing overhead: traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s = {traced_wall - untraced_wall:.3f} s")
    print("spans (name, calls, total s, self s):")
    for name, ncalls, total, self_s in tracer.span_table():
        print(f"  {name:<20} {ncalls:8d} {total:10.4f} {self_s:10.4f}")
    print(f"chrome trace: {trace_path.relative_to(workloads.ROOT)} ({len(tracer.spans)} spans, {tracer.dropped} dropped)")

    counts = tracer.counts
    totals = tracer.totals
    pushes = counts["sim.heap_pushes"]
    logical = counts["sim.logical_events"]
    parallel = {"simulate_s": 0.0, "transport_wait_s": 0.0, "spawn_s": 0.0, "exports": 0, "imports": 0}
    rounds = 0
    for entry in tracer.parallel:
        info = entry["info"]
        rounds += info["rounds"]
        parts = (info.get("telemetry") or {}).get("partitions", [])
        report = straggler_report(parts)
        parallel["simulate_s"] += report.get("simulate_s", 0.0)
        parallel["transport_wait_s"] += report.get("transport_wait_s", 0.0)
        counters = round_counters(parts)
        parallel["exports"] += counters["parallel.exports"]
        parallel["imports"] += counters["parallel.imports"]
        if info.get("partitions", 1) > 1 and info.get("transport") == "pool":
            parallel["spawn_s"] += max(
                (part["base_unix"] - entry["started"] for part in parts if part), default=0.0
            )
        print(
            f"  run_scenario {entry['scenario']:<9} partitions={info['partitions']} "
            f"transport={info['transport']:<6} wall={info['wall_s']:.3f}s rounds={info['rounds']} "
            f"simulate={report.get('simulate_s', 0.0):.3f}s "
            f"transport-wait={report.get('transport_wait_s', 0.0):.3f}s (straggler-attributed)"
        )
    client_s = sum(group.latencies_s) + sum(group.contrast_latencies_s)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    batches = group.counts.get("batches", 0)
    metrics: Dict[str, Tuple[float, str]] = {
        f"{layer}.self_s": (rows.get(layer, 0.0), "s") for layer in tracing.LAYERS
    }
    metrics.update(
        {
            "host.self_s": (rows.get("host", 0.0), "s"),
            "unattributed_s": (unattributed, "s"),
            "traced_wall_s": (traced_wall, "s"),
            "trace_overhead_s": (traced_wall - untraced_wall, "s"),
            "sim.heap_pushes": (pushes, "count"),
            "sim.logical_events": (logical, "count"),
            "sim.bulk_share": (1.0 - pushes / logical if logical else 0.0, "ratio"),
            "sim.us_per_push": (totals["Simulator.run"] / pushes * 1e6 if pushes else 0.0, "us"),
            "net.wire_chunks": (counts["net.wire_chunks"], "count"),
            "hw.deposits": (deposits, "count"),
            "machine.build_s": (totals["build_pair"], "s"),
            "netpipe.points": (counts["netpipe.points"], "count"),
            "sim.parallel.rounds": (rounds, "count"),
            "sim.parallel.simulate_s": (parallel["simulate_s"], "s"),
            "sim.parallel.transport_wait_s": (parallel["transport_wait_s"], "s"),
            "sim.parallel.spawn_s": (parallel["spawn_s"], "s"),
            "sim.parallel.exports": (parallel["exports"], "count"),
            "sim.parallel.imports": (parallel["imports"], "count"),
            "benchrunner.pool.spawns": (counts["benchrunner.pool.spawns"], "count"),
            "benchrunner.pool.retries": (counts["benchrunner.pool.retries"], "count"),
            "serve.submit_s": (totals["BatchQueue.submit"], "s"),
            "serve.queue_wait_s": (counts["serve.queue_wait_s"], "s"),
            "serve.http_s": (client_s - totals["ReproServer.handle"] if batches else 0.0, "s"),
            "serve.execute_s": (totals["execute_payload"], "s"),
            "serve.batch_mean": (group.counts["requests"] / batches if batches else 0.0, "count"),
            "serve.deduplicated": (group.counts.get("deduplicated", 0), "count"),
            "cache.get_s": (totals["ResultCache.get"], "s"),
            "cache.put_s": (totals["ResultCache.put"], "s"),
            "cache.hits": (counts["cache.hits"], "count"),
            "cache.misses": (counts["cache.misses"], "count"),
            "cache.hit_ratio": (counts["cache.hits"] / lookups if lookups else 0.0, "ratio"),
            "cache.code_version_s": (workload.code_version_s, "s"),
        }
    )
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:16.6f} {unit}")
    return finish(checks, metrics)


def finish(checks: Any, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"fail_ratio: {checks.failed}/{checks.attempted} = {ratio:.6f}")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    The plane workload's pool transport spawns its partitions through
    ``multiprocessing``, which also starts a resource-tracker process
    that would otherwise outlive this one; closing its pipe stops it and
    ``_stop`` waits for it to exit.  A partition still running (a run
    that failed mid-scenario) holds that pipe open too, so it goes
    first."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figures", "observed", "plane", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return probe_setup(args.workload)

    # every temporary file, cache and pool exchange stays inside the checkout
    workdir = workloads.STATE / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    try:
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            result = traced_run(args, workdir)
        else:
            result = measured_run(args, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
