"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``netpipe``  — run one NetPIPE sweep (module x pattern) and print the
  NetPIPE-style table;
* ``latency``  — quick 1-byte latency for all four transports vs the
  paper's Figure 4 anchors;
* ``sram``     — the firmware SRAM occupancy report (section 4.2);
* ``topology`` — inspect a machine topology (dims, diameter, a route);
* ``chaos``    — run a NetPIPE sweep under a named fault plan with the
  reliable transport on, verify payload integrity, and print the
  injected-vs-recovered report;
* ``trace``    — run one traced put, print the measured per-stage table
  (and, for small puts, the reconciliation against the analytic
  breakdown), optionally writing a Perfetto-loadable Chrome trace;
* ``stats``    — run one sweep with the metrics registry enabled, print
  the per-size utilization attribution table (which stage saturates at
  which size), reconcile the metrics layer against span aggregates, and
  optionally export JSON / Prometheus text;
* ``bench``    — run the full figure/ablation sweep fleet across a
  worker pool, write ``BENCH_results.json``, and optionally gate the
  simulated metrics against the committed golden baselines
  (``--stats`` attaches an informational utilization appendix).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import PAPER, half_bandwidth_point, latency_at, peak_bandwidth
from .machine.builder import build_pair, build_redstorm
from .mpi import MPICH1, MPICH2
from .netpipe import (
    MPIModule,
    PortalsGetModule,
    PortalsPutModule,
    decade_sizes,
    netpipe_sizes,
    run_series,
)

__all__ = ["main"]


def _module(name: str, accelerated: bool):
    if name == "put":
        return PortalsPutModule(accelerated=accelerated)
    if name == "get":
        return PortalsGetModule(accelerated=accelerated)
    if accelerated:
        raise SystemExit("--accelerated applies to the Portals modules only")
    if name == "mpich1":
        return MPIModule(MPICH1)
    if name == "mpich2":
        return MPIModule(MPICH2)
    raise SystemExit(f"unknown module {name!r}")


def cmd_netpipe(args) -> int:
    module = _module(args.module, args.accelerated)
    sizes = (
        decade_sizes(args.min_bytes, args.max_bytes)
        if args.fast
        else netpipe_sizes(args.min_bytes, args.max_bytes)
    )
    series = run_series(module, args.pattern, sizes, hops=args.hops)
    print(f"# module={series.module} pattern={series.pattern} hops={args.hops}")
    print(f"{'bytes':>10} {'latency_us':>12} {'MB/s':>10}")
    for p in series.points:
        print(f"{p.nbytes:>10} {p.latency_us:>12.3f} {p.bandwidth_mb_s:>10.2f}")
    if args.plot:
        from .analysis.viz import plot_series

        print()
        print(plot_series([series], latency=args.pattern == "pingpong"
                          and max(sizes) <= 4096))
    if args.pattern != "pingpong" or max(sizes) >= 1 << 20:
        print(f"# peak {peak_bandwidth(series):.2f} MB/s, "
              f"half-bandwidth at {half_bandwidth_point(series)} B")
    return 0


def cmd_latency(args) -> int:
    anchors = {
        "put": PAPER.put_latency_us,
        "get": PAPER.get_latency_us,
        "mpich1": PAPER.mpich1_latency_us,
        "mpich2": PAPER.mpich2_latency_us,
    }
    print(f"{'module':<10} {'paper_us':>9} {'measured_us':>12}")
    worst = 0.0
    for name, anchor in anchors.items():
        series = run_series(
            _module(name, False), "pingpong", [1], hops=args.hops
        )
        measured = latency_at(series, 1)
        worst = max(worst, abs(measured - anchor) / anchor)
        print(f"{name:<10} {anchor:>9.2f} {measured:>12.2f}")
    print(f"# worst relative deviation: {worst * 100:.1f}%")
    return 0


def cmd_sram(args) -> int:
    machine, node, _ = build_pair()
    if args.accelerated_processes:
        for _ in range(args.accelerated_processes):
            node.create_process(accelerated=True)
    print(node.seastar.sram.occupancy_report())
    return 0


def cmd_chaos(args) -> int:
    from .faults import (
        format_fault_report,
        named_plan,
        verify_payload_integrity,
    )
    from .fw.firmware import ExhaustionPolicy
    from .hw.config import DEFAULT_CONFIG
    from .netpipe import NetPipeRunner

    # GET is excluded: the reply of a lost GET carries no go-back-N
    # sequence, so reply loss is unrecoverable by design (see
    # docs/architecture.md).  chaos exercises the recoverable paths.
    module = _module(args.module, False)
    plan = named_plan(args.plan, seed=args.seed)
    cfg = DEFAULT_CONFIG.replace(reliable_transport=True)
    sizes = (
        decade_sizes(args.min_bytes, args.max_bytes)
        if args.fast
        else netpipe_sizes(args.min_bytes, args.max_bytes)
    )
    runner = NetPipeRunner(
        module,
        config=cfg,
        policy=ExhaustionPolicy.GO_BACK_N,
        hops=args.hops,
        fault_plan=plan,
    )
    series = runner.run("pingpong", sizes)
    print(f"# chaos plan={args.plan} seed={args.seed} module={series.module}")
    print(f"{'bytes':>10} {'latency_us':>12} {'MB/s':>10}")
    for p in series.points:
        print(f"{p.nbytes:>10} {p.latency_us:>12.3f} {p.bandwidth_mb_s:>10.2f}")
    print()
    print(format_fault_report(runner.machine))
    print()
    check = verify_payload_integrity(plan, sizes, config=cfg)
    if check["ok"]:
        print(f"payload integrity: OK ({check['checked']} sizes byte-identical)")
        rc = 0
    else:
        for nbytes, offset in check["mismatches"]:
            print(f"payload integrity: FAIL {nbytes}B first bad byte at {offset}")
        rc = 1
    if args.json:
        from pathlib import Path

        from .faults.campaign import (
            campaign_document,
            clean_baseline_ps,
            run_one_plan,
            spec_for_plan,
        )
        from .metrics import canonical_json

        spec = spec_for_plan(args.plan, plan, baseline_ps=clean_baseline_ps())
        record = run_one_plan(spec)
        doc = campaign_document(
            [record],
            meta={"kind": "chaos-plan", "plan": args.plan, "seed": args.seed},
        )
        Path(args.json).write_text(canonical_json(doc), encoding="utf-8")
        print(f"# wrote campaign-format report to {args.json}")
        if not record["ok"]:
            rc = 1
    return rc


def cmd_chaos_campaign(args) -> int:
    from pathlib import Path

    from .faults.campaign import (
        CampaignConfig,
        fault_classes,
        format_campaign_report,
        run_campaign,
    )
    from .metrics import canonical_json

    classes = (
        tuple(c.strip() for c in args.classes.split(",") if c.strip())
        if args.classes
        else tuple(fault_classes())
    )
    try:
        config = CampaignConfig(
            runs=args.runs,
            classes=classes,
            seed=args.seed,
            workers=args.workers,
            shard_timeout_s=args.run_timeout,
            checkpoint_dir=args.resume,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    if not args.quiet:
        print(
            f"# chaos campaign: {config.runs} runs, "
            f"classes={','.join(config.classes)}, seed={config.seed}, "
            f"workers={config.workers}"
        )
    doc = run_campaign(config, progress=progress)
    print(format_campaign_report(doc))
    if args.out:
        Path(args.out).write_text(canonical_json(doc), encoding="utf-8")
        print(f"# wrote campaign report to {args.out}")
    camp = doc["campaign"]
    return 0 if camp["total_passed"] == camp["total_runs"] else 1


def _cmd_trace_parallel(args) -> int:
    """``repro trace --parallel N``: merged per-partition round trace."""
    from .sim.parallel import PlaneScenario, run_scenario
    from .telemetry import export_parallel_trace, format_straggler_report
    from .trace import validate_chrome_trace

    if args.parallel < 2:
        raise SystemExit("--parallel needs at least 2 partitions")
    msg_bytes = {"neighbor": 2048, "incast": 4096, "tree": 8192}[args.scenario]
    scenario = PlaneScenario(
        name=args.scenario, dims=tuple(args.dims), msg_bytes=msg_bytes
    )
    run = run_scenario(
        scenario, args.parallel, transport=args.transport, telemetry=True
    )
    info = run["info"]
    telemetry = info.get("telemetry")
    if not telemetry:
        raise SystemExit(
            "run produced no round telemetry (did the partition count "
            "clamp to 1 for these dims?)"
        )
    print(
        f"# parallel trace: scenario={args.scenario} "
        f"dims={'x'.join(str(d) for d in args.dims)} "
        f"partitions={info['partitions']} transport={info['transport']} "
        f"wall={info['wall_s']}s"
    )
    print(format_straggler_report(telemetry["straggler"]))
    if args.out:
        doc = export_parallel_trace(telemetry["partitions"], path=args.out)
        validate_chrome_trace(doc)
        print(
            f"# wrote {len(doc['traceEvents'])} trace events "
            f"({info['partitions']} partition tracks) to {args.out}"
        )
    return 0


def cmd_trace(args) -> int:
    if args.parallel is not None:
        return _cmd_trace_parallel(args)
    from .trace import (
        aggregate_stages,
        export_chrome_trace,
        format_reconcile,
        format_stage_table,
        reconcile_put,
        trace_put,
        validate_chrome_trace,
    )

    result = trace_put(args.size, hops=args.hops)
    print(f"# traced put size={args.size}B hops={args.hops} "
          f"one-way latency {result.latency_ps / 1e6:.3f} us "
          f"({len(result.spans)} spans)")
    print(format_stage_table(aggregate_stages(result.spans)))
    if args.size <= result.config.small_msg_bytes:
        print()
        report = reconcile_put(result)
        print(format_reconcile(report))
        if not report.ok:
            return 1
    if args.out:
        doc = export_chrome_trace(result.spans, path=args.out)
        validate_chrome_trace(doc)
        print(f"# wrote {len(doc['traceEvents'])} trace events to {args.out}")
    return 0


def cmd_stats(args) -> int:
    from pathlib import Path

    from .metrics import (
        attribute_windows,
        canonical_json,
        format_attribution,
        format_reconciliation,
        metrics_document,
        reconcile_with_spans,
        saturating_by_decade,
        to_prometheus_text,
    )
    from .netpipe import NetPipeRunner

    module = _module(args.module, False)
    sizes = (
        decade_sizes(args.min_bytes, args.max_bytes)
        if args.fast
        else netpipe_sizes(args.min_bytes, args.max_bytes)
    )
    reconcile = not args.no_reconcile
    runner = NetPipeRunner(
        module, hops=args.hops, metrics=True, trace=reconcile
    )
    series = runner.run(args.pattern, sizes)
    machine = runner.machine
    rows = attribute_windows(machine.metrics, runner.windows)
    print(f"# stats: module={series.module} pattern={series.pattern} "
          f"hops={args.hops} sizes={len(sizes)}")
    print(format_attribution(rows))
    print()
    print("# saturating stage per size decade:")
    for decade, stage in saturating_by_decade(rows).items():
        print(f"#   1e{decade} B: {stage}")
    reconciliation = None
    ok = True
    if reconcile:
        reconciliation = reconcile_with_spans(machine)
        ok = all(r.ok for r in reconciliation)
        print()
        print(format_reconciliation(reconciliation))
    perf = None
    if args.with_perf:
        from .perf import run_perf_smoke

        perf = run_perf_smoke(reps=args.perf_reps)
        print()
        print(f"# perf: {perf.events_per_sec:,.0f} events/sec "
              f"({perf.events:,} events in {perf.wall_s:.2f} s wall)")
    doc = metrics_document(
        machine.metrics,
        machine=machine,
        attribution=rows,
        reconciliation=reconciliation,
        perf=perf,
        meta={
            "module": series.module,
            "pattern": series.pattern,
            "hops": args.hops,
            "sizes": sizes,
        },
    )
    if args.telemetry:
        from .telemetry import format_straggler_report, telemetry_probe

        probe = telemetry_probe()
        doc["counters"].update(probe["counters"])
        print()
        print(
            "# fleet telemetry probe "
            "(2-partition pool-transport neighbor plane):"
        )
        print(format_straggler_report(probe["straggler"]))
    if args.json:
        Path(args.json).write_text(canonical_json(doc), encoding="utf-8")
        print(f"# wrote metrics JSON to {args.json}")
    if args.prom:
        Path(args.prom).write_text(to_prometheus_text(doc), encoding="utf-8")
        print(f"# wrote Prometheus text to {args.prom}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    from pathlib import Path

    if args.perf or args.update_perf_baseline:
        from .perf import (
            DEFAULT_BASELINE_PATH,
            check_regression,
            format_perf_report,
            load_baseline,
            measure_plane_scaling,
            run_perf_smoke,
            save_baseline,
        )

        result = run_perf_smoke(reps=args.perf_reps)
        if args.update_perf_baseline:
            save_baseline(
                result,
                DEFAULT_BASELINE_PATH,
                plane_scaling=measure_plane_scaling(),
            )
            print(f"# wrote {DEFAULT_BASELINE_PATH}")
        baseline = load_baseline(DEFAULT_BASELINE_PATH)
        report = format_perf_report(result, baseline)
        print(report)
        if args.perf_out:
            Path(args.perf_out).write_text(report + "\n", encoding="utf-8")
            print(f"# wrote perf report to {args.perf_out}")
        if args.perf_gate:
            # the gate's 30% allowance absorbs runner jitter; only a real
            # hot-path deoptimization (integer-factor slowdowns) trips it
            error = check_regression(result, baseline)
            if error is not None:
                print(error)
                return 1
        return 0

    from .benchrunner import (
        compare_results,
        discover_shards,
        format_compare_table,
        format_run_summary,
        load_golden_dir,
        run_bench,
        save_results,
        update_golden,
    )

    if args.list:
        for shard in discover_shards(fast=args.fast, filter=args.filter):
            print(shard.shard_id)
        return 0

    progress = None if args.quiet else (lambda line: print(f"  {line}"))
    if not args.quiet:
        shards = discover_shards(
            fast=args.fast, filter=args.filter, partitions=args.partitions
        )
        part_note = f", partitions={args.partitions}" if args.partitions > 1 else ""
        print(
            f"# repro bench: {len(shards)} shards, workers={args.workers}, "
            f"mode={'fast' if args.fast else 'full'}{part_note}"
        )
    results = run_bench(
        fast=args.fast,
        workers=args.workers,
        filter=args.filter,
        progress=progress,
        stats=args.stats,
        shard_timeout_s=args.shard_timeout,
        checkpoint_dir=args.checkpoint,
        cache_dir=args.cache,
        partitions=args.partitions,
    )
    save_results(results, Path(args.out))
    print(f"# wrote {args.out}")
    print()
    print(format_run_summary(results))

    if args.update_golden:
        golden_dir = Path(args.compare or "benchmarks/golden")
        written = update_golden(results, golden_dir)
        print(f"# updated {len(written)} golden file(s) in {golden_dir}")
        return 0
    if args.compare:
        report = compare_results(results, load_golden_dir(Path(args.compare)))
        table = format_compare_table(report)
        print()
        print(table)
        if args.diff_file:
            Path(args.diff_file).write_text(table + "\n", encoding="utf-8")
            print(f"# wrote diff table to {args.diff_file}")
        return 0 if report.ok else 1
    return 0


def cmd_serve(args) -> int:
    from .serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache,
        workers=args.workers,
        max_batch=args.max_batch,
        task_timeout_s=args.task_timeout,
        verbose=args.verbose,
    )
    server.start()
    cache_note = args.cache if args.cache else "disabled"
    print(
        f"# repro serve listening on http://{args.host}:{server.port}/v1/ "
        f"(workers={args.workers}, cache={cache_note})"
    )
    print("#   POST /v1/sweep|trace|chaos|stats|query|batch, "
          "GET /v1/health|stats; Ctrl-C to stop")
    try:
        server.serve_forever()
    finally:
        server.stop()
    return 0


def cmd_topology(args) -> int:
    machine = build_redstorm(tuple(args.dims))
    topo = machine.topology
    print(f"dims={topo.dims} wrap={topo.wrap} nodes={topo.num_nodes}")
    print(f"diameter={topo.diameter()} hops")
    if args.route:
        src, dst = args.route
        path = machine.fabric.router.path(src, dst)
        print(f"route {src} -> {dst}: {len(path) - 1} hops via {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Portals 3.3 / Cray XT3 reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    np_cmd = sub.add_parser("netpipe", help="run one NetPIPE sweep")
    np_cmd.add_argument(
        "--module", default="put", choices=["put", "get", "mpich1", "mpich2"]
    )
    np_cmd.add_argument(
        "--pattern", default="pingpong", choices=["pingpong", "stream", "bidir"]
    )
    np_cmd.add_argument("--min-bytes", type=int, default=1)
    np_cmd.add_argument("--max-bytes", type=int, default=1 << 20)
    np_cmd.add_argument("--hops", type=int, default=1)
    np_cmd.add_argument("--fast", action="store_true",
                        help="powers of two only")
    np_cmd.add_argument("--accelerated", action="store_true",
                        help="run the Portals module in accelerated mode")
    np_cmd.add_argument("--plot", action="store_true",
                        help="render an ASCII chart of the series")
    np_cmd.set_defaults(func=cmd_netpipe)

    lat_cmd = sub.add_parser("latency", help="1-byte latency vs Figure 4")
    lat_cmd.add_argument("--hops", type=int, default=1)
    lat_cmd.set_defaults(func=cmd_latency)

    sram_cmd = sub.add_parser("sram", help="firmware SRAM occupancy report")
    sram_cmd.add_argument(
        "--accelerated-processes", type=int, default=0,
        help="also boot N accelerated processes",
    )
    sram_cmd.set_defaults(func=cmd_sram)

    topo_cmd = sub.add_parser("topology", help="inspect a machine topology")
    topo_cmd.add_argument(
        "--dims", type=int, nargs=3, default=[27, 16, 24],
        metavar=("X", "Y", "Z"),
    )
    topo_cmd.add_argument(
        "--route", type=int, nargs=2, metavar=("SRC", "DST"),
        help="print the fixed route between two node ids",
    )
    topo_cmd.set_defaults(func=cmd_topology)

    from .faults.plan import plan_names

    chaos_cmd = sub.add_parser(
        "chaos", help="NetPIPE sweep under a fault plan + recovery report"
    )
    chaos_cmd.add_argument("--plan", default="drop-1pct", choices=plan_names())
    chaos_cmd.add_argument(
        "--module", default="put", choices=["put", "mpich1", "mpich2"],
        help="transport to sweep (get excluded: reply loss is unrecoverable)",
    )
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument("--min-bytes", type=int, default=1)
    chaos_cmd.add_argument("--max-bytes", type=int, default=64 * 1024)
    chaos_cmd.add_argument("--hops", type=int, default=1)
    chaos_cmd.add_argument("--fast", action="store_true",
                           help="powers of two only")
    chaos_cmd.add_argument(
        "--json", metavar="FILE",
        help="also judge the plan through the campaign invariants and "
             "write a campaign-schema report here",
    )
    chaos_cmd.set_defaults(func=cmd_chaos)

    from .faults.campaign import FAULT_CLASSES

    chaos_sub = chaos_cmd.add_subparsers(dest="chaos_command")
    camp_cmd = chaos_sub.add_parser(
        "campaign",
        help="seeded fault-plan fleet with recovery SLO report",
    )
    camp_cmd.add_argument(
        "--runs", type=int, default=21,
        help="number of fault plans to generate and run (default 21)",
    )
    camp_cmd.add_argument(
        "--classes", metavar="LIST",
        help="comma-separated fault classes (default: all of "
             f"{','.join(FAULT_CLASSES)})",
    )
    camp_cmd.add_argument("--seed", type=int, default=0)
    camp_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default 1 = in-process serial); >1 uses "
             "the crash/hang-tolerant pool",
    )
    camp_cmd.add_argument(
        "--resume", metavar="DIR",
        help="checkpoint directory: completed runs found there are "
             "skipped, new completions are written there",
    )
    camp_cmd.add_argument(
        "--out", metavar="FILE",
        help="write the campaign SLO report (repro-metrics/v1 JSON) here",
    )
    camp_cmd.add_argument(
        "--run-timeout", type=float, default=300.0,
        help="per-run watchdog timeout in seconds (default 300)",
    )
    camp_cmd.add_argument("--quiet", action="store_true",
                          help="suppress per-run progress lines")
    camp_cmd.set_defaults(func=cmd_chaos_campaign)

    trace_cmd = sub.add_parser(
        "trace", help="trace one put end to end; span table + Chrome trace"
    )
    trace_cmd.add_argument("--size", type=int, default=1,
                           help="put payload bytes")
    trace_cmd.add_argument("--hops", type=int, default=1)
    trace_cmd.add_argument("--out", metavar="FILE",
                           help="write Chrome trace-event JSON here")
    trace_cmd.add_argument(
        "--parallel", type=int, metavar="N",
        help="instead of a single put, run an N-partition parallel-DES "
             "plane with round telemetry and merge the per-partition "
             "publish/collect/absorb/advance spans into one Perfetto "
             "trace (one process track per partition)",
    )
    trace_cmd.add_argument(
        "--scenario", default="neighbor",
        choices=["neighbor", "incast", "tree"],
        help="traffic pattern for --parallel (default neighbor)",
    )
    trace_cmd.add_argument(
        "--dims", type=int, nargs=3, default=(8, 4, 2),
        metavar=("X", "Y", "Z"),
        help="plane mesh dims for --parallel (default 8 4 2)",
    )
    trace_cmd.add_argument(
        "--transport", default="memory", choices=["memory", "pool"],
        help="round-exchange transport for --parallel (default memory)",
    )
    trace_cmd.set_defaults(func=cmd_trace)

    stats_cmd = sub.add_parser(
        "stats",
        help="metrics-enabled sweep: utilization attribution + exporters",
    )
    stats_cmd.add_argument(
        "--module", default="put", choices=["put", "get", "mpich1", "mpich2"]
    )
    stats_cmd.add_argument(
        "--pattern", default="pingpong", choices=["pingpong", "stream", "bidir"]
    )
    stats_cmd.add_argument("--min-bytes", type=int, default=1)
    stats_cmd.add_argument("--max-bytes", type=int, default=1 << 23)
    stats_cmd.add_argument("--hops", type=int, default=1)
    stats_cmd.add_argument(
        "--fast", action="store_true",
        help="powers of two only (the fig5 fast schedule)",
    )
    stats_cmd.add_argument(
        "--no-reconcile", action="store_true",
        help="skip the metrics-vs-spans reconciliation (no tracing run)",
    )
    stats_cmd.add_argument(
        "--json", metavar="FILE", help="write the metrics JSON document here"
    )
    stats_cmd.add_argument(
        "--prom", metavar="FILE",
        help="write Prometheus text exposition here",
    )
    stats_cmd.add_argument(
        "--with-perf", action="store_true",
        help="also run the wall-clock perf smoke and embed events/sec "
             "in the export",
    )
    stats_cmd.add_argument(
        "--perf-reps", type=int, default=3,
        help="repetitions for --with-perf (default 3)",
    )
    stats_cmd.add_argument(
        "--telemetry", action="store_true",
        help="also run a small partitioned pool-transport plane probe "
             "and fold the parallel.*/pool.* fleet counters into the "
             "export",
    )
    stats_cmd.set_defaults(func=cmd_stats)

    bench_cmd = sub.add_parser(
        "bench",
        help="parallel figure/ablation sweep fleet + golden-baseline gate",
    )
    bench_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep pool (default 1 = serial)",
    )
    bench_cmd.add_argument(
        "--partitions", type=int, default=1,
        help="parallel-DES partition count for partitionable sweeps "
             "(redstorm_plane); every value produces byte-identical "
             "results — the differential harness enforces it",
    )
    bench_cmd.add_argument(
        "--fast", action="store_true",
        help="power-of-two size schedules (what CI runs and gates)",
    )
    bench_cmd.add_argument(
        "--compare", metavar="DIR",
        help="gate simulated metrics against this golden directory; "
             "exits nonzero on drift",
    )
    bench_cmd.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the golden directory (--compare or benchmarks/golden) "
             "from this run instead of gating",
    )
    bench_cmd.add_argument(
        "--out", default="BENCH_results.json",
        help="results document path (default BENCH_results.json)",
    )
    bench_cmd.add_argument(
        "--diff-file", metavar="FILE",
        help="also write the comparison diff table here (CI artifact)",
    )
    bench_cmd.add_argument(
        "--filter", metavar="SUBSTR",
        help="only run shards whose id contains SUBSTR (debugging; "
             "figure anchors then derive from a partial series)",
    )
    bench_cmd.add_argument(
        "--stats", action="store_true",
        help="run figure shards with metrics enabled and attach an "
             "informational utilization appendix to the results document "
             "(simulated metrics stay bit-identical)",
    )
    bench_cmd.add_argument(
        "--cache", metavar="DIR",
        help="content-addressed result store: shards already present "
             "(same config, sizes, flags, and code version) are served "
             "from it without simulating; misses are stored after the "
             "run (hit/miss stats land in the wallclock half)",
    )
    bench_cmd.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint directory: completed shards found there are "
             "skipped, new completions are written there (resumable runs)",
    )
    bench_cmd.add_argument(
        "--shard-timeout", type=float, default=1800.0,
        help="per-shard watchdog timeout in seconds for pooled runs "
             "(default 1800)",
    )
    bench_cmd.add_argument("--list", action="store_true",
                           help="list shard ids and exit")
    bench_cmd.add_argument("--quiet", action="store_true",
                           help="suppress per-shard progress lines")
    bench_cmd.add_argument(
        "--perf", action="store_true",
        help="run the wall-clock perf smoke (fig5 fast sweep events/sec "
             "vs benchmarks/perf_baseline.json) instead of the fleet; "
             "informational unless --perf-gate is also given",
    )
    bench_cmd.add_argument(
        "--perf-gate", action="store_true",
        help="exit nonzero when the perf smoke regresses more than 30%% "
             "events/sec against the committed baseline",
    )
    bench_cmd.add_argument(
        "--perf-reps", type=int, default=3,
        help="repetitions for the perf smoke; best wall clock wins "
             "(default 3)",
    )
    bench_cmd.add_argument(
        "--perf-out", metavar="FILE",
        help="also write the perf report here (CI artifact)",
    )
    bench_cmd.add_argument(
        "--update-perf-baseline", action="store_true",
        help="rewrite benchmarks/perf_baseline.json from this measurement",
    )
    bench_cmd.set_defaults(func=cmd_bench)

    serve_cmd = sub.add_parser(
        "serve",
        help="simulation service: HTTP API with batch queue + result cache",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8737,
        help="listen port (default 8737; 0 picks an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--cache", metavar="DIR",
        help="content-addressed result store (shared with bench --cache); "
             "omit to simulate every request",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for cache-miss batches (default 1 = "
             "in-process); >1 shards across the self-healing pool",
    )
    serve_cmd.add_argument(
        "--max-batch", type=int, default=32,
        help="most queued misses taken per dispatch cycle (default 32)",
    )
    serve_cmd.add_argument(
        "--task-timeout", type=float, default=600.0,
        help="per-request watchdog timeout for pooled execution "
             "(default 600 s)",
    )
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every HTTP request")
    serve_cmd.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
