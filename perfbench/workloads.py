"""The four workloads: ``figures``, ``observed``, ``plane`` and ``serve``.

Each workload is a fixed list of requests that it runs in *groups*.  A
group is one reference pass and one contrast pass over the same
requests; the two passes differ in exactly one setting (see
``REFERENCE`` and ``CONTRAST`` on each class).  ``figures`` is the
exception: its contrast is its small-message shards, timed within its
fleet pass.
Every request is timed from outside, around one call into a public
function of the package that serves it, and every output is checked.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import servetrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: everything a run writes: its scratch directory, caches and traces
STATE = ROOT / ".perfbench"
GOLDEN_DIR = ROOT / "benchmarks" / "golden"
PLANE_DIGESTS = HERE / "plane_digests.json"

#: shard filters whose merged anchors cover the paper's 8
ANCHOR_FILTERS = ("fig4/", "fig5/put/", "fig6/put/", "fig7/put/")
#: the anchors depend only on the code, so workloads that do not produce
#: them read them through the repository's result cache, which keys every
#: entry by the code version: the first run in a checkout simulates them
ANCHOR_CACHE = STATE / "anchor-cache"
#: the published anchors the reproduction is known to miss, and why
KNOWN_GAPS = {
    ("fig6", "put", "half_bw_bytes"): "stream half-bandwidth point",
    ("fig4", "get", "latency_1b_us"): "get 1-byte latency",
}


@dataclass
class Checks:
    """Output checks: every one attempted, every failure counted."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Group:
    """One reference pass and one contrast pass over the same requests."""

    wall_s: float
    contrast_wall_s: float
    latencies_s: List[float]
    contrast_latencies_s: List[float]
    counts: Dict[str, float] = field(default_factory=dict)


def timed(fn: Any, *args: Any, **kwargs: Any) -> tuple:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def canon(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def paper_rows(docs: List[Dict[str, Any]]) -> List[tuple]:
    """(figure, variant, metric, measured, published, err %) per anchor."""
    from repro.analysis.anchors import paper_anchor

    rows = []
    for doc in docs:
        for fig, fdoc in sorted(doc["figures"].items()):
            for variant, vdoc in sorted(fdoc["variants"].items()):
                for metric, got in sorted(vdoc.get("metrics", {}).items()):
                    want = paper_anchor(fig, variant, metric)
                    if want is None:
                        continue
                    err = abs(got - want) / abs(want) * 100.0
                    rows.append((fig, variant, metric, got, want, err))
    return rows


def anchor_docs(filters: tuple = ANCHOR_FILTERS) -> List[Dict[str, Any]]:
    """Results documents that cover the published anchors of ``filters``."""
    from repro import benchrunner

    return [
        benchrunner.run_bench(fast=True, workers=1, filter=f, cache_dir=str(ANCHOR_CACHE))
        for f in filters
    ]


class Workload:
    name = ""
    REFERENCE = ""
    CONTRAST = ""
    #: one group's typical time on the 2-core reference box; a run makes
    #: ``--seconds`` worth of groups at this pace (rounded, at least one),
    #: so every run of a workload has the same sample count however
    #: loaded the host is
    GROUP_S = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.code_version_s = 0.0

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)

    def setup(self) -> None:
        """Everything before the first timed call."""

    def run_group(self, checks: Checks) -> Group:
        raise NotImplementedError

    def finish(self, checks: Checks) -> None:
        """Checks that need every group's output (untimed)."""

    def describe(self) -> List[str]:
        """Lines that state the workload's generated inputs."""
        return []

    def paper_docs(self) -> List[Dict[str, Any]]:
        return anchor_docs()

    def restart(self) -> None:
        """Restart what runs in threads of its own, so that a profiler
        installed for new threads sees them."""

    def close(self) -> None:
        """Stop anything still running."""


def _filtered_goldens(specs: tuple, variant: str) -> Dict[str, Any]:
    from repro import benchrunner

    goldens = benchrunner.load_golden_dir(GOLDEN_DIR)
    return {
        spec: {**goldens[spec], "variants": {variant: goldens[spec]["variants"][variant]}}
        for spec in specs
    }


def _gate(checks: Checks, doc: Dict[str, Any], goldens: Dict[str, Any], label: str) -> None:
    """Every gated quantity of ``doc`` against the goldens, one check each."""
    from repro import benchrunner

    report = benchrunner.compare_results(doc, goldens)
    drifted = len(report.drifts) + len(report.missing_figures)
    checks.attempted += report.compared
    checks.failed += drifted
    if drifted:
        checks.notes.append(
            f"{label}: {drifted} golden drifts, e.g. "
            + "; ".join(f"{d.figure}/{d.variant}/{d.what}" for d in report.drifts[:3])
        )


def _merge(results: list) -> tuple:
    """(seconds, document): ``merge_shards`` as ``run_bench`` calls it."""
    from repro import benchrunner

    titles = {name: spec.title for name, spec in benchrunner.SPECS.items()}
    return timed(
        benchrunner.merge_shards,
        results,
        mode="fast",
        workers=1,
        total_wall_s=0.0,
        titles=titles,
    )


class Figures(Workload):
    """``repro bench --fast`` at one worker: all 108 shards."""

    name = "figures"
    REFERENCE = "the 108-shard fast fleet, serial, no cache"
    CONTRAST = "the small-message shards (figure shards of at most 1 KiB) within the fleet pass"
    GROUP_S = 14.0
    #: contrast shards: figure shards whose largest message is at most
    #: this size, the latency-bound half of the fleet (fig4 and the small
    #: decades of fig5-7), where fw/portals/oskern/mpi do the work
    SMALL_BYTES = 1024

    def setup(self) -> None:
        from repro import benchrunner

        self.shards = benchrunner.discover_shards(fast=True)
        self.goldens = benchrunner.load_golden_dir(GOLDEN_DIR)
        self.small = [
            i for i, s in enumerate(self.shards) if s.sizes and max(s.sizes) <= self.SMALL_BYTES
        ]
        self.doc: Optional[Dict[str, Any]] = None
        self.first: Optional[List[Any]] = None

    def run_group(self, checks: Checks) -> Group:
        from repro.benchrunner import executor

        lat, results = [], []
        for shard in self.shards:
            dt, res = timed(executor.execute_shard, shard)
            lat.append(dt)
            results.append(res)
        merge_s, doc = _merge(results)
        _gate(checks, doc, self.goldens, "figures")
        self.doc = doc
        # every group must return the first group's results, shard by shard
        outputs = [res.to_jsonable() for res in results]
        if self.first is None:
            self.first = outputs
        else:
            for shard, got, want in zip(self.shards, outputs, self.first):
                checks.expect(got == want, f"figures: {shard.shard_id} differs from the first group")
        small = [lat[i] for i in self.small]
        return Group(sum(lat) + merge_s, sum(small), lat, small)

    def paper_docs(self) -> List[Dict[str, Any]]:
        assert self.doc is not None
        return [self.doc]


class Observed(Workload):
    """Figures 5-7 (put) with the metrics registry on, as ``--stats`` runs."""

    name = "observed"
    SPECS = ("fig5", "fig6", "fig7")
    REFERENCE = "fig5-7 put shards with stats on (metrics registry attached)"
    CONTRAST = "the same shards with stats off"
    GROUP_S = 12.5

    def setup(self) -> None:
        from repro import benchrunner

        self.shards = [
            s
            for s in benchrunner.discover_shards(fast=True)
            if s.spec in self.SPECS and s.variant == "put"
        ]
        self.goldens = _filtered_goldens(self.SPECS, "put")

    def run_group(self, checks: Checks) -> Group:
        """Each shard with stats on, then at once with stats off."""
        from repro import benchrunner
        from repro.benchrunner import executor

        lat, plain_lat, on, off = [], [], [], []
        for shard in self.shards:
            dt, res = timed(executor.execute_shard, shard, stats=True)
            lat.append(dt)
            on.append(res)
            dt, res = timed(executor.execute_shard, shard, stats=False)
            plain_lat.append(dt)
            off.append(res)
        merge_s, doc = _merge(on)
        plain_merge_s, plain = _merge(off)
        wall, plain_wall = sum(lat) + merge_s, sum(plain_lat) + plain_merge_s
        _gate(checks, doc, self.goldens, "observed stats on")
        _gate(checks, plain, self.goldens, "observed stats off")
        checks.expect(
            benchrunner.simulated_json(doc) == benchrunner.simulated_json(plain),
            "observed: figures differ with stats on",
        )
        rows = doc.get("utilization", {})
        checks.expect(
            all(rows.get(spec, {}).get("put") for spec in self.SPECS),
            "observed: stats run attached no utilization rows",
        )
        self.doc = doc
        return Group(wall, plain_wall, lat, plain_lat)

    def paper_docs(self) -> List[Dict[str, Any]]:
        return [self.doc, *anchor_docs(("fig4/",))]


#: the full Red Storm plane and the per-scenario payloads of the
#: redstorm_plane bench sweep
PLANE_DIMS = (27, 16, 24)
PLANE_MSG_BYTES = {"neighbor": 2048, "incast": 4096, "tree": 8192}


class Plane(Workload):
    """Whole-plane traffic: serial DES against two pool partitions."""

    name = "plane"
    REFERENCE = "neighbor, incast, tree on the 27x16x24 plane, serial"
    CONTRAST = "the same three at 2 partitions on the pool transport"
    GROUP_S = 14.0

    def setup(self) -> None:
        from repro.sim import parallel

        self.scenarios = [
            parallel.PlaneScenario(name=name, dims=PLANE_DIMS, msg_bytes=nbytes)
            for name, nbytes in PLANE_MSG_BYTES.items()
        ]
        self.digests = json.loads(PLANE_DIGESTS.read_text(encoding="utf-8"))

    def run_group(self, checks: Checks) -> Group:
        """The serial pass, then the partitioned one: a serial run must not
        overlap the teardown of the partition processes before it."""
        from repro.sim import parallel

        lat, serial = [], []
        for sc in self.scenarios:
            dt, out = timed(parallel.run_scenario, sc, 1)
            lat.append(dt)
            serial.append(out["result"])
        p2_lat = []
        rounds = 0
        for sc, result in zip(self.scenarios, serial):
            dt, out = timed(parallel.run_scenario, sc, 2, transport="pool")
            p2_lat.append(dt)
            rounds += out["info"]["rounds"]
            checks.expect(
                out["result"] == result,
                f"plane: {sc.name} at 2 partitions differs from serial",
            )
            digest = parallel.trace_digest(result)
            checks.expect(
                digest == self.digests.get(sc.name),
                f"plane: {sc.name} digest {digest:.0f} is not the recorded one",
            )
        return Group(sum(lat), sum(p2_lat), lat, p2_lat, {"rounds": rounds})


class Serve(Workload):
    """An in-process ``repro serve`` driven over HTTP by a closed loop."""

    name = "serve"
    REFERENCE = "the seeded request trace against an empty cache (cold)"
    CONTRAST = "the same trace replayed against the filled cache (warm)"
    GROUP_S = 6.5

    def setup(self) -> None:
        from repro import cache
        from repro.serve import api

        self.trace = servetrace.generate_trace(self.seed)
        self.distinct = len({canon(api.normalize_request(doc)) for doc in self.trace})
        self.code_version_s, _ = timed(cache.code_version)
        self.cache_dir = Path(self.fresh_dir("serve-cache-"))
        #: (request, reply) for every request sent
        self.replies: List[tuple] = []
        self.groups = 0
        self.start()

    def start(self) -> None:
        from repro import serve

        self.server = serve.ReproServer(cache_dir=str(self.cache_dir), workers=1)
        self.server.start()
        self.client = servetrace.LoopClient(self.server.host, self.server.port)

    def restart(self) -> None:
        self.close()
        self.start()

    def describe(self) -> List[str]:
        return [
            f"trace (seed {self.seed}, one order per group): {len(self.trace)} requests, "
            f"{self.distinct} distinct: "
            f"the {servetrace.FLEET_VARIANT} shards of {'/'.join(servetrace.FLEET_SPECS)} in the fast "
            f"fleet as sweeps, plus the CI "
            f"serve requests {list(servetrace.CI_SIZES)}, each twice; "
            f"repeated share {servetrace.repeated_share(self.trace):.1%}"
        ]

    def _queue_counts(self) -> Dict[str, float]:
        stats = self.server.queue.stats
        return {
            "requests": stats.requests,
            "batches": stats.batches,
            "deduplicated": stats.deduplicated,
            "executed": stats.executed,
        }

    @staticmethod
    def _cache_state(reply: Any) -> Optional[str]:
        return (reply.body or {}).get("response", {}).get("cache")

    def run_group(self, checks: Checks) -> Group:
        """The same requests in this group's own order, cold then warm.

        Which requests share a batch, and so the cold latencies, follow
        the order; a run that sees several orders reports less of one."""
        trace = servetrace.generate_trace(self.seed, self.groups)
        self.groups += 1
        # an empty store makes the next pass cold; the server keeps running
        shutil.rmtree(self.cache_dir / "objects", ignore_errors=True)
        before = self._queue_counts()
        wall, cold = self.client.drive(trace)
        counts = {k: v - before[k] for k, v in self._queue_counts().items()}
        warm_wall, warm = self.client.drive(trace)
        for label, replies in (("cold", cold), ("warm", warm)):
            for i, reply in enumerate(replies):
                ok = reply.status == 200 and bool(reply.body and reply.body.get("ok"))
                checks.expect(ok, f"serve: {label} request {i} failed: {reply.status} {reply.error}")
        # the cold pass must be cold: it executes every distinct request
        # once, and answers each repeat by dedup or from what it stored
        cold_hits = sum(self._cache_state(r) == "hit" for r in cold)
        checks.expect(
            counts["executed"] == self.distinct,
            f"serve: cold pass executed {counts['executed']} of {self.distinct} distinct requests",
        )
        checks.expect(counts["deduplicated"] > 0, "serve: cold pass deduplicated nothing")
        checks.expect(
            cold_hits + counts["deduplicated"] == len(trace) - self.distinct,
            f"serve: cold pass had {cold_hits} hits and {counts['deduplicated']} dedups "
            f"for {len(trace) - self.distinct} repeats",
        )
        for i, reply in enumerate(warm):
            state = self._cache_state(reply)
            checks.expect(state == "hit", f"serve: warm request {i} was a {state}")
        self.replies.extend(zip(trace + trace, cold + warm))
        return Group(
            wall,
            warm_wall,
            [r.latency_s for r in cold],
            [r.latency_s for r in warm],
            counts,
        )

    def finish(self, checks: Checks) -> None:
        """Every reply against a direct execution of its canonical request."""
        from repro.serve import api

        expected = {}
        for doc in self.trace:
            blob = canon(doc)
            if blob not in expected:
                expected[blob] = canon(api.execute_request(api.normalize_request(doc)))
        for doc, reply in self.replies:
            got = (reply.body or {}).get("response", {}).get("result")
            checks.expect(
                got is not None and canon(got) == expected[canon(doc)],
                f"serve: the reply to {canon(doc)} differs from execute_request",
            )

    def close(self) -> None:
        self.client.close()
        self.server.stop()


WORKLOADS = {w.name: w for w in (Figures, Observed, Plane, Serve)}
