"""Differential harness for the conservative parallel DES driver.

The headline contract of :mod:`repro.sim.parallel`: a whole-plane run
partitioned into slabs reproduces the serial run **byte-identically** —
same delivery records, same trace digest, same golden metrics — for
every partition count and transport, including a run whose worker was
SIGKILLed mid-flight.  The documented relaxation is host-side only
(heap sequence numbers, ``events_scheduled``, wall clock, round counts
live in ``info``, never in ``result``); these tests assert both halves
of that contract.
"""

from __future__ import annotations

import json
import tempfile

import pytest

from repro.sim import Simulator
from repro.sim.parallel import (
    SCENARIO_NAMES,
    CausalityError,
    PartitionRunner,
    PlaneScenario,
    run_scenario,
    trace_digest,
    tree_children,
)
from repro.machine.builder import partition_nodes

#: small enough to run {2,4,8}-way in milliseconds, large enough that
#: every partitioning actually cuts traffic (x extent 8 allows 8 slabs)
DIMS = (8, 4, 2)
MSG_BYTES = {"neighbor": 2048, "incast": 4096, "tree": 8192}


def _blob(doc):
    return json.dumps(doc, sort_keys=True)


def _run(name, nparts, **kw):
    scenario = PlaneScenario(name=name, dims=DIMS, msg_bytes=MSG_BYTES[name])
    return run_scenario(scenario, nparts, **kw)


class TestScheduleAt:
    """Simulator.schedule_at — the import primitive the driver rests on."""

    def test_delivers_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(500, "x").add_callback(lambda ev: seen.append(sim.now))
        sim.run()
        assert seen == [500]
        assert sim.now == 500

    def test_value_carried(self, sim):
        got = []
        sim.schedule_at(7, {"k": 1}).add_callback(lambda ev: got.append(ev.value))
        sim.run()
        assert got == [{"k": 1}]

    def test_past_time_rejected(self, sim):
        sim.schedule_at(10)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(9)

    def test_present_time_allowed(self, sim):
        # arrival exactly at the current clock is legal (delay 0)
        sim.schedule_at(10)
        sim.run()
        seen = []
        sim.schedule_at(10, "now").add_callback(lambda ev: seen.append(ev.value))
        sim.run()
        assert seen == ["now"]
        assert isinstance(sim, Simulator)


class TestDifferentialIdentity:
    """Serial vs partitioned, every scenario, every partition count."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("nparts", [2, 4, 8])
    def test_memory_transport_identical(self, name, nparts):
        base = _run(name, 1)
        part = _run(name, nparts, transport="memory")
        assert part["info"]["partitions"] == nparts
        assert _blob(part["result"]) == _blob(base["result"])
        assert trace_digest(part["result"]) == trace_digest(base["result"])

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_pool_transport_identical(self, name):
        base = _run(name, 1)
        part = _run(name, 2, transport="pool")
        assert part["info"]["transport"] == "pool"
        assert _blob(part["result"]) == _blob(base["result"])

    def test_back_to_back_pool_runs_identical(self, tmp_path, monkeypatch):
        """Each pool run exchanges rounds in its own temporary directory:
        a second scenario in the same process must not read the first
        one's round files, and neither leaves its directory behind."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        for name in ("neighbor", "incast"):
            base = _run(name, 1)
            part = _run(name, 2, transport="pool")
            assert _blob(part["result"]) == _blob(base["result"])
        assert not list(tmp_path.glob("repro-plane-*"))

    def test_relaxation_is_host_side_only(self):
        """The documented relaxation: partitionings may differ in heap
        bookkeeping, but none of it can appear in the gated result."""
        base = _run("neighbor", 1)
        part = _run("tree", 4, transport="memory")
        # info legitimately varies (each partition owns a private heap;
        # here the partitioned tree schedules extra import events) —
        # which is exactly why it is fenced off from the gated result
        assert part["info"]["rounds"] > 0
        assert part["info"]["events_scheduled"] > 0
        # ...and the result document carries no host-side field at all
        assert set(base["result"]) == {
            "scenario", "dims", "wrap", "msg_bytes", "root", "messages",
        }

    def test_axis_choice_is_still_identical(self):
        """Cutting along a different axis is also just an execution
        strategy — same result, different communication structure."""
        base = _run("neighbor", 1)
        for axis in (0, 1):
            part = _run("neighbor", 2, transport="memory", axis=axis)
            assert _blob(part["result"]) == _blob(base["result"])


class TestCrashRecovery:
    """A SIGKILLed partition worker recovers to the identical result."""

    def test_sigkill_mid_run_recovers_identically(self, monkeypatch):
        base = _run("neighbor", 1)
        # kill partition 1's first attempt the moment it starts; the
        # pool respawns it and the rerun republishes identical round
        # files from t=0 while partition 0 waits at the exchange
        monkeypatch.setenv("REPRO_POOL_TEST_KILL", "plane-neighbor-part01")
        part = _run("neighbor", 2, transport="pool")
        assert _blob(part["result"]) == _blob(base["result"])
        degr = part["info"]["degradations"]
        assert any(
            d["task"] == "plane-neighbor-part01" and d["event"] == "crash"
            for d in degr
        )


class TestCausalityGuard:
    """Imports below the safe floor must raise, never reorder history."""

    def test_import_below_floor_raises(self):
        scenario = PlaneScenario(name="neighbor", dims=DIMS, msg_bytes=2048)
        plan = partition_nodes(scenario.topology(), 2)
        runner = PartitionRunner(scenario, plan, 0)
        runner.advance(10_000_000)
        stale_dst = plan.nodes[0][0]
        doc = {
            "part": 1,
            "round": 0,
            "next": None,
            "exports": {
                "0": [[stale_dst, 5, 999, [999, stale_dst, 0], 0, 1, 1, 64, 0]]
            },
        }
        with pytest.raises(CausalityError):
            runner.absorb([doc])


class TestBenchIntegration:
    """`repro bench --partitions N` produces the gated figures
    byte-identically to the serial bench."""

    def test_run_bench_partitioned_figures_identical(self):
        from repro.benchrunner import run_bench
        from repro.benchrunner.schema import simulated_json

        serial = run_bench(fast=True, filter="redstorm_plane")
        part = run_bench(fast=True, filter="redstorm_plane", partitions=2)
        assert simulated_json(serial) == simulated_json(part)

    def test_discover_shards_threads_partitions(self):
        from repro.benchrunner import discover_shards

        shards = discover_shards(fast=True, partitions=4)
        by_spec = {s.spec: s for s in shards if s.chunk < 0}
        assert by_spec["redstorm_plane"].partitions == 4
        # non-partitionable sweeps are untouched
        assert by_spec["redstorm_distance"].partitions == 1

    def test_cache_request_excludes_partitions(self):
        from repro.benchrunner import discover_shards
        from repro.benchrunner.executor import shard_cache_request

        one = [
            s for s in discover_shards(fast=True, partitions=1)
            if s.spec == "redstorm_plane"
        ][0]
        four = [
            s for s in discover_shards(fast=True, partitions=4)
            if s.spec == "redstorm_plane"
        ][0]
        assert shard_cache_request(one, stats=False) == shard_cache_request(
            four, stats=False
        )


class TestTreeShape:
    """The binomial tree the collective scenario forwards along."""

    def test_every_rank_has_one_parent(self):
        n = 64
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for rank in frontier:
                for child in tree_children(rank, n):
                    assert child not in seen, "rank reached twice"
                    seen.add(child)
                    nxt.append(child)
            frontier = nxt
        assert seen == set(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 17, 1024])
    def test_covers_any_size(self, n):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for rank in frontier:
                for child in tree_children(rank, n):
                    seen.add(child)
                    nxt.append(child)
            frontier = nxt
        assert seen == set(range(n))
