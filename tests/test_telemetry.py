"""Fleet-wide telemetry: round recorders, straggler attribution, the
Perfetto merge, pool lifecycle events, serve instrumentation, and the
post-mortem flight recorder.

The load-bearing contract is first: telemetry is host-side only, so the
gated ``result`` half of a partitioned run is byte-identical with it on
or off — for every partition count, both transports, and a run whose
worker was SIGKILLed mid-flight.  Everything else (trace export, flight
dumps, lifecycle counters) builds on top of that relaxation.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import threading
import time

import pytest

import repro.sim.parallel.engine as engine
from repro.sim.parallel import CausalityError, PlaneScenario, run_scenario
from repro.sim.parallel.engine import DirExchange
from repro.benchrunner.pool import PoolTask, run_pool
from repro.serve import ReproServer
from repro.telemetry import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    HostSeries,
    RoundRecorder,
    default_flight_dir,
    dump_flight,
    export_parallel_trace,
    format_straggler_report,
    round_counters,
    straggler_report,
    telemetry_probe,
)
from repro.trace import validate_chrome_trace

DIMS = (8, 4, 2)


def _blob(doc):
    return json.dumps(doc, sort_keys=True)


def _run(nparts, **kw):
    scenario = PlaneScenario(name="neighbor", dims=DIMS, msg_bytes=2048)
    return run_scenario(scenario, nparts, **kw)


def _double(payload):
    return {"value": payload * 2}


# -- unit: the recorders -----------------------------------------------------


def _round(round_no, **overrides):
    rec = {
        "round_no": round_no,
        "t0_s": 0.1 * round_no,
        "publish_s": 0.001,
        "collect_s": 0.002,
        "absorb_s": 0.003,
        "advance_s": 0.004,
        "poll_wait_s": 0.0015,
        "horizon_ps": 1000,
        "nprime_ps": 900,
        "exports": 2,
        "imports": 3,
        "events": 10 * (round_no + 1),
    }
    rec.update(overrides)
    return rec


class TestRoundRecorder:
    def test_totals_sum_phases_and_traffic(self):
        rec = RoundRecorder(1)
        for i in range(3):
            rec.record_round(**_round(i))
        doc = rec.to_jsonable()
        assert doc["part"] == 1
        assert len(doc["rounds"]) == 3
        totals = doc["totals"]
        assert totals["rounds"] == 3
        assert totals["publish_s"] == pytest.approx(0.003)
        assert totals["advance_s"] == pytest.approx(0.012)
        assert totals["poll_wait_s"] == pytest.approx(0.0045)
        assert totals["exports"] == 6 and totals["imports"] == 9
        # events is cumulative per round; the total is the last value
        assert totals["events"] == 30

    def test_tail_events_bounded_oldest_first(self):
        rec = RoundRecorder(0)
        for i in range(10):
            rec.record_round(**_round(i))
        tail = rec.tail_events(4)
        assert [ev["round"] for ev in tail] == [6, 7, 8, 9]
        assert all(ev["kind"] == "round" and ev["part"] == 0 for ev in tail)
        # stamped against the recorder's wall-clock base
        assert tail[0]["t_unix"] == pytest.approx(rec.base_unix + 0.6)

    def test_round_counters(self):
        a, b = RoundRecorder(0), RoundRecorder(1)
        for i in range(4):
            a.record_round(**_round(i))
        for i in range(2):
            b.record_round(**_round(i, exports=1, imports=0))
        counters = round_counters([a.to_jsonable(), b.to_jsonable(), None])
        assert counters == {
            "parallel.partitions": 2,
            "parallel.rounds": 4,
            "parallel.exports": 8 + 2,
            "parallel.imports": 12,
            "parallel.events": 40 + 20,
        }


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("tick", i=i)
        events = rec.events()
        assert len(events) == 4
        assert [ev["i"] for ev in events] == [6, 7, 8, 9]
        assert rec.recorded == 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_sorts_events_and_stamps_schema(self, tmp_path):
        events = [
            {"t_unix": 3.0, "kind": "late"},
            {"t_unix": 1.0, "kind": "early"},
        ]
        path = dump_flight(
            str(tmp_path), reason="manual", role="unit/test", events=events,
            detail="forced",
        )
        doc = json.loads(open(path).read())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["reason"] == "manual"
        assert doc["role"] == "unit/test"
        assert doc["pid"] == os.getpid()
        assert doc["detail"] == "forced"
        assert [ev["kind"] for ev in doc["events"]] == ["early", "late"]
        # role is sanitized in the filename, never the document
        assert "flight-unit-test-" in os.path.basename(path)

    def test_default_flight_dir_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        assert default_flight_dir() is None
        monkeypatch.setenv("REPRO_FLIGHT_DIR", "/tmp/flights")
        assert default_flight_dir() == "/tmp/flights"


class TestHostSeries:
    def test_empty_summary(self):
        assert HostSeries("x").summary() == {"samples": 0}

    def test_summary_tracks_extrema_and_last(self):
        series = HostSeries("x")
        for value in (3, 1, 4):
            series.sample(value)
        summary = series.summary()
        assert summary["samples"] == 3
        assert summary["last"] == 4
        assert summary["min"] == 1 and summary["max"] == 4
        assert summary["mean"] == pytest.approx(8 / 3)
        assert "time_weighted_mean" in summary


class TestStragglerReport:
    def _docs(self):
        fast, slow = RoundRecorder(0), RoundRecorder(1)
        for i in range(3):
            fast.record_round(**_round(i, advance_s=0.001, poll_wait_s=0.01))
            slow.record_round(**_round(i, advance_s=0.1))
        return [fast.to_jsonable(), slow.to_jsonable()]

    def test_attributes_wall_to_slowest(self):
        report = straggler_report(self._docs())
        assert report["rounds"] == 3 and report["partitions"] == 2
        assert report["slowest_partition"] == 1
        # per-round wall is the straggler's duration; p1's advance dominates
        assert report["wall_s"] == pytest.approx(3 * (0.001 + 0.002 + 0.003 + 0.1))
        assert report["simulate_s"] == pytest.approx(0.3)
        by_part = {row["part"]: row for row in report["by_partition"]}
        assert by_part[1]["straggler_rounds"] == 3
        assert by_part[0]["straggler_rounds"] == 0
        assert len(report["worst_rounds"]) == 3

    def test_empty_and_missing_docs(self):
        assert straggler_report([None, None])["partitions"] == 0
        report = straggler_report([None] + self._docs())
        assert report["partitions"] == 2

    def test_format_marks_slowest(self):
        text = format_straggler_report(straggler_report(self._docs()))
        assert "p01 *" in text and "p00  " in text
        assert "transport-wait" in text
        assert "slowest partition" in text


# -- the contract: telemetry never changes a gated byte ----------------------


class TestByteIdentity:
    @pytest.mark.parametrize("nparts", [2, 4, 8])
    def test_memory_transport_identical_with_telemetry(self, nparts):
        base = _run(1)
        plain = _run(nparts, transport="memory")
        instrumented = _run(nparts, transport="memory", telemetry=True)
        assert _blob(instrumented["result"]) == _blob(base["result"])
        assert _blob(instrumented["result"]) == _blob(plain["result"])
        telemetry = instrumented["info"]["telemetry"]
        assert len(telemetry["partitions"]) == nparts
        assert telemetry["straggler"]["rounds"] == instrumented["info"]["rounds"] + 1
        assert "telemetry" not in plain["info"]

    def test_pool_transport_identical_with_telemetry(self):
        base = _run(1)
        instrumented = _run(2, transport="pool", telemetry=True)
        assert _blob(instrumented["result"]) == _blob(base["result"])
        info = instrumented["info"]
        telemetry = info["telemetry"]
        assert len(telemetry["partitions"]) == 2
        # the file transport accounts its polling instead of spinning silently
        assert info["poll_wait_s"] >= 0.0
        assert info["pool"]["pool.spawns"] == 2
        assert info["pool"]["pool.completions"] == 2
        assert info["pool"]["pool.crashes"] == 0

    def test_sigkill_respawn_identical_and_flight_dumped(
        self, tmp_path, monkeypatch
    ):
        base = _run(1)
        monkeypatch.setenv("REPRO_POOL_TEST_KILL", "plane-neighbor-part01")
        flight = tmp_path / "flights"
        part = _run(
            2, transport="pool", telemetry=True, flight_dir=str(flight)
        )
        assert _blob(part["result"]) == _blob(base["result"])
        counters = part["info"]["pool"]
        assert counters["pool.crashes"] >= 1
        assert counters["pool.retries"] >= 1
        assert counters["pool.spawns"] >= 3
        dumps = glob.glob(str(flight / "flight-pool-parent-*.json"))
        assert len(dumps) == 1
        doc = json.loads(open(dumps[0]).read())
        assert doc["schema"] == FLIGHT_SCHEMA
        assert doc["reason"] == "worker-crash"
        assert "plane-neighbor-part01: crash" in doc["detail"]
        kinds = {ev["kind"] for ev in doc["events"]}
        # pool lifecycle interleaved with the survivors' round tails
        assert {"pool.spawn", "pool.crash", "pool.retry", "round"} <= kinds
        stamps = [ev["t_unix"] for ev in doc["events"]]
        assert stamps == sorted(stamps)


# -- the merged Perfetto trace -----------------------------------------------


class TestPerfettoExport:
    @pytest.fixture(scope="class")
    def telemetry_docs(self):
        run = _run(4, transport="memory", telemetry=True)
        return run["info"]["telemetry"]["partitions"]

    def test_one_process_track_per_partition(self, telemetry_docs):
        doc = export_parallel_trace(telemetry_docs)
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        assert {ev["pid"] for ev in events} == {0, 1, 2, 3}
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {i: f"partition {i}" for i in range(4)}

    def test_phase_spans_tile_their_round(self, telemetry_docs):
        events = export_parallel_trace(telemetry_docs)["traceEvents"]
        rounds = [
            ev for ev in events
            if ev["ph"] == "X" and ev["name"].startswith("round ")
        ]
        phases = [
            ev for ev in events
            if ev["ph"] == "X" and not ev["name"].startswith("round ")
        ]
        assert rounds and len(phases) == 4 * len(rounds)
        for span in rounds:
            children = [
                ev for ev in phases
                if ev["pid"] == span["pid"]
                and span["ts"] <= ev["ts"]
                and ev["ts"] + ev["dur"] <= span["ts"] + span["dur"] + 1e-6
            ]
            assert len(children) >= 4
            tiled = sum(
                ev["dur"] for ev in children
                if abs(ev["ts"] - span["ts"]) < span["dur"] + 1e-6
            )
            assert tiled >= span["dur"] - 1e-3

    def test_round_args_carry_protocol_state(self, telemetry_docs):
        events = export_parallel_trace(telemetry_docs)["traceEvents"]
        spans = [ev for ev in events if ev["name"] == "round 0"]
        assert len(spans) == 4
        for span in spans:
            assert set(span["args"]) == {
                "horizon_ps", "nprime_ps", "exports", "imports", "events",
            }

    def test_written_file_round_trips(self, telemetry_docs, tmp_path):
        path = tmp_path / "trace.json"
        doc = export_parallel_trace(telemetry_docs, path=str(path))
        assert json.loads(path.read_text()) == doc

    def test_no_docs_rejected(self):
        with pytest.raises(ValueError, match="no partition telemetry"):
            export_parallel_trace([None, None])


# -- forced failures produce post-mortems ------------------------------------


class TestCausalityFlightDump:
    def test_causality_error_dumps_round_tail(self, tmp_path, monkeypatch):
        # fail partition 1's absorb from round 1 on: the driver must dump
        # the recorded round tail before re-raising (the genuine
        # floor-check arithmetic is covered by test_parallel_sim's
        # TestCausalityGuard; this test pins the post-mortem path)
        real_absorb = engine.PartitionRunner.absorb

        def failing_absorb(self, docs):
            imported = real_absorb(self, docs)
            if self.idx == 1 and docs and docs[0]["round"] >= 1:
                raise CausalityError(
                    "import at 5 ps below safe floor 999 ps (forced)"
                )
            return imported

        monkeypatch.setattr(engine.PartitionRunner, "absorb", failing_absorb)
        with pytest.raises(CausalityError):
            _run(2, transport="memory", flight_dir=str(tmp_path))
        dumps = glob.glob(str(tmp_path / "flight-memory-part*.json"))
        assert len(dumps) == 1
        assert "part01" in dumps[0]
        doc = json.loads(open(dumps[0]).read())
        assert doc["reason"] == "causality-error"
        assert "safe floor" in doc["detail"]
        kinds = [ev["kind"] for ev in doc["events"]]
        # the last rounds before the violation, then the violation itself
        assert "round" in kinds
        assert kinds[-1] == "causality-error"

    def test_no_flight_dir_means_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        run = _run(2, transport="memory")
        assert run["info"]["rounds"] > 0
        assert glob.glob(str(tmp_path / "flight-*.json")) == []


class TestDirExchangePollWait:
    def test_poll_wait_accumulates_while_peer_lags(self, tmp_path):
        exchange = DirExchange(str(tmp_path), deadline_s=10.0)
        exchange.publish(0, 0, {"part": 0})

        def late_publish():
            time.sleep(0.05)
            exchange.publish(0, 1, {"part": 1})

        thread = threading.Thread(target=late_publish)
        thread.start()
        docs = exchange.collect(0, 2)
        thread.join()
        assert [doc["part"] for doc in docs] == [0, 1]
        assert exchange.poll_wait_s > 0.0
        assert exchange.polls >= 1

    def test_wedged_diagnostics_cite_cumulative_wait(self, tmp_path):
        exchange = DirExchange(str(tmp_path), deadline_s=0.05)
        exchange.publish(0, 0, {"part": 0})
        with pytest.raises(RuntimeError, match="cumulative poll-wait"):
            exchange.collect(0, 2)
        assert exchange.polls >= 1


# -- pool lifecycle events ---------------------------------------------------


class TestPoolLifecycle:
    def test_inline_run_records_completions(self):
        tasks = [PoolTask(task_id=f"t{i}", payload=i) for i in range(3)]
        outcome = run_pool(tasks, _double, workers=1)
        events = [entry["event"] for entry in outcome.lifecycle]
        assert events == ["complete"] * 3
        assert all("wall_s" in entry for entry in outcome.lifecycle)
        counters = outcome.counters()
        assert counters["pool.completions"] == 3
        assert counters["pool.spawns"] == 0
        assert counters["pool.failures"] == 0

    def test_crash_records_spawn_crash_retry_sequence(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TEST_KILL", "t1")
        tasks = [PoolTask(task_id=f"t{i}", payload=i) for i in range(2)]
        outcome = run_pool(tasks, _double, workers=2)
        assert outcome.results["t1"] == {"value": 2}
        counters = outcome.counters()
        assert counters["pool.crashes"] >= 1
        assert counters["pool.retries"] >= 1
        assert counters["pool.spawns"] >= 3
        assert counters["pool.completions"] == 2
        t1_events = [
            entry["event"] for entry in outcome.lifecycle
            if entry["task"] == "t1"
        ]
        assert t1_events[:3] == ["spawn", "crash", "retry"]
        assert t1_events[-1] == "complete"
        stamps = [entry["t_unix"] for entry in outcome.lifecycle]
        assert stamps == sorted(stamps)


# -- serve instrumentation ---------------------------------------------------


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(port=0, cache_dir=str(tmp_path))
    srv.start()
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=300)
    yield srv, conn
    conn.close()
    srv.stop()


def _get(conn, path):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, resp.read()


def _post(conn, path, doc):
    conn.request("POST", path, body=json.dumps(doc))
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestServeTelemetry:
    def test_stats_exposes_queue_internals_and_spans(self, server):
        _, conn = server
        body = {"size": 64}
        status, first = _post(conn, "/v1/trace", body)
        assert status == 200 and first["response"]["cache"] == "miss"
        status, second = _post(conn, "/v1/trace", body)
        assert second["response"]["cache"] == "hit"
        status, raw = _get(conn, "/v1/stats")
        assert status == 200
        doc = json.loads(raw)
        queue = doc["queue"]
        assert queue["requests"] == 2
        assert queue["depth"] == 0
        assert queue["queue_depth"]["samples"] >= 2
        # the miss is the only batch: a hit never reaches the dispatcher
        assert queue["batches"] == 1
        assert queue["batch_sizes"]["samples"] == 1
        assert queue["batch_sizes"]["max"] >= 1
        spans = doc["recent_requests"]
        assert [span["cache"] for span in spans] == ["miss", "hit"]
        for span in spans:
            assert span["req_kind"] == "trace"
            assert {
                "normalize_s", "queue_wait_s", "lookup_s",
                "execute_s", "store_s",
            } <= set(span)
        # a hit costs a lookup, never a queue wait, an execute or a store
        assert spans[1]["queue_wait_s"] == 0.0
        assert spans[1]["execute_s"] == 0.0 and spans[1]["store_s"] == 0.0
        assert spans[0]["execute_s"] > 0.0

    def test_metrics_endpoint_renders_prometheus(self, server):
        _, conn = server
        _post(conn, "/v1/trace", {"size": 64})
        _post(conn, "/v1/trace", {"size": 64})
        status, raw = _get(conn, "/v1/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 2" in text
        assert "repro_serve_cache_hits 1" in text
        assert "repro_serve_cache_hit_rate 0.5" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_batch_size" in text

    def test_metrics_document_offline(self, tmp_path):
        srv = ReproServer(port=0, cache_dir=str(tmp_path))
        doc = srv.metrics_document()
        assert doc["schema"] == "repro-metrics/v1"
        assert doc["counters"]["serve.requests"] == 0
        assert doc["gauges"]["serve.queue.depth"] == {"samples": 0}
        assert doc["gauges"]["serve.workers"]["last"] == 1.0


# -- the probe and the CLI surfaces ------------------------------------------


class TestProbeAndCLI:
    def test_telemetry_probe_memory_transport(self):
        probe = telemetry_probe(transport="memory", dims=(6, 2, 2))
        counters = probe["counters"]
        assert counters["parallel.partitions"] == 2
        assert counters["parallel.rounds"] > 0
        assert counters["parallel.events"] > 0
        assert "pool.spawns" not in counters  # memory transport: no pool
        assert probe["straggler"]["partitions"] == 2
        assert len(probe["partitions"]) == 2

    def test_cli_trace_parallel_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "parallel-trace.json"
        rc = main([
            "trace", "--parallel", "2", "--transport", "memory",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        assert {ev["pid"] for ev in doc["traceEvents"]} == {0, 1}
        text = capsys.readouterr().out
        assert "slowest partition" in text
        assert "partition tracks" in text

    def test_cli_trace_parallel_rejects_one_partition(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="at least 2"):
            main(["trace", "--parallel", "1"])

    def test_cli_stats_telemetry_folds_fleet_counters(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "stats.json"
        rc = main([
            "stats", "--fast", "--max-bytes", "256", "--no-reconcile",
            "--telemetry", "--json", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["counters"]["parallel.partitions"] == 2
        assert doc["counters"]["pool.spawns"] == 2
        assert "telemetry probe" in capsys.readouterr().out
