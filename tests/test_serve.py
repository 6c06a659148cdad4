"""The simulation service: request canonicalization, the batch queue
(memoization, dedup, pool sharding, error paths), and the HTTP front
end end-to-end on an ephemeral port.
"""

import http.client
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.cache import ResultCache, cache_key
from repro.serve import (
    BatchQueue,
    ReproServer,
    RequestError,
    ServiceError,
    execute_request,
    normalize_request,
    request_summary,
)

SIZES = [1, 64]  # two tiny points: every sweep in here stays fast


def sweep(**overrides):
    return {"kind": "sweep", "module": "put", "sizes": SIZES, **overrides}


# -- request canonicalization ------------------------------------------------


class TestNormalize:
    def test_defaults_materialized(self):
        req = normalize_request(sweep())
        assert req == {
            "kind": "sweep",
            "module": "put",
            "pattern": "pingpong",
            "hops": 1,
            "accelerated": False,
            "sizes": SIZES,
        }

    def test_equivalent_spellings_share_one_key(self):
        """A schedule spelled via fast/max_bytes and the explicit size
        list it expands to canonicalize identically — one cache entry."""
        from repro.netpipe.sizes import decade_sizes

        by_schedule = normalize_request(
            {"kind": "sweep", "fast": True, "max_bytes": 4096}
        )
        by_list = normalize_request(sweep(sizes=list(decade_sizes(1, 4096))))
        assert by_schedule == by_list
        assert cache_key(by_schedule, code="c") == cache_key(by_list, code="c")

    def test_sizes_sorted_and_deduplicated(self):
        req = normalize_request(sweep(sizes=[64, 1, 64]))
        assert req["sizes"] == [1, 64]

    def test_unknown_fields_rejected(self):
        with pytest.raises(RequestError, match="unknown field"):
            normalize_request(sweep(workers=4))
        with pytest.raises(RequestError, match="unknown field"):
            normalize_request({"kind": "trace", "size": 1, "plan": "x"})

    def test_explicit_sizes_exclude_schedule_fields(self):
        with pytest.raises(RequestError, match="mutually exclusive"):
            normalize_request(sweep(max_bytes=4096))

    def test_bad_values_rejected(self):
        for doc in (
            "not a dict",
            {"kind": "resimulate"},
            sweep(module="tcp"),
            sweep(sizes=[]),
            sweep(sizes=[0]),
            sweep(sizes=[True]),
            sweep(sizes=[1 << 40]),
            sweep(module="mpich1", accelerated=True),
            {"kind": "trace", "size": 0},
            {"kind": "chaos", "plan": "meteor-strike"},
            {"kind": "chaos", "seed": -1},
        ):
            with pytest.raises(RequestError):
                normalize_request(doc)

    def test_trace_chaos_stats_kinds(self):
        assert normalize_request({"kind": "trace"}) == {
            "kind": "trace",
            "size": 1,
            "hops": 1,
        }
        chaos = normalize_request({"kind": "chaos"})
        assert chaos == {"kind": "chaos", "plan": "drop-1pct", "seed": 0}
        stats = normalize_request({"kind": "stats", "sizes": SIZES})
        assert stats["kind"] == "stats" and stats["sizes"] == SIZES

    def test_summaries_cover_every_kind(self):
        for doc in (sweep(), {"kind": "trace"}, {"kind": "chaos"},
                    {"kind": "stats", "sizes": SIZES}):
            assert request_summary(normalize_request(doc))


class TestExecute:
    def test_sweep_matches_direct_simulation(self):
        from repro.netpipe import PortalsPutModule, run_series

        result = execute_request(normalize_request(sweep()))
        series = run_series(PortalsPutModule(), "pingpong", SIZES)
        assert result["latency_us"] == [p.latency_us for p in series.points]
        assert result["bandwidth_mb_s"] == [
            p.bandwidth_mb_s for p in series.points
        ]

    def test_results_are_json_clean(self):
        result = execute_request(normalize_request({"kind": "trace", "size": 64}))
        assert json.loads(json.dumps(result)) == result
        assert result["latency_ps"] > 0 and result["stages"]


# -- the batch queue ---------------------------------------------------------


@pytest.fixture
def queue_with_cache(tmp_path):
    q = BatchQueue(ResultCache(tmp_path))
    q.start()
    yield q
    q.stop()


class TestBatchQueue:
    def test_miss_then_hit_with_provenance(self, queue_with_cache):
        q = queue_with_cache
        first = q.submit(sweep(), timeout_s=120)
        assert first["cache"] == "miss"
        second = q.submit(sweep(), timeout_s=120)
        assert second["cache"] == "hit"
        assert second["key"] == first["key"]
        assert second["result"] == first["result"]
        prov = second["provenance"]
        assert prov["request"] == normalize_request(sweep())
        assert prov["kind"] == "sweep"
        assert prov["code_version"] and prov["package_version"]
        assert q.cache.stats.stores == 1

    def test_concurrent_identical_requests_simulate_once(self, tmp_path):
        q = BatchQueue(ResultCache(tmp_path))
        q.start()
        try:
            responses = [None] * 3

            def ask(i):
                responses[i] = q.submit(sweep(), timeout_s=120)

            threads = [
                threading.Thread(target=ask, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # one simulation, one stored artifact, three identical answers
            # (an arrival after the store is a hit, never a second run)
            assert q.stats.executed == 1
            assert q.stats.deduplicated + q.cache.stats.hits == 2
            assert q.cache.stats.stores == 1
            keys = {r["key"] for r in responses}
            results = [r["result"] for r in responses]
            assert len(keys) == 1
            assert results[0] == results[1] == results[2]
        finally:
            q.stop()

    def test_distinct_misses_shard_across_the_pool(self, tmp_path):
        q = BatchQueue(ResultCache(tmp_path), workers=2)
        q.start()
        try:
            docs = [sweep(), {"kind": "trace", "size": 64}]
            # registered together, so one dispatcher pass shards both
            tickets = q.enqueue(docs)
            responses = [q.wait(t, timeout_s=300) for t in tickets]
            assert all(r is not None for r in responses)
            assert {r["result"]["kind"] for r in responses} == {"sweep", "trace"}
            # pooled answers memoize exactly like inline ones
            assert q.submit(docs[0], timeout_s=120)["cache"] == "hit"
        finally:
            q.stop()

    def test_no_cache_still_attaches_provenance(self):
        q = BatchQueue(None)
        q.start()
        try:
            first = q.submit({"kind": "trace", "size": 64}, timeout_s=120)
            again = q.submit({"kind": "trace", "size": 64}, timeout_s=120)
            assert first["cache"] == again["cache"] == "miss"  # nothing memoizes
            assert first["result"] == again["result"]  # but determinism holds
            assert first["provenance"]["request"]["size"] == 64
        finally:
            q.stop()

    def test_malformed_request_never_enters_the_queue(self, queue_with_cache):
        with pytest.raises(RequestError):
            queue_with_cache.submit(sweep(module="tcp"))
        assert queue_with_cache.stats.requests == 0

    def test_execution_failure_is_a_service_error(self, tmp_path, monkeypatch):
        import repro.serve.batch as batch_mod

        def boom(request):
            raise RuntimeError("simulated executor crash")

        monkeypatch.setattr(batch_mod, "execute_payload", boom)
        q = BatchQueue(ResultCache(tmp_path))
        q.start()
        try:
            with pytest.raises(ServiceError, match="simulated executor crash"):
                q.submit(sweep(), timeout_s=120)
            assert q.stats.errors == 1
            assert q.cache.stats.stores == 0  # failures are never memoized
        finally:
            q.stop()

    def test_timeout_is_a_service_error(self, tmp_path):
        q = BatchQueue(ResultCache(tmp_path))  # never started: nothing drains
        with pytest.raises(ServiceError, match="timed out"):
            q.submit(sweep(), timeout_s=0.05)

    def test_hit_is_answered_without_the_dispatcher(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = normalize_request({"kind": "trace", "size": 64})
        cache.put(cache_key(request), {"v": 1}, request=request,
                  kind="trace", wall_s=0.0)
        q = BatchQueue(cache)  # never started: only a hit can be answered
        response = q.submit({"kind": "trace", "size": 64}, timeout_s=0)
        assert response["cache"] == "hit" and response["result"] == {"v": 1}
        assert q.stats.batches == 0
        (span,) = q.telemetry.recent_requests()
        assert span["queue_wait_s"] == 0.0

    def test_timed_out_request_is_abandoned_not_executed(self, tmp_path):
        q = BatchQueue(ResultCache(tmp_path))
        with pytest.raises(ServiceError, match="timed out"):
            q.submit({"kind": "trace", "size": 64}, timeout_s=0.05)
        q.start()
        try:
            deadline = time.monotonic() + 30
            while q.stats.abandoned == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert q.stats.executed == 0 and q.stats.abandoned == 1
            # the dropped key left the in-flight map: asking again runs it
            again = q.submit({"kind": "trace", "size": 64}, timeout_s=120)
            assert again["cache"] == "miss" and q.stats.executed == 1
        finally:
            q.stop()

    def test_dispatcher_rereads_the_store_before_executing(self, tmp_path):
        """A miss that registers after its twin stored is answered from
        the store: no second simulation, and no second lookup counted."""
        q = BatchQueue(ResultCache(tmp_path))  # not started yet
        (ticket,) = q.enqueue([{"kind": "trace", "size": 64}])
        request = normalize_request({"kind": "trace", "size": 64})
        q.cache.put(cache_key(request), {"v": 1}, request=request,
                    kind="trace", wall_s=0.0)  # the twin stores
        q.start()
        try:
            response = q.wait(ticket, timeout_s=60)
        finally:
            q.stop()
        assert response["result"] == {"v": 1} and response["cache"] == "miss"
        assert q.stats.executed == 0 and q.stats.deduplicated == 1
        assert q.cache.stats.misses == 1 and q.cache.stats.hits == 0

    def test_new_misses_past_the_cap_are_refused(self, tmp_path):
        from repro.serve import Overloaded
        from repro.serve.batch import MAX_INFLIGHT_MISSES

        cache = ResultCache(tmp_path)
        hit = normalize_request({"kind": "trace", "size": 1})
        cache.put(cache_key(hit), {"v": 1}, request=hit, kind="trace",
                  wall_s=0.0)
        q = BatchQueue(cache)  # never started: every miss stays in flight
        for size in range(2, 2 + MAX_INFLIGHT_MISSES):
            with pytest.raises(ServiceError, match="timed out"):
                q.submit({"kind": "trace", "size": size}, timeout_s=0)
        with pytest.raises(Overloaded):
            q.submit({"kind": "trace", "size": 9999}, timeout_s=0)
        # joining an in-flight key is never refused, nor is a hit
        with pytest.raises(ServiceError, match="timed out"):
            q.submit({"kind": "trace", "size": 2}, timeout_s=0)
        assert q.submit({"kind": "trace", "size": 1}, timeout_s=0)["cache"] == "hit"
        assert q.stats.rejected == 1 and q.stats.deduplicated == 1

    def test_accounting_is_exact_under_concurrent_callers(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.batch as batch_mod

        monkeypatch.setattr(
            batch_mod, "execute_payload",
            lambda request: {"result": {"size": request["size"]}, "wall_s": 0.0},
        )
        q = BatchQueue(ResultCache(tmp_path))
        q.start()
        answers = []
        errors = []

        def ask(thread):
            try:
                for i in range(25):
                    size = 1 + (thread + i) % 5
                    doc = {"kind": "trace", "size": size}
                    answers.append(q.submit(doc, timeout_s=60)["cache"])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            q.stop()
        assert not errors
        stats, cache = q.stats, q.cache.stats
        assert stats.requests == 100 == len(answers)
        assert cache.hits + cache.misses == 100  # one lookup per request
        assert stats.executed == cache.stores == 5  # each key simulates once
        assert stats.requests == cache.hits + stats.executed + stats.deduplicated
        assert answers.count("hit") == cache.hits


# -- the HTTP front end ------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(port=0, cache_dir=str(tmp_path))
    srv.start()
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=300)
    yield srv, conn
    conn.close()
    srv.stop()


def get(conn, path):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def post(conn, path, doc):
    conn.request("POST", path, body=json.dumps(doc))
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestHTTP:
    def test_health(self, server):
        _, conn = server
        status, doc = get(conn, "/v1/health")
        assert status == 200
        assert doc["ok"] and doc["schema"] == "repro-serve/1"
        assert doc["code_version"] and doc["package_version"]

    def test_repeated_sweep_served_from_cache(self, server):
        _, conn = server
        body = {"module": "put", "sizes": SIZES}
        status, first = post(conn, "/v1/sweep", body)
        assert status == 200 and first["ok"]
        assert first["response"]["cache"] == "miss"
        status, second = post(conn, "/v1/sweep", body)
        assert status == 200
        assert second["response"]["cache"] == "hit"
        assert second["response"]["result"] == first["response"]["result"]
        assert second["response"]["provenance"]["request"]["sizes"] == SIZES

    def test_query_route_equals_kind_route(self, server):
        _, conn = server
        _, by_kind = post(conn, "/v1/trace", {"size": 64})
        _, by_query = post(conn, "/v1/query", {"kind": "trace", "size": 64})
        assert by_kind["response"]["key"] == by_query["response"]["key"]
        assert by_query["response"]["cache"] == "hit"

    def test_batch_endpoint_dedups_and_reports_stats(self, server):
        srv, conn = server
        status, doc = post(
            conn, "/v1/batch", {"requests": [sweep(), sweep(), {"kind": "trace"}]}
        )
        assert status == 200 and doc["ok"]
        assert len(doc["responses"]) == 3
        assert doc["responses"][0]["response"]["key"] == (
            doc["responses"][1]["response"]["key"]
        )
        status, stats = get(conn, "/v1/stats")
        assert status == 200
        assert stats["queue"]["requests"] == 3
        assert srv.cache.stats.stores == 2  # sweep deduped, trace distinct

    def test_batch_registers_items_without_threads_and_shards_misses(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.batch as batch_mod

        pool_calls = []

        def counting_pool(tasks, fn, *, workers, timeout_s):
            pool_calls.append(len(tasks))
            return SimpleNamespace(
                results={t.task_id: fn(t.payload) for t in tasks}, failed={}
            )

        monkeypatch.setattr(batch_mod, "run_pool", counting_pool)
        srv = ReproServer(port=0, cache_dir=str(tmp_path), workers=2)
        srv.start()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=300)
        conn.connect()  # the connection's handler thread exists before we count
        peak = []
        done = threading.Event()

        def watch():
            while not done.is_set():
                peak.append(threading.active_count())
                time.sleep(0.0005)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            base = threading.active_count()
            items = [{"kind": "trace", "size": 64 if i % 2 else 128}
                     for i in range(32)]
            status, doc = post(conn, "/v1/batch", {"requests": items})
        finally:
            done.set()
            watcher.join(timeout=10)
            conn.close()
            srv.stop()
        assert not watcher.is_alive()
        assert status == 200 and doc["ok"] and len(doc["responses"]) == 32
        assert max(peak) - base <= 2
        assert pool_calls == [2]  # the 2 distinct misses shard together
        assert srv.queue.stats.executed == 2
        assert srv.queue.stats.deduplicated == 30

    def test_overloaded_is_429_with_retry_after(self, server, monkeypatch):
        import repro.serve.batch as batch_mod

        srv, conn = server
        monkeypatch.setattr(batch_mod, "MAX_INFLIGHT_MISSES", 0)
        conn.request("POST", "/v1/trace", body=json.dumps({"size": 64}))
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        assert resp.status == 429 and not doc["ok"]
        assert int(resp.getheader("Retry-After")) >= 1
        assert srv.queue.stats.rejected == 1

    def test_batch_items_fail_independently(self, server):
        _, conn = server
        status, doc = post(
            conn,
            "/v1/batch",
            {"requests": [{"kind": "trace", "size": 64}, {"kind": "nope"}]},
        )
        assert status == 207 and not doc["ok"]
        assert doc["responses"][0]["ok"]
        assert not doc["responses"][1]["ok"]

    def test_validation_errors_are_400(self, server):
        _, conn = server
        status, doc = post(conn, "/v1/sweep", {"module": "tcp"})
        assert status == 400 and not doc["ok"] and "module" in doc["error"]
        status, doc = post(conn, "/v1/batch", {"requests": []})
        assert status == 400
        conn.request("POST", "/v1/query", body="not json{")
        resp = conn.getresponse()
        assert resp.status == 400
        json.loads(resp.read())

    def test_unknown_routes_are_404(self, server):
        _, conn = server
        status, _ = get(conn, "/v1/nope")
        assert status == 404
        status, _ = post(conn, "/v1/resimulate", {"kind": "sweep"})
        assert status == 404

    def test_handle_usable_without_sockets(self, tmp_path):
        srv = ReproServer(cache_dir=str(tmp_path))
        srv.queue.start()
        try:
            status, doc = srv.handle({"kind": "trace", "size": 64})
            assert status == 200 and doc["response"]["cache"] == "miss"
            status, doc = srv.handle({"kind": "trace", "size": -5})
            assert status == 400
        finally:
            srv.queue.stop()
