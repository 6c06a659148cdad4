"""The HTTP front end: ``repro serve``.

Stdlib only (:mod:`http.server`), threaded: each connection gets a
handler thread that answers cache hits itself and otherwise blocks in
:meth:`BatchQueue.submit` while the dispatcher deduplicates and shards
the actual work.  Endpoints:

* ``GET  /v1/health`` — liveness + the code/package versions keys are
  derived from;
* ``GET  /v1/stats``  — queue + cache accounting (requests, batches,
  dedups, hits/misses/stores, hit rate) plus the dispatcher's
  queue-depth and batch-size gauges and the most recent per-request
  spans (normalize → cache lookup → execute → store timings);
* ``GET  /v1/metrics`` — the same instruments as a ``repro-metrics/v1``
  document rendered in Prometheus text exposition format;
* ``POST /v1/query``  — one request document (``{"kind": ...}``);
* ``POST /v1/sweep|trace|chaos|stats`` — same, with ``kind`` implied
  by the path;
* ``POST /v1/batch``  — ``{"requests": [...]}``; items succeed or fail
  independently.

Responses: ``200 {"ok": true, "response": {cache, key, result,
provenance}}``, ``400`` on validation errors, ``429`` with
``Retry-After`` when the in-flight miss cap is reached, ``500`` on
execution failures, ``404``/``405`` elsewhere.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..cache import ResultCache, code_version
from ..telemetry.serve import serve_metrics_document
from .api import KINDS, RequestError
from .batch import BatchQueue, Overloaded, ServiceError

__all__ = ["ReproServer"]

#: request bodies larger than this are rejected outright (a canonical
#: request is a few hundred bytes; this is pure abuse protection)
MAX_BODY_BYTES = 1 << 20

#: seconds a client refused with 429 is asked to wait before retrying
RETRY_AFTER_S = 1


class _Handler(BaseHTTPRequestHandler):
    # set per-server via type(); never instantiated unbound
    repro_server: "ReproServer"
    protocol_version = "HTTP/1.1"
    # headers and body go out as two small writes; with Nagle on, the
    # second waits for the client's delayed ACK (~40 ms per response)
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.repro_server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(self, status: int, doc: Dict[str, Any]) -> None:
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if status == 429:
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _send_text(self, status: int, text: str) -> None:
        blob = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError("request body required")
        if length > MAX_BODY_BYTES:
            raise RequestError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestError(f"request body is not JSON: {exc}") from None

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server = self.repro_server
        if self.path == "/v1/health":
            self._send_json(
                200,
                {
                    "ok": True,
                    "schema": "repro-serve/1",
                    "package_version": __version__,
                    "code_version": code_version(),
                },
            )
        elif self.path == "/v1/stats":
            cache = server.cache
            telemetry = server.queue.telemetry
            queue_doc = server.queue.stats.to_jsonable()
            queue_doc["depth"] = server.queue.depth()
            queue_doc["queue_depth"] = telemetry.queue_depth.summary()
            queue_doc["batch_sizes"] = telemetry.batch_size.summary()
            self._send_json(
                200,
                {
                    "ok": True,
                    "queue": queue_doc,
                    "cache": cache.stats.to_jsonable() if cache else None,
                    "workers": server.queue.workers,
                    "recent_requests": telemetry.recent_requests(10),
                },
            )
        elif self.path == "/v1/metrics":
            from ..metrics.export import to_prometheus_text

            self._send_text(200, to_prometheus_text(server.metrics_document()))
        else:
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        server = self.repro_server
        try:
            doc = self._read_body()
        except RequestError as exc:
            self._send_json(400, {"ok": False, "error": str(exc)})
            return
        if self.path == "/v1/batch":
            self._post_batch(doc)
            return
        if self.path == "/v1/query":
            pass  # kind comes from the body
        elif self.path.startswith("/v1/") and self.path[4:] in KINDS:
            if isinstance(doc, dict):
                doc = {**doc, "kind": self.path[4:]}
        else:
            self._send_json(404, {"ok": False, "error": f"no route {self.path}"})
            return
        status, response = server.handle(doc)
        self._send_json(status, response)

    def _post_batch(self, doc: Any) -> None:
        requests = doc.get("requests") if isinstance(doc, dict) else None
        if not isinstance(requests, list) or not requests:
            self._send_json(
                400,
                {"ok": False, "error": "batch body must be {'requests': [...]}"},
            )
            return
        answers = self.repro_server.handle_batch(requests)
        ok = all(status == 200 for status, _ in answers)
        self._send_json(
            200 if ok else 207,
            {"ok": ok, "responses": [response for _, response in answers]},
        )


def _answer(
    call: Callable[..., Dict[str, Any]], *args: Any, **kwargs: Any
) -> Tuple[int, Dict[str, Any]]:
    """Run one queue call; map its outcome to (status, response)."""
    try:
        response = call(*args, **kwargs)
    except RequestError as exc:
        return 400, {"ok": False, "error": str(exc)}
    except Overloaded as exc:
        return 429, {"ok": False, "error": str(exc)}
    except ServiceError as exc:
        return 500, {"ok": False, "error": str(exc)}
    return 200, {"ok": True, "response": response}


class ReproServer:
    """The simulation service: batch queue + cache + HTTP listener.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`).  ``cache_dir=None`` disables memoization — every
    request simulates — but provenance records are still attached.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        max_batch: int = 32,
        task_timeout_s: float = 600.0,
        request_timeout_s: float = 600.0,
        verbose: bool = False,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.request_timeout_s = request_timeout_s
        self.verbose = verbose
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.queue = BatchQueue(
            self.cache,
            workers=workers,
            max_batch=max_batch,
            task_timeout_s=task_timeout_s,
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- request handling (usable without sockets) ---------------------------

    def metrics_document(self) -> Dict[str, Any]:
        """The serve tier's instruments as a ``repro-metrics/v1`` doc."""
        return serve_metrics_document(
            self.queue.stats.to_jsonable(),
            self.queue.telemetry,
            cache_stats=self.cache.stats.to_jsonable() if self.cache else None,
            workers=self.queue.workers,
        )

    def handle(self, doc: Any) -> Tuple[int, Dict[str, Any]]:
        """Process one request document; returns (status, response)."""
        return _answer(self.queue.submit, doc, timeout_s=self.request_timeout_s)

    def handle_batch(self, docs: List[Any]) -> List[Tuple[int, Dict[str, Any]]]:
        """Register every document, then wait on each within one deadline.

        All misses enter the queue together, so they dedup and shard
        together; no thread is started per item.
        """
        tickets = self.queue.enqueue(docs)
        deadline = time.monotonic() + self.request_timeout_s
        return [
            _answer(
                self.queue.wait,
                ticket,
                timeout_s=max(0.0, deadline - time.monotonic()),
            )
            for ticket in tickets
        ]

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._httpd is None:
            return self._requested_port
        return int(self._httpd.server_address[1])

    def start(self) -> None:
        """Bind, start the dispatcher, and serve in a background thread."""
        if self._httpd is not None:
            return
        handler = type("BoundHandler", (_Handler,), {"repro_server": self})
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self.queue.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.queue.stop()

    def serve_forever(self) -> None:  # pragma: no cover - interactive entry
        """Foreground entry for the CLI: blocks until interrupted."""
        self.start()
        assert self._thread is not None
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
