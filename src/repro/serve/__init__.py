"""repro.serve — simulation-as-a-service.

The "heavy traffic" reading of the north star for a deterministic
simulator: an HTTP front end (``repro serve``) that accepts
sweep/trace/chaos/stats requests, answers repeats from the
content-addressed result store (:mod:`repro.cache`) on the request
thread, deduplicates concurrent misses single-flight, and shards them
across the self-healing worker pool.  Every response carries the
content address and a provenance record, so any served number is
traceable to its exact inputs and code version.
"""

from .api import (
    KINDS,
    RequestError,
    execute_request,
    normalize_request,
    request_summary,
)
from .batch import BatchQueue, Overloaded, QueueStats, ServiceError
from .server import ReproServer

__all__ = [
    "KINDS",
    "RequestError",
    "ServiceError",
    "Overloaded",
    "BatchQueue",
    "QueueStats",
    "ReproServer",
    "execute_request",
    "normalize_request",
    "request_summary",
]
