"""Request schema + execution for the simulation service.

Four request kinds, one per front-door workload:

* ``sweep`` — a NetPIPE size sweep (module × pattern × sizes × hops,
  optionally accelerated): the Figures 4–7 primitive;
* ``trace`` — one traced put with the per-stage span aggregation;
* ``chaos`` — a named fault plan judged through the campaign
  invariants (payload integrity / exactly-once / bounded recovery);
* ``stats`` — a metrics-enabled sweep with the per-size utilization
  attribution rows and the saturating-stage verdicts.

:func:`normalize_request` validates a raw JSON document and returns its
**canonical** form: every default materialized, size schedules resolved
to the explicit integer list, unknown fields rejected.  Canonical
requests are what cache keys hash, so two spellings of the same
question (dict ordering, ``fast``+``max_bytes`` vs the explicit size
list it expands to) share one cache entry.

:func:`execute_request` is module-level and picklable-in/out, so the
batch queue can shard misses across the self-healing worker pool
(:mod:`repro.benchrunner.pool`).  Results contain simulated content
only — no wall-clock, no hostnames — keeping them cacheable forever.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence, Tuple

__all__ = [
    "KINDS",
    "MODULES",
    "PATTERNS",
    "RequestError",
    "normalize_request",
    "execute_request",
    "execute_payload",
    "request_summary",
]

KINDS: Tuple[str, ...] = ("sweep", "trace", "chaos", "stats")
MODULES: Tuple[str, ...] = ("put", "get", "mpich1", "mpich2")
PATTERNS: Tuple[str, ...] = ("pingpong", "stream", "bidir")

#: service guard-rails: the largest message any request may ask for and
#: the most sizes one sweep may contain (a full 8 MiB NetPIPE schedule
#: is ~390 points; these bounds keep one request's work predictable)
MAX_BYTES_LIMIT = 8 * 1024 * 1024
MAX_SIZES = 512


class RequestError(ValueError):
    """A request that fails validation (HTTP 400, never retried)."""


def _fail(msg: str) -> "RequestError":
    return RequestError(msg)


def _take(doc: Dict[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(doc) - set(allowed) - {"kind"})
    if unknown:
        raise _fail(f"unknown field(s) {', '.join(unknown)}")


def _int_field(
    doc: Dict[str, Any], name: str, default: int, lo: int, hi: int
) -> int:
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{name} must be an integer")
    if not lo <= value <= hi:
        raise _fail(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _bool_field(doc: Dict[str, Any], name: str, default: bool) -> bool:
    value = doc.get(name, default)
    if not isinstance(value, bool):
        raise _fail(f"{name} must be a boolean")
    return value


def _choice_field(
    doc: Dict[str, Any], name: str, default: str, choices: Sequence[str]
) -> str:
    value = doc.get(name, default)
    if value not in choices:
        raise _fail(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return str(value)


def _resolve_sizes(doc: Dict[str, Any]) -> List[int]:
    """The explicit, sorted, deduplicated size list a sweep measures.

    Either ``sizes`` (explicit list) or ``min_bytes``/``max_bytes`` with
    ``fast`` choosing between the power-of-two and full NetPIPE
    schedules — resolved here so equivalent spellings canonicalize to
    the same request (and therefore the same cache key).
    """
    from ..netpipe.sizes import decade_sizes, netpipe_sizes

    explicit = doc.get("sizes")
    if explicit is not None:
        for bad in ("min_bytes", "max_bytes", "fast"):
            if bad in doc:
                raise _fail(f"sizes and {bad} are mutually exclusive")
        if not isinstance(explicit, (list, tuple)) or not explicit:
            raise _fail("sizes must be a non-empty list of integers")
        for n in explicit:
            if isinstance(n, bool) or not isinstance(n, int):
                raise _fail("sizes must be integers")
            if not 1 <= n <= MAX_BYTES_LIMIT:
                raise _fail(f"sizes must be in [1, {MAX_BYTES_LIMIT}], got {n}")
        sizes = sorted(set(explicit))
    else:
        min_bytes = _int_field(doc, "min_bytes", 1, 1, MAX_BYTES_LIMIT)
        max_bytes = _int_field(doc, "max_bytes", 1 << 20, 1, MAX_BYTES_LIMIT)
        if min_bytes > max_bytes:
            raise _fail("min_bytes must be <= max_bytes")
        fast = _bool_field(doc, "fast", True)
        sizes = (
            decade_sizes(min_bytes, max_bytes)
            if fast
            else netpipe_sizes(min_bytes, max_bytes)
        )
    if len(sizes) > MAX_SIZES:
        raise _fail(f"too many sizes ({len(sizes)} > {MAX_SIZES})")
    return list(sizes)


def normalize_request(doc: Any) -> Dict[str, Any]:
    """Validate ``doc`` and return its canonical request form.

    Raises :class:`RequestError` on anything malformed.  The returned
    dict is fully materialized (no implicit defaults left) and is the
    exact document cache keys are derived from.
    """
    if not isinstance(doc, dict):
        raise _fail("request must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise _fail(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")

    if kind == "sweep":
        _take(
            doc,
            (
                "module", "pattern", "hops", "accelerated",
                "sizes", "min_bytes", "max_bytes", "fast",
            ),
        )
        module = _choice_field(doc, "module", "put", MODULES)
        accelerated = _bool_field(doc, "accelerated", False)
        if accelerated and module not in ("put", "get"):
            raise _fail("accelerated applies to the Portals modules only")
        return {
            "kind": "sweep",
            "module": module,
            "pattern": _choice_field(doc, "pattern", "pingpong", PATTERNS),
            "hops": _int_field(doc, "hops", 1, 1, 128),
            "accelerated": accelerated,
            "sizes": _resolve_sizes(doc),
        }

    if kind == "trace":
        _take(doc, ("size", "hops"))
        return {
            "kind": "trace",
            "size": _int_field(doc, "size", 1, 1, MAX_BYTES_LIMIT),
            "hops": _int_field(doc, "hops", 1, 1, 128),
        }

    if kind == "chaos":
        from ..faults.plan import plan_names

        _take(doc, ("plan", "seed"))
        return {
            "kind": "chaos",
            "plan": _choice_field(doc, "plan", "drop-1pct", plan_names()),
            "seed": _int_field(doc, "seed", 0, 0, 2**32 - 1),
        }

    # kind == "stats"
    _take(
        doc,
        ("module", "pattern", "hops", "sizes", "min_bytes", "max_bytes", "fast"),
    )
    return {
        "kind": "stats",
        "module": _choice_field(doc, "module", "put", MODULES),
        "pattern": _choice_field(doc, "pattern", "pingpong", PATTERNS),
        "hops": _int_field(doc, "hops", 1, 1, 128),
        "sizes": _resolve_sizes(doc),
    }


# -- execution ---------------------------------------------------------------


def _make_module(name: str, accelerated: bool = False) -> Any:
    from ..mpi import MPICH1, MPICH2
    from ..netpipe import MPIModule, PortalsGetModule, PortalsPutModule

    if name == "put":
        return PortalsPutModule(accelerated=accelerated)
    if name == "get":
        return PortalsGetModule(accelerated=accelerated)
    return MPIModule(MPICH1 if name == "mpich1" else MPICH2)


def _series_payload(series: Any) -> Dict[str, Any]:
    from ..benchrunner.schema import SeriesData

    data = SeriesData.from_series(series)
    return {
        "series": data.to_jsonable(),
        "latency_us": [p.latency_us for p in series.points],
        "bandwidth_mb_s": [p.bandwidth_mb_s for p in series.points],
    }


def _run_sweep(request: Dict[str, Any]) -> Dict[str, Any]:
    from ..netpipe import run_series

    series = run_series(
        _make_module(request["module"], request["accelerated"]),
        request["pattern"],
        request["sizes"],
        hops=request["hops"],
    )
    return {
        "kind": "sweep",
        "module": series.module,
        "pattern": series.pattern,
        **_series_payload(series),
    }


def _run_trace(request: Dict[str, Any]) -> Dict[str, Any]:
    from ..trace import aggregate_stages, trace_put

    result = trace_put(request["size"], hops=request["hops"])
    return {
        "kind": "trace",
        "size": request["size"],
        "hops": request["hops"],
        "latency_ps": result.latency_ps,
        "stages": [
            {
                "name": s.name,
                "count": s.count,
                "total_ps": s.total_ps,
                "mean_ps": s.mean_ps,
                "p99_ps": s.p99_ps,
            }
            for s in aggregate_stages(result.spans)
        ],
    }


def _run_chaos(request: Dict[str, Any]) -> Dict[str, Any]:
    from ..faults import named_plan
    from ..faults.campaign import clean_baseline_ps, run_one_plan, spec_for_plan

    plan = named_plan(request["plan"], seed=request["seed"])
    spec = spec_for_plan(request["plan"], plan, baseline_ps=clean_baseline_ps())
    record = run_one_plan(spec)
    return {
        "kind": "chaos",
        "plan": request["plan"],
        "seed": request["seed"],
        "record": record,
    }


def _run_stats(request: Dict[str, Any]) -> Dict[str, Any]:
    from ..metrics import attribute_windows, saturating_by_decade
    from ..netpipe import NetPipeRunner

    runner = NetPipeRunner(
        _make_module(request["module"]), hops=request["hops"], metrics=True
    )
    series = runner.run(request["pattern"], request["sizes"])
    rows = attribute_windows(runner.machine.metrics, runner.windows)
    runner.machine.metrics.release()
    return {
        "kind": "stats",
        "module": series.module,
        "pattern": series.pattern,
        **_series_payload(series),
        "utilization": [
            {
                "nbytes": row.nbytes,
                "window_ps": row.window_ps,
                "utilization": {k: row.utilization[k] for k in sorted(row.utilization)},
                "saturating": row.saturating,
            }
            for row in rows
        ],
        "saturating_by_decade": {
            str(decade): stage
            for decade, stage in saturating_by_decade(rows).items()
        },
    }


_EXECUTORS = {
    "sweep": _run_sweep,
    "trace": _run_trace,
    "chaos": _run_chaos,
    "stats": _run_stats,
}


def execute_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one canonical request to completion in this process.

    The result is pure simulated content (deterministic for a given
    code version), so the caller may memoize it indefinitely.
    """
    return _EXECUTORS[request["kind"]](request)


def execute_payload(request: Dict[str, Any]) -> Dict[str, Any]:
    """Pool-worker entry: the result plus how long it took in-child."""
    t0 = time.perf_counter()
    result = execute_request(request)
    return {"result": result, "wall_s": time.perf_counter() - t0}


def request_summary(request: Dict[str, Any]) -> str:
    """One-line human description (progress lines, server logs)."""
    kind = request["kind"]
    if kind in ("sweep", "stats"):
        sizes: List[int] = request["sizes"]
        return (
            f"{kind} {request['module']}/{request['pattern']} "
            f"{len(sizes)} sizes up to {sizes[-1]}B"
        )
    if kind == "trace":
        return f"trace {request['size']}B hops={request['hops']}"
    return f"chaos {request['plan']} seed={request['seed']}"
