"""The content-addressed result store.

Layout: one JSON artifact per key under ``<root>/objects/<kk>/<key>.json``
(two-hex-digit fan-out so a million artifacts never share a directory).
Each artifact carries the result **and** a provenance record — the
request that produced it, the package and code versions, how long the
simulation took and under how many workers — in the spirit of PROBE's
provenance-per-artifact discipline.

Durability reuses the worker pool's torn-write-safe pattern
(:func:`repro.benchrunner.pool.atomic_write_bytes`): artifacts are
written to a temp sibling and renamed into place, and *any* unreadable
or schema-mismatched file on the read path — torn JSON from a writer
SIGKILLed mid-stream, a foreign file, a key mismatch — loads as a plain
miss and is re-simulated.  A cache can therefore never serve a wrong
answer; the worst failure mode is doing the work again.

Test hook: ``REPRO_POOL_TEST_KILL_WRITE`` (shared with the pool) set to
a substring of a key makes :meth:`ResultCache.put` SIGKILL itself
halfway through writing *at the final path*, bypassing the atomic
rename — the torn artifact the next reader must absorb.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..benchrunner.pool import TEST_KILL_WRITE_ENV, atomic_write_bytes
from .key import code_version

__all__ = ["ARTIFACT_SCHEMA", "CacheStats", "ResultCache", "provenance_record"]

ARTIFACT_SCHEMA = "repro-cache/1"


@dataclass
class CacheStats:
    """Hit/miss accounting for one store handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }


def provenance_record(
    request: Dict[str, Any],
    *,
    kind: str,
    wall_s: float,
    workers: int = 1,
    code: Optional[str] = None,
) -> Dict[str, Any]:
    """The per-artifact provenance document.

    ``request`` is the exact canonical input the key was derived from;
    ``wall_s``/``workers`` say what producing it cost on the host.  Only
    the ``result`` half of an artifact feeds back into gated documents,
    so the host-specific fields here can never perturb byte-identity.
    """
    from .. import __version__

    return {
        "request": request,
        "kind": kind,
        "package_version": __version__,
        "code_version": code if code is not None else code_version(),
        "wall_s": round(wall_s, 6),
        "workers": workers,
        "created_unix": round(time.time(), 3),
    }


class ResultCache:
    """A content-addressed store of simulated results under one root."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        # concurrent readers (the serve front end's handler threads)
        # would otherwise lose increments
        self._stats_lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        """Where the artifact for ``key`` lives (existing or not)."""
        if len(key) < 8 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The artifact for ``key``, or None (counted as a miss).

        Anything unreadable — absent, torn mid-write, not JSON, wrong
        schema, key mismatch — is a miss; the caller re-simulates.
        """
        doc = self.peek(key)
        with self._stats_lock:
            if doc is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return doc

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but without touching the hit/miss stats."""
        doc = self._load(self.path_for(key))
        return doc if doc is not None and doc.get("key") == key else None

    def contains(self, key: str) -> bool:
        """Whether :meth:`peek` would find ``key``."""
        return self.peek(key) is not None

    def put(
        self,
        key: str,
        result: Any,
        *,
        request: Dict[str, Any],
        kind: str,
        wall_s: float,
        workers: int = 1,
        code: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Store ``result`` under ``key`` with its provenance; return
        the artifact document as written."""
        doc = {
            "schema": ARTIFACT_SCHEMA,
            "key": key,
            "result": result,
            "provenance": provenance_record(
                request, kind=kind, wall_s=wall_s, workers=workers, code=code
            ),
        }
        blob = (
            json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        ).encode("utf-8")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        kill_pat = os.environ.get(TEST_KILL_WRITE_ENV)
        if kill_pat and kill_pat in key:  # pragma: no cover - dies by design
            # SIGKILL mid-write at the final path (no atomic rename):
            # leaves the torn artifact the read path must treat as a miss
            with open(path, "wb") as fh:
                fh.write(blob[: max(1, len(blob) // 2)])
                fh.flush()
                os.fsync(fh.fileno())
                os.kill(os.getpid(), signal.SIGKILL)
        atomic_write_bytes(str(path), blob)
        with self._stats_lock:
            self.stats.stores += 1
        return doc

    @staticmethod
    def _load(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != ARTIFACT_SCHEMA:
            return None
        if "result" not in doc or not isinstance(doc.get("provenance"), dict):
            return None
        return doc
