"""The service's persistent content-addressed result store.

One store root holds one JSON record per *job digest* — the canonical
content hash of a request (see :func:`job_digest`) — sharded by digest
prefix so directories stay small::

    <root>/
      ab/
        ab3f...e1.json    # {"digest", "kind", "request", "result", ...}
      c0/
        c04d...92.json

The digest is both the key and the integrity check: a record is only
served when the digest stored *inside* the payload matches the digest
it was looked up under, so a torn or scribbled file degrades to a miss
(and a recompute) instead of serving a wrong result.  All writes are
atomic (:func:`repro.store.atomic_write`, pid+tid temp names), and
concurrent writers of the same digest are safe by determinism — equal
requests produce equal records, so interleaved commits converge.

This is the OpenREIL "database as IR storage" move applied to compiled
results: because the key is a content digest of the request (not a
sequence number or a tenant id), every tenant of a shared store warms
every other tenant, and a restarted service starts with yesterday's
cache instead of a cold one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core import linear_system
from repro.store import (
    Counters,
    blob_digest,
    evict_oldest,
    read_json,
    scan,
    write_json,
)

__all__ = ["ResultStore", "job_digest"]


def job_digest(kind: str, request: Dict) -> str:
    """The content-addressed job id of one service request.

    Canonical JSON (sorted keys, no whitespace variance) of the request,
    its kind and the bounded linear solver, hashed with blake2b.  Two
    requests share a digest iff they are semantically identical, which
    is what makes digest-keyed dedup ("never compile the same thing
    twice") and cross-restart warm hits sound.  The solver name is the
    part of the compiler's identity a request does not determine; it is
    read at call time, so after a solver change a restarted service
    misses instead of replaying results the old solver wrote.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "request": request,
            "solver": linear_system.BOUNDED_SOLVER,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return blob_digest(payload.encode("utf-8"))


class ResultStore:
    """Read/write access to one content-addressed result root.

    Parameters
    ----------
    root:
        Directory holding the sharded records; created lazily on the
        first :meth:`store`.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._counters = Counters(
            ("hits", "misses", "corrupt", "writes", "gc_evicted")
        )

    def path_for(self, digest: str) -> Path:
        """Where the record for ``digest`` lives."""
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    def load(self, digest: str) -> Optional[Dict]:
        """The stored record for ``digest``, or None on miss/corruption.

        A record whose embedded digest does not match the requested one
        (torn write, scribbled blob, hand-edited file) counts as
        ``corrupt`` and reads as a miss — the caller recomputes and
        re-commits, healing the store.
        """
        path = self.path_for(digest)
        if not path.is_file():
            self._counters.add("misses")
            return None
        record = read_json(path)
        if record is None or record.get("digest") != digest:
            self._counters.add("corrupt")
            return None
        self._counters.add("hits")
        return record

    def store(self, digest: str, record: Dict) -> Path:
        """Persist one job record atomically under its digest."""
        record = dict(record)
        record["digest"] = digest
        record.setdefault("stored_at", time.time())
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_json(path, record, "service.result")
        self._counters.add("writes")
        return path

    # ------------------------------------------------------------------
    def gc(
        self,
        max_results: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Evict records oldest-first until the store fits its caps."""
        outcome = evict_oldest(
            scan(self.root, "*/*.json"), Path.unlink, max_results, max_bytes
        )
        self._counters.add("gc_evicted", outcome["evicted"])
        return outcome

    def disk_stats(self) -> Dict[str, int]:
        """What the store currently holds on disk (records, bytes)."""
        records = scan(self.root, "*/*.json")
        return {
            "records": len(records),
            "bytes": sum(size for _, size, _ in records),
        }

    def stats(self) -> Dict[str, object]:
        """Lookup/write counters plus disk usage."""
        stats: Dict[str, object] = self._counters.snapshot()
        stats["disk"] = self.disk_stats()
        stats["root"] = str(self.root)
        return stats

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
