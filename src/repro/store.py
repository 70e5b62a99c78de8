"""The on-disk store primitive every persistent store is built on.

:class:`~repro.experiments.store.ArtifactStore` (experiment runs),
:class:`~repro.core.pipeline.snapshot.SnapshotStore` (compile families)
and :class:`~repro.service.store.ResultStore` (service results) are key
schemes over the functions here; every storage decision lives in this
one module:

* **Writes** are atomic: the payload goes to a temp file named by pid
  *and* thread id, then ``replace``-s the target, so concurrent writers
  of one path — other processes or threads of this one — never share a
  temp file, and readers see the old content or the new, never a torn
  mix.  The caller names the fault site that fires once the file lands.
* **JSON reads** are forgiving: an absent, torn or non-dict file reads
  as ``None`` and the caller recomputes.
* **Digests** are blake2b-16 hex, for blob integrity and content keys.
* **Eviction** is oldest-first under count and byte caps.
* **Counters** are a locked dict of named integers; stats aggregate
  with :func:`merge_counters`.

This module imports only the stdlib and :mod:`repro.testing.faults`, so
the compiler core can use it without importing higher layers.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.testing.faults import fault_point

__all__ = [
    "Counters",
    "atomic_write",
    "blob_digest",
    "evict_oldest",
    "merge_counters",
    "read_json",
    "scan",
    "write_json",
]


def atomic_write(
    path: Path, payload: bytes, fault_site: Optional[str] = None
) -> None:
    """Write ``payload`` to ``path`` atomically (pid+tid temp + rename).

    ``fault_site`` names the :func:`~repro.testing.faults.fault_point`
    that fires, with ``path``, right after the file lands.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    tmp.write_bytes(payload)
    tmp.replace(path)
    if fault_site is not None:
        fault_point(fault_site, path=path)


def write_json(
    path: Path, payload: Dict, fault_site: Optional[str] = None
) -> None:
    """Atomically write ``payload`` as indented, key-sorted JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"), fault_site)


def read_json(path: Path) -> Optional[Dict]:
    """The JSON object stored at ``path``; None when absent, torn or not a dict."""
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def blob_digest(blob: bytes) -> str:
    """The 32-character blake2b content digest of ``blob``."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def scan(root: Path, pattern: str) -> List[Tuple[float, int, Path]]:
    """``(mtime, bytes, path)`` of every file under ``root`` matching ``pattern``.

    In-flight temp files are skipped, as are files that vanish
    mid-scan (a concurrent eviction).
    """
    entries = []
    for path in root.glob(pattern):
        if path.suffix == ".tmp":
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    return entries


def evict_oldest(
    entries: Sequence[Tuple[float, int, Hashable]],
    evict: Callable[[Hashable], None],
    max_count: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> Dict[str, int]:
    """Evict ``(age_key, bytes, key)`` entries oldest-first until under caps.

    ``evict(key)`` removes one entry; one that raises ``OSError`` is
    dropped from the candidates without counting as evicted.  Returns
    ``evicted``, ``kept`` and ``bytes_kept``.
    """
    remaining = sorted(entries)
    total = sum(size for _, size, _ in remaining)
    evicted = 0
    while remaining and (
        (max_count is not None and len(remaining) > max_count)
        or (max_bytes is not None and total > max_bytes)
    ):
        _, size, key = remaining.pop(0)
        try:
            evict(key)
        except OSError:
            continue
        total -= size
        evicted += 1
    return {"evicted": evicted, "kept": len(remaining), "bytes_kept": total}


class Counters:
    """A thread-safe dict of named integer counters.

    Parameters
    ----------
    names:
        Counters reported (as 0) before their first increment.
    """

    def __init__(self, names: Sequence[str] = ()):
        self._lock = threading.Lock()
        self._values: Dict[str, int] = dict.fromkeys(names, 0)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount``."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of every counter."""
        with self._lock:
            return dict(self._values)


def merge_counters(bucket: Dict, counters: Dict) -> None:
    """Sum ``counters`` into ``bucket``, recursing into nested dicts.

    Numeric values add; nested mappings (e.g. a re-entry histogram or a
    disk section) merge key by key; anything else (e.g. a store's root
    path) keeps the first value seen.
    """
    for key, value in counters.items():
        if isinstance(value, dict):
            merge_counters(bucket.setdefault(key, {}), value)
        elif isinstance(value, (int, float)):
            bucket[key] = bucket.get(key, 0) + value
        else:
            bucket.setdefault(key, value)
