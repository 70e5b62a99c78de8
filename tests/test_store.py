"""Tests for the shared on-disk store primitive (:mod:`repro.store`).

Covers the primitive itself (forgiving JSON reads, oldest-first
eviction) and the behaviours the stores built on it must keep: a
same-process thread storm on one snapshot family never fails a commit
or tears a blob, a family without an integrity manifest is degraded,
and a service result written under another bounded solver is never
served.
"""

import os
import sys
import threading

import pytest

from repro.core import linear_system
from repro.core.pipeline.snapshot import SnapshotStore
from repro.service import ResultStore, job_digest
from repro.store import evict_oldest, read_json, write_json


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "content", [None, b"", b'{"torn": ', b"[1, 2]", b"\xff\xfe\x00"]
)
def test_read_json_absent_torn_or_non_dict_is_none(tmp_path, content):
    path = tmp_path / "record.json"
    if content is not None:
        path.write_bytes(content)
    assert read_json(path) is None


def test_evict_oldest_respects_both_caps_and_skips_failures():
    evicted = []

    def evict(key):
        if key == "locked":
            raise PermissionError(key)
        evicted.append(key)

    entries = [
        (3.0, 10, "c"),
        (1.0, 10, "a"),
        (2.0, 10, "locked"),
        (4.0, 10, "d"),
    ]
    outcome = evict_oldest(entries, evict, max_count=2)
    # "locked" leaves the candidates but its bytes stay on disk.
    assert evicted == ["a"]
    assert outcome == {"evicted": 1, "kept": 2, "bytes_kept": 30}

    evicted.clear()
    outcome = evict_oldest(entries, evict, max_bytes=15)
    assert evicted == ["a", "c", "d"]
    assert outcome == {"evicted": 3, "kept": 0, "bytes_kept": 10}


# ----------------------------------------------------------------------
# SnapshotStore: same-process thread storm on one family
# ----------------------------------------------------------------------
def test_thread_storm_on_one_snapshot_family(tmp_path):
    store = SnapshotStore(tmp_path / "snapshots")
    family = "f" * 16 + "-" + "s" * 16
    blob = os.urandom(1 << 21)  # 2 MiB: writes long enough to overlap
    unit_blobs = [(name, blob) for name in ("a", "b", "c")]
    meta = {"unit": "u" * 32, "passes": ["a", "b", "c"]}
    threads_n, commits_each = 8, 4
    barrier = threading.Barrier(threads_n)
    errors = []

    def committer():
        try:
            barrier.wait(10.0)
            for _ in range(commits_each):
                store.commit(family, meta, unit_blobs, blob)
        except Exception as error:  # noqa: BLE001 - recorded, asserted below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=committer) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.stats()["commits"] == threads_n * commits_each
    assert store.verify_family(family, deep=True) == "complete"
    assert list(store.root.rglob("*.tmp")) == []


def test_family_without_integrity_manifest_is_degraded(tmp_path):
    store = SnapshotStore(tmp_path / "snapshots")
    family = "legacy-family"
    store.commit(family, {"unit": "u", "passes": ["a"]}, [("a", b"x")], b"y")
    meta_path = store.family_dir(family) / store.META
    meta = read_json(meta_path)
    del meta["blobs"]  # a family committed before the manifest existed
    write_json(meta_path, meta)
    assert store.verify_family(family) == "degraded"
    assert store.gc()["degraded_removed"] == 1
    assert store.families() == []


# ----------------------------------------------------------------------
# ResultStore: the key carries the compiler's solver identity
# ----------------------------------------------------------------------
def test_result_written_by_another_solver_is_not_served(
    tmp_path, monkeypatch
):
    store = ResultStore(tmp_path / "results")
    request = {"model": "ising_chain", "qubits": 3, "time": 1.0}
    with monkeypatch.context() as patch:
        patch.setattr(linear_system, "BOUNDED_SOLVER", "trf")
        old_digest = job_digest("compile", request)
        store.store(
            old_digest, {"kind": "compile", "request": request, "result": {}}
        )
        assert store.load(old_digest) is not None

    digest = job_digest("compile", request)
    assert digest != old_digest
    assert store.load(digest) is None
    assert store.stats()["misses"] == 1
