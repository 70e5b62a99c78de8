"""Unit suite for the service layer's storage and queue primitives.

Covers the content-addressed :class:`ResultStore` (digest keys as
integrity checks, atomic writes, GC), the digest-deduplicating
:class:`JobQueue`, route dispatch error mapping, and the
``cache-stats`` degraded-family regression: a snapshot family whose
blobs were GC'd or scribbled must report as ``degraded``, never as a
usable family.
"""

import gc
import json
import threading
import weakref

import pytest

from repro.aais import aais_for_device
from repro.cli import main as cli_main
from repro.core import QTurboCompiler
from repro.core.pipeline.snapshot import SnapshotStore
from repro.models import ising_chain
from repro.service import Job, JobQueue, ResultStore, job_digest
from repro.service.routes import ServiceError, dispatch
from repro.sim.propagators import BACKEND_NAMES


# ----------------------------------------------------------------------
# job_digest
# ----------------------------------------------------------------------
def test_job_digest_is_canonical():
    a = job_digest("compile", {"model": "ising_chain", "qubits": 3})
    b = job_digest("compile", {"qubits": 3, "model": "ising_chain"})
    assert a == b  # key order must not matter
    assert len(a) == 32 and int(a, 16) >= 0


def test_job_digest_separates_kind_and_content():
    request = {"model": "ising_chain", "qubits": 3}
    assert job_digest("compile", request) != job_digest("simulate", request)
    assert job_digest("compile", request) != job_digest(
        "compile", {**request, "qubits": 4}
    )


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
def test_result_store_round_trip(tmp_path):
    store = ResultStore(tmp_path / "results")
    digest = job_digest("compile", {"model": "x"})
    store.store(digest, {"kind": "compile", "result": {"ok": True}})
    record = store.load(digest)
    assert record["digest"] == digest
    assert record["result"] == {"ok": True}
    assert store.stats()["hits"] == 1


def test_result_store_miss_and_corrupt(tmp_path):
    store = ResultStore(tmp_path / "results")
    digest = job_digest("compile", {"model": "x"})
    assert store.load(digest) is None  # miss

    store.store(digest, {"kind": "compile", "result": {}})
    path = store.path_for(digest)

    # Torn write: truncated JSON reads as a miss, not an exception.
    path.write_text(path.read_text()[: 10])
    assert store.load(digest) is None

    # Wrong content under the right name: embedded digest mismatch.
    path.write_text(json.dumps({"digest": "0" * 32, "result": {}}))
    assert store.load(digest) is None
    assert store.stats()["corrupt"] == 2


def test_result_store_gc_oldest_first(tmp_path):
    store = ResultStore(tmp_path / "results")
    digests = []
    for index in range(4):
        digest = job_digest("compile", {"i": index})
        store.store(digest, {"kind": "compile", "result": {"i": index}})
        # mtime is the GC ordering key; space the records out.
        t = 1_000_000 + index
        import os

        os.utime(store.path_for(digest), (t, t))
        digests.append(digest)
    outcome = store.gc(max_results=2)
    assert outcome["evicted"] == 2 and outcome["kept"] == 2
    assert store.load(digests[0]) is None  # oldest evicted
    assert store.load(digests[3]) is not None  # newest kept
    assert store.disk_stats()["records"] == 2


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------
def _make_queue(execute, **kwargs):
    queue = JobQueue(execute, **kwargs)
    return queue


def test_queue_executes_and_finishes():
    def execute(jobs):
        for job in jobs:
            job.finish({"result": {"echo": job.request}})

    queue = _make_queue(execute)
    try:
        job = queue.submit(Job("compile", "d1", {"x": 1}))
        assert job.wait(5.0)
        assert job.status == "done"
        assert job.result["result"]["echo"] == {"x": 1}
        assert queue.get("d1") is job  # addressable after completion
    finally:
        queue.close()


def test_queue_dedups_by_digest():
    release = threading.Event()

    def execute(jobs):
        release.wait(5.0)
        for job in jobs:
            job.finish({"result": {}})

    queue = _make_queue(execute)
    try:
        first = queue.submit(Job("compile", "dup", {"x": 1}))
        second = queue.submit(Job("compile", "dup", {"x": 1}))
        assert second is first  # attached, not re-enqueued
        release.set()
        assert first.wait(5.0)
        stats = queue.stats()
        assert stats["attached"] == 1
        assert stats["executed"] == 1  # compiled exactly once
    finally:
        queue.close()


def test_queue_batches_within_linger():
    batches = []
    gate = threading.Event()

    def execute(jobs):
        gate.wait(5.0)  # hold the first drain until all are queued
        batches.append(len(jobs))
        for job in jobs:
            job.finish({"result": {}})

    queue = _make_queue(execute, linger=0.2)
    try:
        jobs = [queue.submit(Job("compile", f"d{i}", {"i": i})) for i in range(5)]
        gate.set()
        for job in jobs:
            assert job.wait(5.0)
        assert sum(batches) == 5
        assert queue.stats()["max_batch"] >= 2  # coalescing happened
    finally:
        queue.close()


def test_queue_failure_boundary():
    def execute(jobs):
        raise RuntimeError("executor exploded")

    queue = _make_queue(execute)
    try:
        job = queue.submit(Job("compile", "boom", {}))
        assert job.wait(5.0)
        assert job.status == "failed"
        assert "executor exploded" in job.error
    finally:
        queue.close()


def test_queue_fails_forgotten_jobs():
    def execute(jobs):
        pass  # never calls finish/fail

    queue = _make_queue(execute)
    try:
        job = queue.submit(Job("compile", "lost", {}))
        assert job.wait(5.0)
        assert job.status == "failed"  # the queue backstops it
    finally:
        queue.close()


def test_queue_rejects_after_close():
    queue = _make_queue(lambda jobs: None)
    queue.close()
    with pytest.raises(RuntimeError):
        queue.submit(Job("compile", "late", {}))


def test_completed_job_releases_its_workload(tmp_path):
    """Jobs kept for ``GET /v1/jobs`` must not pin their AAIS/target."""
    from repro.service.app import ServiceConfig, ServiceState

    state = ServiceState(ServiceConfig(data_dir=tmp_path, executor="serial"))
    aais_refs = []
    prepare = state._prepare

    def spy(kind, request, digest):
        prepared = prepare(kind, request, digest)
        aais_refs.append(weakref.ref(prepared.aais))
        return prepared

    state._prepare = spy
    try:
        # The first compile seeds the worker-compiler memo, which keeps
        # its own AAIS; the second request's AAIS has no other owner.
        for t in (1.0, 1.5):
            job = state.submit("compile", {"model": "ising_chain", "qubits": 3,
                                           "time": t})
            assert job.wait(60.0) and job.status == "done"
    finally:
        state.close()  # joins the worker: no frame still holds the batch
    assert state.queue.get(job.digest) is job  # still addressable
    assert job.prepared is None
    gc.collect()
    assert aais_refs[1]() is None


# ----------------------------------------------------------------------
# Route dispatch (no HTTP socket needed)
# ----------------------------------------------------------------------
class _FakeState:
    class config:
        wait_timeout = 1.0

    def health(self):
        return {"status": "ok"}

    def stats(self):
        return {"service": {}}

    def submit(self, kind, request):
        return Job.completed(kind, "deadbeef", request, {"result": {"k": kind}})

    def job_payload(self, digest):
        if digest == "known":
            return {"job_id": digest, "status": "done"}
        return None


def test_dispatch_routes():
    state = _FakeState()
    assert dispatch(state, "GET", "/v1/health", None)[0] == 200
    assert dispatch(state, "GET", "/v1/stats", None)[0] == 200
    status, payload = dispatch(state, "POST", "/v1/compile", {"model": "x"})
    assert status == 200 and payload["result"] == {"k": "compile"}
    assert dispatch(state, "GET", "/v1/jobs/known", None)[0] == 200


def test_dispatch_error_mapping():
    state = _FakeState()
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "POST", "/v1/health", None)
    assert exc.value.status == 405
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "GET", "/v1/jobs/missing", None)
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        dispatch(state, "GET", "/v1/nope", None)
    assert exc.value.status == 404
    for body in ({"timeout": -1}, {"wait": "false"}, {"timeout": True}):
        with pytest.raises(ServiceError) as exc:
            dispatch(state, "POST", "/v1/compile", body)
        assert exc.value.status == 400


# ----------------------------------------------------------------------
# Degraded snapshot families (the cache-stats regression)
# ----------------------------------------------------------------------
def _commit_family(snapshot_dir):
    """Compile once with snapshots on; returns the store and family dir."""
    target = ising_chain(3)
    aais = aais_for_device("rydberg-1d", 3)
    compiler = QTurboCompiler(aais, snapshots=snapshot_dir)
    result = compiler.compile(target, 1.0)
    assert result.success
    store = SnapshotStore(snapshot_dir)
    families = store.families()
    assert len(families) == 1
    return store, families[0]


def test_disk_stats_reports_gcd_blobs_as_degraded(tmp_path):
    store, family = _commit_family(tmp_path / "snapshots")
    assert store.disk_stats()["families"] == 1

    # Simulate a partial GC / crashed eviction: family.json survives
    # but a unit blob is gone.
    blob = next(store.family_dir(family).glob("after-*.pkl"))
    blob.unlink()

    stats = store.disk_stats()
    assert stats["degraded"] == 1
    assert stats["families"] == 0  # a degraded family is not usable


def test_disk_stats_deep_catches_scribbled_blob(tmp_path):
    store, family = _commit_family(tmp_path / "snapshots")
    blob = next(store.family_dir(family).glob("after-*.pkl"))
    payload = blob.read_bytes()
    # Same size, different bits: only the deep (digest) scan sees it.
    blob.write_bytes(b"\x00" * len(payload))
    assert store.disk_stats()["degraded"] == 0  # shallow scan fooled
    deep = store.disk_stats(deep=True)
    assert deep["degraded"] == 1 and deep["families"] == 0


def test_gc_evicts_degraded_families(tmp_path):
    store, family = _commit_family(tmp_path / "snapshots")
    next(store.family_dir(family).glob("after-*.pkl")).unlink()
    outcome = store.gc()
    assert outcome["degraded_removed"] == 1
    assert store.families() == []
    assert not store.family_dir(family).exists()


def test_cache_stats_cli_reports_degraded(tmp_path, capsys):
    store, family = _commit_family(tmp_path / "snapshots")
    blob = next(store.family_dir(family).glob("after-*.pkl"))
    blob.write_bytes(b"\x00" * blob.stat().st_size)  # same-size scribble

    rc = cli_main(["cache-stats", "--snapshot-dir", str(tmp_path / "snapshots")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    disk = payload["snapshot_disk"]
    # The CLI scan is deep: a bit-flipped blob must not count as usable.
    assert disk["degraded"] == 1
    assert disk["families"] == 0


# ----------------------------------------------------------------------
# Request intake: malformed fields are 400s, never enqueued
# ----------------------------------------------------------------------
@pytest.fixture()
def service_state(tmp_path):
    from repro.service.app import ServiceConfig, ServiceState

    state = ServiceState(ServiceConfig(data_dir=tmp_path, executor="serial"))
    yield state
    state.close()


_WORKLOAD = {"model": "ising_chain", "qubits": 3, "time": 1.0}


@pytest.mark.parametrize(
    "kind, fields, needle",
    [
        ("compile", {"refine": "false"}, "compiler.refine takes a JSON boolean, got 'false'"),
        ("compile", {"refine": 0}, "compiler.refine takes a JSON boolean, got 0"),
        ("compile", {"passes": {"disable": ["refinement"]}}, "refine=False"),
        ("compile", {"passes": {"order": ["partition"]}}, "pass order is fixed"),
        ("simulate", {"backend": "bogus"},
         f"simulation.backend must be one of {BACKEND_NAMES}, got 'bogus'"),
        ("simulate", {"shots": 0}, "simulation.shots must be a positive integer, got 0"),
        ("simulate", {"shots": "many"},
         "simulation.shots must be a positive integer, got 'many'"),
        ("simulate", {"noise_samples": -1},
         "simulation.noise_samples must be a positive integer, got -1"),
        ("simulate", {"seed": 1.5}, "simulation.seed must be an integer, got 1.5"),
        ("compile", {"refien": False}, "unknown request key(s) ['refien']"),
        ("compile", {"shots": 10}, "unknown request key(s) ['shots']"),
        ("compile", {"model": "mis_chain"}, "model 'mis_chain' is time-dependent"),
        ("compile", {"time": True}, "time must be a number, got True"),
        ("compile", {"qubits": True}, "model.qubits must be a positive integer, got True"),
    ],
)
def test_submit_rejects_malformed_fields(service_state, kind, fields, needle):
    with pytest.raises(ServiceError) as exc:
        service_state.submit(kind, {**_WORKLOAD, **fields})
    assert exc.value.status == 400
    assert needle in exc.value.message
    assert service_state.stats()["service"]["bad_requests"] == 1
    assert service_state.queue.stats()["submitted"] == 0


def test_submit_accepts_a_boolean_refine(service_state):
    job = service_state.submit("compile", {**_WORKLOAD, "refine": False})
    assert job.wait(60.0) and job.status == "done"
    offline = QTurboCompiler(
        aais_for_device("rydberg-1d", 3), refine=False
    ).compile(ising_chain(3), 1.0)
    assert job.result["result"]["schedule"] == offline.schedule.to_dict()


def test_equivalent_requests_share_one_job(service_state):
    """Requests are digested in their canonical spec form, so each
    spelling of one workload is a store hit on the first one's record."""
    first = {**_WORKLOAD, "params": {"j": 1.0, "h": 0.5}}
    job = service_state.submit("compile", first)
    assert job.wait(60.0) and job.status == "done"
    spellings = [
        {**first, "passes": {}},
        {**first, "time": 1},
        {**first, "params": {"h": 0.5, "j": 1.0}},
    ]
    for spelling in spellings:
        twin = service_state.submit("compile", spelling)
        assert twin.digest == job.digest
        assert twin.source == "store"

    enabled = {**first, "passes": {"enable": ["term_fusion", "schedule_compaction"]}}
    job = service_state.submit("compile", enabled)
    assert job.wait(60.0) and job.status == "done"
    reordered = {**first, "passes": {"enable": ["schedule_compaction", "term_fusion"]}}
    twin = service_state.submit("compile", reordered)
    assert twin.digest == job.digest
    assert twin.source == "store"
