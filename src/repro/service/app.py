"""Compilation-as-a-service: the ``repro serve`` application.

A :class:`ReproService` is a long-running HTTP server (stdlib
``ThreadingHTTPServer`` — one thread per connection, no new
dependencies) in front of a :class:`ServiceState`:

* each request becomes a one-point
  :class:`~repro.experiments.ExperimentSpec`, validated in the handler
  thread by the spec validators, and a :class:`~repro.service.queue.Job`
  keyed by the digest of the spec's canonical form;
* the persistent :class:`~repro.service.store.ResultStore` is checked
  first — a warm store serves the request without touching the queue,
  across restarts and across tenants;
* misses flow through the :class:`~repro.service.queue.JobQueue`,
  whose worker drains concurrent arrivals into one coalesced
  :meth:`~repro.batch.BatchCompiler.compile_many` batch over a single
  *shared* :class:`~repro.core.pipeline.snapshot.SnapshotStore`, so
  even cold requests skip whole pass-pipeline prefixes whenever any
  earlier request (from any tenant, in any process) committed a donor
  of the same compile family.

The HTTP surface is defined in :mod:`repro.service.routes`; the
wire-level client in :mod:`repro.service.client`; the store layout and
GC policy in ``docs/service.md``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import __version__
from repro.batch.compiler import BatchCompiler, compiler_for
from repro.core.pipeline.snapshot import SnapshotStore
from repro.errors import ReproError
from repro.experiments.runner import _simulation_sections, build_workload
from repro.experiments.spec import ExperimentSpec
from repro.service.queue import Job, JobQueue
from repro.service.routes import ServiceError, dispatch
from repro.service.store import ResultStore, job_digest
from repro.store import Counters

__all__ = ["ReproService", "ServiceConfig", "ServiceState"]

#: Request kinds the service accepts (also the route suffixes).
JOB_KINDS = ("compile", "simulate", "run")

#: The flat keys of a compile/simulate body, which ``docs/service.md``
#: lists.  The last four are simulate-only; a run body is ``{"spec": ...}``.
_REQUEST_KEYS = (
    "model", "hamiltonian", "qubits", "params", "device", "time",
    "refine", "passes", "shots", "noise_samples", "seed", "backend",
)


@dataclass
class ServiceConfig:
    """Tunables of one service instance.

    Attributes
    ----------
    host / port:
        Bind address; port 0 asks the OS for an ephemeral port (the
        bound port is in :attr:`ReproService.url`).
    data_dir:
        Root of the persistent state: ``results/`` (content-addressed
        job records), ``snapshots/`` (the shared compile-family store),
        and ``runs/`` (experiment-run artifact directories).
    executor / workers:
        Batch executor the queue worker compiles through.
    linger / batch_max:
        Queue coalescing window (see
        :class:`~repro.service.queue.JobQueue`).
    wait_timeout:
        Default seconds a synchronous (``wait=true``) request blocks
        before returning 202 with the job descriptor instead.
    max_families / max_store_bytes:
        Snapshot-store GC caps, enforced after every batch (None
        disables a cap).
    max_results / max_result_bytes:
        Result-store GC caps, enforced after every batch.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    data_dir: Union[str, Path] = ".repro-service"
    executor: str = "serial"
    workers: Optional[int] = None
    linger: float = 0.02
    batch_max: int = 64
    wait_timeout: float = 300.0
    max_families: Optional[int] = None
    max_store_bytes: Optional[int] = None
    max_results: Optional[int] = None
    max_result_bytes: Optional[int] = None


def _compile_payload(result) -> Dict[str, object]:
    """The JSON result section of one compilation."""
    payload: Dict[str, object] = {
        "success": bool(result.success),
        "summary": result.summary(),
        "compile_seconds": result.compile_seconds,
        "warnings": list(result.warnings),
    }
    if result.success and result.schedule is not None:
        payload["execution_time_us"] = result.execution_time
        payload["relative_error"] = result.relative_error
        payload["num_segments"] = result.schedule.num_segments
        payload["schedule"] = result.schedule.to_dict()
    else:
        payload["message"] = result.message
    if getattr(result, "incremental", None):
        payload["incremental"] = dict(result.incremental)
    return payload


class ServiceState:
    """Everything behind the HTTP surface: stores, queue, execution.

    Parameters
    ----------
    config:
        The service tunables; the data directory is created eagerly so
        a misconfigured path fails at startup, not first request.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.results = ResultStore(self.data_dir / "results")
        self.snapshots = SnapshotStore(self.data_dir / "snapshots")
        self.runs_dir = self.data_dir / "runs"
        self.batch = BatchCompiler(
            executor=config.executor, workers=config.workers
        )
        self.queue = JobQueue(
            self._execute_batch,
            linger=config.linger,
            batch_max=config.batch_max,
        )
        self.started = time.time()
        self._counters = Counters(("requests", "store_hits", "bad_requests"))

    # ------------------------------------------------------------------
    # Request intake (handler threads)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The liveness payload of ``GET /v1/health``."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "data_dir": str(self.data_dir),
        }

    def submit(self, kind: str, request: Dict) -> Job:
        """Validate and route one request; returns the canonical job.

        The persistent store is consulted before the queue: a warm
        digest completes immediately (``source="store"``), across
        service restarts.  Invalid requests raise
        :class:`~repro.service.routes.ServiceError` (HTTP 400) before
        anything is enqueued.
        """
        self._counters.add("requests")
        try:
            spec = _request_spec(kind, request)
            canonical = spec.to_dict()
            if kind == "run":
                canonical = {"spec": canonical}
            digest = job_digest(kind, canonical)
            stored = self.results.load(digest)
            if stored is not None:
                self._counters.add("store_hits")
                return Job.completed(kind, digest, canonical, stored)
            job = Job(kind, digest, canonical)
            job.prepared = self._prepare(kind, spec, digest)
        except ServiceError:
            self._counters.add("bad_requests")
            raise
        return self.queue.submit(job)

    def job_payload(self, digest: str) -> Optional[Dict[str, object]]:
        """Descriptor (+ result when done) for ``GET /v1/jobs/<id>``."""
        job = self.queue.get(digest)
        if job is not None:
            payload = job.describe()
            if job.result is not None:
                payload["result"] = job.result.get("result")
            return payload
        stored = self.results.load(digest)
        if stored is None:
            return None
        return {
            "job_id": digest,
            "kind": stored.get("kind"),
            "status": "done",
            "source": "store",
            "result": stored.get("result"),
        }

    def stats(self) -> Dict[str, object]:
        """The ``GET /v1/stats`` payload: service, queue, store layers."""
        return {
            "service": {
                **self._counters.snapshot(),
                "uptime_seconds": time.time() - self.started,
            },
            "queue": self.queue.stats(),
            "results": self.results.stats(),
            "snapshots": self.snapshots.stats(),
        }

    # ------------------------------------------------------------------
    # Workload building
    # ------------------------------------------------------------------
    def _prepare(self, kind: str, spec: ExperimentSpec, digest: str):
        """The spec itself for a run, else its :class:`~repro.batch.BatchJob`
        over the shared snapshot store (builder errors are 400s too)."""
        if kind == "run":
            return spec
        try:
            job, _, _ = build_workload(spec, digest, str(self.snapshots.root))
        except ReproError as error:
            raise ServiceError(400, str(error)) from None
        return job

    # ------------------------------------------------------------------
    # Execution (queue worker thread)
    # ------------------------------------------------------------------
    def _execute_batch(self, jobs: List[Job]) -> None:
        """Run one drained batch: compiles together, the rest one by one."""
        compiles = [job for job in jobs if job.kind == "compile"]
        if compiles:
            self._execute_compiles(compiles)
        for job in jobs:
            if job.kind == "simulate":
                self._guarded(job, self._execute_simulate)
            elif job.kind == "run":
                self._guarded(job, self._execute_run)
        self._maybe_gc()

    @staticmethod
    def _guarded(job: Job, execute) -> None:
        """Per-job failure boundary for the non-batched kinds."""
        try:
            execute(job)
        except Exception as error:
            job.fail(f"{type(error).__name__}: {error}")

    def _finish(self, job: Job, result: Dict[str, object]) -> None:
        """Persist one finished job's record and wake its waiters."""
        record = {
            "kind": job.kind,
            "request": job.request,
            "result": result,
        }
        self.results.store(job.digest, record)
        job.finish(self.results.load(job.digest) or {**record, "digest": job.digest})

    def _execute_compiles(self, jobs: List[Job]) -> None:
        """One coalesced batch compile over the shared snapshot store."""
        batch = self.batch.compile_many(
            [job.prepared for job in jobs], coalesce=True
        )
        for job, outcome in zip(jobs, batch.outcomes):
            if outcome.ok:
                self._finish(job, _compile_payload(outcome.result))
            else:
                job.fail(f"{outcome.error_type}: {outcome.error}")

    def _execute_simulate(self, job: Job) -> None:
        """Compile (through the shared store) then simulate one request."""
        spec = ExperimentSpec.from_dict(job.request)
        result = compiler_for(job.prepared).compile_piecewise(
            job.prepared.target
        )
        payload = _compile_payload(result)
        if result.success and result.schedule is not None:
            simulation = spec.simulation
            payload.update(
                _simulation_sections(spec, result.schedule, simulation.seed)
            )
            payload["shots"] = simulation.shots
        self._finish(job, payload)

    def _execute_run(self, job: Job) -> None:
        """Execute one experiment spec into the service's runs directory."""
        from repro.experiments.report import generate_report
        from repro.experiments.runner import ExperimentRunner

        spec = job.prepared
        run_dir = self.runs_dir / f"{spec.name}-{spec.spec_hash[:8]}"
        runner = ExperimentRunner()
        outcome = runner.run(spec, run_dir)
        report = generate_report(run_dir)
        self._finish(
            job,
            {
                "run_dir": str(run_dir),
                "executed": outcome.executed,
                "resumed": outcome.skipped,
                "report": report.payload,
            },
        )

    def _maybe_gc(self) -> None:
        """Enforce the configured store caps after a batch."""
        config = self.config
        if config.max_families is not None or config.max_store_bytes is not None:
            self.snapshots.gc(
                max_families=config.max_families,
                max_bytes=config.max_store_bytes,
            )
        if config.max_results is not None or config.max_result_bytes is not None:
            self.results.gc(
                max_results=config.max_results,
                max_bytes=config.max_result_bytes,
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop the queue worker."""
        self.queue.close()


def _request_spec(kind: str, request: Dict) -> ExperimentSpec:
    """The one-point :class:`ExperimentSpec` a request body describes.

    A compile/simulate body's flat keys map onto spec sections here; a
    run body carries its spec.  All value checks are the spec
    validators', so a request and a spec file accept the same values and
    their errors name the same spec paths.
    """
    if kind not in JOB_KINDS:
        raise ServiceError(400, f"unknown job kind {kind!r}")
    if not isinstance(request, dict):
        raise ServiceError(400, "request body must be a JSON object")
    # ``wait`` and ``timeout`` steer blocking, not the job: never digested.
    body = {k: v for k, v in request.items() if k not in ("wait", "timeout")}
    accepted = {"run": ("spec",), "simulate": _REQUEST_KEYS}.get(
        kind, _REQUEST_KEYS[:-4]
    )
    unknown = sorted(set(body) - set(accepted))
    if unknown:
        raise ServiceError(
            400,
            f"unknown request key(s) {unknown}; allowed: {sorted(accepted)}",
        )
    if kind == "run":
        data = body.get("spec")
        if not isinstance(data, dict):
            raise ServiceError(
                400, "run request needs a 'spec' object (ExperimentSpec)"
            )
    else:

        def pick(*keys):
            """The subset of ``body`` under ``keys``."""
            return {key: body[key] for key in keys if key in body}

        model = pick("hamiltonian", "qubits", "params")
        if "model" in body:
            model["name"] = body["model"]
        data = {
            "name": kind,
            "model": model,
            **pick("device", "time"),
            "compiler": pick("refine", "passes"),
        }
        if kind == "simulate":
            data["simulation"] = pick("shots", "noise_samples", "seed", "backend")
    try:
        spec = ExperimentSpec.from_dict(data)
    except ReproError as error:
        raise ServiceError(400, str(error)) from None
    # The wire has no ``segments``: time-dependent models run as specs.
    if kind != "run" and spec.model.is_time_dependent:
        raise ServiceError(
            400,
            f"model {spec.model.name!r} is time-dependent; submit it to "
            "/v1/run as a spec with 'segments'",
        )
    return spec


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: JSON in, JSON out, routing via ``dispatch``."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        """Silence the default per-request stderr spam."""

    def _handle(self, method: str) -> None:
        body: Optional[Dict] = None
        if method == "POST":
            try:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b"{}"
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._respond(400, {"error": "request body is not valid JSON"})
                return
        try:
            status, payload = dispatch(
                self.server.state, method, self.path, body
            )
        except ServiceError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # no request may crash the server
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
        self._respond(status, payload)

    def _respond(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        """Serve one GET request."""
        self._handle("GET")

    def do_POST(self) -> None:
        """Serve one POST request."""
        self._handle("POST")


class ReproService:
    """One bound service instance: state + HTTP server.

    Examples
    --------
    >>> service = ReproService(ServiceConfig(port=0, data_dir="/tmp/svc"))
    >>> service.start()                       # background thread
    >>> service.url                           # doctest: +SKIP
    'http://127.0.0.1:43215'
    >>> service.close()
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.state = ServiceState(self.config)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._server.daemon_threads = True
        self._server.state = self.state
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 to the real one."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproService":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` CLI path)."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop the HTTP server and drain the queue worker."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.state.close()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
