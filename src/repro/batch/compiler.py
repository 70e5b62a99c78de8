"""The batched compilation engine.

:class:`BatchCompiler` executes many (target, AAIS) jobs through the
QTurbo pipeline concurrently via a pluggable executor, with per-job
timing, structured aggregation, deterministic ordering, and graceful
per-job failure capture: one infeasible or malformed target never sinks
the batch.

Design notes
------------
* The unit of distribution is one :class:`BatchJob`; the worker function
  :func:`_execute_payload` lives at module level so the process-pool
  backend can pickle it.
* Within a worker process (and therefore for the serial and thread
  executors, which share this process), compilers are memoized per
  ``(AAIS, options)`` so structurally repeated jobs hit the compiler's
  linear-system cache and the global operator cache.
* Optional verification evolves the target and the compiled schedule and
  records the state fidelity — exercising the operator matrix cache,
  which is how repeated-target batches exhibit cache hit rates > 0.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

from repro.batch.executors import BatchExecutor, resolve_executor
from repro.batch.jobs import BatchJob, BatchResult, JobOutcome
from repro.batch.retry import RetryPolicy, call_with_retry
from repro.core.compiler import QTurboCompiler
from repro.core.pipeline.delta import _aais_digest, structure_digest
from repro.errors import classify_failure
from repro.store import merge_counters
from repro.testing.faults import fault_point

__all__ = [
    "BatchCompiler",
    "HARD_VERIFY_CAP",
    "coalesce_jobs",
    "compiler_for",
    "pass_cache_stats",
    "reset_worker_compilers",
    "verify_fidelity",
]

#: Worker-side memo of compilers, keyed on the content digest of the
#: job's AAIS plus its compiler options.  Content-based (not ``id``)
#: keying matters under the process executor, where every pickled
#: payload unpickles a fresh but equal AAIS object: equal content must
#: reuse one compiler so the linear-system cache can hit across jobs.
_WORKER_COMPILERS: "OrderedDict[tuple, QTurboCompiler]" = OrderedDict()
_WORKER_COMPILERS_LOCK = threading.Lock()
_WORKER_COMPILER_CAP = 16

#: Verification is skipped above this register size regardless of the
#: per-batch (or per-experiment) cap — state vectors grow as 2^N.  The
#: matrix-free evolution backend keeps verification to O(2^N) *vector*
#: memory (no operator matrices), which is what lifts this cap to 20;
#: beyond that even the state pair stops being cheap.
HARD_VERIFY_CAP = 20


def reset_worker_compilers() -> None:
    """Drop the in-process compiler memo (benchmark cold-start hygiene)."""
    with _WORKER_COMPILERS_LOCK:
        _WORKER_COMPILERS.clear()
    if _ideal_state_cache is not None:
        _ideal_state_cache.clear()


def compiler_for(job: BatchJob) -> QTurboCompiler:
    """The worker-local memoized compiler for a job's (AAIS, options).

    Structurally equal instruction sets with equal compiler options
    share one :class:`QTurboCompiler` per process, so repeated jobs hit
    its linear-system cache.  This is the same memo the batch engine's
    workers use; the experiment runner calls it directly.
    """
    key = (_aais_digest(job.aais), job.compiler_options)
    with _WORKER_COMPILERS_LOCK:
        compiler = _WORKER_COMPILERS.get(key)
        if compiler is not None:
            _WORKER_COMPILERS.move_to_end(key)
            return compiler
    compiler = QTurboCompiler(job.aais, **job.options)
    with _WORKER_COMPILERS_LOCK:
        _WORKER_COMPILERS[key] = compiler
        while len(_WORKER_COMPILERS) > _WORKER_COMPILER_CAP:
            _WORKER_COMPILERS.popitem(last=False)
    return compiler


def coalesce_jobs(jobs: Sequence[BatchJob]) -> List[BatchJob]:
    """Reorder jobs so structurally similar compiles run back to back.

    Jobs are grouped by ``(AAIS content, compiler options, target
    structure digest)`` — the same key that decides whether two compiles
    share a worker compiler, a linear-system cache entry, and a snapshot
    *family*.  Groups keep first-submission order and jobs keep their
    order within a group, so the reordering is deterministic.  Running a
    group contiguously means the first member compiles cold (committing
    the family donor) and every follower immediately delta-compiles or
    hits the donor, instead of interleaving families and churning the
    LRUs.  This is the request-coalescing hook the ``repro serve`` job
    queue applies to each drained batch; results still come back in
    submission order (see :meth:`BatchCompiler.compile_many`).
    """
    return [jobs[index] for index in _coalesced_order(jobs)]


def _coalesced_order(jobs: Sequence[BatchJob]) -> List[int]:
    """The submission indices of ``jobs`` in coalesced dispatch order."""
    groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for index, job in enumerate(jobs):
        key = (
            _aais_digest(job.aais),
            job.compiler_options,
            structure_digest(job.target),
        )
        groups.setdefault(key, []).append(index)
    return [index for group in groups.values() for index in group]


def pass_cache_stats() -> dict:
    """Aggregate pass-level cache counters across the worker compilers.

    The batch engine memoizes one :class:`QTurboCompiler` per distinct
    ``(AAIS, options)``; each compiler owns the structural caches its
    pipeline passes read — the ``build_linear_system`` pass's shared
    linear-system LRU, the ``partition`` pass's memo, and (when
    configured) the incremental-compilation snapshot store.  This sums
    their hit/miss/eviction counters over every live compiler in this
    process (worker processes of the ``process`` executor keep their
    own memos, which are not visible here).
    """
    with _WORKER_COMPILERS_LOCK:
        compilers = list(_WORKER_COMPILERS.values())
    totals = {
        "compilers": len(compilers),
        "linear_system": {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "evictions": 0,
        },
        "partition": {"hits": 0, "misses": 0},
    }
    for compiler in compilers:
        for cache_name, counters in compiler.pass_cache_stats().items():
            merge_counters(totals.setdefault(cache_name, {}), counters)
    return totals


#: Worker-side memo of ideal reference states.  Repeated-target batches
#: verify the same piecewise evolution once per process instead of once
#: per job; the compiled-schedule evolution below additionally rides the
#: simulation fast paths (diagonal segments, dense propagator cache) of
#: :mod:`repro.sim.evolution` for recurring segments.
_IDEAL_STATE_CACHE_SIZE = 64
_ideal_state_cache = None


def _ideal_state_cache_get():
    global _ideal_state_cache
    cache = _ideal_state_cache
    if cache is None:
        from repro.sim.operators import MatrixCache

        # Double-checked under the shared lock: thread-executor workers
        # can race the first verification, and an unguarded assignment
        # would silently drop one instance's entries.
        with _WORKER_COMPILERS_LOCK:
            if _ideal_state_cache is None:
                _ideal_state_cache = MatrixCache(_IDEAL_STATE_CACHE_SIZE)
            cache = _ideal_state_cache
    return cache


def verify_fidelity(job: BatchJob, result) -> Optional[float]:
    """State fidelity between the target evolution and the compiled pulse.

    The ideal reference state is memoized per process on the target's
    canonical segment key, so repeated-target batches and sweeps pay the
    piecewise evolution once.  Used by batch ``--verify`` and the
    experiment runner's ``verify`` stage alike.
    """
    from repro.sim import (
        evolve_piecewise,
        evolve_schedule,
        ground_state,
        state_fidelity,
    )

    num_qubits = job.aais.num_sites
    initial = ground_state(num_qubits)
    cache = _ideal_state_cache_get()
    key = (
        tuple(
            (segment.hamiltonian.canonical_key(), segment.duration)
            for segment in job.target.segments
        ),
        num_qubits,
    )
    ideal = cache.get(key)
    if ideal is None:
        ideal = evolve_piecewise(initial, job.target, num_qubits)
        cache.put(key, ideal)
    compiled = evolve_schedule(initial, result.schedule)
    return float(state_fidelity(ideal, compiled))


def _execute_payload(
    payload: Tuple[int, BatchJob, bool, int, Optional[RetryPolicy]],
) -> JobOutcome:
    """Run one job (with per-job retry), capturing failure into the outcome.

    Each *attempt* is the full compile (+ optional verification) with no
    state threaded between attempts, so a retried-to-success job is
    bit-identical to a first-try success.  Only transient-classified
    failures retry (see :func:`repro.errors.classify_failure`);
    isolation is still the contract — one malformed job surfaces as a
    failed outcome, never as an exception that sinks the whole pool.map
    and loses every other job's result.
    """
    index, job, verify, verify_max_qubits, policy = payload

    def _attempt():
        fault_point("batch.job")
        compiler = compiler_for(job)
        result = compiler.compile_piecewise(job.target)
        fidelity = None
        verify_skipped = False
        if verify and result.success:
            cap = min(verify_max_qubits, HARD_VERIFY_CAP)
            if job.aais.num_sites <= cap:
                fidelity = verify_fidelity(job, result)
            else:
                verify_skipped = True
        return result, fidelity, verify_skipped

    tick = time.perf_counter()
    outcome = call_with_retry(_attempt, policy, key=job.name)
    if outcome.ok:
        result, fidelity, verify_skipped = outcome.value
        return JobOutcome(
            index=index,
            name=job.name,
            ok=True,
            result=result,
            seconds=time.perf_counter() - tick,
            fidelity=fidelity,
            verify_skipped=verify_skipped,
            attempts=outcome.attempts_used,
        )
    error = outcome.error
    return JobOutcome(
        index=index,
        name=job.name,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
        seconds=time.perf_counter() - tick,
        attempts=outcome.attempts_used,
        failure_class=outcome.failure_class,
    )


def _failure_outcome(payload, error: BaseException) -> JobOutcome:
    """Stand-in outcome when the executor could not run a job at all.

    Built in the parent process for deadline kills and unrecovered
    crashes; carries the failure class so resumed/inspecting callers can
    tell retryable timeouts from permanent failures.
    """
    index, job = payload[0], payload[1]
    return JobOutcome(
        index=index,
        name=job.name,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
        failure_class=classify_failure(error),
    )


class BatchCompiler:
    """Compile many jobs concurrently through the QTurbo pipeline.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, or a
        :class:`repro.batch.executors.BatchExecutor` instance.
    workers:
        Worker count for pooled executors (default: a capped CPU count).
    chunksize:
        Jobs per dispatch chunk on the process executor (amortizes
        pickling across a chunk; ignored by serial/thread backends).
    verify:
        When True, each successful compilation is checked by evolving
        the target and the compiled schedule and recording the state
        fidelity in :attr:`JobOutcome.fidelity`.
    verify_max_qubits:
        Skip verification for registers larger than this (state-vector
        cost is 2^N).
    retry:
        A :class:`repro.batch.retry.RetryPolicy` (or an int — maximum
        *extra* attempts) applied per job: transient-classified
        failures are retried with deterministic seeded backoff; a
        retried-to-success job is bit-identical to a first-try success.
    job_timeout:
        Per-job deadline in seconds.  A job still running at its
        deadline is killed (process executor) or abandoned
        (serial/thread) and recorded as a
        :class:`~repro.errors.JobTimeoutError` outcome.

    Examples
    --------
    >>> from repro.batch import BatchCompiler, BatchJob
    >>> from repro.aais import RydbergAAIS
    >>> from repro.models import ising_chain
    >>> jobs = [
    ...     BatchJob.constant(f"chain-{n}", ising_chain(n), 1.0,
    ...                       RydbergAAIS(n))
    ...     for n in (3, 4, 5)
    ... ]
    >>> batch = BatchCompiler(executor="thread").compile_many(jobs)
    >>> batch.all_succeeded
    True
    """

    def __init__(
        self,
        executor: Union[str, BatchExecutor] = "serial",
        workers: Optional[int] = None,
        verify: bool = False,
        verify_max_qubits: int = 10,
        chunksize: Optional[int] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
    ):
        self.executor = resolve_executor(
            executor, workers, chunksize, job_timeout
        )
        self.verify = bool(verify)
        self.verify_max_qubits = int(verify_max_qubits)
        if isinstance(retry, int):
            retry = (
                RetryPolicy(max_attempts=retry + 1) if retry > 0 else None
            )
        self.retry = retry

    # ------------------------------------------------------------------
    def compile_many(
        self, jobs: Sequence[BatchJob], coalesce: bool = False
    ) -> BatchResult:
        """Execute every job; outcomes come back in submission order.

        With ``coalesce=True`` the jobs are dispatched in
        :func:`coalesce_jobs` order (structurally similar compiles run
        adjacently, maximizing cache and snapshot reuse) — outcomes are
        still returned in original submission order.
        """
        indexed = list(enumerate(jobs))
        if coalesce:
            indexed = [
                (index, jobs[index]) for index in _coalesced_order(jobs)
            ]
        payloads = [
            (index, job, self.verify, self.verify_max_qubits, self.retry)
            for index, job in indexed
        ]
        tick = time.perf_counter()
        outcomes: List[JobOutcome] = self.executor.run(
            _execute_payload, payloads, failure_result=_failure_outcome
        )
        if coalesce:
            outcomes = sorted(outcomes, key=lambda o: o.index)
        total = time.perf_counter() - tick
        retried = [o for o in outcomes if o.attempts > 1]
        fault = {
            "timeouts": self.executor.fault_events["timeouts"],
            "pool_respawns": self.executor.fault_events["pool_respawns"],
            "downgrades": list(self.executor.fault_events["downgrades"]),
            "jobs_retried": len(retried),
            "extra_attempts": sum(o.attempts - 1 for o in retried),
        }
        return BatchResult(
            outcomes=outcomes,
            executor=self.executor.name,
            workers=self.executor.workers,
            total_seconds=total,
            fault=fault,
        )

    def __repr__(self) -> str:
        return (
            f"BatchCompiler(executor={self.executor.name}, "
            f"workers={self.executor.workers}, verify={self.verify})"
        )
