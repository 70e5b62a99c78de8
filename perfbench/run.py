"""The repository benchmark: three seeded workloads, one command.

    python3 perfbench/run.py --workload compile_sweep|experiment_sim|service_mix
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from
``src/`` and exits with code 2 when that is missing.  Scratch files go
to ``.perfbench/`` in the checkout.

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up several times in fresh interpreters (the median is ``setup_s``),
then one cold measured run of at least ``--seconds``.  ``--trace 1``
gives the per-layer metrics: an untraced cold run of half the time,
then a traced cold replay of exactly the same units, whose wall time
over the untraced one, minus 1, is ``trace.overhead_frac``.

Each metric is printed as ``name value unit direction``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check sets ``correct`` to false and
the exit code to 1.  Every run writes ``record.json`` (seed, input
digest, cold-start conditions) next to its results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
#: Extra fresh set-ups per untraced run, besides the measured run's own.
SETUP_SAMPLES = 4
#: Every worker of one run must have finished this many seconds after
#: the run started; a worker still running then is killed.
RUN_DEADLINE_S = 170.0
#: Pinned so runs do not race BLAS threads against each other or
#: against the service's clients on a small machine.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: End-to-end metrics (tracing off): name → (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "success_frac": ("ratio", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "mean_relative_error": ("ratio", "lower"),
    "mean_execution_time_us": ("us", "lower"),
    "min_fidelity": ("ratio", "higher"),
}

#: Per-layer metrics (traced run): name → (unit, better).  A layer a
#: workload does not exercise reads 0.  Time shares, counts of slow
#: paths and retries are better lower; hit ratios, dedup and cheap
#: simulation paths better higher.
PER_LAYER = {
    "core.compile_s": ("s", "lower"),
    **{f"core.pass.{name}.s": ("s", "lower") for name in workloads.DEFAULT_PASSES},
    "core.pass.build_linear_system.share": ("ratio", "lower"),
    "core.linear_residual_max": ("l1", "lower"),
    "core.system_cache.hit_ratio": ("ratio", "higher"),
    "core.snapshot.delta_ratio": ("ratio", "higher"),
    "core.snapshot.commits": ("count", "lower"),
    "core.snapshot.invalid": ("count", "lower"),
    "batch.verify_fidelity.self_s": ("s", "lower"),
    "batch.jobs_retried": ("count", "lower"),
    "batch.job_latency_p90_ms": ("ms", "lower"),
    "sim.run_many.self_s": ("s", "lower"),
    "sim.fast_path.diagonal": ("columns", "higher"),
    "sim.fast_path.propagator": ("columns", "higher"),
    "sim.fast_path.dense_build": ("columns", "lower"),
    "sim.fast_path.krylov": ("columns", "lower"),
    "sim.fast_path.matrix_free": ("columns", "lower"),
    "sim.propagator_cache.hit_ratio": ("ratio", "higher"),
    "mitigation.zne.self_s": ("s", "lower"),
    "experiments.runner.self_s": ("s", "lower"),
    "experiments.store.write_job.s": ("s", "lower"),
    "experiments.report.s": ("s", "lower"),
    "service.results.load.s": ("s", "lower"),
    "service.store_hit_ratio": ("ratio", "higher"),
    "service.hit_latency_p50_ms": ("ms", "lower"),
    "service.hit_latency_p90_ms": ("ms", "lower"),
    "service.miss_latency_p90_ms": ("ms", "lower"),
    "service.results.store.s": ("s", "lower"),
    "service.miss_overhead_s": ("s", "lower"),
    "service.queue.batches": ("count", "lower"),
    "service.queue.executed": ("count", "lower"),
    "service.queue.attached": ("count", "higher"),
    "service.queue.max_batch": ("count", "higher"),
    **{f"layer.{name}.share": ("ratio", "lower") for name in tracing.LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}


class WorkerError(RuntimeError):
    """A worker process failed to set up or to finish."""


def launch(
    workload, seed, work, seconds, deadline, units=None, trace=0, setup_only=False, tiny=False
):
    """Run one fresh worker; returns its result with ``setup_s`` added.

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter()`` value).
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--work", str(work),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if units is not None:
        command += ["--units", str(units)]
    if setup_only:
        command.append("--setup-only")
    if tiny:
        command.append("--tiny")
    tick = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **CHILD_ENV},
    )
    watchdog = threading.Timer(max(0.0, deadline - tick), process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline().strip()
        setup_s = time.perf_counter() - tick
        process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if line != "READY" or code != 0:
        raise WorkerError(f"{workload} worker exited with code {code} (first line {line!r})")
    result = {} if setup_only else json.loads((work / "result.json").read_text())
    result["setup_s"] = setup_s
    return result


def percentile(values, q):
    """The ``q``-th percentile (inclusive interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values, q):
    """The ``q``-th percentile when at least 10 samples lie beyond it, else 0."""
    if len(values) * (100 - q) / 100 < 10:
        return 0.0
    return percentile(values, q)


def latencies(result):
    """Per-item latencies in ms: (main class, service hits)."""
    ok = [item for item in result["items"] if item["ok"]]
    if result["workload"] == "service_mix":
        main = [1e3 * i["latency_s"] for i in ok if not i["hit"]]
        hits = [1e3 * i["latency_s"] for i in ok if i["hit"]]
        return main, hits
    return [1e3 * i["latency_s"] for i in ok], []


def end_to_end(result, setups):
    """The end-to-end metrics of one untraced run."""
    ok = [item for item in result["items"] if item["ok"]]
    main, _ = latencies(result)
    attempted = len(result["items"])
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(ok) / result["wall_s"],
        "latency_p50_ms": statistics.median(main) if main else 0.0,
        "success_frac": len(ok) / attempted,
        "peak_rss_mib": result["peak_rss_mib"],
        **result["quality"],
        "min_fidelity": min(result["fidelities"], default=0.0),
    }


def per_layer(traced, plain):
    """The per-layer metrics of a traced replay of ``plain``'s units."""
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(traced["layers"])
    main, hits = latencies(traced)
    if traced["workload"] == "service_mix":
        metrics["service.hit_latency_p50_ms"] = statistics.median(hits) if hits else 0.0
        metrics["service.hit_latency_p90_ms"] = tail(hits, 90)
        metrics["service.miss_latency_p90_ms"] = tail(main, 90)
    elif traced["workload"] == "compile_sweep":
        metrics["batch.job_latency_p90_ms"] = tail(main, 90)
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return {name: metrics[name] for name in PER_LAYER}


def record(args, runs):
    """The reproducibility record of this run."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": runs[0]["input_digest"],
        "units": [run["units"] for run in runs],
        "cold_start": {
            "fresh_interpreter_per_run": True,
            "work_dir_emptied": True,
            "setup_samples": SETUP_SAMPLES + 1 if args.trace == 0 else 0,
            "env": CHILD_ENV,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest unit counts (self-test)"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2

    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    common = dict(workload=args.workload, seed=args.seed, deadline=deadline, tiny=args.tiny)
    try:
        if args.trace == 0:
            setups = [
                launch(work=run_dir / f"setup{k}", seconds=0.0, setup_only=True, **common)[
                    "setup_s"
                ]
                for k in range(SETUP_SAMPLES)
            ]
            measured = launch(work=run_dir / "measured", seconds=args.seconds, **common)
            setups.append(measured["setup_s"])
            runs = [measured]
            metrics = end_to_end(measured, setups)
            table = END_TO_END
        else:
            plain = launch(work=run_dir / "plain", seconds=args.seconds / 2, **common)
            traced = launch(
                work=run_dir / "traced", seconds=0.0, units=plain["units"], trace=1, **common
            )
            runs = [plain, traced]
            metrics = per_layer(traced, plain)
            table = PER_LAYER
    except WorkerError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    failures = [failure for run in runs for failure in run["failures"]]
    items = runs[-1]["items"]
    (run_dir / "record.json").write_text(json.dumps(record(args, runs), indent=1))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, value in metrics.items():
        unit, better = table[name]
        print(f"{name} {value:.6g} {unit} {better}")
    if args.trace == 0:
        main_ms, hits_ms = latencies(runs[0])
        print(f"# {len(items)} items, {len(main_ms)} in latency_p50_ms, {len(hits_ms)} store hits")
    print(f"# input digest {runs[0]['input_digest']}, record {run_dir / 'record.json'}")
    summary = {
        "correct": not failures,
        "attempted": len(items),
        "failed": sum(1 for item in items if not item["ok"]),
        "metrics": {
            name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
