"""One benchmark process: set up a workload, measure it, check it.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR --seconds S
        [--units K] [--trace 0|1] [--setup-only] [--tiny]

Every measured run is a fresh interpreter with an empty work directory.
The worker prints ``READY`` when set-up is done (``run.py`` times set-up
up to that line), measures, runs the correctness gate, and writes
``DIR/result.json``.  With ``--trace 1`` it also writes the spans to
``DIR/spans.jsonl`` and derives the per-layer numbers from them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics read off the span summary: metric → (span, field).
SPAN_METRICS = {
    "core.compile_s": ("core.compile", "s"),
    "batch.verify_fidelity.self_s": ("batch.verify_fidelity", "self_s"),
    "sim.run_many.self_s": ("sim.run_many", "self_s"),
    "mitigation.zne.self_s": ("mitigation.zne", "self_s"),
    "experiments.runner.self_s": ("experiments.runner", "self_s"),
    "experiments.store.write_job.s": ("experiments.store.write_job", "s"),
    "experiments.report.s": ("experiments.report", "s"),
    "service.results.load.s": ("service.results.load", "s"),
    "service.results.store.s": ("service.results.store", "s"),
}


def span_metrics(spans, covered_name, base_s) -> dict:
    """Span totals, layer shares of self time, and the unattributed part.

    ``covered_name`` picks the spans whose durations count as attributed
    (None: every root span); ``base_s`` is the time they are a part of.
    """
    summary = tracing.summarize(spans)
    metrics = {
        metric: summary.get(name, {}).get(field, 0.0)
        for metric, (name, field) in SPAN_METRICS.items()
    }
    layers = tracing.layer_self_seconds(summary)
    total = sum(layers.values())
    for layer, seconds in layers.items():
        metrics[f"layer.{layer}.share"] = seconds / total if total else 0.0
    covered = sum(
        span["end"] - span["start"]
        for span in spans
        if (span["name"] == covered_name if covered_name else span["parent"] is None)
    )
    metrics["trace.unattributed_frac"] = max(0.0, 1.0 - covered / base_s) if base_s else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work, tiny=args.tiny, trace=bool(args.trace)
    )
    tracer = None
    try:
        workload.start()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace and workload.traced_in_process:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        wall = workload.measure(args.seconds, args.units, tracer)
        if tracer is not None:
            tracer.restore()
        peak_rss = workloads.peak_rss_mib()
    finally:
        workload.stop()

    layers = workload.layers
    if not workload.traced_in_process:
        workload.collect()
        peak_rss = workload.server_stats["peak_rss_mib"]
    if tracer is not None:
        tracer.write_jsonl(work / "spans.jsonl")
        layers.update(span_metrics(tracer.spans, None, wall))
    elif args.trace:
        spans = [
            json.loads(line)
            for line in (work / "server-spans.jsonl").read_text().splitlines()
        ]
        client_s = sum(item["latency_s"] for item in workload.items)
        layers.update(span_metrics(spans, "service.request", client_s))
    workload.check()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": workloads.digest(workload.inputs()),
        "units": workload.units_done,
        "wall_s": wall,
        "peak_rss_mib": peak_rss,
        "items": workload.items,
        "failures": workload.failures,
        "fidelities": workload.fidelities,
        "quality": workload.quality(),
        "layers": layers,
        "server_stats": getattr(workload, "server_stats", {}),
    }
    (work / "result.json").write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
