"""Run one ``ReproService`` in its own process for ``service_mix``.

    python3 perfbench/server.py --data-dir DIR --trace 0|1 --out STATS.json --spans SPANS.jsonl

The service gets its own interpreter so the client threads do not share
its GIL.  The launcher prints ``READY <url>`` once the socket listens,
serves until its standard input closes, then writes the counters read
*inside this process* to ``--out``: ``snapshot_cache_stats()`` sums
every ``SnapshotStore`` the compiles opened, which the ``snapshots``
section of ``/v1/stats`` does not (it reports only the store object the
service state holds; see ``perfbench/README.md``).  With ``--trace 1``
the package's entry points are instrumented and the spans are written
to ``--spans``.
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


def record_passes(totals: "workloads.PassTotals") -> None:
    """Sum each compile's ``pass_trace`` as batches finish."""
    from repro.batch.compiler import BatchCompiler

    compile_many = BatchCompiler.compile_many

    def counted(self, jobs, coalesce=False):
        batch = compile_many(self, jobs, coalesce=coalesce)
        for outcome in batch.outcomes:
            if outcome.ok:
                totals.add(outcome.result.pass_trace, outcome.result.incremental)
        return batch

    BatchCompiler.compile_many = counted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    from repro.batch.compiler import pass_cache_stats
    from repro.core.pipeline import snapshot_cache_stats
    from repro.service import ReproService, ServiceConfig

    tracer = None
    passes = workloads.PassTotals()
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        record_passes(passes)
    config = ServiceConfig(port=0, data_dir=args.data_dir, executor="serial")
    service = ReproService(config).start()
    print(f"READY {service.url}", flush=True)
    sys.stdin.read()
    service.close()
    stats = {
        "peak_rss_mib": workloads.peak_rss_mib(),
        "snapshot_cache_stats": snapshot_cache_stats(),
        "pass_cache_stats": pass_cache_stats(),
        "service_stats": service.state.stats(),
        "passes": passes.metrics() if tracer else {},
    }
    Path(args.out).write_text(json.dumps(stats, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_jsonl(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
