"""In-memory span tracer that instruments the package from the outside.

The benchmark does not edit the program to trace it.  It wraps public
entry points and patches each wrapper in where its caller looks the
name up: a method on its class (``NoisySimulator.run_many``), or a
module global that another module bound at import time
(``repro.experiments.runner.verify_fidelity``).  Each call becomes a
span ``{id, name, parent, trace, thread, start, end}``.  Parents come
from a per-thread stack, and spans of one root call share its trace id.
Spans stay in memory and are written out as JSON lines at the end.

A span's *self time* is its duration minus its children's durations.
Children always run on the parent's thread, nested inside it, so that
difference never double counts.  The layer of a span is the part of
its name before the first dot, i.e. the package module it belongs to.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List

LAYERS = ("core", "batch", "sim", "mitigation", "experiments", "service")


class Tracer:
    """Record spans around calls; patch and restore instrumented names."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else span_id,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span named ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced wrapper of itself."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_jsonl(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["id"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def instrument(tracer: Tracer) -> None:
    """Patch the public entry points of every layer into ``tracer``.

    Names are patched where their callers look them up.  Methods are
    patched on their classes, so every instance sees the wrapper.
    ``verify_fidelity`` is bound into the experiment runner's module at
    import time, so it is patched there as well as at its home.  The
    runner imports ``zne_observables`` from ``repro.mitigation`` and
    ``verify_fidelity`` imports the evolution functions from
    ``repro.sim`` on every call, so those package attributes are the
    lookup sites.
    """
    import repro.batch.compiler as batch_compiler
    import repro.experiments.runner as runner
    import repro.mitigation as mitigation
    import repro.service.app as service_app
    import repro.sim as sim
    from repro.batch.compiler import BatchCompiler
    from repro.core.compiler import QTurboCompiler
    from repro.experiments.store import ArtifactStore
    from repro.service.store import ResultStore
    from repro.sim.noise import NoisySimulator

    tracer.patch(QTurboCompiler, "compile_piecewise", "core.compile")
    tracer.patch(BatchCompiler, "compile_many", "batch.compile_many")
    tracer.patch(batch_compiler, "verify_fidelity", "batch.verify_fidelity")
    tracer.patch(runner, "verify_fidelity", "batch.verify_fidelity")
    tracer.patch(sim, "evolve_piecewise", "sim.evolve_piecewise")
    tracer.patch(sim, "evolve_schedule", "sim.evolve_schedule")
    tracer.patch(NoisySimulator, "run_many", "sim.run_many")
    tracer.patch(mitigation, "zne_observables", "mitigation.zne")
    tracer.patch(ArtifactStore, "write_job", "experiments.store.write_job")
    tracer.patch(ResultStore, "load", "service.results.load")
    tracer.patch(ResultStore, "store", "service.results.store")
    tracer.patch(service_app, "dispatch", "service.request")


def self_times(spans: Iterable[Dict]) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def summarize(spans: Iterable[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return dict(table)


def layer_self_seconds(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Total self seconds per layer (every layer present, possibly 0)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += row["self_s"]
    return totals
