"""The three benchmark workloads: seeded inputs, measured loop, gate.

Each workload is built from a seed; building it (imports, input
generation, server start) is the set-up the benchmark times.  The
generated inputs are plain JSON-ready descriptions, hashed into the
run's reproducibility record, and the program receives only the
targets, specs and requests built from them.

``measure`` runs whole *units* of work until at least ``seconds`` have
passed and at least ``min_units`` units are done (or exactly ``units``
units, for the traced replay).  Units keep the input mix balanced: a
compile round holds one target per (model, device) pair, an experiment
cycle one spec per (model, size) stratum, and a service unit is one
request.

``check`` is the correctness gate.  A wrong output fails the run; it
does not merely move a metric.  The gate's checks are pure functions of
the outputs, so the self-test can feed them tampered outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent

#: Simulated fidelity every verified compile must reach.  The lowest
#: honest value in the mix is ``ising_cycle`` on the 1-D Rydberg array
#: (about 0.66): a chain cannot realize the wrap-around bond.
FIDELITY_FLOOR = 0.5
#: Slack on ``error_l1 <= error_budget.bound``: the two sums are equal
#: in exact arithmetic for many targets and differ in the last ulp.
THEOREM1_RTOL = 1e-9
THEOREM1_ATOL = 1e-12

#: Builder keyword arguments of each model, drawn per input.
COEFFICIENTS = {
    "ising_chain": ("j", "h"),
    "ising_cycle": ("j", "h"),
    "pxp": ("j", "h"),
    "heisenberg_chain": ("j", "h"),
    "kitaev": ("mu", "t", "h"),
    "mis_chain": ("u", "omega", "alpha"),
}


def digest(payload) -> str:
    """Content digest of a JSON-ready value."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def draw_coefficients(rng: random.Random, model: str) -> Dict[str, float]:
    """Builder coefficients within ±20% of the paper's unit values."""
    return {name: round(rng.uniform(0.8, 1.2), 6) for name in COEFFICIENTS[model]}


def peak_rss_mib() -> float:
    """Peak resident memory of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def theorem1_failure(label: str, result) -> Optional[str]:
    """Why ``result`` breaks Theorem 1 (``error_l1 <= bound``), or None."""
    if result.error_budget is None:
        return f"{label}: compile recorded no error budget"
    bound = result.error_budget.bound
    if result.error_l1 > bound * (1.0 + THEOREM1_RTOL) + THEOREM1_ATOL:
        return f"{label}: error_l1 {result.error_l1!r} exceeds bound {bound!r}"
    return None


def fidelity_failure(label: str, fidelity: float) -> Optional[str]:
    """Why a verified fidelity fails the floor, or None."""
    if not fidelity >= FIDELITY_FLOOR:
        return f"{label}: fidelity {fidelity!r} below floor {FIDELITY_FLOOR}"
    return None


def build_job(name: str, item: Dict):
    """The :class:`BatchJob` for one generated compile input."""
    from repro.aais import aais_for_device
    from repro.batch import BatchJob
    from repro.models import build_model, build_time_dependent_model

    aais = aais_for_device(item["device"], item["qubits"])
    if "segments" in item:
        target = build_time_dependent_model(
            item["model"], item["qubits"], duration=item["time"], **item["params"]
        )
        return BatchJob.time_dependent(name, target, item["segments"], aais)
    target = build_model(item["model"], item["qubits"], **item["params"])
    return BatchJob.constant(name, target, item["time"], aais)


class Workload:
    """Shared shape: inputs, per-item records, gate failures, counters."""

    name = ""
    #: Units that are always run; quality metrics use their items only,
    #: so they are deterministic for a seed.
    min_units = 1
    #: Whether the package runs in the measuring process (else the
    #: spans and counters come from the server process).
    traced_in_process = True

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False, trace: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.trace = trace
        if tiny:
            self.min_units = 1
        self.items: List[Dict] = []
        self.failures: List[str] = []
        self.fidelities: List[float] = []
        self.layers: Dict[str, float] = {}
        self.quality_indices: List[int] = []
        self.units_done = 0

    def start(self) -> None:
        """Bring up anything the measured loop talks to."""

    def stop(self) -> None:
        """Tear down what :meth:`start` brought up."""

    def inputs(self):
        """The JSON-ready generated inputs (hashed into the record)."""
        raise NotImplementedError

    def fail(self, index: Optional[int], message: str) -> None:
        """Record a gate failure, marking item ``index`` failed."""
        self.failures.append(message)
        if index is not None:
            self.items[index]["ok"] = False

    def quality(self) -> Dict[str, float]:
        """Output-quality means over the items of the always-run units."""
        prefix = [self.items[i] for i in self.quality_indices if self.items[i]["ok"]]
        if not prefix:
            return {"mean_relative_error": 0.0, "mean_execution_time_us": 0.0}
        return {
            "mean_relative_error": statistics.fmean(i["rel_err"] for i in prefix),
            "mean_execution_time_us": statistics.fmean(i["exec_us"] for i in prefix),
        }


# ----------------------------------------------------------------------
# compile_sweep
# ----------------------------------------------------------------------
COMPILE_PAIRS = (
    ("ising_chain", "rydberg-1d"),
    ("kitaev", "rydberg-1d"),
    ("pxp", "rydberg-1d"),
    ("ising_cycle", "rydberg-1d"),
    ("mis_chain", "rydberg-1d"),
    ("heisenberg_chain", "heisenberg"),
    ("ising_chain", "heisenberg"),
)
COMPILE_SIZES = tuple(range(6, 13))
MIS_SEGMENTS = (2, 4, 8)
COMPILE_POOL_ROUNDS = 7 * 64


def compile_sweep_inputs(seed: int, rounds: int) -> List[List[Dict]]:
    """Rounds of compile inputs, one per (model, device) pair each.

    Each pair walks a seeded permutation of the sizes, so every seven
    rounds cover n = 6…12 once per pair; ``mis_chain`` walks the
    segment counts of ``mis_adiabatic.yaml`` the same way.
    """
    rng = random.Random(seed)
    size_orders = [rng.sample(COMPILE_SIZES, len(COMPILE_SIZES)) for _ in COMPILE_PAIRS]
    segment_order = rng.sample(MIS_SEGMENTS, len(MIS_SEGMENTS))
    pool = []
    for r in range(rounds):
        round_items = []
        for (model, device), sizes in zip(COMPILE_PAIRS, size_orders):
            item = {
                "model": model,
                "device": device,
                "qubits": sizes[r % len(sizes)],
                "params": draw_coefficients(rng, model),
                "time": 1.0,
            }
            if model == "mis_chain":
                item["segments"] = segment_order[r % len(segment_order)]
            round_items.append(item)
        rng.shuffle(round_items)
        pool.append(round_items)
    return pool


class CompileSweep(Workload):
    """Seeded targets through ``BatchCompiler(executor="serial").compile_many``."""

    name = "compile_sweep"
    min_units = len(COMPILE_SIZES)

    def __init__(self, seed, work_dir, tiny=False, trace=False):
        super().__init__(seed, work_dir, tiny, trace)
        from repro.batch import BatchCompiler

        self.rounds = compile_sweep_inputs(seed, COMPILE_POOL_ROUNDS)
        self.compiler = BatchCompiler(executor="serial")
        #: The always-run rounds' compiles, checked by the simulator.
        self.samples: Dict[int, tuple] = {}

    def inputs(self):
        return self.rounds

    def measure(self, seconds: float, units: Optional[int], tracer=None) -> float:
        width = len(COMPILE_PAIRS)
        passes = PassTotals()
        retried = 0
        tick = time.perf_counter()
        done = 0
        while _more(done, units, self.min_units, seconds, tick, len(self.rounds)):
            round_items = self.rounds[done]
            jobs = [build_job(f"r{done}-{k}", item) for k, item in enumerate(round_items)]
            batch = self.compiler.compile_many(jobs)
            retried += batch.fault["jobs_retried"]
            for job, outcome in zip(jobs, batch.outcomes):
                index = len(self.items)
                ok = outcome.ok and outcome.result.success
                self.items.append(
                    {"latency_s": outcome.seconds, "done_s": time.perf_counter() - tick, "ok": ok}
                )
                if not ok:
                    continue
                result = outcome.result
                self.items[index].update(
                    rel_err=result.relative_error, exec_us=result.execution_time
                )
                failure = theorem1_failure(job.name, result)
                if failure:
                    self.fail(index, failure)
                passes.add(result.pass_trace)
                if done < self.min_units:
                    self.samples[index] = (job, result)
            done += 1
        wall = time.perf_counter() - tick
        self.units_done = done
        self.quality_indices = list(range(min(self.min_units * width, len(self.items))))

        from repro.batch.compiler import pass_cache_stats

        system = pass_cache_stats()["linear_system"]
        self.layers.update(passes.metrics())
        self.layers["core.system_cache.hit_ratio"] = _ratio(
            system["hits"], system["hits"] + system["misses"]
        )
        self.layers["batch.jobs_retried"] = retried
        return wall

    def check(self) -> None:
        from repro.batch.compiler import verify_fidelity

        for index, (job, result) in sorted(self.samples.items()):
            fidelity = verify_fidelity(job, result)
            self.fidelities.append(fidelity)
            failure = fidelity_failure(job.name, fidelity)
            if failure:
                self.fail(index, failure)


# ----------------------------------------------------------------------
# experiment_sim
# ----------------------------------------------------------------------
#: (model, device, size) of each spec in a cycle.  The count is odd on
#: purpose: job latencies cluster around n ≤ 10 and n ≥ 11, and with an
#: even number of equally weighted strata the median job would fall in
#: the gap between the clusters, where it jumps from run to run.
EXPERIMENT_STRATA = (
    ("ising_chain", "rydberg-1d", 10),
    ("ising_chain", "rydberg-1d", 11),
    ("ising_chain", "rydberg-1d", 12),
    ("heisenberg_chain", "heisenberg", 10),
    ("heisenberg_chain", "heisenberg", 11),
)
EXPERIMENT_SEEDS = 2
EXPERIMENT_POOL_CYCLES = 64
CYCLE_JOBS = len(EXPERIMENT_STRATA) * EXPERIMENT_SEEDS


def experiment_specs(seed: int, cycles: int) -> List[List[Dict]]:
    """Cycles of experiment specs, one per stratum each.

    Every spec has its own coefficients and sweeps two simulation
    seeds, with verification, T1 + readout noise and three-factor ZNE.
    """
    rng = random.Random(seed)
    pool = []
    for c in range(cycles):
        cycle = []
        for model, device, size in EXPERIMENT_STRATA:
            cycle.append(
                {
                    "name": f"bench-{c:03d}-{model}-{size}",
                    "model": {
                        "name": model,
                        "qubits": size,
                        "params": draw_coefficients(rng, model),
                    },
                    "device": device,
                    "time": 1.0,
                    "verify": True,
                    "simulation": {
                        "shots": 400,
                        "noise_samples": 4,
                        "noise": {"t1": 7.0, "p01": 0.01, "p10": 0.08},
                    },
                    "zne": {"factors": [1.0, 1.5, 2.0]},
                    "sweep": {
                        "simulation.seed": [
                            rng.randrange(1 << 20) for _ in range(EXPERIMENT_SEEDS)
                        ],
                    },
                    "execution": {"executor": "serial"},
                }
            )
        rng.shuffle(cycle)
        pool.append(cycle)
    return pool


class ExperimentSim(Workload):
    """Generated specs through ``ExperimentRunner.run`` + ``generate_report``."""

    name = "experiment_sim"
    min_units = 3

    def __init__(self, seed, work_dir, tiny=False, trace=False):
        super().__init__(seed, work_dir, tiny, trace)
        from repro.experiments import ExperimentRunner

        self.cycles = experiment_specs(seed, EXPERIMENT_POOL_CYCLES)
        self.runner = ExperimentRunner(executor="serial")
        self.runs_dir = work_dir / "runs"
        self.records: List[Dict] = []
        self.reports: List[Dict] = []

    def inputs(self):
        return self.cycles

    def measure(self, seconds: float, units: Optional[int], tracer=None) -> float:
        from repro.experiments import ExperimentSpec, generate_report

        passes = PassTotals()
        tick = time.perf_counter()
        done = 0
        while _more(done, units, self.min_units, seconds, tick, len(self.cycles)):
            for spec_dict in self.cycles[done]:
                spec = ExperimentSpec.from_dict(spec_dict)
                run_dir = self.runs_dir / spec.name
                with _span(tracer, "experiments.runner"):
                    outcome = self.runner.run(spec, run_dir)
                with _span(tracer, "experiments.report"):
                    report = generate_report(run_dir)
                self.reports.append(report.payload)
                for record in outcome.records:
                    ok = record.get("status") == "ok"
                    item = {
                        "latency_s": record.get("seconds", 0.0),
                        "done_s": time.perf_counter() - tick,
                        "ok": ok,
                    }
                    if ok:
                        compiled = record["compile"]
                        item.update(
                            rel_err=compiled["relative_error"],
                            exec_us=compiled["execution_time_us"],
                        )
                        passes.add(compiled.get("passes", []), compiled.get("incremental"))
                    self.items.append(item)
                    self.records.append({"spec": spec_dict, **record})
            done += 1
        wall = time.perf_counter() - tick
        self.units_done = done
        self.quality_indices = list(range(min(self.min_units * CYCLE_JOBS, len(self.items))))

        from repro.batch.compiler import pass_cache_stats
        from repro.core.pipeline import snapshot_cache_stats
        from repro.sim import simulation_cache_stats

        self.layers.update(passes.metrics())
        system = pass_cache_stats()["linear_system"]
        self.layers["core.system_cache.hit_ratio"] = _ratio(
            system["hits"], system["hits"] + system["misses"]
        )
        self.layers.update(_snapshot_metrics(snapshot_cache_stats()))
        sim_stats = simulation_cache_stats()
        for path, columns in sim_stats["fast_paths"].items():
            self.layers[f"sim.fast_path.{path}"] = columns
        propagator = sim_stats["propagator"]
        self.layers["sim.propagator_cache.hit_ratio"] = _ratio(
            propagator["hits"], propagator["hits"] + propagator["misses"]
        )
        self.layers["batch.jobs_retried"] = sum(
            1 for record in self.records if record.get("attempts", 1) > 1
        )
        return wall

    def check(self) -> None:
        for report in self.reports:
            if report["num_ok"] != report["num_jobs"]:
                self.failures.append(
                    f"report {report['name']}: {report['num_ok']}/{report['num_jobs']} ok"
                )
        for index, record in enumerate(self.records):
            failure = experiment_record_failure(record)
            if failure:
                self.fail(index, failure)
            elif "fidelity" in record:
                self.fidelities.append(record["fidelity"])
        rng = random.Random(self.seed)
        for index in rng.sample(range(min(CYCLE_JOBS, len(self.records))), 2):
            failure = offline_experiment_failure(self.records[index])
            if failure:
                self.fail(index, failure)


def experiment_record_failure(record: Dict) -> Optional[str]:
    """Why one experiment job record is wrong, or None."""
    label = record.get("job_id", "?")
    if record.get("status") != "ok":
        return f"{label}: status {record.get('status')!r} ({record.get('error', '')})"
    if "fidelity" not in record:
        return f"{label}: verify requested but no fidelity recorded"
    failure = fidelity_failure(label, record["fidelity"])
    if failure:
        return failure
    values = list(record["observables"].values()) + list(record["zne"]["mitigated"].values())
    if not all(math.isfinite(v) for v in values):
        return f"{label}: non-finite observable or ZNE estimate"
    if not all(-1.0 <= v <= 1.0 for v in record["observables"].values()):
        return f"{label}: raw observable outside [-1, 1]"
    return None


def offline_experiment_failure(record: Dict) -> Optional[str]:
    """Recompile one job offline; it must match the record exactly."""
    from repro.aais import aais_for_device
    from repro.core import QTurboCompiler
    from repro.models import build_model

    spec = record["spec"]
    model = spec["model"]
    qubits = record["num_qubits"]
    target = build_model(model["name"], qubits, **model["params"])
    result = QTurboCompiler(aais_for_device(spec["device"], qubits)).compile(
        target, spec["time"]
    )
    label = f"{record['job_id']} (offline)"
    failure = theorem1_failure(label, result)
    if failure:
        return failure
    compiled = record["compile"]
    if (
        compiled["relative_error"] != result.relative_error
        or compiled["execution_time_us"] != result.execution_time
    ):
        return f"{label}: runner compile differs from an offline compile"
    return None


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
SERVICE_MODELS = ("ising_chain", "kitaev", "pxp")
SERVICE_SIZES = (6, 8, 10)
SERVICE_DEVICE = "rydberg-1d"
SERVICE_BLOCKS = 100
SERVICE_CLIENTS = 2
SERVICE_MIN_REQUESTS = 100
SERVICE_OFFLINE_SAMPLE = 6
#: Request kinds in every block of 20: store reads, coefficient deltas,
#: new families (one per size).
SERVICE_BLOCK = ("repeat",) * 10 + ("params",) * 7 + ("new",) * len(SERVICE_SIZES)


def _family_request(family, rng: random.Random) -> Dict:
    """A request of ``family`` with freshly drawn coefficients.

    Registry families carry coefficients in ``params``.  Text families
    carry them in the ``hamiltonian`` text: a random-field Ising chain
    whose structure is the set of sites with a Z field and the (at most
    two) sites without an X field.
    """
    kind, size, shape = family
    request = {"qubits": size, "time": 1.0, "device": SERVICE_DEVICE}
    if kind == "model":
        request["model"] = shape
        request["params"] = draw_coefficients(rng, shape)
        return request

    def coefficient():
        return f"{rng.uniform(0.8, 1.2):.6f}"

    z_sites, x_gaps = shape
    terms = [f"{coefficient()}*Z{i}*Z{i + 1}" for i in range(size - 1)]
    terms += [f"{coefficient()}*X{i}" for i in range(size) if i not in x_gaps]
    terms += [f"{coefficient()}*Z{i}" for i in z_sites]
    request["hamiltonian"] = " + ".join(terms)
    return request


def service_requests(seed: int, blocks: int) -> List[Dict]:
    """The seeded request stream: repeats, coefficient deltas, new families.

    The stream opens with one request of every registry family (the
    models × sizes, in seeded order).  Then each block of 20 requests,
    in seeded order, holds 10 repeats of an earlier request
    (result-store reads), 7 coefficient-only changes of a known family
    taken round-robin (snapshot delta re-entry plus a result write) and
    one new family per size (a cold compile and a snapshot commit): a
    random-field chain with a structure not seen before.
    """
    rng = random.Random(seed)
    families = [("model", size, m) for m in SERVICE_MODELS for size in SERVICE_SIZES]
    rng.shuffle(families)
    stream = [_family_request(family, rng) for family in families]
    distinct = list(stream)
    seen_shapes = set()
    turn = 0
    for _ in range(blocks):
        kinds = list(SERVICE_BLOCK)
        rng.shuffle(kinds)
        sizes = rng.sample(SERVICE_SIZES, len(SERVICE_SIZES))
        for kind in kinds:
            if kind == "repeat":
                stream.append(rng.choice(distinct))
                continue
            if kind == "params":
                family = families[turn % len(families)]
                turn += 1
            else:
                size = sizes.pop()
                while True:
                    z_sites = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
                    x_gaps = tuple(sorted(rng.sample(range(size), rng.randint(0, 2))))
                    if (size, z_sites, x_gaps) not in seen_shapes:
                        break
                seen_shapes.add((size, z_sites, x_gaps))
                family = ("text", size, (z_sites, x_gaps))
                families.append(family)
            request = _family_request(family, rng)
            distinct.append(request)
            stream.append(request)
    return stream


def canonical(payload) -> str:
    """The canonical JSON bytes of a response section."""
    return json.dumps(payload, sort_keys=True)


class ServiceMix(Workload):
    """A closed loop of client threads posting ``/v1/compile`` requests."""

    name = "service_mix"
    min_units = SERVICE_MIN_REQUESTS
    traced_in_process = False

    def __init__(self, seed, work_dir, tiny=False, trace=False):
        super().__init__(seed, work_dir, tiny, trace)
        if tiny:
            self.min_units = 20
        self.requests = service_requests(seed, SERVICE_BLOCKS)
        self.client = None
        self.server: Optional[subprocess.Popen] = None
        self.server_stats: Dict = {}
        self.responses: Dict[int, Dict] = {}

    def inputs(self):
        return self.requests

    def start(self) -> None:
        from repro.service import ServiceClient

        data_dir = self.work_dir / "service-data"
        shutil.rmtree(data_dir, ignore_errors=True)
        self.server = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "server.py"),
                "--data-dir", str(data_dir),
                "--trace", "1" if self.trace else "0",
                "--out", str(self.work_dir / "server.json"),
                "--spans", str(self.work_dir / "server-spans.jsonl"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = _read_line(self.server.stdout, timeout=120.0)
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"service launcher did not start: {line!r}")
        self.client = ServiceClient(line.split()[1])

    def stop(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            server.stdin.close()
            server.wait(timeout=60.0)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        stats_path = self.work_dir / "server.json"
        if stats_path.exists():
            self.server_stats = json.loads(stats_path.read_text())

    def measure(self, seconds: float, units: Optional[int], tracer=None) -> float:
        from repro.service.client import ServiceClientError

        lock = threading.Lock()
        cursor = [0]
        tick = time.perf_counter()

        def loop():
            while True:
                with lock:
                    index = cursor[0]
                    if not _more(index, units, self.min_units, seconds, tick, len(self.requests)):
                        return
                    cursor[0] += 1
                start = time.perf_counter()
                try:
                    reply, error = self.client.compile(self.requests[index]), None
                except ServiceClientError as exc:
                    reply, error = None, str(exc)
                latency = time.perf_counter() - start
                with lock:
                    self.responses[index] = {
                        "latency_s": latency,
                        "done_s": start + latency - tick,
                        "reply": reply,
                        "error": error,
                    }

        threads = [threading.Thread(target=loop) for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - tick
        self.units_done = len(self.responses)
        first = {}
        for index in range(min(self.min_units, self.units_done)):
            first.setdefault(canonical(self.requests[index]), index)
        self.quality_indices = sorted(first.values())
        for index in range(len(self.responses)):
            self.items.append(service_item(self.responses[index]))
        return wall

    def collect(self) -> None:
        """Per-layer counters read inside the server process."""
        stats = self.server_stats
        self.layers.update(stats.get("passes", {}))
        self.layers.update(_snapshot_metrics(stats["snapshot_cache_stats"]))
        system = stats["pass_cache_stats"]["linear_system"]
        self.layers["core.system_cache.hit_ratio"] = _ratio(
            system["hits"], system["hits"] + system["misses"]
        )
        service = stats["service_stats"]["service"]
        self.layers["service.store_hit_ratio"] = _ratio(
            service["store_hits"], service["requests"]
        )
        queue = stats["service_stats"]["queue"]
        for key in ("batches", "executed", "attached", "max_batch"):
            self.layers[f"service.queue.{key}"] = queue[key]
        misses = [i for i in self.items if i["ok"] and not i["hit"]]
        self.layers["service.miss_overhead_s"] = (
            statistics.fmean(i["latency_s"] - i["compile_s"] for i in misses)
            if misses
            else 0.0
        )

    def check(self) -> None:
        replies = [
            self.responses[index]["reply"] if item["ok"] else None
            for index, item in enumerate(self.items)
        ]
        for index in differing_replies(replies):
            self.fail(index, f"request {index}: result differs from the first for its job")
        misses = [
            index
            for index, item in enumerate(self.items)
            if item["ok"] and not item["hit"]
        ]
        rng = random.Random(self.seed)
        for index in sorted(rng.sample(misses, min(SERVICE_OFFLINE_SAMPLE, len(misses)))):
            failure, fidelity = offline_service_failure(
                self.requests[index], self.responses[index]["reply"]["result"]
            )
            if fidelity is not None:
                self.fidelities.append(fidelity)
            if failure:
                self.fail(index, f"request {index}: {failure}")


def differing_replies(replies: List[Optional[Dict]]) -> List[int]:
    """Indices of replies whose result is not byte-identical to the first
    reply for the same job digest (``None`` entries are skipped)."""
    first: Dict[str, str] = {}
    differing = []
    for index, reply in enumerate(replies):
        if reply is None:
            continue
        body = canonical(reply["result"])
        if first.setdefault(reply["job"]["job_id"], body) != body:
            differing.append(index)
    return differing


def service_item(response: Dict) -> Dict:
    """The per-request record: latency, success, hit/miss, quality."""
    reply = response["reply"]
    ok = (
        reply is not None
        and reply["job"]["status"] == "done"
        and bool(reply.get("result", {}).get("success"))
    )
    item = {"latency_s": response["latency_s"], "done_s": response["done_s"], "ok": ok}
    if ok:
        result = reply["result"]
        item.update(
            hit=reply["job"]["source"] == "store",
            rel_err=result["relative_error"],
            exec_us=result["execution_time_us"],
            compile_s=result["compile_seconds"],
        )
    return item


def offline_service_failure(request: Dict, served: Dict):
    """Compile ``request`` offline and compare with the served result.

    Returns ``(failure or None, fidelity or None)``; the fidelity is the
    offline result's verified fidelity, which is the served schedule's
    when the two are equal.
    """
    from repro.aais import aais_for_device
    from repro.batch import BatchJob
    from repro.batch.compiler import verify_fidelity
    from repro.core import QTurboCompiler
    from repro.hamiltonian import parse_hamiltonian
    from repro.models import build_model

    if "model" in request:
        target = build_model(request["model"], request["qubits"], **request["params"])
    else:
        target = parse_hamiltonian(request["hamiltonian"])
    aais = aais_for_device(request["device"], max(request["qubits"], target.num_qubits()))
    result = QTurboCompiler(aais).compile(target, request["time"])
    failure = theorem1_failure("offline compile", result)
    if failure:
        return failure, None
    offline = json.loads(json.dumps(result.schedule.to_dict()))
    if canonical(offline) != canonical(served["schedule"]):
        return "served schedule differs from an offline compile", None
    job = BatchJob.constant("offline", target, request["time"], aais)
    fidelity = verify_fidelity(job, result)
    return fidelity_failure("offline compile", fidelity), fidelity


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _more(done, units, min_units, seconds, tick, pool) -> bool:
    """Whether the measured loop starts another unit."""
    if done >= pool:
        return False
    if units is not None:
        return done < units
    return done < min_units or time.perf_counter() - tick < seconds


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


DEFAULT_PASSES = (
    "build_linear_system",
    "partition",
    "time_optimization",
    "fixed_solve",
    "refinement",
    "emit_schedule",
)


class PassTotals:
    """Pass seconds and the largest ε₁, summed from results' ``pass_trace``.

    Only passes that ran count: a snapshot *identical* hit returns the
    donor's trace, and a *delta* compile marks the passes it skipped as
    ``carried``.  ε₁ is the ``eps1`` the emission pass records.
    """

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.residual_max = 0.0

    def add(self, pass_trace, incremental=None) -> None:
        ran = not (incremental and incremental.get("mode") == "identical")
        for record in pass_trace:
            diagnostics = record.get("diagnostics", {})
            if "eps1" in diagnostics:
                self.residual_max = max(self.residual_max, diagnostics["eps1"])
            if ran and not diagnostics.get("carried"):
                name = record["name"]
                self.seconds[name] = self.seconds.get(name, 0.0) + record["seconds"]

    def metrics(self) -> Dict[str, float]:
        metrics = {
            f"core.pass.{name}.s": self.seconds.get(name, 0.0) for name in DEFAULT_PASSES
        }
        metrics["core.pass.build_linear_system.share"] = _ratio(
            self.seconds.get("build_linear_system", 0.0), sum(self.seconds.values())
        )
        metrics["core.linear_residual_max"] = self.residual_max
        return metrics


def _snapshot_metrics(stats: Dict) -> Dict[str, float]:
    """Snapshot-store counters from ``snapshot_cache_stats()``."""
    lookups = stats["misses"] + stats["hits_identical"] + stats["hits_delta"] + stats["invalid"]
    return {
        "core.snapshot.delta_ratio": _ratio(stats["hits_delta"], lookups),
        "core.snapshot.commits": stats["commits"],
        "core.snapshot.invalid": stats["invalid"],
    }


def _read_line(stream, timeout: float) -> str:
    """One line from a child's pipe, or "" after ``timeout`` seconds."""
    ready, _, _ = select.select([stream], [], [], timeout)
    return stream.readline().strip() if ready else ""


WORKLOADS = {cls.name: cls for cls in (CompileSweep, ExperimentSim, ServiceMix)}
