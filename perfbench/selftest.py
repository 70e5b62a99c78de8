"""Self-test of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` names exactly the workloads and metrics (with
   units and directions) that ``run.py`` defines.
2. The correctness gate trips on tampered outputs: a stretched compile
   schedule, a broken Theorem-1 budget, a tampered service response, a
   served schedule that differs from an offline compile, and tampered
   experiment records.
3. Each workload runs at a tiny size, untraced and traced; every metric
   is printed as ``name value unit`` and in the final JSON line with
   its unit, and the run reports ``correct: true``.
4. Without the package source next to it the benchmark exits non-zero
   and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES),
        "BENCHMARK.json lists the three workloads",
    )
    check(
        {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
        == run.END_TO_END,
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    check(
        {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
        == run.PER_LAYER,
        "BENCHMARK.json per_layer matches run.PER_LAYER",
    )


def compiled(item):
    from repro.batch.compiler import compiler_for

    job = workloads.build_job("selftest", item)
    return job, compiler_for(job).compile_piecewise(job.target)


def check_compile_gate() -> None:
    from repro.batch.compiler import verify_fidelity
    from repro.core.error_bounds import ErrorBudget
    from repro.pulse.schedule import PulseSchedule

    item = {
        "model": "ising_chain",
        "device": "rydberg-1d",
        "qubits": 6,
        "params": {"j": 1.0, "h": 1.0},
        "time": 1.0,
    }
    job, result = compiled(item)
    check(workloads.theorem1_failure("honest", result) is None, "honest compile meets Theorem 1")
    check(
        workloads.fidelity_failure("honest", verify_fidelity(job, result)) is None,
        "honest compile passes the fidelity floor",
    )
    data = result.schedule.to_dict()
    data["segments"] = [dict(s, duration=2 * s["duration"]) for s in data["segments"]]
    tampered = copy.copy(result)
    tampered.schedule = PulseSchedule.from_dict(result.schedule.aais, data)
    check(
        workloads.fidelity_failure("tampered", verify_fidelity(job, tampered)) is not None,
        "a stretched schedule trips the fidelity floor",
    )
    tampered = copy.copy(result)
    tampered.error_budget = ErrorBudget(result.error_budget.matrix_l1_norm, 0.0, [0.0])
    check(
        workloads.theorem1_failure("tampered", tampered) is not None,
        "a compile above its Theorem-1 bound trips the gate",
    )


def check_service_gate() -> None:
    request = {
        "model": "ising_chain",
        "qubits": 6,
        "params": {"j": 1.0, "h": 1.0},
        "time": 1.0,
        "device": workloads.SERVICE_DEVICE,
    }
    _, result = compiled(request)
    served = json.loads(
        json.dumps(
            {
                "success": True,
                "compile_seconds": 0.1,
                "relative_error": result.relative_error,
                "execution_time_us": result.execution_time,
                "schedule": result.schedule.to_dict(),
            }
        )
    )
    failure, fidelity = workloads.offline_service_failure(request, served)
    check(failure is None and fidelity is not None, "an honest served result matches offline")
    wrong = copy.deepcopy(served)
    first = wrong["schedule"]["segments"][0]
    first["duration"] *= 1.0 + 1e-12
    failure, _ = workloads.offline_service_failure(request, wrong)
    check(failure is not None, "a served schedule differing from offline trips the gate")

    reply = {"job": {"job_id": "d1", "status": "done", "source": "executed"}, "result": served}
    hit = copy.deepcopy(reply)
    hit["job"]["source"] = "store"
    check(workloads.differing_replies([reply, hit]) == [], "an identical store hit passes")
    hit["result"]["relative_error"] += 1e-15
    check(
        workloads.differing_replies([reply, hit]) == [1],
        "a store hit that differs from the first response trips the gate",
    )


def check_experiment_gate() -> None:
    record = {
        "job_id": "job0",
        "status": "ok",
        "fidelity": 0.99,
        "observables": {"z_avg": 0.1},
        "zne": {"mitigated": {"z_avg": 0.2}},
    }
    check(workloads.experiment_record_failure(record) is None, "an honest job record passes")
    low = dict(record, fidelity=0.2)
    check(workloads.experiment_record_failure(low) is not None, "a low fidelity trips the gate")
    spec = workloads.experiment_specs(1, 1)[0][0]
    _, result = compiled(
        {
            "model": spec["model"]["name"],
            "device": spec["device"],
            "qubits": 10,
            "params": spec["model"]["params"],
            "time": spec["time"],
        }
    )
    honest = dict(
        record,
        spec=spec,
        num_qubits=10,
        compile={
            "relative_error": result.relative_error,
            "execution_time_us": result.execution_time,
        },
    )
    check(workloads.offline_experiment_failure(honest) is None, "an honest compile record matches offline")
    tampered = copy.deepcopy(honest)
    tampered["compile"]["relative_error"] *= 0.5
    check(
        workloads.offline_experiment_failure(tampered) is not None,
        "a compile record differing from offline trips the gate",
    )


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_tiny_runs() -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            done = run_benchmark(ROOT, workload, trace)
            lines = done.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                raise AssertionError(f"{label} exited {done.returncode}: {done.stderr[-500:]}")
            summary = json.loads(lines[-1])
            check(summary["correct"] and summary["attempted"] >= 1, f"{label} is correct")
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) == 4}
            for name in expected:
                unit = expected[name][0]
                assert printed.get(name) == unit, f"{label}: {name} not printed with {unit}"
                assert summary["metrics"][name]["unit"] == unit, f"{label}: {name} unit"
            check(set(summary["metrics"]) == set(expected), f"{label} prints every metric with its unit")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(bare, "compile_sweep", 0)
    check(
        done.returncode != 0 and not done.stdout.strip(),
        "without the package source the benchmark fails and prints no result",
    )
    shutil.rmtree(bare)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_manifest()
    check_compile_gate()
    check_service_gate()
    check_experiment_gate()
    check_tiny_runs()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
