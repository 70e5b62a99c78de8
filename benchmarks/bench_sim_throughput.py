#!/usr/bin/env python
"""Noisy-simulation throughput benchmark for the vectorized engine.

Compares the vectorized Monte-Carlo executor (block evolution with
diagonal/dense/propagator fast paths) against the per-realization
sparse reference loop
(:class:`repro.testing.reference.PerRealizationSimulator`) on four
workloads:

* ``noisy_mc`` — :class:`repro.sim.NoisySimulator` on a compiled Rydberg
  Ising chain (the Figure-6 hot loop); both paths run with the same seed
  and must produce identical observable estimates.
* ``zne`` — :func:`repro.mitigation.zne_observables` across stretch
  factors (the mitigation hot loop).
* ``diagonal`` — a detuning-only (Z-diagonal) schedule, where the
  vectorized engine evolves by elementwise phase multiply.
* ``ideal_repeat`` — repeated noiseless evolutions of one schedule
  (the batch-verification pattern), exercising the propagator cache.

Writes ``BENCH_sim.json``: shots/sec per path, speedups, estimate
equality, and propagator/diagonal cache statistics.

Run:
    python benchmarks/bench_sim_throughput.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from conftest import chain_rydberg_spec

from repro.aais import RydbergAAIS
from repro.core import QTurboCompiler
from repro.mitigation import zne_observables
from repro.models import ising_chain
from repro.pulse.schedule import PulseSchedule, PulseSegment
from repro.sim import (
    NoisySimulator,
    clear_simulation_caches,
    evolve_schedule,
    ground_state,
    simulation_cache_stats,
)
from repro.sim.operators import operator_cache_stats
from repro.testing.reference import PerRealizationSimulator

DEFAULT_OUTPUT = "BENCH_sim.json"


def _chain_aais(n: int) -> RydbergAAIS:
    return RydbergAAIS(n, spec=chain_rydberg_spec(n))


def _compile_schedule(n: int) -> PulseSchedule:
    result = QTurboCompiler(_chain_aais(n)).compile(ising_chain(n), 1.0)
    if not result.success or result.schedule is None:
        raise RuntimeError(f"benchmark compilation failed: {result.summary()}")
    return result.schedule


def _detuning_only(schedule: PulseSchedule) -> PulseSchedule:
    """The same program with every Rabi drive off — Z-diagonal segments."""
    segments = []
    for segment in schedule.segments:
        values = {
            name: 0.0 if name.startswith("omega") else value
            for name, value in segment.dynamic_values.items()
        }
        segments.append(
            PulseSegment(duration=segment.duration, dynamic_values=values)
        )
    return PulseSchedule(schedule.aais, schedule.fixed_values, segments)


def _time_run(fn, repeats: int) -> float:
    """Best steady-state wall-clock of ``repeats`` invocations.

    One unmeasured warmup fills the process-lifetime Pauli-string
    caches (identical one-time setup for both paths); noise-realization
    Hamiltonians themselves are never memoized (``cache=False``), so
    the measured runs still rebuild and solve every realization.
    """
    clear_simulation_caches()
    fn()
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tick)
    return best


def bench_noisy_mc(
    schedule: PulseSchedule,
    shots: int,
    noise_samples: int,
    repeats: int,
) -> Dict[str, object]:
    seed = 7
    vectorized = NoisySimulator(noise_samples=noise_samples, seed=seed)
    legacy = PerRealizationSimulator(noise_samples=noise_samples, seed=seed)

    t_vec = _time_run(lambda: vectorized.run(schedule, shots=shots), repeats)
    # Snapshot the path counters over exactly one run so the column
    # counts reconcile with shots/noise_samples.
    clear_simulation_caches()
    vectorized.run(schedule, shots=shots)
    fast_paths = simulation_cache_stats()["fast_paths"]
    t_leg = _time_run(lambda: legacy.run(schedule, shots=shots), repeats)

    est_vec = vectorized.observables(schedule, shots=shots)
    est_leg = legacy.observables(schedule, shots=shots)
    return {
        "workload": "noisy_mc",
        "shots": shots,
        "noise_samples": noise_samples,
        "vectorized_seconds": t_vec,
        "legacy_seconds": t_leg,
        "vectorized_shots_per_sec": shots / t_vec,
        "legacy_shots_per_sec": shots / t_leg,
        "speedup": t_leg / t_vec,
        "estimates": {"vectorized": est_vec, "legacy": est_leg},
        "estimates_identical": est_vec == est_leg,
        "estimates_max_abs_diff": max(
            abs(est_vec[key] - est_leg[key]) for key in est_vec
        ),
        "fast_paths": fast_paths,
    }


def bench_zne(
    schedule: PulseSchedule,
    shots: int,
    noise_samples: int,
    repeats: int,
) -> Dict[str, object]:
    factors = (1.0, 1.5, 2.0)
    total_shots = shots * len(factors)

    def run(simulator_class):
        simulator = simulator_class(noise_samples=noise_samples, seed=7)
        return zne_observables(
            schedule, simulator, factors=factors, shots=shots
        )

    t_vec = _time_run(lambda: run(NoisySimulator), repeats)
    t_leg = _time_run(lambda: run(PerRealizationSimulator), repeats)
    mit_vec = run(NoisySimulator).mitigated
    mit_leg = run(PerRealizationSimulator).mitigated
    return {
        "workload": "zne",
        "factors": list(factors),
        "shots_per_factor": shots,
        "vectorized_seconds": t_vec,
        "legacy_seconds": t_leg,
        "vectorized_shots_per_sec": total_shots / t_vec,
        "legacy_shots_per_sec": total_shots / t_leg,
        "speedup": t_leg / t_vec,
        "estimates_identical": mit_vec == mit_leg,
    }


def bench_diagonal(
    schedule: PulseSchedule,
    shots: int,
    noise_samples: int,
    repeats: int,
) -> Dict[str, object]:
    diagonal_schedule = _detuning_only(schedule)
    result = bench_noisy_mc(diagonal_schedule, shots, noise_samples, repeats)
    result["workload"] = "diagonal"
    return result


def bench_ideal_repeat(
    schedule: PulseSchedule, rounds: int
) -> Dict[str, object]:
    """Repeated noiseless evolution — the batch-verification pattern."""
    num_qubits = schedule.aais.num_sites
    initial = ground_state(num_qubits)

    clear_simulation_caches()
    tick = time.perf_counter()
    for _ in range(rounds):
        evolve_schedule(initial, schedule)
    t_auto = time.perf_counter() - tick
    stats = simulation_cache_stats()

    tick = time.perf_counter()
    for _ in range(rounds):
        evolve_schedule(initial, schedule, backend="sparse")
    t_krylov = time.perf_counter() - tick
    return {
        "workload": "ideal_repeat",
        "rounds": rounds,
        "auto_seconds": t_auto,
        "krylov_seconds": t_krylov,
        "speedup": t_krylov / t_auto if t_auto > 0 else 0.0,
        "propagator": stats["propagator"],
        "propagator_hit_rate": stats["propagator"]["hit_rate"],
    }


def run_benchmark(
    quick: bool = False,
    output: str = DEFAULT_OUTPUT,
) -> Dict[str, object]:
    n = 4 if quick else 5
    shots = 400 if quick else 2000
    noise_samples = 8 if quick else 20
    repeats = 1 if quick else 3
    rounds = 10 if quick else 50

    schedule = _compile_schedule(n)
    runs: List[Dict[str, object]] = [
        bench_noisy_mc(schedule, shots, noise_samples, repeats),
        bench_zne(schedule, shots, noise_samples, repeats),
        bench_diagonal(schedule, shots, noise_samples, repeats),
        bench_ideal_repeat(schedule, rounds),
    ]
    for run in runs:
        if "speedup" in run:
            print(
                f"{run['workload']:>12s}: {run['speedup']:5.1f}x"
                + (
                    f"  (estimates identical: {run['estimates_identical']})"
                    if "estimates_identical" in run
                    else ""
                )
            )

    by_name = {run["workload"]: run for run in runs}
    report: Dict[str, object] = {
        "benchmark": "sim_throughput",
        "quick": quick,
        "config": {
            "num_qubits": n,
            "shots": shots,
            "noise_samples": noise_samples,
            "repeats": repeats,
            "ideal_rounds": rounds,
            "segments": schedule.num_segments,
        },
        "runs": runs,
        "noisy_mc_speedup": by_name["noisy_mc"]["speedup"],
        "noisy_mc_estimates_identical": by_name["noisy_mc"][
            "estimates_identical"
        ],
        "noisy_mc_estimates_max_abs_diff": by_name["noisy_mc"][
            "estimates_max_abs_diff"
        ],
        "diagonal_speedup": by_name["diagonal"]["speedup"],
        "propagator_hit_rate": by_name["ideal_repeat"][
            "propagator_hit_rate"
        ],
        "operator_cache": operator_cache_stats(),
        "simulation_cache": simulation_cache_stats(),
    }

    path = pathlib.Path(output)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[report written to {path}]")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small system and fewer shots (CI smoke mode)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick, output=args.output)
    speedup = report["noisy_mc_speedup"]
    identical = report["noisy_mc_estimates_identical"]
    # Gate on a tight tolerance rather than exact float equality: the
    # two paths use different solvers, and a uniform draw landing
    # within ~1e-13 of a CDF boundary could flip a single sample on a
    # future scipy/BLAS version without invalidating the equivalence.
    agree = report["noisy_mc_estimates_max_abs_diff"] <= 1e-9
    print(
        f"noisy-simulation speedup: {speedup:.1f}x "
        f"({'OK' if speedup >= 5.0 or args.quick else 'BELOW TARGET'}), "
        f"estimates identical: {identical}"
    )
    if not agree:
        return 1
    return 0 if (speedup >= 5.0 or args.quick) else 1


if __name__ == "__main__":
    sys.exit(main())
