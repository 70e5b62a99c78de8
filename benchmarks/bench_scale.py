#!/usr/bin/env python
"""Scale benchmark for the matrix-free simulation backend.

Measures how far the simulation layer now reaches past the historical
dense/sparse cap (practical experiments used to stall near N≈12):

* ``agreement`` — dense vs sparse vs matrix-free evolution on random
  mixed-Pauli workloads at small N; states and observable estimates
  must agree to ≤1e-8 (they land around 1e-12).
* ``evolve`` — single-shot Ising-cycle evolution vs N under the auto
  backend, with wall-clock and Python-allocation peak (tracemalloc,
  which tracks numpy buffers) per point; the full run tops out at a
  2^20-dimensional state inside the configured memory budget.
* ``noisy_mc`` — the Monte-Carlo hot loop on a compiled Rydberg chain:
  the block engine on the auto backend (matrix-free at these sizes) vs
  the per-realization sparse reference
  (:class:`repro.testing.reference.PerRealizationSimulator`), same
  seed, identical samples.
* ``zne`` — zero-noise extrapolation across stretch factors on the
  same two paths.

Writes ``BENCH_scale.json`` (shared schema fields: ``benchmark``,
``quick``, ``runs``) and exits non-zero when the headline gates fail:
dense/matrix-free agreement ≤ 1e-8, noisy-MC speedup ≥ 4× at the
largest measured register (full mode), and the N=20 evolution staying
inside the memory budget.

Run:
    python benchmarks/bench_scale.py [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from conftest import chain_rydberg_spec

import numpy as np

from repro.aais import RydbergAAIS
from repro.core import QTurboCompiler
from repro.hamiltonian import Hamiltonian, PauliString
from repro.mitigation import zne_observables
from repro.models import ising_chain, ising_cycle
from repro.sim import (
    NoisySimulator,
    clear_simulation_caches,
    evolve,
    ground_state,
    select_backend,
    simulation_cache_stats,
)
from repro.sim.observables import z_average
from repro.sim.propagators import memory_budget_bytes
from repro.testing.reference import PerRealizationSimulator

DEFAULT_OUTPUT = "BENCH_scale.json"

AGREEMENT_TOL = 1e-8


def _timed_with_peak(fn):
    """``(result, seconds, peak_bytes)`` of one call, via tracemalloc."""
    tracemalloc.start()
    tick = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - tick
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _random_hamiltonian(rng: np.random.Generator, n: int) -> Hamiltonian:
    terms = {}
    for _ in range(int(rng.integers(3, 8))):
        weight = int(rng.integers(1, n + 1))
        qubits = rng.choice(n, size=weight, replace=False)
        ops = {int(q): str(rng.choice(["X", "Y", "Z"])) for q in qubits}
        terms[PauliString(ops)] = float(rng.normal())
    return Hamiltonian(terms)


def bench_agreement(trials: int) -> Dict[str, object]:
    """Dense vs sparse vs matrix-free equivalence on random workloads."""
    rng = np.random.default_rng(42)
    max_state = 0.0
    max_observable = 0.0
    for _ in range(trials):
        n = int(rng.integers(4, 9))
        h = _random_hamiltonian(rng, n)
        if h.is_zero:
            continue
        duration = float(rng.uniform(0.2, 1.5))
        state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        state /= np.linalg.norm(state)
        by_backend = {
            backend: evolve(
                state, h, duration, n, cache=False, backend=backend
            )
            for backend in ("dense", "sparse", "matrix_free")
        }
        reference = by_backend["dense"]
        for backend in ("sparse", "matrix_free"):
            max_state = max(
                max_state,
                float(np.abs(by_backend[backend] - reference).max()),
            )
            max_observable = max(
                max_observable,
                abs(z_average(by_backend[backend]) - z_average(reference)),
            )
    return {
        "workload": "agreement",
        "trials": trials,
        "max_state_abs_diff": max_state,
        "max_observable_abs_diff": max_observable,
        "tolerance": AGREEMENT_TOL,
        "ok": max(max_state, max_observable) <= AGREEMENT_TOL,
    }


def bench_evolve(sizes: List[int], duration: float) -> Dict[str, object]:
    """Single-shot Ising-cycle evolution vs N under the auto backend."""
    points = []
    for n in sizes:
        h = ising_cycle(n)
        backend = select_backend(h, n, 1, True)
        clear_simulation_caches()
        state, seconds, peak = _timed_with_peak(
            lambda h=h, n=n: evolve(ground_state(n), h, duration, n)
        )
        points.append(
            {
                "num_qubits": n,
                "terms": h.num_terms,
                "backend": backend,
                "seconds": seconds,
                "peak_alloc_mib": peak / 2**20,
                "norm_error": abs(float(np.linalg.norm(state)) - 1.0),
            }
        )
        print(
            f"  evolve N={n:>2d}: {seconds:7.2f}s  "
            f"peak {peak / 2**20:7.1f} MiB  [{backend}]"
        )
    return {
        "workload": "evolve",
        "duration": duration,
        "points": points,
        "max_qubits": max(sizes),
        "memory_budget_mib": memory_budget_bytes() / 2**20,
        "within_budget": all(
            p["peak_alloc_mib"] <= memory_budget_bytes() / 2**20
            for p in points
        ),
    }


def _compiled_chain(n: int):
    compiler = QTurboCompiler(RydbergAAIS(n, spec=chain_rydberg_spec(n)))
    result = compiler.compile(ising_chain(n), 1.0)
    if not result.success or result.schedule is None:
        raise RuntimeError(f"benchmark compilation failed: {result.summary()}")
    return result.schedule


def bench_noisy_mc(
    sizes: List[int], shots: int, noise_samples: int
) -> Dict[str, object]:
    """Vectorized-auto vs legacy sparse-Krylov Monte-Carlo, per N."""
    points = []
    for n in sizes:
        schedule = _compiled_chain(n)
        fast = NoisySimulator(noise_samples=noise_samples, seed=7)
        legacy = PerRealizationSimulator(noise_samples=noise_samples, seed=7)
        # Both paths start cold: the shared per-string caches (sparse
        # kron factors, kernel sign vectors) otherwise hand whichever
        # path runs second a warm start.
        clear_simulation_caches()
        samples_fast, t_fast, peak_fast = _timed_with_peak(
            lambda: fast.run(schedule, shots=shots)
        )
        fast_paths = simulation_cache_stats()["fast_paths"]
        clear_simulation_caches()
        samples_legacy, t_legacy, peak_legacy = _timed_with_peak(
            lambda: legacy.run(schedule, shots=shots)
        )
        est_fast = {
            "z_avg": float(1.0 - 2.0 * samples_fast.mean()),
        }
        est_legacy = {
            "z_avg": float(1.0 - 2.0 * samples_legacy.mean()),
        }
        points.append(
            {
                "num_qubits": n,
                "shots": shots,
                "noise_samples": noise_samples,
                "fast_seconds": t_fast,
                "legacy_seconds": t_legacy,
                "speedup": t_legacy / t_fast,
                "fast_peak_alloc_mib": peak_fast / 2**20,
                "legacy_peak_alloc_mib": peak_legacy / 2**20,
                "samples_identical": bool(
                    np.array_equal(samples_fast, samples_legacy)
                ),
                "estimates_max_abs_diff": abs(
                    est_fast["z_avg"] - est_legacy["z_avg"]
                ),
                "fast_paths": fast_paths,
            }
        )
        print(
            f"  noisy-MC N={n:>2d}: {t_legacy / t_fast:5.1f}x  "
            f"(fast {t_fast:.2f}s, legacy {t_legacy:.2f}s, identical: "
            f"{points[-1]['samples_identical']})"
        )
    return {
        "workload": "noisy_mc",
        "points": points,
        "speedup_at_max_n": points[-1]["speedup"],
        "max_qubits": sizes[-1],
    }


def bench_zne(
    n: int, shots: int, noise_samples: int
) -> Dict[str, object]:
    """ZNE across stretch factors: block engine vs per-realization loop."""
    schedule = _compiled_chain(n)
    factors = (1.0, 1.5, 2.0)

    def run(simulator_class):
        simulator = simulator_class(noise_samples=noise_samples, seed=7)
        return zne_observables(
            schedule, simulator, factors=factors, shots=shots
        )

    clear_simulation_caches()
    zne_fast, t_fast, peak_fast = _timed_with_peak(
        lambda: run(NoisySimulator)
    )
    clear_simulation_caches()
    zne_legacy, t_legacy, peak_legacy = _timed_with_peak(
        lambda: run(PerRealizationSimulator)
    )
    print(
        f"  zne N={n:>2d}: {t_legacy / t_fast:5.1f}x  "
        f"(identical: {zne_fast.mitigated == zne_legacy.mitigated})"
    )
    return {
        "workload": "zne",
        "num_qubits": n,
        "factors": list(factors),
        "shots_per_factor": shots,
        "noise_samples": noise_samples,
        "fast_seconds": t_fast,
        "legacy_seconds": t_legacy,
        "speedup": t_legacy / t_fast,
        "fast_peak_alloc_mib": peak_fast / 2**20,
        "legacy_peak_alloc_mib": peak_legacy / 2**20,
        "estimates_identical": zne_fast.mitigated == zne_legacy.mitigated,
    }


def run_benchmark(
    quick: bool = False, output: str = DEFAULT_OUTPUT
) -> Dict[str, object]:
    """Run all four workloads and write the JSON report."""
    agreement_trials = 10 if quick else 40
    evolve_sizes = [8, 10, 12] if quick else [8, 12, 14, 16, 18, 20]
    mc_sizes = [6, 12] if quick else [12, 14, 16]
    mc_shots = 60 if quick else 100
    mc_noise_samples = 2 if quick else 4
    zne_n = 6 if quick else 14

    print("agreement:")
    runs: List[Dict[str, object]] = [bench_agreement(agreement_trials)]
    print(
        f"  max |Δstate| {runs[0]['max_state_abs_diff']:.2e}, "
        f"max |Δobservable| {runs[0]['max_observable_abs_diff']:.2e}"
    )
    print("evolve scaling:")
    runs.append(bench_evolve(evolve_sizes, duration=1.0))
    print("noisy Monte-Carlo:")
    runs.append(bench_noisy_mc(mc_sizes, mc_shots, mc_noise_samples))
    print("ZNE:")
    runs.append(bench_zne(zne_n, mc_shots, mc_noise_samples))

    by_name = {run["workload"]: run for run in runs}
    report: Dict[str, object] = {
        "benchmark": "scale",
        "quick": quick,
        "config": {
            "agreement_trials": agreement_trials,
            "evolve_sizes": evolve_sizes,
            "mc_sizes": mc_sizes,
            "mc_shots": mc_shots,
            "mc_noise_samples": mc_noise_samples,
            "zne_qubits": zne_n,
            "memory_budget_mib": memory_budget_bytes() / 2**20,
        },
        "runs": runs,
        "agreement_max_abs_diff": max(
            by_name["agreement"]["max_state_abs_diff"],
            by_name["agreement"]["max_observable_abs_diff"],
        ),
        "evolve_max_qubits": by_name["evolve"]["max_qubits"],
        "evolve_within_budget": by_name["evolve"]["within_budget"],
        "noisy_mc_speedup_at_max_n": by_name["noisy_mc"][
            "speedup_at_max_n"
        ],
        "noisy_mc_max_qubits": by_name["noisy_mc"]["max_qubits"],
        "zne_speedup": by_name["zne"]["speedup"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
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
        help="small registers and fewer shots (CI smoke mode)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick, output=args.output)
    ok = report["agreement_max_abs_diff"] <= AGREEMENT_TOL
    ok = ok and report["evolve_within_budget"]
    speedup = report["noisy_mc_speedup_at_max_n"]
    target = 4.0
    print(
        f"noisy-MC speedup at N={report['noisy_mc_max_qubits']}: "
        f"{speedup:.1f}x "
        f"({'OK' if speedup >= target or args.quick else 'BELOW TARGET'}), "
        f"agreement {report['agreement_max_abs_diff']:.2e}, "
        f"N={report['evolve_max_qubits']} evolve within budget: "
        f"{report['evolve_within_budget']}"
    )
    if not args.quick:
        ok = ok and speedup >= target
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
