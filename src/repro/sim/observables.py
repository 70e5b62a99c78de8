"""Expectation values and the paper's real-device metrics.

Figure 6 reports two observables on Ising-type systems:

.. math::

    Z_{avg}  = \\frac{1}{N} \\sum_i \\langle Z_i \\rangle, \\qquad
    ZZ_{avg} = \\frac{1}{N} \\sum_i \\langle Z_i Z_{i+1} \\rangle

(the ZZ average runs over adjacent pairs; on a cycle it wraps around).

Expectations apply the operator through the matrix-free kernels of
:mod:`repro.sim.kernels`, so no ``2^N × 2^N`` matrix is built and they
work on any register the state vector itself fits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString
from repro.sim.kernels import apply_hamiltonian, apply_pauli_string

__all__ = [
    "expectation",
    "pauli_expectation",
    "z_average",
    "zz_average",
    "magnetization_profile",
    "state_fidelity",
]


def _num_qubits_of(state: np.ndarray) -> int:
    dim = state.shape[0]
    num_qubits = int(round(np.log2(dim)))
    if 2**num_qubits != dim:
        raise SimulationError(f"state dimension {dim} is not a power of 2")
    return num_qubits


def expectation(state: np.ndarray, hamiltonian: Hamiltonian) -> float:
    """``⟨ψ| H |ψ⟩`` (real by Hermiticity)."""
    num_qubits = _num_qubits_of(state)
    applied = apply_hamiltonian(hamiltonian, state, num_qubits)
    return float(np.real(np.vdot(state, applied)))


def pauli_expectation(state: np.ndarray, string: PauliString) -> float:
    """``⟨ψ| P |ψ⟩`` for a single Pauli string."""
    num_qubits = _num_qubits_of(state)
    applied = apply_pauli_string(string, state, num_qubits)
    return float(np.real(np.vdot(state, applied)))


def z_average(state: np.ndarray, num_qubits: int = None) -> float:
    """``(1/N) Σ_i ⟨Z_i⟩``."""
    n = num_qubits or _num_qubits_of(state)
    return float(
        np.mean(
            [
                pauli_expectation(state, PauliString.single("Z", i))
                for i in range(n)
            ]
        )
    )


def zz_average(
    state: np.ndarray, num_qubits: int = None, periodic: bool = True
) -> float:
    """``(1/N) Σ_i ⟨Z_i Z_{i+1}⟩`` over adjacent pairs.

    ``periodic=True`` wraps around (cycle models); with ``False`` the sum
    runs over the N−1 chain bonds and is averaged accordingly.
    """
    n = num_qubits or _num_qubits_of(state)
    if n < 2:
        raise SimulationError("ZZ average needs at least 2 qubits")
    pairs: List = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        pairs.append((n - 1, 0))
    values = [
        pauli_expectation(
            state, PauliString.from_pairs([(i, "Z"), (j, "Z")])
        )
        for i, j in pairs
    ]
    return float(np.mean(values))


def magnetization_profile(state: np.ndarray) -> List[float]:
    """``⟨Z_i⟩`` for every qubit, in index order."""
    n = _num_qubits_of(state)
    return [
        pauli_expectation(state, PauliString.single("Z", i)) for i in range(n)
    ]


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``|⟨a|b⟩|²`` for pure states."""
    if a.shape != b.shape:
        raise SimulationError("states have mismatched dimensions")
    return float(np.abs(np.vdot(a, b)) ** 2)
