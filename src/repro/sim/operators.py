"""Sparse-matrix realizations of Pauli strings and Hamiltonians.

Qubit 0 is the most significant bit of the computational-basis index
(``|q0 q1 … q_{N−1}⟩``), matching the convention of
:mod:`repro.sim.sampling`.  Operators are built as CSR matrices via
Kronecker products of 2×2 factors.

Matrix construction is a hot path: every sparse-backend ``evolve*``
call realizes its Hamiltonian, and batch workloads (:mod:`repro.batch`)
compile and verify many structurally identical targets.  Pauli-string
matrices and the CSC form of full Hamiltonians are therefore memoized
in fixed-size, process-wide LRU caches (:class:`repro.store.LRUCache`)
keyed on the stable canonical keys of :meth:`repro.hamiltonian.pauli.PauliString.canonical_key` and
:meth:`repro.hamiltonian.expression.Hamiltonian.canonical_key`.  Cache
statistics are exposed via :func:`operator_cache_stats` so benchmarks
can report hit rates; :func:`repro.sim.propagators
.clear_simulation_caches` empties them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString
from repro.store import LRUCache

__all__ = [
    "pauli_matrix",
    "pauli_string_matrix",
    "hamiltonian_matrix",
    "hamiltonian_matrix_csc",
    "number_operator_matrix",
    "operator_cache_stats",
    "max_operator_qubits",
    "configure_operator_limits",
]

_SINGLE: Dict[str, np.ndarray] = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Default register size above which *materializing* an operator matrix
#: is refused.  The limit is configurable at runtime via
#: :func:`configure_operator_limits`; it only guards the sparse/dense
#: layers — the matrix-free kernels of :mod:`repro.sim.kernels` never
#: build a matrix and are not subject to it.
MAX_QUBITS = 16

_operator_limits = {"max_qubits": MAX_QUBITS}


def max_operator_qubits() -> int:
    """Largest register for which operator matrices may be materialized."""
    return _operator_limits["max_qubits"]


def configure_operator_limits(max_qubits: Optional[int] = None) -> None:
    """Adjust the materialization cap (``None`` leaves it unchanged).

    Raising the cap trades memory for the ability to build explicit
    matrices on larger registers; consider the matrix-free backend
    (``backend="matrix_free"``) before doing so — it scales past the cap
    without ever allocating a ``2^N × 2^N`` operator.
    """
    if max_qubits is not None:
        if max_qubits < 1:
            raise SimulationError(
                f"operator qubit cap must be >= 1, got {max_qubits}"
            )
        _operator_limits["max_qubits"] = int(max_qubits)

#: Cache capacities (entries, not bytes).
STRING_CACHE_SIZE = 4096
CSC_CACHE_SIZE = 512

_string_cache = LRUCache(STRING_CACHE_SIZE)
_csc_cache = LRUCache(CSC_CACHE_SIZE)


def operator_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of the process-wide operator caches."""
    return {
        "pauli_string": _string_cache.stats(),
        "hamiltonian_csc": _csc_cache.stats(),
    }


def pauli_matrix(label: str) -> np.ndarray:
    """The 2×2 matrix of a single-qubit Pauli (or identity)."""
    try:
        return _SINGLE[label].copy()
    except KeyError:
        raise SimulationError(f"unknown Pauli label {label!r}") from None


def _check_size(num_qubits: int) -> None:
    if num_qubits < 1:
        raise SimulationError("operator needs at least 1 qubit")
    cap = _operator_limits["max_qubits"]
    if num_qubits > cap:
        raise SimulationError(
            f"refusing to materialize a 2^{num_qubits}-dimensional "
            f"operator matrix (configurable cap: {cap} qubits). Use the "
            f"matrix-free backend instead — backend='matrix_free' on the "
            f"sim.evolve* functions / NoisySimulator, or "
            f"'simulation.backend: matrix_free' in an experiment spec — "
            f"which applies Pauli kernels without building the matrix; "
            f"or raise the cap explicitly via "
            f"repro.sim.operators.configure_operator_limits(max_qubits=...)"
        )


def _string_matrix(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> sparse.csr_matrix:
    """Cached CSR matrix of a Pauli-ops tuple.  Do not mutate the result."""
    key = (ops, num_qubits)
    cached = _string_cache.get(key)
    if cached is not None:
        return cached
    result = sparse.identity(1, dtype=complex, format="csr")
    op_map = dict(ops)
    for qubit in range(num_qubits):
        factor = _SINGLE[op_map.get(qubit, "I")]
        result = sparse.kron(result, factor, format="csr")
    _string_cache.put(key, result)
    return result


def pauli_string_matrix(
    string: PauliString, num_qubits: int
) -> sparse.csr_matrix:
    """CSR matrix of ``string`` embedded in ``num_qubits`` qubits."""
    _check_size(num_qubits)
    if string.max_qubit() >= num_qubits:
        raise SimulationError(
            f"string {string} touches qubit {string.max_qubit()} but the "
            f"register has only {num_qubits} qubits"
        )
    return _string_matrix(string.canonical_key, num_qubits).copy()


def hamiltonian_matrix(
    hamiltonian: Hamiltonian, num_qubits: int
) -> sparse.csr_matrix:
    """CSR matrix ``Σ c_s · P_s`` of a Hamiltonian expression.

    Always freshly built (the per-string factors come from the
    Pauli-string cache), so the caller may mutate it.
    """
    _check_size(num_qubits)
    dim = 2**num_qubits
    matrix = sparse.csr_matrix((dim, dim), dtype=complex)
    for string, coeff in hamiltonian.terms.items():
        if string.max_qubit() >= num_qubits:
            raise SimulationError(
                f"string {string} touches qubit {string.max_qubit()} "
                f"but the register has only {num_qubits} qubits"
            )
        matrix = matrix + coeff * _string_matrix(
            string.canonical_key, num_qubits
        )
    return matrix


def hamiltonian_matrix_csc(
    hamiltonian: Hamiltonian,
    num_qubits: int,
    cache: bool = True,
) -> sparse.csc_matrix:
    """The CSC form of :func:`hamiltonian_matrix`, memoized.

    ``expm_multiply`` wants CSC, so the evolution path caches the
    converted form.  The returned matrix is shared — callers must not
    mutate it (scalar multiplication, as in ``-1j * t * matrix``,
    allocates a fresh matrix and is safe).  ``cache=False`` neither
    reads nor fills the cache (one-shot noise realizations).
    """
    _check_size(num_qubits)
    key = (hamiltonian.canonical_key(), num_qubits)
    if cache:
        cached = _csc_cache.get(key)
        if cached is not None:
            return cached
    csc = hamiltonian_matrix(hamiltonian, num_qubits).tocsc()
    if cache:
        _csc_cache.put(key, csc)
    return csc


def number_operator_matrix(qubit: int, num_qubits: int) -> sparse.csr_matrix:
    """Matrix of the Rydberg occupation ``n̂ = (I − Z)/2`` on one qubit."""
    _check_size(num_qubits)
    identity = sparse.identity(2**num_qubits, dtype=complex, format="csr")
    z = pauli_string_matrix(PauliString.single("Z", qubit), num_qubits)
    return (identity - z) * 0.5
