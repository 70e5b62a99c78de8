"""Fast-path propagators for the vectorized simulation engine.

Three mechanisms let the hot Monte-Carlo/ZNE loop bypass the generic
Krylov solver (:func:`scipy.sparse.linalg.expm_multiply`):

* **diagonal evolution** — a Hamiltonian whose every term is built from
  Z operators (detuning-only Rydberg segments, vdW interactions, Ising
  couplings) is diagonal in the computational basis, so
  ``exp(−i H t) |ψ⟩`` is an elementwise phase multiply.  The diagonal
  vectors are memoized per Hamiltonian.
* **dense batch assembly** — for small registers the dense matrices of
  many noise-perturbed Hamiltonians sharing one Pauli support are built
  in a single BLAS call (coefficient matrix × flattened string stack)
  and exponentiated with one batched :func:`scipy.linalg.expm`.
* **propagator cache** — the dense unitary ``exp(−i H t)`` of a
  recurring ``(Hamiltonian, duration)`` pair is memoized, so repeated
  segments across shots, stretch factors, and batch jobs collapse to a
  single matmul.

Every cache is a fixed-size :class:`repro.store.LRUCache` (so all
report one stats shape) and the fast-path column counts are one
:class:`repro.store.Counters`; the backend-selection thresholds are
fixed constants too.  Only the two settings that depend on the host's
memory are adjustable: :func:`configure_simulation_caches`
(``memory_budget_bytes``) and :func:`repro.sim.operators
.configure_operator_limits` (``max_qubits``).  Statistics of every
simulator cache are exposed through :func:`simulation_cache_stats` next
to the operator-cache stats, and :func:`clear_simulation_caches`
empties them all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
import repro.sim.kernels as _kernels
import repro.sim.operators as _operators
from repro.sim.kernels import DEFAULT_MAX_KRYLOV_DIM, kernel_cache_stats
from repro.sim.operators import _SINGLE, _check_size, max_operator_qubits
from repro.store import Counters, LRUCache

__all__ = [
    "is_diagonal_hamiltonian",
    "diagonal_vector",
    "dense_hamiltonian",
    "dense_hamiltonian_stack",
    "propagator",
    "batched_propagators",
    "cached_propagator",
    "store_propagator",
    "propagator_max_qubits",
    "propagator_build_max_qubits",
    "select_backend",
    "sparse_matrix_bytes",
    "matrix_free_block_columns",
    "matrix_free_krylov_dim",
    "memory_budget_bytes",
    "BACKEND_NAMES",
    "record_fast_path",
    "simulation_cache_stats",
    "clear_simulation_caches",
    "configure_simulation_caches",
]

#: Cache capacities (entries).
PROPAGATOR_CACHE_SIZE = 256
DIAGONAL_CACHE_SIZE = 1024
DENSE_STRING_CACHE_SIZE = 2048

#: Registers larger than this never take the dense-propagator path:
#: a 2^N × 2^N unitary stops paying for itself around N = 10.
PROPAGATOR_MAX_QUBITS = 10

#: Dense ``expm`` is only *built* on a cache miss up to this size —
#: measured on this codebase, dense Padé beats one Krylov solve for
#: N ≤ 7 (and beats a 20-column block solve by an order of magnitude);
#: above that a miss falls back to ``expm_multiply`` and only cache
#: *hits* use the dense path.
PROPAGATOR_BUILD_MAX_QUBITS = 7

#: Working-set budget (bytes) the auto backend selector plans against:
#: a segment whose sparse CSR/CSC realization would not fit goes
#: matrix-free instead of materializing the matrix.
DEFAULT_MEMORY_BUDGET_BYTES = 512 * 2**20

#: One-shot (uncached) Hamiltonians of at least this many qubits skip
#: the sparse path even when the matrix would fit: the per-realization
#: kron-product assembly dominates, and the matrix-free kernels reuse
#: their structure across realizations instead.
MATRIX_FREE_MIN_QUBITS = 12

#: Wide same-Hamiltonian blocks amortize one sparse build across all
#: columns, while the Lanczos propagator pays per column — above this
#: width auto prefers sparse (when it fits the budget).
MATRIX_FREE_MAX_COLUMNS = 32

#: The selectable evolution backends (``auto`` resolves per segment).
BACKEND_NAMES = ("auto", "dense", "sparse", "matrix_free")

_propagator_cache = LRUCache(PROPAGATOR_CACHE_SIZE)
_diagonal_cache = LRUCache(DIAGONAL_CACHE_SIZE)
_dense_string_cache = LRUCache(DENSE_STRING_CACHE_SIZE)

#: The thresholds :func:`select_backend` reads, reported by
#: :func:`simulation_cache_stats`; only the memory budget is settable.
_limits = {
    "propagator_max_qubits": PROPAGATOR_MAX_QUBITS,
    "propagator_build_max_qubits": PROPAGATOR_BUILD_MAX_QUBITS,
    "memory_budget_bytes": DEFAULT_MEMORY_BUDGET_BYTES,
    "matrix_free_min_qubits": MATRIX_FREE_MIN_QUBITS,
    "matrix_free_max_columns": MATRIX_FREE_MAX_COLUMNS,
}


#: How many state columns went through each evolution path.
_counters = Counters(
    ("diagonal", "propagator", "dense_build", "krylov", "matrix_free")
)


def record_fast_path(name: str, columns: int = 1) -> None:
    """Count ``columns`` state columns evolved through path ``name``."""
    _counters.add(name, int(columns))


def propagator_max_qubits() -> int:
    """Largest register for which the dense-propagator cache is consulted."""
    return _limits["propagator_max_qubits"]


def propagator_build_max_qubits() -> int:
    """Largest register for which a dense propagator is built on a miss."""
    return _limits["propagator_build_max_qubits"]


def memory_budget_bytes() -> int:
    """The working-set budget the auto backend selector plans against."""
    return _limits["memory_budget_bytes"]


def sparse_matrix_bytes(hamiltonian: Hamiltonian, num_qubits: int) -> int:
    """Estimated bytes of the CSR/CSC realization of ``hamiltonian``.

    Each Pauli string contributes exactly ``2^N`` nonzeros; the union
    over terms is an upper bound (overlapping supports only shrink it).
    20 bytes per nonzero covers complex data plus int32 indices.
    """
    return hamiltonian.num_terms * (1 << num_qubits) * 20


def matrix_free_block_columns(num_qubits: int) -> int:
    """Widest column chunk the matrix-free propagators get at once.

    The Chebyshev recurrence keeps ~5 block-sized work buffers (plus the
    input and output), so wide blocks are propagated in column chunks
    sized to keep that working set inside the memory budget too — the
    budget governs the whole evolution working set, not just operator
    materialization.
    """
    block_bytes = 8 * (1 << num_qubits) * 16
    return int(max(1, _limits["memory_budget_bytes"] // block_bytes))


def matrix_free_krylov_dim(num_qubits: int) -> int:
    """Budget-aware Krylov basis cap for the Lanczos propagator.

    The basis is the matrix-free path's only super-linear memory use
    (``m · 2^N · 16`` bytes); half the configured budget is reserved
    for it, and a smaller basis simply trades into more sub-steps.
    """
    vector_bytes = (1 << num_qubits) * 16
    affordable = _limits["memory_budget_bytes"] // (2 * vector_bytes)
    return int(max(8, min(DEFAULT_MAX_KRYLOV_DIM, affordable)))


def select_backend(
    hamiltonian: Hamiltonian,
    num_qubits: int,
    columns: int = 1,
    cache: bool = True,
) -> str:
    """Pick the cheapest evolution path for one ``(H, block)`` segment.

    The decision reads the term structure (all-Z Hamiltonians are a
    phase multiply), the register size, the block width, and the
    configured memory budget:

    * ``diagonal`` — every term is Z-only, at any size;
    * ``dense``   — N ≤ :func:`propagator_max_qubits`; the 2^N×2^N
      unitary is cheap and cacheable;
    * ``matrix_free`` — the sparse matrix would blow the budget (or the
      operator cap), or the Hamiltonian is one-shot (``cache=False``) on
      a large register where per-realization kron assembly dominates
      and the block is narrow enough that per-column Lanczos wins;
    * ``sparse``  — otherwise: a cached CSC + ``expm_multiply``.
    """
    if is_diagonal_hamiltonian(hamiltonian):
        return "diagonal"
    if num_qubits <= _limits["propagator_max_qubits"]:
        return "dense"
    if (
        num_qubits > max_operator_qubits()
        or sparse_matrix_bytes(hamiltonian, num_qubits)
        > _limits["memory_budget_bytes"]
    ):
        return "matrix_free"
    if (
        not cache
        and num_qubits >= _limits["matrix_free_min_qubits"]
        and columns <= _limits["matrix_free_max_columns"]
    ):
        return "matrix_free"
    return "sparse"


# ----------------------------------------------------------------------
# Diagonal fast path
# ----------------------------------------------------------------------
def _check_support(hamiltonian: Hamiltonian, num_qubits: int) -> None:
    """Reject strings touching qubits outside the register.

    The sparse operator layer raises this from ``hamiltonian_matrix``;
    the fast paths must enforce the same contract (a silent
    ``range(num_qubits)`` loop would treat out-of-range operators as
    identity and return a wrong state)."""
    for string in hamiltonian.pauli_strings():
        if string.max_qubit() >= num_qubits:
            raise SimulationError(
                f"string {string} touches qubit {string.max_qubit()} but "
                f"the register has only {num_qubits} qubits"
            )


def is_diagonal_hamiltonian(hamiltonian: Hamiltonian) -> bool:
    """True when every term is a product of Z operators (or identity)."""
    return all(
        label == "Z"
        for string in hamiltonian.pauli_strings()
        for _, label in string.canonical_key
    )


def _string_diagonal(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> np.ndarray:
    """Diagonal of a Z-only Pauli string (qubit 0 = most significant bit)."""
    key = ("zdiag", ops, num_qubits)
    cached = _diagonal_cache.get(key)
    if cached is not None:
        return cached
    index = np.arange(2**num_qubits)
    diagonal = np.ones(2**num_qubits, dtype=float)
    for qubit, _ in ops:
        bits = (index >> (num_qubits - 1 - qubit)) & 1
        diagonal *= 1.0 - 2.0 * bits
    _diagonal_cache.put(key, diagonal)
    return diagonal


def diagonal_vector(
    hamiltonian: Hamiltonian, num_qubits: int, cache: bool = True
) -> np.ndarray:
    """Diagonal of a Z-only Hamiltonian as a real vector.

    The caller must have checked :func:`is_diagonal_hamiltonian`.  With
    ``cache=True`` the assembled vector is memoized on the Hamiltonian's
    canonical key; per-string diagonals are always memoized (they recur
    across noise realizations that only perturb coefficients).
    """
    key = (hamiltonian.canonical_key(), num_qubits)
    if cache:
        cached = _diagonal_cache.get(key)
        if cached is not None:
            return cached
    _check_support(hamiltonian, num_qubits)
    diagonal = np.zeros(2**num_qubits, dtype=float)
    for string, coeff in hamiltonian.terms.items():
        diagonal += coeff * _string_diagonal(string.canonical_key, num_qubits)
    if cache:
        _diagonal_cache.put(key, diagonal)
    return diagonal


# ----------------------------------------------------------------------
# Dense assembly
# ----------------------------------------------------------------------
def _string_dense_flat(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> np.ndarray:
    """Flattened dense matrix of one Pauli string (cached, shared).

    Built as a chain of dense ``np.kron`` products — an order of
    magnitude cheaper than assembling the sparse CSR form just to
    densify it.
    """
    key = (ops, num_qubits)
    cached = _dense_string_cache.get(key)
    if cached is not None:
        return cached
    op_map = dict(ops)
    dense = np.ones((1, 1), dtype=complex)
    for qubit in range(num_qubits):
        dense = np.kron(dense, _SINGLE[op_map.get(qubit, "I")])
    flat = dense.reshape(-1)
    _dense_string_cache.put(key, flat)
    return flat


def dense_hamiltonian_stack(
    hamiltonians: Sequence[Hamiltonian], num_qubits: int
) -> np.ndarray:
    """Dense matrices of many Hamiltonians in one BLAS call.

    Noise realizations of one schedule segment share a Pauli support and
    differ only in coefficients, so the whole batch is a coefficient
    matrix times a stack of flattened (cached) string matrices:
    ``(k, S) @ (S, d²) → (k, d, d)``.
    """
    _check_size(num_qubits)
    dim = 2**num_qubits
    strings: Dict[Tuple, int] = {}
    for hamiltonian in hamiltonians:
        _check_support(hamiltonian, num_qubits)
        for string in hamiltonian.pauli_strings():
            strings.setdefault(string.canonical_key, len(strings))
    if not strings:
        return np.zeros((len(hamiltonians), dim, dim), dtype=complex)
    coefficients = np.zeros((len(hamiltonians), len(strings)))
    for row, hamiltonian in enumerate(hamiltonians):
        for string, coeff in hamiltonian.terms.items():
            coefficients[row, strings[string.canonical_key]] = coeff
    basis = np.stack(
        [_string_dense_flat(ops, num_qubits) for ops in strings]
    )
    return (coefficients @ basis).reshape(len(hamiltonians), dim, dim)


def dense_hamiltonian(hamiltonian: Hamiltonian, num_qubits: int) -> np.ndarray:
    """Dense matrix of one Hamiltonian via the shared string stack."""
    return dense_hamiltonian_stack([hamiltonian], num_qubits)[0]


# ----------------------------------------------------------------------
# Propagator cache
# ----------------------------------------------------------------------
def _propagator_key(
    hamiltonian: Hamiltonian, duration: float, num_qubits: int
) -> Tuple:
    return (hamiltonian.canonical_key(), num_qubits, float(duration))


def cached_propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    count_stats: bool = True,
) -> Optional[np.ndarray]:
    """The memoized dense unitary, or None (registers over the cap never
    probe the cache, so they do not distort its hit rate).

    ``count_stats=False`` probes without touching the hit/miss counters
    — for callers that cannot follow a miss with a store (auto-path
    registers above the build threshold), whose guaranteed misses would
    otherwise dilute the reported hit rate.
    """
    if num_qubits > _limits["propagator_max_qubits"]:
        return None
    key = _propagator_key(hamiltonian, duration, num_qubits)
    if count_stats:
        return _propagator_cache.get(key)
    return _propagator_cache.peek(key)


def store_propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    unitary: np.ndarray,
) -> None:
    if num_qubits <= _limits["propagator_max_qubits"]:
        _propagator_cache.put(
            _propagator_key(hamiltonian, duration, num_qubits), unitary
        )


def propagator(
    hamiltonian: Hamiltonian,
    duration: float,
    num_qubits: int,
    cache: bool = True,
) -> np.ndarray:
    """The dense unitary ``exp(−i H t)``, memoized when ``cache=True``."""
    if cache:
        cached = cached_propagator(hamiltonian, duration, num_qubits)
        if cached is not None:
            return cached
    unitary = expm(-1j * duration * dense_hamiltonian(hamiltonian, num_qubits))
    if cache:
        store_propagator(hamiltonian, duration, num_qubits, unitary)
    return unitary


def batched_propagators(
    hamiltonians: Sequence[Hamiltonian],
    durations: Sequence[float],
    num_qubits: int,
) -> List[np.ndarray]:
    """Dense unitaries of many (H, t) pairs via one batched ``expm``."""
    stack = dense_hamiltonian_stack(hamiltonians, num_qubits)
    scales = -1j * np.asarray(durations, dtype=float)
    stack = stack * scales[:, None, None]
    if len(hamiltonians) == 1:
        return [expm(stack[0])]
    return list(expm(stack))


# ----------------------------------------------------------------------
# Statistics / configuration
# ----------------------------------------------------------------------
def simulation_cache_stats() -> Dict[str, object]:
    """Statistics of the simulation fast-path caches and counters.

    ``fast_paths`` counts evolved state *columns* per mechanism:
    ``diagonal`` (phase multiply), ``propagator`` (cached-unitary
    matmul), ``dense_build`` (freshly exponentiated dense batch),
    ``krylov`` (sparse ``expm_multiply``) and ``matrix_free`` (Pauli
    kernels + Lanczos).  ``kernel`` nests the matrix-free sign /
    structure / kernel / index cache counters.
    """
    return {
        "propagator": _propagator_cache.stats(),
        "diagonal": _diagonal_cache.stats(),
        "dense_string": _dense_string_cache.stats(),
        "kernel": kernel_cache_stats(),
        "fast_paths": _counters.snapshot(),
        "limits": dict(_limits),
    }


def clear_simulation_caches() -> None:
    """Empty every simulator cache and reset the fast-path counters.

    Covers the operator caches (:mod:`repro.sim.operators`), the
    matrix-free kernel caches (:mod:`repro.sim.kernels`) and the
    fast-path caches of this module.
    """
    for cache in (
        _operators._string_cache,
        _operators._csc_cache,
        _kernels._sign_cache,
        _kernels._structure_cache,
        _kernels._kernel_cache,
        _kernels._index_cache,
        _propagator_cache,
        _diagonal_cache,
        _dense_string_cache,
    ):
        cache.clear()
    _counters.reset()


def configure_simulation_caches(
    memory_budget_bytes: Optional[int] = None,
) -> None:
    """Set the working-set budget :func:`select_backend` plans against.

    It is the one simulator setting that depends on the host (its RAM);
    cache sizes and the other selection thresholds are fixed constants.
    ``None`` leaves the budget unchanged.
    """
    if memory_budget_bytes is not None:
        if memory_budget_bytes < 1:
            raise SimulationError(
                f"memory budget must be positive, got {memory_budget_bytes}"
            )
        _limits["memory_budget_bytes"] = int(memory_budget_bytes)
