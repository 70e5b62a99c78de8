"""Matrix-free Pauli kernels: apply operators without materializing them.

The sparse layer (:mod:`repro.sim.operators`) realizes every Hamiltonian
as a kron-product CSR matrix, which caps practical registers near the
configurable operator limit.  This module exploits the *structure* of a
Pauli string instead: acting with ``P = ⊗ P_q`` on a computational-basis
state only ever permutes basis indices and multiplies signs/phases, so
``P |ψ⟩`` is one XOR-indexed gather plus an elementwise multiply —
``O(2^N)`` work and memory per term, never ``O(4^N)`` and never a matrix.

With qubit 0 as the most significant bit (the convention of
:mod:`repro.sim.operators` and :mod:`repro.sim.sampling`), a string with
X-support ``m_x``, Y-support ``m_y`` and Z-support ``m_z`` (bit masks
over basis indices) acts as::

    (P ψ)[j] = (−i)^{|Y|} · (−1)^{parity(j & (m_z | m_y))} · ψ[j ^ (m_x | m_y)]

A Hamiltonian kernel groups its all-Z terms into one precomputed real
diagonal and keeps one ``(flip mask, phase, sign vector)`` triple per
off-diagonal term.  Per-mask sign vectors and per-term-structure layouts
are memoized in process-wide LRUs (:func:`kernel_cache_stats`), so noise
realizations that share a Pauli support but differ in coefficients reuse
every index-arithmetic artifact.

On top of the kernels, two Hermitian propagators replace
``scipy.sparse.linalg.expm_multiply``:

* :func:`lanczos_expm_multiply` — Krylov projection with adaptive
  sub-stepping and a residual-based error estimate; spectrally
  adaptive, best for short segments, works through any Hermitian
  :class:`scipy.sparse.linalg.LinearOperator`.
* :func:`chebyshev_expm_multiply` — a Chebyshev polynomial expansion of
  ``exp(−i H t)`` inside the kernel's rigorous spectral bounds (exact
  diagonal range ± the off-diagonal ℓ1 norm).  Deterministic
  ``≈ ρ·t`` matvec count, O(1) auxiliary vectors, and it propagates a
  whole ``(2^N, k)`` block per recurrence step — the workhorse for
  long segments and wide blocks.

:func:`expm_multiply_matrix_free` picks between them per segment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy.linalg import blas, eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator

from repro.errors import SimulationError
from repro.hamiltonian.expression import Hamiltonian
from repro.hamiltonian.pauli import PauliString
from repro.sim.operators import MatrixCache

__all__ = [
    "HamiltonianKernel",
    "hamiltonian_kernel",
    "apply_pauli_string",
    "apply_hamiltonian",
    "lanczos_expm_multiply",
    "chebyshev_expm_multiply",
    "expm_multiply_matrix_free",
    "kernel_cache_stats",
    "DEFAULT_MAX_KRYLOV_DIM",
]

#: Cache capacities (entries, not bytes).  A sign vector costs ``2^N``
#: bytes (int8) and a structure holds one per term, so these are
#: deliberately small next to the matrix caches.
SIGN_CACHE_SIZE = 128
STRUCTURE_CACHE_SIZE = 16
KERNEL_CACHE_SIZE = 16

#: Largest Krylov basis :func:`lanczos_expm_multiply` builds per step.
DEFAULT_MAX_KRYLOV_DIM = 30

#: Default relative tolerance of the matrix-free propagators.
DEFAULT_LANCZOS_TOL = 1e-10

#: Below this phase span (spectral radius × duration) the adaptive
#: Lanczos propagator typically needs fewer matvecs than the Chebyshev
#: expansion's fixed ``≈ span + tail`` count; above it (or for blocks,
#: which Chebyshev pushes through one recurrence) Chebyshev wins.
CHEBYSHEV_MIN_PHASE_SPAN = 12.0

#: Bit-mask index arithmetic uses uint32 basis indices.
_MAX_KERNEL_QUBITS = 31

_sign_cache = MatrixCache(SIGN_CACHE_SIZE)
_structure_cache = MatrixCache(STRUCTURE_CACHE_SIZE)
_kernel_cache = MatrixCache(KERNEL_CACHE_SIZE)

#: Shared basis-index arrays (``np.arange(2^N)``), keyed on N.  Tiny
#: entry count — each array is 4·2^N bytes and every term reuses it.
_index_cache = MatrixCache(4)


def _check_num_qubits(num_qubits: int) -> None:
    if num_qubits < 1:
        raise SimulationError("kernel needs at least 1 qubit")
    if num_qubits > _MAX_KERNEL_QUBITS:
        raise SimulationError(
            f"matrix-free kernels index basis states as uint32 "
            f"(≤ {_MAX_KERNEL_QUBITS} qubits), got {num_qubits}"
        )


def _index(num_qubits: int) -> np.ndarray:
    """The shared ``arange(2^N)`` basis-index array (uint32)."""
    cached = _index_cache.get(num_qubits)
    if cached is None:
        cached = np.arange(1 << num_qubits, dtype=np.uint32)
        _index_cache.put(num_qubits, cached)
    return cached


def _parity(values: np.ndarray) -> np.ndarray:
    """Bitwise parity of each uint32 entry (0 or 1)."""
    values = values.copy()
    for shift in (16, 8, 4, 2, 1):
        values ^= values >> np.uint32(shift)
    return (values & np.uint32(1)).astype(np.int8)


def _sign_vector(mask: int, num_qubits: int) -> Optional[np.ndarray]:
    """``(−1)^{parity(j & mask)}`` over all basis indices, as int8.

    Returns None for ``mask == 0`` (all ones) so callers can skip the
    multiply entirely.  Cached per ``(mask, N)`` — Z/Y supports recur
    across every noise realization of a schedule segment.
    """
    if mask == 0:
        return None
    key = (mask, num_qubits)
    cached = _sign_cache.get(key)
    if cached is None:
        parity = _parity(_index(num_qubits) & np.uint32(mask))
        cached = (1 - 2 * parity).astype(np.int8)
        _sign_cache.put(key, cached)
    return cached


def _string_masks(
    ops: Tuple[Tuple[int, str], ...], num_qubits: int
) -> Tuple[int, int, int]:
    """``(flip_mask, zy_mask, n_y)`` of a canonical Pauli-ops tuple."""
    flip = 0
    zy = 0
    n_y = 0
    for qubit, label in ops:
        if qubit >= num_qubits:
            raise SimulationError(
                f"string {PauliString(dict(ops))} touches qubit {qubit} "
                f"but the register has only {num_qubits} qubits"
            )
        bit = 1 << (num_qubits - 1 - qubit)
        if label == "X":
            flip |= bit
        elif label == "Y":
            flip |= bit
            zy |= bit
            n_y += 1
        else:  # "Z"
            zy |= bit
    return flip, zy, n_y


# ``(−i)^{n_y}`` — the constant phase collected when rewriting
# ``φ(j ^ m)`` in terms of the output index j (see module docstring).
_GAMMA = (1.0, -1.0j, -1.0, 1.0j)


_REVERSED = slice(None, None, -1)
_FULL = slice(None)


def _flip_slices(mask: int, num_qubits: int) -> Tuple[slice, ...]:
    """Per-axis slices realizing ``j → j ^ mask`` on a ``(2,)*N`` view.

    XOR-ing a basis index by ``mask`` reverses exactly the qubit axes
    inside the mask, so the permuted state is a *strided view* — copying
    it beats a fancy-index gather on every mask shape (the view copy
    coalesces the contiguous trailing axes; a gather resolves 2^N
    arbitrary indices).
    """
    return tuple(
        _REVERSED if (mask >> (num_qubits - 1 - axis)) & 1 else _FULL
        for axis in range(num_qubits)
    )


class _KernelStructure:
    """Coefficient-independent layout of one Pauli-term set.

    ``diagonal`` holds ``(slot, sign_vector)`` pairs for all-Z terms
    (``sign_vector`` is None for the identity string); ``offdiag`` holds
    ``(slot, flip_slices, gamma0, sign_vector)`` for everything else,
    where ``flip_slices`` realizes the term's XOR permutation as a
    strided view on the ``(2,)*N`` tensor form of the state.  ``slot``
    indexes the coefficient vector aligned with the sorted string order
    of :meth:`Hamiltonian.pauli_strings`.
    """

    __slots__ = ("num_qubits", "diagonal", "offdiag")

    def __init__(
        self,
        strings: Tuple[Tuple[Tuple[int, str], ...], ...],
        num_qubits: int,
    ):
        self.num_qubits = num_qubits
        self.diagonal: List[Tuple[int, Optional[np.ndarray]]] = []
        self.offdiag: List[
            Tuple[int, Tuple[slice, ...], complex, Optional[np.ndarray]]
        ] = []
        for slot, ops in enumerate(strings):
            flip, zy, n_y = _string_masks(ops, num_qubits)
            if flip == 0:
                self.diagonal.append((slot, _sign_vector(zy, num_qubits)))
            else:
                self.offdiag.append(
                    (
                        slot,
                        _flip_slices(flip, num_qubits),
                        _GAMMA[n_y % 4],
                        _sign_vector(zy, num_qubits),
                    )
                )


def _structure_for(
    strings: Tuple[Tuple[Tuple[int, str], ...], ...], num_qubits: int
) -> _KernelStructure:
    """Cached coefficient-independent structure of a string set.

    Always memoized (like the per-string basis caches of the sparse
    layer): noise realizations share one support and must not rebuild
    sign vectors per realization.
    """
    key = (strings, num_qubits)
    cached = _structure_cache.get(key)
    if cached is None:
        cached = _KernelStructure(strings, num_qubits)
        _structure_cache.put(key, cached)
    return cached


class HamiltonianKernel:
    """Matrix-free application of ``H = Σ c_s P_s`` to state blocks.

    Parameters
    ----------
    hamiltonian:
        The Pauli-sum Hamiltonian (real coefficients, so the operator is
        Hermitian).
    num_qubits:
        Register size; every string must fit inside it.

    Notes
    -----
    Construction touches only ``O(terms · 2^N)`` memory: one real
    diagonal vector for the all-Z part and one int8 sign vector per
    off-diagonal term (shared through the process-wide sign cache).  The
    ``4^N`` matrix is never formed.
    """

    __slots__ = (
        "num_qubits",
        "dim",
        "num_terms",
        "_diagonal",
        "_offdiag",
        "_offdiag_l1",
    )

    def __init__(self, hamiltonian: Hamiltonian, num_qubits: int):
        _check_num_qubits(num_qubits)
        self.num_qubits = num_qubits
        self.dim = 1 << num_qubits
        strings = hamiltonian.pauli_strings()
        self.num_terms = len(strings)
        structure = _structure_for(
            tuple(s.canonical_key for s in strings), num_qubits
        )
        coefficients = [hamiltonian.coefficient(s) for s in strings]

        self._diagonal: Optional[np.ndarray] = None
        if structure.diagonal:
            diagonal = np.zeros(self.dim, dtype=float)
            for slot, sign in structure.diagonal:
                if sign is None:
                    diagonal += coefficients[slot]
                else:
                    diagonal += coefficients[slot] * sign
            self._diagonal = diagonal

        self._offdiag: List[
            Tuple[Tuple[slice, ...], complex, Optional[np.ndarray]]
        ] = [
            (slices, gamma0 * coefficients[slot], sign)
            for slot, slices, gamma0, sign in structure.offdiag
        ]
        self._offdiag_l1 = float(
            sum(abs(coefficients[slot]) for slot, _, _, _ in structure.offdiag)
        )

    # ------------------------------------------------------------------
    @property
    def is_diagonal(self) -> bool:
        """True when every term is all-Z (the kernel is a diagonal)."""
        return not self._offdiag

    def _coerce(self, states: np.ndarray) -> np.ndarray:
        """Validate and return a C-contiguous complex view of ``states``."""
        states = np.ascontiguousarray(states, dtype=complex)
        if states.shape[0] != self.dim:
            raise SimulationError(
                f"state has leading dimension {states.shape[0]}, kernel "
                f"expects 2^{self.num_qubits}"
            )
        return states

    def _tensor_shape(self, states: np.ndarray) -> Tuple[int, ...]:
        """The ``(2,)*N (+ columns)`` view shape for flip slicing."""
        shape: Tuple[int, ...] = (2,) * self.num_qubits
        if states.ndim == 2:
            shape += (states.shape[1],)
        return shape

    def _apply_offdiag(
        self,
        states: np.ndarray,
        out: np.ndarray,
        buf: np.ndarray,
        scale: complex = 1.0,
    ) -> None:
        """``out += scale · H_offdiag @ states`` with a reused scratch.

        Each term is one strided view-copy (the XOR permutation), an
        optional in-place sign multiply, and a BLAS ``zaxpy`` — no
        temporaries, no fancy-index gathers.
        """
        shape = self._tensor_shape(states)
        source = states.reshape(shape)
        target = buf.reshape(shape)
        column = states.ndim == 1
        flat_buf = buf.reshape(-1)
        flat_out = out.reshape(-1)
        for slices, gamma, sign in self._offdiag:
            if not column:
                slices = slices + (_FULL,)
            np.copyto(target, source[slices])
            if sign is not None:
                np.multiply(
                    buf, sign if column else sign[:, None], out=buf
                )
            blas.zaxpy(flat_buf, flat_out, a=scale * gamma)

    def apply(self, states: np.ndarray) -> np.ndarray:
        """``H @ states`` for a ``(2^N,)`` vector or ``(2^N, k)`` block."""
        states = self._coerce(states)
        column = states.ndim == 1
        if self._diagonal is not None:
            out = states * (
                self._diagonal if column else self._diagonal[:, None]
            )
        else:
            out = np.zeros_like(states)
        if self._offdiag:
            self._apply_offdiag(states, out, np.empty_like(states))
        return out

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """Alias for :meth:`apply` (lets the kernel act as a matvec)."""
        return self.apply(states)

    def as_linear_operator(self) -> LinearOperator:
        """The kernel as a Hermitian :class:`LinearOperator`.

        ``rmatvec`` is the forward application: coefficients are real,
        so ``H† = H``.
        """
        return LinearOperator(
            shape=(self.dim, self.dim),
            matvec=self.apply,
            rmatvec=self.apply,
            matmat=self.apply,
            dtype=complex,
        )

    def spectral_bounds(self) -> Tuple[float, float]:
        """Rigorous eigenvalue bounds ``[lo, hi]``.

        The diagonal part is known exactly; the off-diagonal part is a
        sum of unit-norm Pauli strings, so its 2-norm is at most the ℓ1
        norm of its coefficients (Gershgorin-style).  Used by
        propagators to bound step sizes.
        """
        if self._diagonal is not None:
            lo = float(self._diagonal.min())
            hi = float(self._diagonal.max())
        else:
            lo = hi = 0.0
        return lo - self._offdiag_l1, hi + self._offdiag_l1


def hamiltonian_kernel(
    hamiltonian: Hamiltonian, num_qubits: int, cache: bool = True
) -> HamiltonianKernel:
    """A (memoized) :class:`HamiltonianKernel` for ``hamiltonian``.

    With ``cache=False`` the assembled kernel is not stored under the
    Hamiltonian's canonical key (one-shot noise realizations), but the
    coefficient-independent structure and sign vectors still come from
    — and fill — the shared caches.
    """
    key = (hamiltonian.canonical_key(), num_qubits)
    if cache:
        cached = _kernel_cache.get(key)
        if cached is not None:
            return cached
    kernel = HamiltonianKernel(hamiltonian, num_qubits)
    if cache:
        _kernel_cache.put(key, kernel)
    return kernel


def apply_pauli_string(
    string: PauliString,
    states: np.ndarray,
    num_qubits: int,
    coeff: complex = 1.0,
) -> np.ndarray:
    """``coeff · P @ states`` via bit-mask index arithmetic (no matrix)."""
    _check_num_qubits(num_qubits)
    states = np.asarray(states, dtype=complex)
    if states.shape[0] != 1 << num_qubits:
        raise SimulationError(
            f"state has leading dimension {states.shape[0]}, expected "
            f"2^{num_qubits}"
        )
    flip, zy, n_y = _string_masks(string.canonical_key, num_qubits)
    gamma = coeff * _GAMMA[n_y % 4]
    sign = _sign_vector(zy, num_qubits)
    column = states.ndim == 1
    if flip:
        out = states[_index(num_qubits) ^ np.uint32(flip)]
    else:
        out = states.copy()
    if sign is not None:
        out = out * (sign if column else sign[:, None])
    return gamma * out


def apply_hamiltonian(
    hamiltonian: Hamiltonian, states: np.ndarray, num_qubits: int
) -> np.ndarray:
    """``H @ states`` through a (cached) matrix-free kernel."""
    return hamiltonian_kernel(hamiltonian, num_qubits).apply(states)


# ----------------------------------------------------------------------
# Lanczos propagator
# ----------------------------------------------------------------------
def _small_expm_factors(
    alphas: List[float], betas: List[float], order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the ``order``-dim Lanczos tridiagonal."""
    if order == 1:
        return np.array([alphas[0]]), np.ones((1, 1))
    return eigh_tridiagonal(
        np.asarray(alphas[:order]), np.asarray(betas[: order - 1])
    )


def _lanczos_step(
    matvec: Callable[[np.ndarray], np.ndarray],
    vector: np.ndarray,
    max_dim: int,
) -> Tuple[List[np.ndarray], List[float], List[float], bool]:
    """One Hermitian Lanczos factorization from ``vector`` (unit norm).

    Returns ``(basis, alphas, betas, happy)``; with a happy breakdown
    the Krylov space is exact and ``betas`` has one entry fewer than
    ``alphas``, otherwise ``betas[-1]`` is the residual coupling
    ``h_{m+1,m}`` that feeds the error estimate.  One full
    reorthogonalization pass per iteration keeps the basis orthogonal
    to the tolerances the propagator targets (~1e-10).
    """
    basis = [vector]
    alphas: List[float] = []
    betas: List[float] = []
    for j in range(max_dim):
        w = matvec(basis[j])
        alpha = float(np.real(np.vdot(basis[j], w)))
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[-1] * basis[j - 1]
        for prior in basis:
            w -= np.vdot(prior, w) * prior
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta <= 1e-13 * max(1.0, abs(alpha)):
            return basis, alphas, betas, True
        betas.append(beta)
        if j + 1 < max_dim:
            basis.append(w / beta)
    return basis, alphas, betas, False


def _lanczos_expm_column(
    matvec: Callable[[np.ndarray], np.ndarray],
    vector: np.ndarray,
    duration: float,
    tol: float,
    max_dim: int,
) -> np.ndarray:
    """``exp(−i H t) |v⟩`` by restarted Lanczos with adaptive steps."""
    norm0 = float(np.linalg.norm(vector))
    if norm0 == 0.0 or duration == 0.0:
        return np.array(vector, dtype=complex, copy=True)
    dim = vector.shape[0]
    cap = max(2, min(max_dim, dim))
    current = np.asarray(vector, dtype=complex)
    done = 0.0
    while done < duration * (1.0 - 1e-14):
        beta0 = float(np.linalg.norm(current))
        if beta0 == 0.0:
            return current
        basis, alphas, betas, happy = _lanczos_step(
            matvec, current / beta0, cap
        )
        order = len(alphas)
        eigenvalues, rotation = _small_expm_factors(alphas, betas, order)
        first_row = rotation[0, :]
        step = duration - done
        while True:
            small = rotation @ (np.exp(-1j * step * eigenvalues) * first_row)
            if happy or order == dim:
                break
            # Saad's residual estimate for the Krylov exp approximation;
            # the basis is reused, only the (cheap) small exponential is
            # recomputed as the step shrinks.
            residual = betas[order - 1] * abs(small[-1])
            if residual <= tol * max(step / duration, 1e-3):
                break
            # Underflow guard: accept the current step (whose ``small``
            # was just computed — step and propagator must stay
            # consistent) rather than halving forever.
            if step <= duration * 2e-12:
                break
            step *= 0.5
        fresh = small[0] * basis[0]
        for index in range(1, order):
            fresh += small[index] * basis[index]
        current = beta0 * fresh
        done += step
    return current


def lanczos_expm_multiply(
    operator: Union[LinearOperator, HamiltonianKernel, Callable],
    states: np.ndarray,
    duration: float,
    tol: float = DEFAULT_LANCZOS_TOL,
    max_krylov: Optional[int] = None,
) -> np.ndarray:
    """``exp(−i A t) @ states`` for a Hermitian operator, matrix-free.

    Parameters
    ----------
    operator:
        A Hermitian :class:`scipy.sparse.linalg.LinearOperator`, a
        :class:`HamiltonianKernel`, or any matvec callable.
    states:
        A ``(dim,)`` vector or ``(dim, k)`` block; columns propagate
        independently (each gets its own Krylov space).
    duration:
        Evolution time ``t`` (must be ≥ 0; the ``−i`` is implied).
    tol:
        Relative accuracy target, accumulated across sub-steps.
    max_krylov:
        Largest Krylov basis per sub-step (default
        :data:`DEFAULT_MAX_KRYLOV_DIM`); the basis is the propagator's
        only super-linear memory use, ``max_krylov · 2^N · 16`` bytes.
    """
    if duration < 0:
        raise SimulationError(f"negative duration {duration}")
    if isinstance(operator, HamiltonianKernel):
        matvec = operator.apply
    elif isinstance(operator, LinearOperator):
        matvec = lambda v: operator.matvec(v)  # noqa: E731
    else:
        matvec = operator
    states = np.asarray(states, dtype=complex)
    cap = max_krylov if max_krylov is not None else DEFAULT_MAX_KRYLOV_DIM
    if states.ndim == 1:
        return _lanczos_expm_column(matvec, states, duration, tol, cap)
    out = np.empty_like(states)
    for col in range(states.shape[1]):
        out[:, col] = _lanczos_expm_column(
            matvec, states[:, col], duration, tol, cap
        )
    return out


def _chebyshev_coefficients(
    span: float, tol: float
) -> np.ndarray:
    """Coefficients ``(2−δ_{k0})(−i)^k J_k(span)`` truncated at ``tol``.

    The Bessel magnitudes decay superexponentially once ``k > span``;
    the series is cut when the running tail drops below ``tol``.
    """
    from scipy.special import jv

    length = int(span + 12 + 4.0 * max(span, 1.0) ** (1.0 / 3.0))
    while True:
        orders = np.arange(length)
        bessel = jv(orders, span)
        tails = np.cumsum(np.abs(bessel[::-1]))[::-1]
        cut = np.nonzero(2.0 * tails <= tol)[0]
        if cut.size:
            count = max(2, int(cut[0]))
            break
        length *= 2
        if length > 200_000:  # pragma: no cover — absurd span guard
            count = len(orders)
            break
    coefficients = 2.0 * (-1j) ** (orders[:count] % 4) * bessel[:count]
    coefficients[0] /= 2.0
    return coefficients


def chebyshev_expm_multiply(
    kernel: HamiltonianKernel,
    states: np.ndarray,
    duration: float,
    tol: float = DEFAULT_LANCZOS_TOL,
) -> np.ndarray:
    """``exp(−i H t) @ states`` by Chebyshev expansion, matrix-free.

    ``H`` is shifted and scaled into ``[−1, 1]`` using the kernel's
    rigorous spectral bounds, then ``exp(−i a x)`` is expanded in
    Chebyshev polynomials with Bessel-function coefficients.  The
    three-term recurrence needs a fixed ``≈ a = ρ·t`` matvecs, keeps
    only three auxiliary blocks, and pushes every column of a
    ``(2^N, k)`` block through each step at once — unlike the per-column
    Krylov spaces of :func:`lanczos_expm_multiply`.
    """
    if duration < 0:
        raise SimulationError(f"negative duration {duration}")
    states = kernel._coerce(states)
    lo, hi = kernel.spectral_bounds()
    shift = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo)
    span = radius * duration
    if span == 0.0:
        return np.exp(-1j * shift * duration) * states
    coefficients = _chebyshev_coefficients(span, tol)
    inv_radius = 1.0 / radius

    # Precompute the scaled diagonal of H̃ = (H − shift)/radius once;
    # every recurrence step then costs one diagonal multiply, one
    # view-copy + zaxpy per off-diagonal term, and two axpys — all into
    # reused buffers (5 blocks total, independent of the step count).
    column = states.ndim == 1
    if kernel._diagonal is not None:
        scaled_diagonal = (kernel._diagonal - shift) * inv_radius
    else:
        scaled_diagonal = np.full(kernel.dim, -shift * inv_radius)
    diagonal_b = scaled_diagonal if column else scaled_diagonal[:, None]

    def scaled_matvec(block: np.ndarray, out: np.ndarray) -> None:
        np.multiply(block, diagonal_b, out=out)
        kernel._apply_offdiag(block, out, scratch, scale=inv_radius)

    previous = states.copy()
    current = np.empty_like(states)
    work = np.empty_like(states)
    scratch = np.empty_like(states)
    scaled_matvec(previous, current)
    accumulated = coefficients[0] * previous
    flat_acc = accumulated.reshape(-1)
    blas.zaxpy(current.reshape(-1), flat_acc, a=coefficients[1])
    for coefficient in coefficients[2:]:
        scaled_matvec(current, work)
        # next = 2·work − previous, written into the previous buffer.
        np.multiply(previous, -1.0, out=previous)
        blas.zaxpy(work.reshape(-1), previous.reshape(-1), a=2.0)
        previous, current = current, previous
        blas.zaxpy(current.reshape(-1), flat_acc, a=coefficient)
    accumulated *= np.exp(-1j * shift * duration)
    return accumulated


def expm_multiply_matrix_free(
    hamiltonian: Hamiltonian,
    states: np.ndarray,
    duration: float,
    num_qubits: int,
    cache: bool = True,
    tol: float = DEFAULT_LANCZOS_TOL,
    max_krylov: Optional[int] = None,
) -> np.ndarray:
    """``exp(−i H t) @ states`` without ever materializing ``H``.

    Builds (or reuses) the :class:`HamiltonianKernel` for
    ``hamiltonian`` and picks the propagator per segment: all-Z kernels
    collapse to a phase multiply; short phase spans take the adaptive
    Lanczos path; long spans and multi-column blocks take the Chebyshev
    recurrence.  This is the ``backend="matrix_free"`` entry point of
    the evolution engine.
    """
    kernel = hamiltonian_kernel(hamiltonian, num_qubits, cache=cache)
    states = np.asarray(states, dtype=complex)
    if states.shape[0] != kernel.dim:
        raise SimulationError(
            f"state has leading dimension {states.shape[0]}, expected "
            f"2^{num_qubits}"
        )
    if kernel.is_diagonal:
        # Degenerate case: the whole Hamiltonian is a phase multiply.
        diagonal = (
            kernel._diagonal
            if kernel._diagonal is not None
            else np.zeros(kernel.dim)
        )
        phase = np.exp(-1j * duration * diagonal)
        return states * (phase if states.ndim == 1 else phase[:, None])
    lo, hi = kernel.spectral_bounds()
    span = 0.5 * (hi - lo) * duration
    columns = 1 if states.ndim == 1 else states.shape[1]
    if span >= CHEBYSHEV_MIN_PHASE_SPAN or columns > 1:
        return chebyshev_expm_multiply(kernel, states, duration, tol=tol)
    return lanczos_expm_multiply(
        kernel, states, duration, tol=tol, max_krylov=max_krylov
    )


# ----------------------------------------------------------------------
# Cache statistics
# ----------------------------------------------------------------------
def kernel_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of the matrix-free kernel caches."""
    return {
        "sign": _sign_cache.stats(),
        "structure": _structure_cache.stats(),
        "kernel": _kernel_cache.stats(),
    }

