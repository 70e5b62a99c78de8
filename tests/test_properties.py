"""Property-based tests (hypothesis) on core data structures and invariants."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.error_bounds import theorem1_bound
from repro.core.linear_system import b_difference_l1, l1_norm
from repro.core.partition import partition_channels
from repro.hamiltonian import Hamiltonian, PauliString
from repro.sim import expectation, pauli_expectation
from repro.sim.operators import hamiltonian_matrix, pauli_string_matrix

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
pauli_labels = st.sampled_from(["X", "Y", "Z"])


@st.composite
def pauli_strings(draw, max_qubits=5):
    n = draw(st.integers(min_value=0, max_value=max_qubits))
    qubits = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_qubits - 1) if max_qubits else st.nothing(),
            min_size=0,
            max_size=n,
            unique=True,
        )
    ) if max_qubits else []
    ops = {q: draw(pauli_labels) for q in qubits}
    return PauliString(ops)


@st.composite
def hamiltonians(draw, max_terms=5, max_qubits=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        string = draw(pauli_strings(max_qubits=max_qubits))
        coeff = draw(
            st.floats(
                min_value=-10, max_value=10, allow_nan=False, width=32
            )
        )
        terms[string] = coeff
    return Hamiltonian(terms)


# ----------------------------------------------------------------------
# Pauli algebra properties
# ----------------------------------------------------------------------
class TestPauliProperties:
    @given(pauli_strings(), pauli_strings())
    def test_product_phase_is_fourth_root(self, a, b):
        phase, _ = a * b
        assert phase in (1, -1, 1j, -1j)

    @given(pauli_strings())
    def test_self_product_is_identity(self, p):
        phase, result = p * p
        assert phase == 1
        assert result.is_identity

    @given(pauli_strings(), pauli_strings())
    def test_commutation_is_symmetric(self, a, b):
        assert a.commutes_with(b) == b.commutes_with(a)

    @given(pauli_strings(), pauli_strings())
    @settings(max_examples=30, deadline=None)
    def test_product_matches_matrix_product(self, a, b):
        n = max(a.max_qubit(), b.max_qubit(), 0) + 1
        if n > 4:
            return
        phase, result = a * b
        lhs = (
            pauli_string_matrix(a, n).toarray()
            @ pauli_string_matrix(b, n).toarray()
        )
        rhs = phase * pauli_string_matrix(result, n).toarray()
        assert np.allclose(lhs, rhs)

    @given(pauli_strings(), pauli_strings())
    @settings(max_examples=30, deadline=None)
    def test_commutation_matches_matrices(self, a, b):
        n = max(a.max_qubit(), b.max_qubit(), 0) + 1
        if n > 4:
            return
        ma = pauli_string_matrix(a, n).toarray()
        mb = pauli_string_matrix(b, n).toarray()
        commutes = np.allclose(ma @ mb, mb @ ma)
        assert commutes == a.commutes_with(b)


# ----------------------------------------------------------------------
# Hamiltonian vector-space properties
# ----------------------------------------------------------------------
class TestHamiltonianProperties:
    @given(hamiltonians(), hamiltonians())
    def test_addition_commutes(self, a, b):
        assert (a + b).isclose(b + a, tol=1e-6)

    @given(hamiltonians())
    def test_additive_inverse(self, h):
        assert (h - h).is_zero or (h - h).l1_norm() < 1e-6

    @given(
        hamiltonians(),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_scalar_distributes(self, h, c):
        lhs = c * (h + h)
        rhs = c * h + c * h
        assert lhs.isclose(rhs, tol=1e-5)

    @given(hamiltonians())
    def test_l1_norm_nonnegative_and_triangle(self, h):
        assert h.l1_norm() >= 0
        assert (h + h).l1_norm() <= 2 * h.l1_norm() + 1e-6

    @given(hamiltonians())
    def test_without_identity_removes_only_identity(self, h):
        stripped = h.without_identity()
        assert stripped.coefficient(PauliString.identity()) == 0.0
        for string, coeff in stripped.terms.items():
            assert coeff == pytest.approx(h.coefficient(string))


# ----------------------------------------------------------------------
# Matrix-free observables vs. the sparse matrices
# ----------------------------------------------------------------------
def _register_and_state(strings, pad, seed):
    """The smallest register ≥ ``pad`` holding ``strings``, and a random
    normalized state on it."""
    needed = max((s.max_qubit() for s in strings), default=-1) + 1
    n = max(needed, pad)
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return n, state / np.linalg.norm(state)


class TestObservableProperties:
    @given(
        pauli_strings(max_qubits=10),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pauli_expectation_matches_matrix(self, string, pad, seed):
        n, state = _register_and_state([string], pad, seed)
        matrix = pauli_string_matrix(string, n)
        expected = np.vdot(state, matrix @ state).real
        assert pauli_expectation(state, string) == pytest.approx(
            expected, abs=1e-12
        )

    @given(
        hamiltonians(max_terms=6, max_qubits=10),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_expectation_matches_matrix(self, h, pad, seed):
        n, state = _register_and_state(h.pauli_strings(), pad, seed)
        matrix = hamiltonian_matrix(h, n)
        expected = np.vdot(state, matrix @ state).real
        assert expectation(state, h) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )


# ----------------------------------------------------------------------
# Metric / bound properties
# ----------------------------------------------------------------------
class TestMetricProperties:
    @given(hamiltonians(), hamiltonians())
    def test_b_difference_is_metric_like(self, a, b):
        d_ab = b_difference_l1(a.terms, b.terms)
        d_ba = b_difference_l1(b.terms, a.terms)
        assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-9)
        assert d_ab >= 0
        assert b_difference_l1(a.terms, a.terms) == 0

    @given(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            max_size=5,
        ),
    )
    def test_theorem1_bound_nonnegative_monotone(self, norm, eps1, eps2):
        bound = theorem1_bound(norm, eps1, eps2)
        assert bound >= eps1 - 1e-12
        assert theorem1_bound(norm, eps1 + 1.0, eps2) > bound

    @given(hamiltonians())
    def test_l1_norm_ignores_identity(self, h):
        with_identity = dict(h.terms)
        with_identity[PauliString.identity()] = 99.0
        assert l1_norm(with_identity) == pytest.approx(
            l1_norm(h.terms), rel=1e-9, abs=1e-9
        )


# ----------------------------------------------------------------------
# Partition invariants
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_partition_covers_all_channels_exactly_once(self, n):
        from repro.aais import RydbergAAIS

        aais = RydbergAAIS(n)
        components = partition_channels(aais.channels)
        seen = [c.name for comp in components for c in comp.channels]
        assert sorted(seen) == sorted(c.name for c in aais.channels)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_no_variable_spans_components(self, n):
        from repro.aais import RydbergAAIS

        aais = RydbergAAIS(n)
        components = partition_channels(aais.channels)
        owner = {}
        for index, component in enumerate(components):
            for variable in component.variables:
                assert variable.name not in owner
                owner[variable.name] = index


# ----------------------------------------------------------------------
# End-to-end compiler invariants on random Ising-like targets
# ----------------------------------------------------------------------
class TestCompilerProperties:
    @given(
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=10, deadline=None)
    def test_error_within_theorem1_bound(self, j, h, t_target):
        from repro import QTurboCompiler
        from repro.aais import RydbergAAIS
        from repro.devices import paper_example_spec
        from repro.models import ising_chain

        aais = RydbergAAIS(3, spec=paper_example_spec())
        result = QTurboCompiler(aais).compile(
            ising_chain(3, j=j, h=h), t_target
        )
        assert result.success
        assert result.error_l1 <= result.error_bound + 1e-6

    @given(st.floats(min_value=0.2, max_value=2.0, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_heisenberg_always_exact(self, j):
        from repro import QTurboCompiler
        from repro.aais import HeisenbergAAIS
        from repro.models import ising_chain

        aais = HeisenbergAAIS(3)
        result = QTurboCompiler(aais).compile(ising_chain(3, j=j), 1.0)
        assert result.success
        assert result.relative_error < 1e-8

    @given(
        st.floats(min_value=0.25, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=10, deadline=None)
    def test_execution_time_scales_linearly_with_target(self, t_target):
        from repro import QTurboCompiler
        from repro.aais import RydbergAAIS
        from repro.devices import paper_example_spec
        from repro.models import ising_chain

        aais = RydbergAAIS(3, spec=paper_example_spec())
        result = QTurboCompiler(aais).compile(ising_chain(3), t_target)
        assert result.success
        # Bottleneck is the Rabi drive: T_sim = 0.8 · T_tar.
        assert result.execution_time == pytest.approx(
            0.8 * t_target, rel=1e-6
        )
