"""Unit tests for state evolution and observables."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hamiltonian import (
    Hamiltonian,
    PauliString,
    PiecewiseHamiltonian,
    x,
    z,
    zz,
)
from repro.sim import (
    evolve,
    evolve_piecewise,
    expectation,
    ground_state,
    magnetization_profile,
    pauli_expectation,
    plus_state,
    state_fidelity,
    z_average,
    zz_average,
)


class TestStates:
    def test_ground_state(self):
        state = ground_state(2)
        assert state[0] == 1.0
        assert np.allclose(np.linalg.norm(state), 1.0)

    def test_plus_state(self):
        state = plus_state(2)
        assert np.allclose(np.abs(state) ** 2, 0.25)

    def test_invalid_size(self):
        with pytest.raises(SimulationError):
            ground_state(0)


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = plus_state(2)
        assert np.allclose(evolve(state, zz(0, 1), 0.0, 2), state)

    def test_zero_hamiltonian_is_identity(self):
        state = plus_state(2)
        evolved = evolve(state, Hamiltonian.zero(), 3.0, 2)
        assert np.allclose(evolved, state)

    def test_rabi_flop(self):
        # H = X on one qubit: |0> rotates to |1> at t = π/2.
        state = evolve(ground_state(1), x(0), math.pi / 2, 1)
        assert abs(state[1]) == pytest.approx(1.0, abs=1e-9)

    def test_z_phase_invisible_to_population(self):
        state = evolve(plus_state(1), z(0), 0.7, 1)
        assert np.allclose(np.abs(state) ** 2, 0.5)

    def test_norm_preserved(self):
        h = zz(0, 1) + x(0) + 0.5 * z(1)
        state = evolve(plus_state(2), h, 2.34, 2)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            evolve(ground_state(1), x(0), -1.0, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            evolve(ground_state(2), x(0), 1.0, 3)

    def test_piecewise_matches_sequential(self):
        pw = PiecewiseHamiltonian.from_pairs(
            [(0.3, x(0)), (0.4, z(0))]
        )
        state = evolve_piecewise(ground_state(1), pw, 1)
        manual = evolve(
            evolve(ground_state(1), x(0), 0.3, 1), z(0), 0.4, 1
        )
        assert np.allclose(state, manual)

    def test_commuting_segments_merge(self):
        # Two segments of the same H equal one segment of doubled time.
        h = zz(0, 1) + x(0)
        pw = PiecewiseHamiltonian.from_pairs([(0.5, h), (0.5, h)])
        a = evolve_piecewise(plus_state(2), pw, 2)
        b = evolve(plus_state(2), h, 1.0, 2)
        assert np.allclose(a, b, atol=1e-9)


class TestObservables:
    def test_ground_state_z(self):
        assert z_average(ground_state(3)) == pytest.approx(1.0)

    def test_plus_state_z(self):
        assert z_average(plus_state(3)) == pytest.approx(0.0, abs=1e-12)

    def test_zz_average_ground(self):
        assert zz_average(ground_state(4)) == pytest.approx(1.0)

    def test_zz_average_periodic_vs_open(self):
        # |0101>: periodic pairs all anti-aligned including the wrap.
        state = np.zeros(16, dtype=complex)
        state[0b0101] = 1.0
        assert zz_average(state, periodic=True) == pytest.approx(-1.0)
        assert zz_average(state, periodic=False) == pytest.approx(-1.0)

    def test_zz_needs_two_qubits(self):
        with pytest.raises(SimulationError):
            zz_average(ground_state(1))

    def test_expectation_matches_eigenvalue(self):
        state = ground_state(2)
        assert expectation(state, zz(0, 1)) == pytest.approx(1.0)

    def test_pauli_expectation(self):
        state = plus_state(1)
        assert pauli_expectation(
            state, PauliString.single("X", 0)
        ) == pytest.approx(1.0)

    def test_magnetization_profile(self):
        state = np.zeros(4, dtype=complex)
        state[0b01] = 1.0  # qubit0=0, qubit1=1
        assert magnetization_profile(state) == pytest.approx([1.0, -1.0])

    def test_fidelity(self):
        a = ground_state(2)
        b = plus_state(2)
        assert state_fidelity(a, a) == pytest.approx(1.0)
        assert state_fidelity(a, b) == pytest.approx(0.25)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            state_fidelity(ground_state(1), ground_state(2))

    def test_bad_state_dimension(self):
        with pytest.raises(SimulationError):
            z_average(np.ones(3, dtype=complex))

    def test_averages_past_the_operator_cap(self):
        """No observable builds a matrix, so 18 qubits work (the operator
        cap is 16)."""
        n = 18
        assert z_average(ground_state(n)) == 1.0
        assert zz_average(ground_state(n)) == 1.0
        neel = np.zeros(2**n, dtype=complex)
        neel[int("10" * (n // 2), 2)] = 1.0
        assert z_average(neel) == pytest.approx(0.0, abs=1e-12)
        assert zz_average(neel) == pytest.approx(-1.0)
        assert zz_average(neel, periodic=False) == pytest.approx(-1.0)


class TestPhysics:
    def test_energy_conserved_under_own_evolution(self):
        h = zz(0, 1) + 0.7 * x(0) + 0.3 * x(1)
        state = plus_state(2)
        before = expectation(state, h)
        after = expectation(evolve(state, h, 1.7, 2), h)
        assert after == pytest.approx(before, abs=1e-9)

    def test_ising_zz_dynamics_analytic(self):
        # Under H = Z0 Z1, |++> evolves to cos(t)|++> - i sin(t) ZZ|++>,
        # so <X0> = cos(2t).
        t = 0.4
        state = evolve(plus_state(2), zz(0, 1), t, 2)
        x0 = pauli_expectation(state, PauliString.single("X", 0))
        assert x0 == pytest.approx(math.cos(2 * t), abs=1e-9)
