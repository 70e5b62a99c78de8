"""Unit tests for the global linear equation system (Section 4.1)."""

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from repro.aais import HeisenbergAAIS, aais_for_device
from repro.aais.channels import ScaledVariableChannel
from repro.aais.variables import Variable, VariableKind
from repro.core import linear_system
from repro.core.linear_system import (
    GlobalLinearSystem,
    b_difference_l1,
    l1_norm,
)
from repro.errors import CompilationError
from repro.hamiltonian import PauliString
from repro.models import build_model, ising_chain, model_names


@pytest.fixture
def paper_system(paper_aais):
    target = ising_chain(3)
    return (
        GlobalLinearSystem(
            paper_aais.channels, extra_terms=tuple(target.terms)
        ),
        target,
    )


class TestStructure:
    def test_rows_are_union_of_terms(self, paper_system):
        system, _target = paper_system
        terms = set(system.terms)
        # 3 ZZ pairs + 3 Z + 3 X + 3 Y = 12 rows, identity excluded.
        assert len(terms) == 12
        assert PauliString.identity() not in terms

    def test_columns_match_channels(self, paper_aais, paper_system):
        system, _ = paper_system
        assert system.matrix.shape == (12, len(paper_aais.channels))

    def test_matrix_entries_match_paper_signs(self, paper_aais, paper_system):
        system, _ = paper_system
        z1 = PauliString.single("Z", 0)
        row = system.terms.index(z1)
        col_vdw = system.channel_names.index("vdw_0_1")
        col_det = system.channel_names.index("detuning_0")
        dense = system.matrix.toarray()
        assert dense[row, col_vdw] == -1.0
        assert dense[row, col_det] == 1.0

    def test_matrix_l1_norm_is_max_column_sum(self, paper_system):
        system, _ = paper_system
        dense = np.abs(system.matrix.toarray())
        assert system.matrix_l1_norm() == pytest.approx(
            dense.sum(axis=0).max()
        )

    def test_is_bounded_for_rydberg(self, paper_system):
        system, _ = paper_system
        assert system.is_bounded  # van der Waals α ≥ 0

    def test_unbounded_for_heisenberg(self):
        aais = HeisenbergAAIS(3)
        system = GlobalLinearSystem(aais.channels)
        assert not system.is_bounded


class TestSolve:
    def test_paper_alphas(self, paper_system):
        system, target = paper_system
        b = {t: c for t, c in target.terms.items()}
        solution = system.solve(b)
        a = solution.alphas
        # Equation (5)'s solution.
        assert a["vdw_0_1"] == pytest.approx(1.0, abs=1e-6)
        assert a["vdw_1_2"] == pytest.approx(1.0, abs=1e-6)
        assert a["vdw_0_2"] == pytest.approx(0.0, abs=1e-6)
        assert a["detuning_0"] == pytest.approx(1.0, abs=1e-6)
        assert a["detuning_1"] == pytest.approx(2.0, abs=1e-6)
        assert a["detuning_2"] == pytest.approx(1.0, abs=1e-6)
        assert a["rabi_cos_0"] == pytest.approx(1.0, abs=1e-6)
        assert a["rabi_sin_0"] == pytest.approx(0.0, abs=1e-6)
        # A consistent square bounded system is solved to rounding.
        assert system.matrix.shape[0] == system.matrix.shape[1]
        assert solution.residual_l1 < 1e-12

    def test_scales_with_duration(self, paper_system):
        system, target = paper_system
        b2 = {t: 2 * c for t, c in target.terms.items()}
        solution = system.solve(b2)
        assert solution.alphas["detuning_1"] == pytest.approx(4.0, abs=1e-6)

    def test_negative_vdw_target_clipped_to_bound(self, paper_aais):
        system = GlobalLinearSystem(paper_aais.channels)
        zz = PauliString.from_pairs([(0, "Z"), (1, "Z")])
        solution = system.solve({zz: -1.0})
        # A repulsive interaction cannot produce a negative ZZ weight.
        assert solution.alphas["vdw_0_1"] >= -1e-9
        assert solution.residual_l1 > 0.5

    def test_unreachable_terms_reported(self, paper_aais):
        system = GlobalLinearSystem(
            paper_aais.channels,
            extra_terms=(PauliString.from_pairs([(0, "X"), (1, "X")]),),
        )
        xx = PauliString.from_pairs([(0, "X"), (1, "X")])
        solution = system.solve({xx: 1.0})
        assert xx in solution.unreachable_terms
        assert solution.residual_l1 == pytest.approx(1.0)

    def test_achieved_b_roundtrip(self, paper_system):
        system, target = paper_system
        b = dict(target.terms)
        solution = system.solve(b)
        achieved = system.achieved_b(solution.alphas)
        for term, value in b.items():
            if term.is_identity:
                continue
            assert achieved[term] == pytest.approx(value, abs=1e-6)

    def test_residual_vector_zero_at_solution(self, paper_system):
        system, target = paper_system
        solution = system.solve(dict(target.terms))
        residual = system.residual_vector(solution.alphas, dict(target.terms))
        assert np.abs(residual).max() < 1e-6

    def test_columns_submatrix(self, paper_system):
        system, _ = paper_system
        sub = system.columns(["detuning_0", "detuning_1"])
        assert sub.shape == (12, 2)

    def test_columns_unknown_channel(self, paper_system):
        from repro.errors import CompilationError

        system, _ = paper_system
        with pytest.raises(CompilationError):
            system.columns(["nope"])

    def test_alpha_vector_ordering(self, paper_system):
        system, target = paper_system
        solution = system.solve(dict(target.terms))
        vec = solution.alpha_vector(system.channel_names)
        assert len(vec) == len(system.channel_names)


def _bounds(system):
    return np.array([c.alpha_bounds() for c in system.channels]).T


def _trf_reference(system, b):
    """The sparse TRF/LSMR bounded solve, at a tight tolerance."""
    vector = system.target_vector(b)
    result = lsq_linear(system.matrix, vector, bounds=_bounds(system), tol=1e-15)
    return result.x, float(np.abs(system.matrix @ result.x - vector).sum())


def _coupled_nonnegative_system():
    """Six overlapping α ≥ 0 columns over eight rows, with a target that
    leaves several bounds active after BVLS's initial clipping, so the
    solve needs more than one active-set iteration."""
    rng = np.random.default_rng(2)
    terms = [PauliString.single("Z", q) for q in range(8)]
    channels = [
        ScaledVariableChannel(
            f"c{k}",
            Variable(f"a{k}", VariableKind.DYNAMIC, 0.0, 10.0),
            1.0,
            dict(zip(terms, rng.uniform(-1, 1, size=8))),
        )
        for k in range(6)
    ]
    system = GlobalLinearSystem(channels)
    return system, dict(zip(system.terms, rng.uniform(-1, 1, size=8)))


def _model_case(model, device):
    target = build_model(model, 5)
    system = GlobalLinearSystem(
        aais_for_device(device, 5).channels, extra_terms=tuple(target.terms)
    )
    return system, {t: c for t, c in target.terms.items() if not t.is_identity}


class TestBoundedSolve:
    """The dense BVLS solve against the sparse TRF solve it replaced."""

    @pytest.mark.parametrize("device", ["rydberg", "rydberg-1d", "aquila"])
    @pytest.mark.parametrize("model", model_names())
    def test_matches_tight_trf_reference(self, model, device):
        system, b = _model_case(model, device)
        self._check_against_reference(system, b)

    def test_coupled_bounds_match_reference(self):
        system, b = _coupled_nonnegative_system()
        solution = self._check_against_reference(system, b)
        assert 0.0 in solution.alphas.values()  # some bound is active

    @staticmethod
    def _check_against_reference(system, b):
        assert system.is_bounded
        solution = system.solve(b)
        alpha = solution.alpha_vector(system.channel_names)
        lower, upper = _bounds(system)
        assert np.all(alpha >= lower) and np.all(alpha <= upper)
        reference, reference_l1 = _trf_reference(system, b)
        assert solution.residual_l1 <= reference_l1 + 1e-12
        np.testing.assert_allclose(alpha, reference, rtol=0, atol=1e-6)
        return solution

    def test_unbounded_system_uses_pseudoinverse(self):
        target = ising_chain(3)
        system = GlobalLinearSystem(
            HeisenbergAAIS(3).channels, extra_terms=tuple(target.terms)
        )
        b = dict(target.terms)
        expected = system.pseudoinverse() @ system.target_vector(b)
        expected = np.where(np.abs(expected) < 1e-12, 0.0, expected)
        alpha = system.solve(b).alpha_vector(system.channel_names)
        assert np.array_equal(alpha, expected)

    def test_iteration_cap_raises(self, monkeypatch):
        system, b = _coupled_nonnegative_system()
        system.solve(b)  # converges under the default cap
        monkeypatch.setattr(linear_system, "_MAX_ITER", 1)
        with pytest.raises(CompilationError, match="did not converge"):
            system.solve(b)


class TestNormHelpers:
    def test_l1_norm_skips_identity(self):
        values = {
            PauliString.identity(): 100.0,
            PauliString.single("X", 0): -2.0,
        }
        assert l1_norm(values) == 2.0

    def test_b_difference(self):
        a = {PauliString.single("X", 0): 1.0}
        b = {PauliString.single("X", 0): 0.25,
             PauliString.single("Z", 1): 0.5}
        assert b_difference_l1(a, b) == pytest.approx(1.25)

    def test_b_difference_identity_ignored(self):
        a = {PauliString.identity(): 5.0}
        assert b_difference_l1(a, {}) == 0.0
