"""Unit tests for the Section-6.2 refinement pass."""

import pytest

from repro.core.linear_system import GlobalLinearSystem
from repro.core.refinement import refine_dynamic_alphas
from repro.models import ising_chain


@pytest.fixture
def setup(paper_aais):
    target = ising_chain(3)
    system = GlobalLinearSystem(
        paper_aais.channels, extra_terms=tuple(target.terms)
    )
    b_target = {t: c for t, c in target.terms.items() if not t.is_identity}
    solution = system.solve(b_target)
    dynamic_channels = [c for c in paper_aais.channels if c.is_dynamic]
    return paper_aais, system, b_target, solution, dynamic_channels


class TestRefinement:
    def test_paper_worked_example(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        # Emulate Section 6.2: achieved fixed synthesized values are
        # α1 = α2 = 1.001, α3 = 0.020 instead of (1, 1, 0).
        alphas = dict(solution.alphas)
        alphas["vdw_0_1"] = 1.001
        alphas["vdw_1_2"] = 1.001
        alphas["vdw_0_2"] = 0.020
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        assert refined.applied
        # Updated detuning targets: α4 = α6 = 1.021, α5 = 2.002.
        assert refined.alphas["detuning_0"] == pytest.approx(1.021, abs=1e-6)
        assert refined.alphas["detuning_1"] == pytest.approx(2.002, abs=1e-6)
        assert refined.alphas["detuning_2"] == pytest.approx(1.021, abs=1e-6)

    def test_residual_never_increases(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        alphas = dict(solution.alphas)
        alphas["vdw_0_2"] = 0.05  # inject a fixed-channel miss
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        assert refined.residual_l1_after <= refined.residual_l1_before + 1e-9

    def test_zero_residual_stays_zero(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        refined = refine_dynamic_alphas(
            system, b_target, dict(solution.alphas), dynamic_channels, 0.8
        )
        # The bounded solve is exact (ε₁ ~1e-14); refinement must not
        # regress it.
        assert refined.residual_l1_after < 1e-5

    def test_no_dynamic_channels_is_noop(self, setup):
        aais, system, b_target, solution, _ = setup
        refined = refine_dynamic_alphas(
            system, b_target, dict(solution.alphas), [], 0.8
        )
        assert not refined.applied
        assert refined.alphas == solution.alphas

    def test_respects_amplitude_bounds(self, setup):
        aais, system, b_target, solution, dynamic_channels = setup
        alphas = dict(solution.alphas)
        alphas["vdw_0_1"] = 3.0  # large fixed-channel overshoot
        refined = refine_dynamic_alphas(
            system, b_target, alphas, dynamic_channels, t_sim=0.8
        )
        if refined.applied:
            for channel in dynamic_channels:
                lo, hi = channel.expression_range()
                alpha = refined.alphas[channel.name]
                assert lo * 0.8 - 1e-6 <= alpha <= hi * 0.8 + 1e-6
