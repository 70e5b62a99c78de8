"""Integration-level tests of the QTurbo compiler pipeline."""


import pytest

from repro import QTurboCompiler
from repro.aais import HeisenbergAAIS, RydbergAAIS
from repro.devices import HeisenbergSpec, aquila_spec
from repro.errors import CompilationError
from repro.hamiltonian import PiecewiseHamiltonian, x, zz
from repro.models import (
    heisenberg_chain,
    ising_chain,
    ising_cycle,
    kitaev_chain,
    mis_chain,
    pxp_chain,
)


class TestRydbergCompilation:
    def test_paper_worked_example(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        assert result.success
        assert result.execution_time == pytest.approx(0.8)
        values = result.segments[0].values
        # Section 5's solution (post-refinement, Section 6.2).
        assert values["omega_0"] == pytest.approx(2.5)
        assert values["omega_1"] == pytest.approx(2.5)
        assert values["phi_0"] == pytest.approx(0.0, abs=1e-9)
        assert values["delta_1"] == pytest.approx(5.0, abs=0.05)
        assert values["delta_0"] == pytest.approx(2.55, abs=0.05)
        xs = sorted(values[f"x_{i}"] for i in range(3))
        assert xs[1] - xs[0] == pytest.approx(7.46, abs=0.05)
        assert xs[2] - xs[1] == pytest.approx(7.46, abs=0.05)

    def test_relative_error_small(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        assert result.relative_error < 0.01

    def test_schedule_is_valid(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        assert result.schedule is not None
        assert result.schedule.validate() == []

    def test_chain_scaling(self, chain_spec):
        for n in (4, 8):
            aais = RydbergAAIS(n, spec=chain_spec)
            result = QTurboCompiler(aais).compile(ising_chain(n), 1.0)
            assert result.success
            assert result.execution_time == pytest.approx(0.8)
            assert result.relative_error < 0.02

    def test_cycle_on_planar_trap(self, planar_spec):
        aais = RydbergAAIS(6, spec=planar_spec)
        result = QTurboCompiler(aais).compile(ising_cycle(6), 1.0)
        assert result.success
        assert result.relative_error < 0.05

    def test_kitaev_compiles(self, chain_spec):
        aais = RydbergAAIS(4, spec=chain_spec)
        result = QTurboCompiler(aais).compile(kitaev_chain(4), 1.0)
        assert result.success
        assert result.relative_error < 0.05

    def test_pxp_compiles(self, chain_spec):
        aais = RydbergAAIS(4, spec=chain_spec)
        result = QTurboCompiler(aais).compile(
            pxp_chain(4, j=1.26, h=0.126), 5.0
        )
        assert result.success

    def test_global_drive_uniform_model(self):
        aais = RydbergAAIS(6, spec=aquila_spec(omega_max=6.28))
        result = QTurboCompiler(aais).compile(
            ising_cycle(6, j=0.157, h=0.785), 1.0
        )
        assert result.success
        assert result.execution_time < 1.0  # much shorter than target
        values = result.segments[0].values
        assert "omega" in values and "delta" in values

    def test_stage_timings_populated(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        timings = result.stage_timings
        assert timings.total > 0
        assert timings.linear > 0
        assert timings.local_solve >= 0


class TestHeisenbergCompilation:
    def test_exact_solution(self):
        aais = HeisenbergAAIS(5)
        result = QTurboCompiler(aais).compile(ising_chain(5), 1.0)
        assert result.success
        assert result.relative_error == pytest.approx(0.0, abs=1e-9)

    def test_bottleneck_is_pair_coupling(self):
        spec = HeisenbergSpec(single_max=2.0, pair_max=0.5)
        aais = HeisenbergAAIS(4, spec=spec)
        result = QTurboCompiler(aais).compile(ising_chain(4), 1.0)
        # ZZ target 1.0 at pair_max 0.5 → T = 2 µs.
        assert result.execution_time == pytest.approx(2.0)

    def test_heisenberg_chain_model(self):
        aais = HeisenbergAAIS(4)
        result = QTurboCompiler(aais).compile(heisenberg_chain(4), 1.0)
        assert result.success
        assert result.relative_error < 1e-9

    def test_unreachable_term_warns(self):
        # A chain-topology device cannot produce a (0,2) coupling.
        aais = HeisenbergAAIS(3, spec=HeisenbergSpec(topology="chain"))
        result = QTurboCompiler(aais).compile(zz(0, 2) + x(1), 1.0)
        assert result.success
        assert any("unreachable" in w for w in result.warnings)
        assert result.relative_error > 0.3


class TestTimeDependentCompilation:
    def test_mis_chain_four_segments(self, chain_spec):
        aais = RydbergAAIS(4, spec=chain_spec)
        td = mis_chain(4, duration=1.0)
        result = QTurboCompiler(aais).compile_time_dependent(td, 4)
        assert result.success
        assert len(result.segments) == 4
        assert result.schedule.num_segments == 4

    def test_fixed_positions_shared_across_segments(self, chain_spec):
        aais = RydbergAAIS(4, spec=chain_spec)
        td = mis_chain(4, duration=1.0)
        result = QTurboCompiler(aais).compile_time_dependent(td, 3)
        positions = [
            tuple(seg.values[f"x_{i}"] for i in range(4))
            for seg in result.segments
        ]
        assert positions[0] == positions[1] == positions[2]

    def test_piecewise_direct(self, paper_aais):
        pw = PiecewiseHamiltonian.from_pairs(
            [(0.5, ising_chain(3)), (0.5, ising_chain(3, j=0.5))]
        )
        result = QTurboCompiler(paper_aais).compile_piecewise(pw)
        assert result.success
        assert len(result.segments) == 2

    def test_segment_durations_differ_with_targets(self, paper_aais):
        pw = PiecewiseHamiltonian.from_pairs(
            [(1.0, ising_chain(3)), (1.0, 0.25 * ising_chain(3))]
        )
        result = QTurboCompiler(paper_aais).compile_piecewise(pw)
        assert result.success
        assert result.segments[0].duration > result.segments[1].duration


class TestErrorHandling:
    def test_nonpositive_target_time(self, paper_aais):
        with pytest.raises(CompilationError):
            QTurboCompiler(paper_aais).compile(ising_chain(3), 0.0)

    def test_too_many_qubits(self, paper_aais):
        with pytest.raises(CompilationError):
            QTurboCompiler(paper_aais).compile(ising_chain(5), 1.0)

    def test_unrealizable_sign_reported_as_error(self, paper_aais):
        # A negative ZZ coupling cannot be realized by repulsive vdW:
        # the bounded linear solve clips it to zero and the result
        # carries the full miss as compilation error (best effort).
        result = QTurboCompiler(paper_aais).compile(
            -1.0 * zz(0, 1) + x(2), 1.0
        )
        assert result.success
        assert result.relative_error > 0.4

    def test_trap_too_small_fails(self, monkeypatch):
        import repro.core.pipeline.passes as pipeline_passes
        from repro.devices import RydbergSpec
        from repro.devices.base import TrapGeometry

        # Four atoms at ≈7.46 µm spacing need ≈22 µm; give them 14.
        spec = RydbergSpec(
            name="tiny",
            delta_max=20.0,
            omega_max=2.5,
            geometry=TrapGeometry(extent=14.0, min_spacing=4.0, dimension=1),
            max_time=4.0,
        )
        aais = RydbergAAIS(4, spec=spec)
        monkeypatch.setattr(pipeline_passes, "MAX_FEASIBILITY_ITERS", 5)
        result = QTurboCompiler(aais).compile(ising_chain(4), 1.0)
        if result.success:
            # If the solver squeezed a layout in, it must be flagged.
            assert result.warnings or result.relative_error > 0.05
        else:
            assert result.message
            assert result.schedule is None


class TestTheorem1:
    def test_error_within_bound_rydberg(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        assert result.error_bound is not None
        assert result.error_l1 <= result.error_bound + 1e-9

    def test_error_within_bound_no_refine(self, paper_aais):
        result = QTurboCompiler(paper_aais, refine=False).compile(
            ising_chain(3), 1.0
        )
        assert result.error_l1 <= result.error_bound + 1e-9

    def test_error_within_bound_heisenberg(self):
        aais = HeisenbergAAIS(4)
        result = QTurboCompiler(aais).compile(ising_chain(4), 1.0)
        assert result.error_l1 <= result.error_bound + 1e-9

    def test_error_within_bound_cycle(self, planar_spec):
        aais = RydbergAAIS(5, spec=planar_spec)
        result = QTurboCompiler(aais).compile(ising_cycle(5), 1.0)
        assert result.error_l1 <= result.error_bound + 1e-9


class TestRefinement:
    def test_refinement_improves_error(self, paper_aais):
        with_refine = QTurboCompiler(paper_aais, refine=True).compile(
            ising_chain(3), 1.0
        )
        without = QTurboCompiler(paper_aais, refine=False).compile(
            ising_chain(3), 1.0
        )
        assert with_refine.relative_error <= without.relative_error + 1e-12
        assert with_refine.refinement_applied

    def test_refinement_updates_detunings(self, paper_aais):
        # Section 6.2: refined detunings move from 2.5 to ≈ 2.55 MHz.
        result = QTurboCompiler(paper_aais, refine=True).compile(
            ising_chain(3), 1.0
        )
        assert result.segments[0].values["delta_0"] > 2.51
