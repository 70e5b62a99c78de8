"""Edge cases and failure-injection tests across module boundaries."""

import math

import numpy as np
import pytest

from repro import QTurboCompiler
from repro.aais import HeisenbergAAIS, RydbergAAIS
from repro.core.time_optimizer import MIN_TIME_FLOOR
from repro.devices import HeisenbergSpec, RydbergSpec, aquila_spec
from repro.devices.base import TrapGeometry
from repro.hamiltonian import Hamiltonian, PauliString, x, z, zz
from repro.models import ising_chain


class TestCompilerEdgeCases:
    def test_single_term_target(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(x(0), 1.0)
        assert result.success
        values = result.segments[0].values
        # Only qubit 0 is driven.
        assert values["omega_0"] > 0
        assert values["omega_1"] == 0.0

    def test_pure_zz_target(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(zz(0, 1), 1.0)
        assert result.success
        assert result.relative_error < 0.05

    def test_identity_only_target(self, paper_aais):
        target = Hamiltonian({PauliString.identity(): 3.0})
        result = QTurboCompiler(paper_aais).compile(target, 1.0)
        # A global phase needs no drive at all.
        assert result.success
        assert result.execution_time == pytest.approx(MIN_TIME_FLOOR)

    def test_tiny_target_time(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1e-3)
        assert result.success
        assert result.execution_time <= 0.01

    def test_large_coupling_stretches_time(self, paper_aais):
        weak = QTurboCompiler(paper_aais).compile(
            ising_chain(3, j=1.0, h=1.0), 1.0
        )
        strong = QTurboCompiler(paper_aais).compile(
            ising_chain(3, j=1.0, h=4.0), 1.0
        )
        # Stronger X fields need longer Rabi bottleneck time.
        assert strong.execution_time > weak.execution_time

    def test_target_smaller_than_device(self, chain_spec):
        """A 3-qubit target on a 5-atom device: idle atoms stay idle."""
        aais = RydbergAAIS(5, spec=chain_spec)
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        assert result.success
        values = result.segments[0].values
        assert values["omega_4"] == 0.0

    def test_y_field_target(self, paper_aais):
        """Y terms are reachable via the Rabi sin quadrature."""
        from repro.hamiltonian import y

        target = y(0) + y(1) + y(2)
        result = QTurboCompiler(paper_aais).compile(target, 1.0)
        assert result.success
        # The linear solve is exact; the ~4e-5 left is the van der Waals
        # tail between atoms at finite spacing.
        assert result.relative_error < 1e-3
        # sin quadrature: φ = 3π/2 realizes -(Ω/2) sin φ = +Ω/2.
        phi = result.segments[0].values["phi_0"]
        assert phi == pytest.approx(3 * math.pi / 2)

    def test_negative_detuning_target(self, paper_aais):
        """Z terms with either sign are fine: Δ may be negative."""
        target = -1.0 * z(0) + x(1)
        result = QTurboCompiler(paper_aais).compile(target, 1.0)
        assert result.success
        assert result.segments[0].values["delta_0"] < 0


class TestHeisenbergEdgeCases:
    def test_single_qubit_device(self):
        aais = HeisenbergAAIS(1)
        result = QTurboCompiler(aais).compile(x(0) + 0.5 * z(0), 1.0)
        assert result.success
        assert result.relative_error < 1e-9

    def test_mixed_sign_couplings(self):
        aais = HeisenbergAAIS(3)
        target = zz(0, 1) - zz(1, 2) + x(1)
        result = QTurboCompiler(aais).compile(target, 1.0)
        assert result.success
        assert result.relative_error < 1e-9

    def test_time_scales_with_largest_coupling(self):
        spec = HeisenbergSpec(single_max=2.0, pair_max=0.5)
        aais = HeisenbergAAIS(3, spec=spec)
        result = QTurboCompiler(aais).compile(3.0 * zz(0, 1), 1.0)
        assert result.execution_time == pytest.approx(6.0)


class TestNoiseOnHeisenberg:
    def test_amplitude_noise_applies_to_drives(self):
        from repro.sim import NoisySimulator, aquila_noise

        aais = HeisenbergAAIS(3)
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        noise = aquila_noise(
            amplitude_relative_sigma=0.05, t1=None, p01=0.0, p10=0.0
        )
        sim = NoisySimulator(noise=noise, noise_samples=4, seed=0)
        samples = sim.run(result.schedule, shots=64)
        assert samples.shape == (64, 3)


class TestExportEdgeCases:
    def test_ahs_mean_over_sites(self, chain_spec):
        from repro.pulse import to_ahs_program

        aais = RydbergAAIS(3, spec=chain_spec)
        result = QTurboCompiler(aais).compile(ising_chain(3), 1.0)
        program = to_ahs_program(result.schedule)
        values = result.segments[0].values
        expected = np.mean([values[f"omega_{i}"] for i in range(3)])
        assert program["driving_field"]["omega"][0] == pytest.approx(
            expected
        )

    def test_ahs_register_2d(self, planar_spec):
        from repro.models import ising_cycle
        from repro.pulse import to_ahs_program

        aais = RydbergAAIS(4, spec=planar_spec)
        result = QTurboCompiler(aais).compile(ising_cycle(4), 1.0)
        program = to_ahs_program(result.schedule)
        assert all(len(point) == 2 for point in program["register"])


class TestDeviceMaxTimeWarning:
    def test_overlong_schedule_warns_but_compiles(self):
        # Δ_max tiny → detuning bottleneck forces a very long pulse
        # exceeding the 4 µs device cap; the compiler flags it.
        spec = RydbergSpec(
            name="slow",
            delta_max=0.2,
            omega_max=2.5,
            geometry=TrapGeometry(extent=200.0, min_spacing=4.0, dimension=1),
            max_time=4.0,
        )
        aais = RydbergAAIS(3, spec=spec)
        from repro.hamiltonian import z

        target = z(0) + z(1) + z(2) + x(0)
        result = QTurboCompiler(aais).compile(target, 1.0)
        assert result.success
        assert result.execution_time > 4.0
        assert any("exceeds" in w for w in result.warnings)

    def test_global_drive_nonuniform_target_best_effort(self):
        """Global Ω cannot realize per-site X fields exactly."""
        aais = RydbergAAIS(3, spec=aquila_spec(omega_max=6.28))
        target = 1.0 * x(0) + 0.5 * x(1) + 0.25 * x(2)
        result = QTurboCompiler(aais).compile(target, 1.0)
        assert result.success
        # The global fit lands on the mean; the miss shows as error.
        assert result.relative_error > 0.1
