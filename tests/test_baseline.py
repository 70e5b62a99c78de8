"""Tests for the SimuQ-style baseline compiler."""

import numpy as np
import pytest

from repro import QTurboCompiler
from repro.aais import HeisenbergAAIS, RydbergAAIS
from repro.baseline import MixedSystem, SimuQStyleCompiler
from repro.errors import CompilationError
from repro.models import ising_chain


class TestMixedSystem:
    def test_unknown_layout(self, paper_aais):
        system = MixedSystem(paper_aais)
        # 12 amplitude variables + T + indicators (3 detunings + 3 rabis).
        assert system.num_vars == 12
        assert system.num_unknowns == 12 + 1 + 6

    def test_without_indicators(self, paper_aais):
        system = MixedSystem(paper_aais, with_indicators=False)
        assert system.num_unknowns == 13
        x = np.ones(13)
        assert np.all(system.indicator_values(x) == 1.0)

    def test_expressions_match_channels(self, paper_aais):
        system = MixedSystem(paper_aais)
        x = np.zeros(system.num_unknowns)
        values = {
            "x_0": 0.0,
            "x_1": 8.0,
            "x_2": 16.0,
            "delta_0": 4.0,
            "delta_1": 0.0,
            "delta_2": 0.0,
            "omega_0": 2.0,
            "omega_1": 0.0,
            "omega_2": 0.0,
            "phi_0": 0.5,
            "phi_1": 0.0,
            "phi_2": 0.0,
        }
        for name, value in values.items():
            x[system.var_index[name]] = value
        expressions = system.expressions(x)
        for k, channel in enumerate(paper_aais.channels):
            assert expressions[k] == pytest.approx(
                channel.evaluate(values), rel=1e-12
            )

    def test_indicator_groups_dedupe_shared_variables(self):
        from repro.devices import aquila_spec

        aais = RydbergAAIS(4, spec=aquila_spec())
        system = MixedSystem(aais)
        # Global drive: one detuning group + one rabi group.
        assert len(system.indicator_index) == 2

    def test_absorb_indicators(self, paper_aais):
        system = MixedSystem(paper_aais)
        x = np.ones(system.num_unknowns)
        x[system.var_index["delta_0"]] = 10.0
        group_key = None
        for instruction in system.indicator_instructions:
            if instruction.name == "detuning_0":
                group_key = system._instruction_group[instruction.name]
        x[system.indicator_index[group_key]] = 0.5
        absorbed = system.absorb_indicators(x)
        assert absorbed[system.var_index["delta_0"]] == 5.0
        assert absorbed[system.indicator_index[group_key]] == 1.0

    def test_frozen_positions(self, paper_aais):
        frozen = {"x_0": 0.0, "x_1": 8.0, "x_2": 16.0}
        system = MixedSystem(paper_aais, frozen=frozen)
        assert system.num_vars == 9
        x = np.zeros(system.num_unknowns)
        expressions = system.expressions(x)
        vdw_index = [
            k
            for k, c in enumerate(paper_aais.channels)
            if c.name == "vdw_0_1"
        ][0]
        expected = (paper_aais.spec.c6 / 4.0) / 8.0**6
        assert expressions[vdw_index] == pytest.approx(expected)

    def test_values_dict_includes_frozen(self, paper_aais):
        frozen = {"x_0": 0.0, "x_1": 8.0, "x_2": 16.0}
        system = MixedSystem(paper_aais, frozen=frozen)
        values = system.values_dict(np.zeros(system.num_unknowns))
        assert values["x_1"] == 8.0


class TestSimuQStyleCompiler:
    def test_heisenberg_success(self):
        aais = HeisenbergAAIS(4)
        result = SimuQStyleCompiler(aais, seed=1).compile(ising_chain(4), 1.0)
        assert result.success
        assert result.relative_error < 0.01

    def test_rydberg_success(self, paper_aais):
        result = SimuQStyleCompiler(paper_aais, seed=0).compile(
            ising_chain(3), 1.0
        )
        assert result.success
        assert result.relative_error < 0.05
        assert result.schedule is not None

    def test_execution_time_suboptimal(self, paper_aais):
        """The baseline T is feasible but generally longer than QTurbo's."""
        qturbo = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        times = []
        for seed in range(3):
            result = SimuQStyleCompiler(paper_aais, seed=seed).compile(
                ising_chain(3), 1.0
            )
            if result.success:
                times.append(result.execution_time)
        assert times, "baseline failed on every seed"
        assert max(times) >= qturbo.execution_time - 1e-9

    def test_seed_changes_outcome(self, paper_aais):
        a = SimuQStyleCompiler(paper_aais, seed=0).compile(ising_chain(3), 1.0)
        b = SimuQStyleCompiler(paper_aais, seed=3).compile(ising_chain(3), 1.0)
        if a.success and b.success:
            assert a.execution_time != pytest.approx(
                b.execution_time, rel=1e-6
            )

    def test_failure_possible_with_tiny_budget(self, paper_aais):
        result = SimuQStyleCompiler(
            paper_aais, seed=0, max_restarts=1, tol=1e-12, branch_flips=0
        ).compile(ising_chain(3), 1.0)
        assert not result.success
        assert "did not converge" in result.message

    def test_compile_time_slower_than_qturbo(self, paper_aais, monkeypatch):
        # Deterministic proxy for compile time: the residual evaluations
        # each compiler spends in scipy's least_squares.
        import repro.baseline.simuq as simuq_module
        import repro.core.local_solvers as local_solvers_module

        nfev = {}

        def counting(module, label):
            solve = module.least_squares

            def wrapper(*args, **kwargs):
                result = solve(*args, **kwargs)
                nfev[label] = nfev.get(label, 0) + result.nfev
                return result

            monkeypatch.setattr(module, "least_squares", wrapper)

        counting(simuq_module, "baseline")
        counting(local_solvers_module, "qturbo")
        baseline = SimuQStyleCompiler(paper_aais, seed=0).compile(
            ising_chain(3), 1.0
        )
        qturbo = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        assert baseline.success and qturbo.success
        assert nfev["baseline"] > 10 * nfev.get("qturbo", 0)

    def test_nonpositive_target_time(self, paper_aais):
        with pytest.raises(CompilationError):
            SimuQStyleCompiler(paper_aais).compile(ising_chain(3), -1.0)

    def test_piecewise_freezes_positions(self, paper_aais):
        from repro.hamiltonian import PiecewiseHamiltonian

        pw = PiecewiseHamiltonian.from_pairs(
            [(0.5, ising_chain(3)), (0.5, ising_chain(3, j=0.8))]
        )
        result = SimuQStyleCompiler(paper_aais, seed=0).compile_piecewise(pw)
        if result.success:
            p0 = [result.segments[0].values[f"x_{i}"] for i in range(3)]
            p1 = [result.segments[1].values[f"x_{i}"] for i in range(3)]
            assert p0 == p1
