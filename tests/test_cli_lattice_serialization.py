"""Tests for the CLI, the lattice model, and schedule (de)serialization."""

import json

import pytest

from repro import QTurboCompiler
from repro.cli import main
from repro.errors import HamiltonianError, ScheduleError
from repro.hamiltonian import PauliString
from repro.models import grid_edges, ising_chain, ising_grid
from repro.pulse import PulseSchedule


class TestCLI:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "ising_chain" in out
        assert "pxp" in out

    def test_compile_summary(self, capsys):
        code = main(
            ["compile", "--model", "ising_chain", "-n", "3", "-t", "1.0"]
        )
        assert code == 0
        assert "execution 0.8" in capsys.readouterr().out

    def test_compile_json_output(self, capsys):
        code = main(
            [
                "compile",
                "--hamiltonian",
                "Z0*Z1 + X0 + X1",
                "-n",
                "2",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"]
        assert payload["schedule"]["num_sites"] == 2

    def test_compile_heisenberg_device(self, capsys):
        code = main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "4",
                "--device",
                "heisenberg",
            ]
        )
        assert code == 0
        assert "relative error 0%" in capsys.readouterr().out

    def test_no_refine_flag(self, capsys):
        code = main(
            [
                "compile",
                "--model",
                "ising_chain",
                "-n",
                "3",
                "--no-refine",
            ]
        )
        assert code == 0

    def test_disable_pass_flag_names_no_refine(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "compile",
                    "--model",
                    "ising_chain",
                    "--disable-pass",
                    "refinement",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--disable-pass" in err and "--no-refine" in err

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--model", "ising_chain", "-n", "3", "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qturbo" in out and "simuq" in out

    def test_requires_workload(self):
        with pytest.raises(SystemExit):
            main(["compile"])

    def test_bad_hamiltonian_clean_error(self, capsys):
        code = main(["compile", "--hamiltonian", "Q0 + X1", "-n", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Q0" in err

    def test_unknown_model_clean_error(self, capsys):
        code = main(["compile", "--model", "nonexistent", "-n", "3"])
        assert code == 2
        assert "unknown model" in capsys.readouterr().err


class TestLatticeModel:
    def test_grid_edges_counts(self):
        # rows·(cols−1) + cols·(rows−1) edges.
        assert len(grid_edges(2, 3)) == 2 * 2 + 3 * 1

    def test_grid_edges_validation(self):
        with pytest.raises(HamiltonianError):
            grid_edges(0, 3)

    def test_ising_grid_terms(self):
        h = ising_grid(2, 2, j=1.0, h=0.5)
        assert h.coefficient(
            PauliString.from_pairs([(0, "Z"), (1, "Z")])
        ) == 1.0
        assert h.coefficient(
            PauliString.from_pairs([(0, "Z"), (2, "Z")])
        ) == 1.0
        assert h.coefficient(PauliString.single("X", 3)) == 0.5
        # No diagonal coupling.
        assert h.coefficient(
            PauliString.from_pairs([(0, "Z"), (3, "Z")])
        ) == 0.0

    def test_ising_grid_compiles_on_planar_trap(self, planar_spec):
        from repro.aais import RydbergAAIS

        h = ising_grid(2, 3)
        aais = RydbergAAIS(6, spec=planar_spec)
        result = QTurboCompiler(aais).compile(h, 1.0)
        assert result.success
        # Each unavoidable diagonal tail pollutes three Pauli rows, so a
        # regular grid layout scores ≈39% relative error; the position
        # solver's distorted layout does materially better (~17%).
        assert result.relative_error < 0.25


class TestScheduleSerialization:
    def test_roundtrip(self, paper_aais):
        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        data = result.schedule.to_dict()
        loaded = PulseSchedule.from_dict(paper_aais, data)
        assert loaded.total_duration == pytest.approx(
            result.schedule.total_duration
        )
        assert loaded.fixed_values == result.schedule.fixed_values
        assert (
            loaded.segments[0].dynamic_values
            == result.schedule.segments[0].dynamic_values
        )

    def test_roundtrip_through_json(self, paper_aais):
        from repro.pulse import to_json

        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        data = json.loads(to_json(result.schedule))
        loaded = PulseSchedule.from_dict(paper_aais, data)
        assert loaded.validate() == []

    def test_aais_name_mismatch_rejected(self, paper_aais):
        from repro.aais import HeisenbergAAIS

        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        data = result.schedule.to_dict()
        with pytest.raises(ScheduleError):
            PulseSchedule.from_dict(HeisenbergAAIS(3), data)

    def test_site_count_mismatch_rejected(self, paper_aais):
        from repro.aais import RydbergAAIS
        from repro.devices import paper_example_spec

        result = QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0)
        data = result.schedule.to_dict()
        other = RydbergAAIS(4, spec=paper_example_spec())
        with pytest.raises(ScheduleError):
            PulseSchedule.from_dict(other, data)
