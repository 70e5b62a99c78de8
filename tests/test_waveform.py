"""Unit tests for waveform rendering (ramps + slew limits)."""

import math

import pytest

from repro import QTurboCompiler
from repro.errors import ScheduleError
from repro.hamiltonian import PiecewiseHamiltonian
from repro.models import ising_chain
from repro.pulse import (
    PulseSchedule,
    PulseSegment,
    SlewLimits,
    Waveform,
    ramp_error_bound,
    schedule_to_waveforms,
)


@pytest.fixture
def schedule(paper_aais):
    return QTurboCompiler(paper_aais).compile(ising_chain(3), 1.0).schedule


@pytest.fixture
def two_segment_schedule(paper_aais):
    pw = PiecewiseHamiltonian.from_pairs(
        [(0.5, ising_chain(3)), (0.5, ising_chain(3, h=0.4))]
    )
    return QTurboCompiler(paper_aais).compile_piecewise(pw).schedule


class TestWaveform:
    def test_validation(self):
        with pytest.raises(ScheduleError):
            Waveform([0.0], [1.0])
        with pytest.raises(ScheduleError):
            Waveform([0.0, 1.0], [1.0])
        with pytest.raises(ScheduleError):
            Waveform([0.1, 1.0], [0.0, 1.0])  # must start at 0
        with pytest.raises(ScheduleError):
            Waveform([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])  # non-increasing

    def test_sampling_interpolates(self):
        w = Waveform([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        assert w.sample(0.5) == pytest.approx(1.0)
        assert w.sample(1.5) == pytest.approx(2.0)
        assert w.sample(-1.0) == 0.0  # clamped
        assert w.sample(5.0) == 2.0

    def test_area_trapezoid(self):
        w = Waveform([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert w.area() == pytest.approx(2.0)

    def test_max_slew(self):
        w = Waveform([0.0, 0.5, 2.0], [0.0, 1.0, 1.0])
        assert w.max_slew() == pytest.approx(2.0)


class TestSlewLimits:
    def test_family_dispatch(self):
        slew = SlewLimits(omega=100.0, delta=200.0, phi=None)
        assert slew.limit_for("omega_3") == 100.0
        assert slew.limit_for("delta") == 200.0
        assert slew.limit_for("phi_0") is None
        assert slew.limit_for("a_X_0") is None


class TestScheduleToWaveforms:
    def test_covers_all_dynamic_variables(self, schedule):
        waveforms = schedule_to_waveforms(schedule)
        assert set(waveforms) == set(schedule.segments[0].dynamic_values)

    def test_duration_preserved(self, schedule):
        waveforms = schedule_to_waveforms(schedule)
        for waveform in waveforms.values():
            assert waveform.duration == pytest.approx(
                schedule.total_duration
            )

    def test_omega_starts_and_ends_at_zero(self, schedule):
        waveforms = schedule_to_waveforms(schedule)
        omega = waveforms["omega_0"]
        assert omega.values[0] == 0.0
        assert omega.values[-1] == 0.0
        # Plateau reaches the compiled amplitude.
        assert max(omega.values) == pytest.approx(2.5)

    def test_slew_limits_respected(self, schedule):
        slew = SlewLimits(omega=50.0, delta=100.0)
        waveforms = schedule_to_waveforms(schedule, slew=slew)
        assert waveforms["omega_0"].max_slew() <= 50.0 + 1e-6
        assert waveforms["delta_0"].max_slew() <= 100.0 + 1e-6

    def test_too_tight_slew_raises(self, schedule):
        # Ramping 2.5 at 1 unit/µs needs 2.5 µs > the 0.8 µs pulse.
        with pytest.raises(ScheduleError):
            schedule_to_waveforms(schedule, slew=SlewLimits(omega=1.0))

    def test_multi_segment_plateaus(self, two_segment_schedule):
        waveforms = schedule_to_waveforms(two_segment_schedule)
        omega = waveforms["omega_0"]
        # Mid-program sample sits on the first plateau.
        first_plateau = two_segment_schedule.segments[0].dynamic_values[
            "omega_0"
        ]
        mid_first = two_segment_schedule.segments[0].duration * 0.6
        assert omega.sample(mid_first) == pytest.approx(
            first_plateau, rel=1e-6
        )

    def test_plateaus_one_ulp_apart_stay_continuous(self, schedule):
        """A ramp too short to advance the clock must not repeat a time."""
        first = dict(schedule.segments[0].dynamic_values)
        second = {
            name: math.nextafter(value, math.inf)
            if name.startswith("omega") else value
            for name, value in first.items()
        }
        assert second != first
        two = PulseSchedule(
            schedule.aais,
            schedule.fixed_values,
            [PulseSegment(0.4, first), PulseSegment(0.6, second)],
        )
        waveforms = schedule_to_waveforms(two)
        omega = waveforms["omega_0"]
        assert omega.sample(0.7) == pytest.approx(second["omega_0"])
        assert omega.duration == pytest.approx(1.0)

    def test_ramp_error_bound_small_and_nonnegative(self, schedule):
        waveforms = schedule_to_waveforms(schedule)
        bound = ramp_error_bound(schedule, waveforms)
        assert bound >= 0
        # Fast default ramps: the area deficit is a tiny fraction of the
        # total drive area (Ω·T = 2 per atom).
        assert bound < 0.2

    def test_tighter_slew_larger_error(self, schedule):
        fast = schedule_to_waveforms(schedule, slew=SlewLimits(omega=250.0))
        slow = schedule_to_waveforms(schedule, slew=SlewLimits(omega=10.0))
        assert ramp_error_bound(schedule, slow) > ramp_error_bound(
            schedule, fast
        )
