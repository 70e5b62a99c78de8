"""Hardware waveforms: sampled time series with ramps and slew limits.

A compiled :class:`~repro.pulse.schedule.PulseSchedule` is idealized —
drive values jump instantaneously between segments.  Real hardware
(Aquila in particular) requires the Rabi amplitude to start and end at
zero and bounds how fast any control may change.  This module converts a
schedule into *sampled piecewise-linear waveforms*, inserting the
shortest ramps that satisfy per-variable slew-rate limits, and quantifies
the coefficient-time error the ramps introduce.

The area argument: replacing an instantaneous jump by a linear ramp of
duration τ changes the accumulated ``amplitude × time`` of that control
by at most ``τ · |Δamplitude| / 2``, so the L1 compilation-error increase
is bounded and reported (:func:`ramp_error_bound`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.pulse.schedule import PulseSchedule

__all__ = [
    "Waveform",
    "SlewLimits",
    "schedule_to_waveforms",
    "ramp_error_bound",
]


@dataclass(frozen=True)
class SlewLimits:
    """Maximum rate of change per control family (units per µs).

    ``None`` disables the limit for that family.  Defaults follow
    Aquila's published pattern: Ω and Δ ramp at finite speed, the phase
    is a digital control that may step instantaneously.
    """

    omega: Optional[float] = 250.0
    delta: Optional[float] = 2500.0
    phi: Optional[float] = None
    amplitude: Optional[float] = None  # Heisenberg drives

    def limit_for(self, variable: str) -> Optional[float]:
        if variable.startswith("omega"):
            return self.omega
        if variable.startswith("delta"):
            return self.delta
        if variable.startswith("phi"):
            return self.phi
        if variable.startswith("a_"):
            return self.amplitude
        return None


class Waveform:
    """A sampled piecewise-linear control signal.

    Parameters
    ----------
    times:
        Strictly increasing sample times (µs), starting at 0.
    values:
        Control value at each sample; between samples the signal is
        linear.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        if len(times) != len(values):
            raise ScheduleError("times and values must have equal length")
        if len(times) < 2:
            raise ScheduleError("a waveform needs at least two samples")
        if abs(times[0]) > 1e-12:
            raise ScheduleError("waveforms must start at t = 0")
        for a, b in zip(times, times[1:]):
            if b <= a + 1e-15:
                raise ScheduleError("sample times must strictly increase")
        self.times: Tuple[float, ...] = tuple(float(t) for t in times)
        self.values: Tuple[float, ...] = tuple(float(v) for v in values)

    @property
    def duration(self) -> float:
        return self.times[-1]

    def sample(self, t: float) -> float:
        """Linear interpolation at time ``t`` (clamped to the ends)."""
        if t <= self.times[0]:
            return self.values[0]
        if t >= self.times[-1]:
            return self.values[-1]
        index = bisect.bisect_right(self.times, t) - 1
        t0, t1 = self.times[index], self.times[index + 1]
        v0, v1 = self.values[index], self.values[index + 1]
        fraction = (t - t0) / (t1 - t0)
        return v0 + fraction * (v1 - v0)

    def area(self) -> float:
        """∫ value dt over the full duration (trapezoid rule, exact)."""
        total = 0.0
        for k in range(len(self.times) - 1):
            dt = self.times[k + 1] - self.times[k]
            total += 0.5 * (self.values[k] + self.values[k + 1]) * dt
        return total

    def max_slew(self) -> float:
        """Largest |dv/dt| over all linear pieces."""
        worst = 0.0
        for k in range(len(self.times) - 1):
            dt = self.times[k + 1] - self.times[k]
            worst = max(
                worst, abs(self.values[k + 1] - self.values[k]) / dt
            )
        return worst

    def __repr__(self) -> str:
        return f"Waveform({len(self.times)} samples, T={self.duration:g})"


def _ramp_time(change: float, limit: Optional[float]) -> float:
    """Shortest ramp duration for a value change under a slew limit."""
    if limit is None or limit <= 0 or change == 0:
        return 0.0
    return abs(change) / limit


def schedule_to_waveforms(
    schedule: PulseSchedule,
    slew: SlewLimits = None,
    start_from_zero: Tuple[str, ...] = ("omega",),
) -> Dict[str, Waveform]:
    """Render every dynamic variable of a schedule as a waveform.

    Ramps are inserted *inside* each segment (eating into its plateau) so
    the total program duration is unchanged; a segment too short to fit
    its ramps raises :class:`ScheduleError`.

    Parameters
    ----------
    schedule:
        The compiled pulse program.
    slew:
        Per-family slew limits; defaults to :class:`SlewLimits()`.
    start_from_zero:
        Variable-name prefixes that must begin and end at zero value
        (hardware requires the Rabi drive to switch on from idle).
    """
    slew = slew if slew is not None else SlewLimits()
    names = sorted(schedule.segments[0].dynamic_values)
    waveforms: Dict[str, Waveform] = {}
    boundaries = [0.0]
    for segment in schedule.segments:
        boundaries.append(boundaries[-1] + segment.duration)

    for name in names:
        limit = slew.limit_for(name)
        zero_ended = any(name.startswith(p) for p in start_from_zero)
        plateau_values = [
            segment.dynamic_values[name] for segment in schedule.segments
        ]
        times: List[float] = [0.0]
        values: List[float] = [0.0 if zero_ended else plateau_values[0]]
        for k, plateau in enumerate(plateau_values):
            seg_start, seg_end = boundaries[k], boundaries[k + 1]
            seg_duration = seg_end - seg_start
            rise = _ramp_time(plateau - values[-1], limit)
            fall = 0.0
            if k == len(plateau_values) - 1 and zero_ended:
                fall = _ramp_time(plateau, limit)
            if rise + fall > seg_duration + 1e-12:
                raise ScheduleError(
                    f"segment {k} ({seg_duration:g} µs) too short for "
                    f"{name} ramps ({rise + fall:g} µs) — relax the slew "
                    "limit or lengthen the pulse"
                )
            if rise > 0:
                # A ramp too short to advance the clock (plateaus a few
                # ulps apart) is a continuous plateau: the hold below
                # lands on the new value.
                if seg_start + rise > seg_start:
                    times.append(seg_start + rise)
                    values.append(plateau)
            elif values[-1] != plateau or k == 0:
                # Instantaneous step: duplicate the sample a hair later.
                times.append(seg_start + min(1e-9, seg_duration / 10))
                values.append(plateau)
            # Hold the plateau until the point the next ramp must begin.
            hold_end = seg_end if fall == 0 else seg_end - fall
            if hold_end > times[-1] + 1e-12:
                times.append(hold_end)
                values.append(plateau)
            if fall > 0:
                times.append(seg_end)
                values.append(0.0)
        if times[-1] < boundaries[-1] - 1e-12:
            times.append(boundaries[-1])
            values.append(values[-1])
        waveforms[name] = Waveform(times, values)
    return waveforms


def ramp_error_bound(
    schedule: PulseSchedule,
    waveforms: Mapping[str, Waveform],
) -> float:
    """Upper bound on the extra |amplitude·time| error from ramping.

    Per control, the deviation between the ideal rectangular pulse and
    the ramped waveform is the difference of their areas; the bound sums
    absolute area differences over all controls.
    """
    total = 0.0
    boundaries = [0.0]
    for segment in schedule.segments:
        boundaries.append(boundaries[-1] + segment.duration)
    for name, waveform in waveforms.items():
        ideal_area = 0.0
        for k, segment in enumerate(schedule.segments):
            ideal_area += segment.dynamic_values[name] * segment.duration
        total += abs(ideal_area - waveform.area())
    return total
