"""Reference paths that tests and benchmarks compare the simulator against.

The library keeps one fast path per job; the plain path it replaced
lives here, only as the baseline that tests check the fast path
against and that benchmarks time it against.  Not imported by
:mod:`repro.testing` itself, so production modules never load it.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.pulse.schedule import PulseSchedule
from repro.sim.evolution import evolve_schedule, ground_state
from repro.sim.noise import NoisySimulator

__all__ = ["PerRealizationSimulator"]


class PerRealizationSimulator(NoisySimulator):
    """:class:`NoisySimulator` that walks the schedule once per noise
    realization on the ``sparse`` backend.

    Realization draws, sampling and readout are inherited, so with the
    same seed its samples equal the block engine's whenever the final
    states agree.  The ``backend`` setting is ignored.
    """

    def _evolve_realizations(
        self,
        schedule: PulseSchedule,
        overrides: Sequence[Sequence[Dict[str, float]]],
    ) -> np.ndarray:
        initial = ground_state(schedule.aais.num_sites)
        columns = [
            evolve_schedule(initial, schedule, list(entry), backend="sparse")
            for entry in overrides
        ]
        return np.stack(columns, axis=1)
