"""Event backend: the bit-exact reference execution.

This backend preserves the original runner semantics: it prepares the run,
processes slots ``1..num_slots`` in order with
:func:`~repro.sim.backends.base.execute_reference_slot`, one device at a
time, and finishes the result.  Time is the slot index alone, so every slot
runs whatever the slot length.  It is the slowest backend but also the
simplest, and it doubles as the behavioural oracle the cross-backend
equivalence suite compares every other backend against.
"""

from __future__ import annotations

import time

from repro.sim.backends.base import SlotExecutor, execute_reference_slot, prepare_run
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario
from repro.telemetry import get_telemetry


class EventSlotExecutor(SlotExecutor):
    """Reference execution: one slot at a time, one device at a time."""

    name = "event"

    def execute(
        self,
        scenario: Scenario,
        seed: int = 0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        """One run, slot by slot; with telemetry on, it writes the
        ``run_start``/``run_end`` pair a vectorized run writes, tagged
        ``event``."""
        state = prepare_run(scenario, seed, record_probabilities)
        telemetry = get_telemetry()
        if telemetry is not None:
            devices = len(state.device_ids)
            telemetry.event(
                "run_start",
                tag=self.name,
                devices=devices,
                slots=state.num_slots,
                scenario=scenario.name,
                seed=state.seed,
                stacked=1,
            )
            started = time.monotonic()
        for slot in range(1, state.num_slots + 1):
            execute_reference_slot(state, slot)
        result = state.finish()
        if telemetry is not None:
            elapsed = time.monotonic() - started
            telemetry.event(
                "run_end",
                tag=self.name,
                seconds=round(elapsed, 6),
                device_slots_per_second=round(
                    devices * state.num_slots / max(elapsed, 1e-9), 1
                ),
                seed=state.seed,
            )
        return result
