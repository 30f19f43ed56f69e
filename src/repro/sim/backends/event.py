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

from repro.sim.backends.base import SlotExecutor, execute_reference_slot, prepare_run
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario


class EventSlotExecutor(SlotExecutor):
    """Reference execution: one slot at a time, one device at a time."""

    name = "event"

    def execute(
        self,
        scenario: Scenario,
        seed: int = 0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        state = prepare_run(scenario, seed, record_probabilities)
        for slot in range(1, state.num_slots + 1):
            execute_reference_slot(state, slot)
        return state.finish()
