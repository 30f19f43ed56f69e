"""Vectorized backend: one run as the single in-process shard of the engine.

The reference (event) backend spends most of its time in per-device Python:
throwaway dicts for allocation counts and realised rates, per-device gain
scaling, a coverage lookup per device per slot.  This backend runs the
whole population as one :class:`~repro.sim.sharded.engine.ShardEngine`
under the lockstep driver (:func:`~repro.sim.sharded.executor.run_lockstep`)
— the slot loop the ``"sharded"`` backend runs per shard, without bus,
supervision or durability — which batches all of that:

* allocation counts are one ``np.bincount``; equal-share rates and the
  full-information counterfactuals are array expressions over the network
  axis, and other gain models route through the environment in the event
  backend's device order;
* topology events from the run's
  :class:`~repro.sim.backends.base.TopologyPlan` are in-loop membership
  edits on persistent kernel groups, so per-slot churn stays batched;
* stationary policies (Fixed Random, Centralized) are written once per
  topology-stable span, and a span in which every active device is frozen
  is broadcast in one step;
* learning policies run as batched kernels (:mod:`repro.algorithms.kernels`),
  with a per-device scalar fallback for policies without one, and the
  engine pre-draws the uniforms of kernels that take one per row per slot
  in windows that span membership edits, with one generator call per row
  per window.

:meth:`VectorizedSlotExecutor.execute_stack` runs several runs with
identical physics as contiguous row blocks of one engine, so a kernel call
serves every stacked run's rows; ``run_many`` and ``run_sweep`` feed their
cells to it (see :mod:`repro.sim.runner`).

Bit-exactness with the event backend is preserved because the RNG streams
are consumed in the identical order (see :mod:`repro.sim.backends.base` and
the kernel contract in :mod:`repro.algorithms.kernels`), per run when runs
are stacked.
"""

from __future__ import annotations

from repro.sim.backends.base import SlotExecutor
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario


class VectorizedSlotExecutor(SlotExecutor):
    """One run as the single in-process shard of the slot engine."""

    name = "vectorized"

    def __init__(self, use_kernels: bool = True) -> None:
        #: When False, every learning policy takes the per-device scalar path,
        #: so benchmarks and the kernel tests can measure the kernel layer in
        #: isolation.
        self.use_kernels = use_kernels

    def execute(
        self,
        scenario: Scenario,
        seed=0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        return self.execute_stack([(scenario, seed)], record_probabilities)[0]

    def execute_stack(
        self, cells, record_probabilities: bool = True
    ) -> list[SimulationResult]:
        """Several runs as row blocks of one engine, one result per cell.

        ``cells`` lists ``(scenario, seed)`` pairs whose scenarios share
        :func:`~repro.sim.sharded.executor.stack_physics` on equal-share
        physics; each result is bit-identical to the cell's :meth:`execute`.
        """
        # Imported lazily: the sharded package imports this package's base
        # module, so a top-level import would race the backend registry.
        from repro.sim.sharded.executor import run_stacked

        return run_stacked(
            cells, record_probabilities, self.use_kernels, self.name
        )
