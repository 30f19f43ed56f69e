"""Batched policy kernels: array-native execution of learning policies.

A :class:`~repro.algorithms.kernels.base.BatchKernel` executes every device
sharing a policy family as array programs over ``(num_devices ×
num_networks)`` NumPy state — weights, probabilities, block counters, greedy
statistics — with one fused update per slot instead of ``2·N`` per-device
Python calls.  The slot engine's membership layer resolves kernels through
:func:`repro.algorithms.registry.kernel_for_policy`; policies without a
kernel (or subclasses overriding per-slot behaviour) run on the per-device
scalar fallback, which is bit-exact by construction.

RNG-equivalence contract
========================

Every kernel is **bit-exact**, and the cross-kernel test suite
(``tests/test_policy_kernels.py``) holds it to that: the kernel consumes
every random stream draw-for-draw exactly as the scalar policy would, and
every floating-point expression replicates the scalar arithmetic operation
for operation.  For a fixed seed, results are *bit-for-bit identical* to
the scalar path.  The built-in kernels (EXP3, Full-Information EXP3,
Greedy, Smart EXP3 and its Table-III variants) get there as follows:

* ``Generator.choice(ids, p=probs)`` consumes exactly one uniform double
  and inverts the CDF (cumulative sum, renormalised by its last entry,
  ``searchsorted(..., side="right")``).  The kernels replicate this
  pipeline with one ``rng.random()`` per live device per decision —
  verified against NumPy, including the resulting generator state.
* Draws that are *not* single-uniform (``Generator.choice`` without
  probabilities uses rejection sampling of bounded integers, e.g. Smart
  EXP3's exploration pick) are delegated verbatim to the device's private
  generator, one call per row, so the stream position still matches
  exactly.
* Generators are private to their rows, so a batched pass may order
  generator calls freely *across* rows, but never *within* a row: each
  row's calls follow the scalar policy's order (Smart EXP3 draws every
  row's greedy coin before any row's distribution sample).
* Python left-to-right ``sum()`` reductions are replicated with
  sequential column accumulation
  (:func:`~repro.algorithms.kernels.base.sequential_row_sum`, or a
  ``cumsum``) rather than NumPy's pairwise summation, which
  re-associates additions for longer rows.
* Powers the scalar policy evaluates with Python ``**`` (EXP3's decaying
  ``t ** (-1/3)``, Smart EXP3's ``b ** -exponent`` and
  ``ceil((1 + β) ** x)``) are looked up in per-kernel tables whose
  entries are computed by that same Python expression on Python ints
  (EXP3's table by the scalar policy's own
  :func:`~repro.algorithms.exp3.decayed_gamma`) — never ``np.power``,
  whose vectorised loops may round differently, and never a
  module-level cache.  A table is not row state: the kernel lists it in
  :attr:`~repro.algorithms.kernels.base.BatchKernel.SHARED_ARRAY_ATTRS`
  so that membership edits never slice or extend it.
* Draw windows belong to the slot engine
  (:class:`~repro.sim.sharded.engine.ShardEngine`), not to the kernels.
  A row of a kernel with
  :attr:`~repro.algorithms.kernels.base.BatchKernel.uses_slot_draws`
  takes exactly one uniform from its private generator per slot in which
  it is present, whichever kernel group holds it.  So the engine fills
  one ``(drawing rows × slots)`` block with one
  ``Generator.random(out=...)`` call per row, covering each row from the
  later of the window start and its join to its own last present slot —
  the same doubles, and the same final stream position, as that many
  sequential ``random()`` calls — and hands each kernel its rows' column
  every slot (``begin_slot(slot, draws)``).  Joins, leaves and coverage
  changes do not end a window; only a checkpoint barrier, the draw
  budget or the horizon does.  A row that leaves the kernel path with
  draws it has not consumed raises.

A kernel must leave every consumed generator in a valid state of *its
own stream only* (device generators are private; the environment
generator is never touched by kernels — switching delays and stochastic
gain models are drawn by the backend in ascending device order, exactly
as the reference backend does).
"""

from __future__ import annotations

from repro.algorithms.exp3 import EXP3Policy
from repro.algorithms.full_information import FullInformationPolicy
from repro.algorithms.greedy import GreedyPolicy
from repro.algorithms.kernels.base import (
    BatchKernel,
    SlotFeedback,
    sample_rows,
    sequential_row_sum,
)
from repro.algorithms.kernels.exp3 import EXP3Kernel
from repro.algorithms.kernels.full_information import FullInformationKernel
from repro.algorithms.kernels.greedy import GreedyKernel
from repro.algorithms.kernels.smart_exp3 import SmartEXP3Kernel
from repro.algorithms.registry import kernel_for_policy, register_policy_kernel
from repro.core.smart_exp3 import SmartEXP3Policy

register_policy_kernel(EXP3Policy, EXP3Kernel)
register_policy_kernel(FullInformationPolicy, FullInformationKernel)
register_policy_kernel(GreedyPolicy, GreedyKernel)
# One kernel covers Smart EXP3 and the Table-III variants (Block EXP3,
# Hybrid Block EXP3, Smart EXP3 w/o Reset): they switch mechanisms off in
# the config, which the kernel holds as per-row flags, so all four share one
# group; the rest of the config is the batching key.
register_policy_kernel(SmartEXP3Policy, SmartEXP3Kernel)

__all__ = [
    "BatchKernel",
    "EXP3Kernel",
    "FullInformationKernel",
    "GreedyKernel",
    "SlotFeedback",
    "SmartEXP3Kernel",
    "kernel_for_policy",
    "register_policy_kernel",
    "sample_rows",
    "sequential_row_sum",
]
