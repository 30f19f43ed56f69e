"""Batched EXP3: the multiplicative-weights update as one array op per slot.

All EXP3 devices of a segment advance together: one ``(devices × networks)``
probability computation, one uniform draw per device (CDF inversion, see
:func:`repro.algorithms.kernels.base.sample_rows`), one fused importance-
weighted update, one block write of the recorded strategies.  Every floating
point expression mirrors :class:`repro.algorithms.exp3.EXP3Policy` operation
for operation, so the kernel is bit-exact with the scalar policy.  The
decaying γ is one lookup per slot in a per-kernel table filled by the scalar
policy's own :func:`~repro.algorithms.exp3.decayed_gamma`, whatever the
number of distinct round counts among the rows (per-slot churn makes nearly
every row's count distinct); ``end_slot`` reuses the row ``begin_slot``
looked up.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.exp3 import decayed_gamma
from repro.algorithms.kernels.base import (
    _TABLE_START,
    BatchKernel,
    SlotFeedback,
    _extended,
    sample_rows,
    sequential_row_sum,
)

_NO_GAMMA = -1.0  # sentinel: decaying gamma (fixed gammas are in (0, 1])


class EXP3Kernel(BatchKernel):
    """Array-native EXP3 over all devices of one group."""

    uses_slot_draws = True
    SHARED_ARRAY_ATTRS = BatchKernel.SHARED_ARRAY_ATTRS + ("_gamma_table",)

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies = self.policies
        # EXP3Policy keeps its weights as an array aligned with
        # available_networks (exposed as weight_values), so the gather is a
        # plain row stack.
        self.weights = np.stack([p.weight_values for p in policies])
        self.rounds = np.asarray([p._round for p in policies], dtype=np.int64)
        self.fixed_gamma = np.asarray(
            [
                _NO_GAMMA if p._fixed_gamma is None else p._fixed_gamma
                for p in policies
            ],
            dtype=float,
        )
        self._probs: np.ndarray | None = None
        self._last_local = np.zeros(self.size, dtype=np.intp)
        self._last_probability = np.ones(self.size, dtype=float)
        #: Decayed γ by round count (not row state: see SHARED_ARRAY_ATTRS).
        #: Filled on the first lookup, so a kernel gathered for joining rows
        #: and absorbed before its first slot never fills one.
        self._gamma_table = np.empty(0)
        #: This slot's γ per row, looked up by begin_slot for end_slot.
        self._slot_gamma = self.fixed_gamma.copy()

    def _gammas(self) -> np.ndarray:
        """Per-row exploration rate: the fixed γ, else the table's decayed γ.

        γ never overflows, so the table grows geometrically (at least
        doubling) rather than to exactly the largest round looked up.
        """
        rounds = self.rounds
        try:
            decayed = self._gamma_table[rounds]
        except IndexError:
            table = self._gamma_table
            size = max(int(rounds.max()) + 1, 2 * table.size, _TABLE_START)
            self._gamma_table = table = _extended(table, size, decayed_gamma)
            decayed = table[rounds]
        fixed = self.fixed_gamma
        return np.where(fixed == _NO_GAMMA, decayed, fixed)

    def begin_slot(self, slot: int, draws: np.ndarray | None = None) -> np.ndarray:
        self.rounds += 1
        self._slot_gamma = gamma = self._gammas()
        weights = self.weights
        total = np.sum(weights, axis=1)
        k = self.num_networks
        probs = (1.0 - gamma)[:, None] * weights / total[:, None] + (gamma / k)[
            :, None
        ]
        self._probs = probs
        local = sample_rows(probs, self.rngs, draws)
        self._last_local = local
        self._last_probability = probs[self._arange, local]
        return self.cols[local]

    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        gamma = self._slot_gamma
        estimated = gains / np.maximum(self._last_probability, 1e-12)
        k = self.num_networks
        self.weights[self._arange, self._last_local] *= np.exp(
            gamma * estimated / k
        )
        row_max = self.weights.max(axis=1)
        needs_scaling = (row_max > 1e100) | (row_max < 1e-100)
        if needs_scaling.any():
            self.weights[needs_scaling] /= row_max[needs_scaling, None]
        if self.recorder.probabilities is None:
            return
        # EXP3Policy.probabilities renormalises by a Python sum() — replicate
        # the left-to-right accumulation before the block write.
        probs = self._probs
        total = sequential_row_sum(probs)
        self.record_probability_block(slot_index, probs / total[:, None])

    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        probs = self._probs
        weights = self.weights
        rounds = self.rounds
        last_local = self._last_local
        last_probability = self._last_probability
        for j in indices:
            policy = self.policies[j]
            policy.weight_values[:] = weights[j]
            policy._round = int(rounds[j])
            policy._last_choice = self.nets[last_local[j]]
            policy._last_probability = float(last_probability[j])
            if probs is not None:
                policy._current_prob_ids = self.nets
                policy._current_prob_values = probs[j].copy()
