"""Batched Full Information (Hedge): full-feedback updates as matrix ops.

The counterfactual feedback the scalar policy receives as a per-device dict
becomes a ``(devices × networks)`` gain matrix assembled from the engine's
closed-form member/join counterfactual vectors (equal share of the nominal
bandwidths under every gain model), and the per-network loss update
``w ← w · exp(−η · loss)`` becomes one fused array expression.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.kernels.base import BatchKernel, SlotFeedback, sample_rows

_NO_ETA = -1.0  # sentinel: decaying eta (fixed etas are positive)


class FullInformationKernel(BatchKernel):
    """Array-native multiplicative weights with full feedback."""

    needs_full_feedback = True
    #: One uniform per row per slot, unconditionally: the engine pre-draws
    #: them.
    uses_slot_draws = True

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies = self.policies
        self.weights = np.asarray(
            [[p._weights[n] for n in self.nets] for p in policies], dtype=float
        )
        self.rounds = np.asarray([p._round for p in policies], dtype=np.int64)
        self.fixed_eta = np.asarray(
            [_NO_ETA if p._fixed_eta is None else p._fixed_eta for p in policies],
            dtype=float,
        )
        self._last_local = np.zeros(self.size, dtype=np.intp)

    def _etas(self) -> np.ndarray:
        eta = self.fixed_eta.copy()
        decay = eta == _NO_ETA
        if decay.any():
            # Scalar: sqrt(ln k / t) with k floored at 2, t floored at 1.
            k = max(self.num_networks, 2)
            eta[decay] = np.sqrt(np.log(k) / np.maximum(self.rounds[decay], 1))
        return eta

    def begin_slot(self, slot: int, draws: np.ndarray | None = None) -> np.ndarray:
        self.rounds += 1
        total = np.sum(self.weights, axis=1)
        probs = self.weights / total[:, None]
        local = sample_rows(probs, self.rngs, draws)
        self._last_local = local
        return self.cols[local]

    def _feedback_matrix(self, feedback: SlotFeedback) -> np.ndarray:
        # Each row reads its own run's cells (one run: base 0).
        base = feedback.row_base[self.rows]
        gains = feedback.join_gain[base[:, None] + self.cols]
        chosen_cells = base + self.cols[self._last_local]
        gains[self._arange, self._last_local] = feedback.member_gain[chosen_cells]
        return gains

    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        if feedback is None:
            raise ValueError(
                "FullInformationKernel requires counterfactual feedback"
            )
        eta = self._etas()
        losses = 1.0 - np.minimum(np.maximum(self._feedback_matrix(feedback), 0.0), 1.0)
        self.weights *= np.exp(-eta[:, None] * losses)
        row_max = self.weights.max(axis=1)
        needs_scaling = (row_max > 1e100) | (row_max < 1e-100)
        if needs_scaling.any():
            self.weights[needs_scaling] /= row_max[needs_scaling, None]
        if self.recorder.probabilities is None:
            return
        total = np.sum(self.weights, axis=1)
        self.record_probability_block(slot_index, self.weights / total[:, None])

    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        for j in indices:
            policy = self.policies[j]
            policy._weights = {
                net: float(w) for net, w in zip(self.nets, self.weights[j])
            }
            policy._round = int(self.rounds[j])
            policy._last_choice = self.nets[self._last_local[j]]
