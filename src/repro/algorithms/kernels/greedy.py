"""Batched Greedy: average-gain statistics and argmax selection as arrays.

Greedy consumes no randomness after construction, so the kernel is trivially
bit-exact; the work is replicating the scalar tie-breaking loop (ties favour
the current network, then the lowest id) exactly.  That loop runs over the
*network* axis — a handful of columns — while every comparison is vectorized
over the device axis, inverting the scalar cost profile.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.kernels.base import BatchKernel, SlotFeedback

_NO_CHOICE = -1


class GreedyKernel(BatchKernel):
    """Array-native explore-once-then-argmax selection."""

    ROW_LIST_ATTRS = ("to_explore",)

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies = self.policies
        col_of = self.col_of
        self.gain_sum = np.asarray(
            [[p._gain_sum[n] for n in self.nets] for p in policies], dtype=float
        )
        self.gain_count = np.asarray(
            [[p._gain_count[n] for n in self.nets] for p in policies],
            dtype=np.int64,
        )
        # Remaining exploration queues (non-empty only in the first slots of a
        # run or after a coverage change), as local column lists.
        self.to_explore: list[list[int]] = [
            [col_of[n] for n in p._to_explore] for p in policies
        ]
        self.last_local = np.asarray(
            [
                _NO_CHOICE if p._last_choice is None else col_of[p._last_choice]
                for p in policies
            ],
            dtype=np.intp,
        )
        self._exploring = [j for j in range(self.size) if self.to_explore[j]]

    def _refresh_derived(self) -> None:
        self._exploring = [j for j in range(self.size) if self.to_explore[j]]

    def _best_locals(self) -> np.ndarray:
        """Per-row best network, replicating ``GreedyPolicy._best_network``.

        The scalar loop scans networks in ascending id order keeping a running
        best; this runs the same scan with each comparison vectorized over the
        device axis, so the epsilon tie-breaking semantics carry over exactly.
        """
        counts = self.gain_count
        averages = np.where(
            counts == 0, 0.0, self.gain_sum / np.maximum(counts, 1)
        )
        best_gain = np.full(self.size, -1.0)
        best_local = np.zeros(self.size, dtype=np.intp)
        for col in range(self.num_networks):
            gain = averages[:, col]
            better = gain > best_gain + 1e-12
            tie_stay = (np.abs(gain - best_gain) <= 1e-12) & (
                self.last_local == col
            )
            update = better | tie_stay
            best_gain[update] = gain[update]
            best_local[update] = col
        return best_local

    def begin_slot(self, slot: int) -> np.ndarray:
        if self._exploring:
            local = self._best_locals()
            still = []
            for j in self._exploring:
                local[j] = self.to_explore[j].pop(0)
                if self.to_explore[j]:
                    still.append(j)
            self._exploring = still
        else:
            local = self._best_locals()
        self.last_local = local
        return self.cols[local]

    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        self.gain_sum[self._arange, self.last_local] += gains
        self.gain_count[self._arange, self.last_local] += 1
        if self.recorder.probabilities is None:
            return
        # Recorded strategy: uniform while still exploring, otherwise the
        # degenerate distribution on the (post-update) best network.
        probs = np.zeros((self.size, self.num_networks), dtype=float)
        probs[self._arange, self._best_locals()] = 1.0
        exploring = [j for j in range(self.size) if self.to_explore[j]]
        if exploring:
            probs[exploring] = 1.0 / self.num_networks
        self.record_probability_block(slot_index, probs)

    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        for j in indices:
            policy = self.policies[j]
            policy._gain_sum = {
                net: float(s) for net, s in zip(self.nets, self.gain_sum[j])
            }
            policy._gain_count = {
                net: int(c) for net, c in zip(self.nets, self.gain_count[j])
            }
            policy._to_explore = [self.nets[col] for col in self.to_explore[j]]
            last = self.last_local[j]
            policy._last_choice = None if last == _NO_CHOICE else self.nets[last]
