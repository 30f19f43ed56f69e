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

On membership-stable windows the kernel additionally supports the fused
window path: the interpreted branch (the generic
:meth:`~repro.algorithms.kernels.base.BatchKernel.advance_window` loop,
bit-exact), and — when numba is installed and ``REPRO_COMPILED=1`` /
``REPRO_BENCH_COMPILED=1`` opts in — one compiled mega-loop per window
(:mod:`repro.algorithms.kernels.compiled`, distribution-exact) that advances
sampling, physics, reward update and recorder writes without touching the
Python interpreter between slots.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.exp3 import decayed_gamma
from repro.algorithms.kernels.base import (
    _TABLE_START,
    BatchKernel,
    SlotFeedback,
    WindowPlan,
    _extended,
    sample_rows,
    sequential_row_sum,
)
from repro.algorithms.kernels.compiled import exp3_window_kernel
from repro.xp import asnumpy

_NO_GAMMA = -1.0  # sentinel: decaying gamma (fixed gammas are in (0, 1])


class EXP3Kernel(BatchKernel):
    """Array-native EXP3 over all devices of one group."""

    uses_slot_draws = True
    SHARED_ARRAY_ATTRS = BatchKernel.SHARED_ARRAY_ATTRS + ("_gamma_table",)

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies = self.policies
        xp = self.xp
        # EXP3Policy keeps its weights as an array aligned with
        # available_networks (exposed as weight_values), so the gather is a
        # plain row stack.
        self.weights = xp.asarray(np.stack([p.weight_values for p in policies]))
        self.rounds = xp.asarray(
            np.asarray([p._round for p in policies], dtype=np.int64)
        )
        self.fixed_gamma = xp.asarray(
            np.asarray(
                [
                    _NO_GAMMA if p._fixed_gamma is None else p._fixed_gamma
                    for p in policies
                ],
                dtype=float,
            )
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
        xp = self.xp
        rounds = asnumpy(self.rounds)
        try:
            decayed = self._gamma_table[rounds]
        except IndexError:
            table = self._gamma_table
            size = max(int(rounds.max()) + 1, 2 * table.size, _TABLE_START)
            self._gamma_table = table = _extended(table, size, decayed_gamma)
            decayed = table[rounds]
        fixed = self.fixed_gamma
        return xp.where(fixed == _NO_GAMMA, xp.asarray(decayed), fixed)

    def begin_slot(self, slot: int) -> np.ndarray:
        xp = self.xp
        self.rounds += 1
        self._slot_gamma = gamma = self._gammas()
        weights = self.weights
        total = xp.sum(weights, axis=1)
        k = self.num_networks
        probs = (1.0 - gamma)[:, None] * weights / total[:, None] + (gamma / k)[
            :, None
        ]
        self._probs = probs
        local = sample_rows(probs, self.rngs, draws=self._take_draws(), xp=xp)
        self._last_local = local
        self._last_probability = probs[self._arange, local]
        return self.cols[asnumpy(local)]

    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        xp = self.xp
        gamma = self._slot_gamma
        estimated = gains / xp.maximum(self._last_probability, 1e-12)
        k = self.num_networks
        self.weights[self._arange, self._last_local] *= xp.exp(
            gamma * estimated / k
        )
        row_max = self.weights.max(axis=1)
        needs_scaling = (row_max > 1e100) | (row_max < 1e-100)
        if needs_scaling.any():
            self.weights[needs_scaling] /= row_max[needs_scaling, None]
        # EXP3Policy.probabilities renormalises by a Python sum() — replicate
        # the left-to-right accumulation before the block write.
        probs = self._probs
        total = sequential_row_sum(probs)
        self.record_probability_block(slot_index, asnumpy(probs / total[:, None]))

    def advance_window(self, window: WindowPlan) -> None:
        """Fused window: compiled mega-loop when enabled, else interpreted.

        The compiled branch engages only when every precondition holds —
        numba compiled kernels enabled, a fully pre-drawn uniform buffer
        covering the window, probability recording off, the NumPy namespace
        active and no fixed-size mismatch; anything else falls back to the
        generic interpreted loop, which stays bit-exact.
        """
        jitted = exp3_window_kernel()
        draws = self._window_draws
        if (
            jitted is None
            or draws is None
            or self.recorder.probabilities is not None
            or not isinstance(self.weights, np.ndarray)
            or draws.shape[1] - self._window_pos < window.n_slots
        ):
            super().advance_window(window)
            return
        size = self.size
        probs = np.empty((size, self.num_networks), dtype=float)
        gamma_buf = np.empty(size, dtype=float)
        counts_buf = np.zeros(window.num_networks, dtype=np.int64)
        self._last_local = np.ascontiguousarray(self._last_local, dtype=np.intp)
        self._last_probability = np.ascontiguousarray(
            self._last_probability, dtype=float
        )
        jitted(
            window.n_slots,
            window.idx_lo,
            self.weights,
            self.rounds,
            self.fixed_gamma,
            draws,
            self._window_pos,
            self.rows,
            self.cols,
            window.net_ids,
            window.bandwidths,
            window.num_networks,
            window.scale_ref,
            window.prev,
            window.delay_table,
            window.choices2d,
            window.rates2d,
            window.delays2d,
            window.switches2d,
            self._last_local,
            self._last_probability,
            probs,
            gamma_buf,
            counts_buf,
        )
        self._window_pos += window.n_slots
        if self._window_pos >= draws.shape[1]:
            self._window_draws = None
            self._window_pos = 0
        self._probs = probs

    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        probs = None if self._probs is None else asnumpy(self._probs)
        weights = asnumpy(self.weights)
        rounds = asnumpy(self.rounds)
        last_local = asnumpy(self._last_local)
        last_probability = asnumpy(self._last_probability)
        for j in indices:
            policy = self.policies[j]
            policy.weight_values[:] = weights[j]
            policy._round = int(rounds[j])
            policy._last_choice = self.nets[last_local[j]]
            policy._last_probability = float(last_probability[j])
            if probs is not None:
                policy._current_prob_ids = self.nets
                policy._current_prob_values = probs[j].copy()
