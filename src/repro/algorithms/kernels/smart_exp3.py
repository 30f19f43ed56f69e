"""Batched Smart EXP3: the full four-mechanism state machine over arrays.

Every Smart EXP3 mechanism keeps its state as rows of ``(devices × networks)``
(or per-device) arrays:

* adaptive blocking — current-block network/length/elapsed/total-gain rows
  plus the per-network selection counters;
* greedy choices — gain-sum/count matrices and the greedy-gate latch;
* switch-back — the trailing ``switchback_window`` gains of the current
  block and of the previous one;
* minimal reset — per-device connection histories for the drop detector and
  the usage counters behind ``i_max``.

The per-slot cost follows block events, not rows × mechanisms.  Each row's
γ and mixed strategy are cached row arrays, refreshed only where a block
starts (the block index moves γ) or is finalised (the weight update moves
the strategy), and ``end_slot`` writes the cached matrix to the recorder.
A device inside a block costs a fixed handful of whole-array operations per
slot: the gain accumulation, the tracker scatter-adds and one shift of the
right-aligned switch-back and detector windows.  The switch-back rule and
the drop detector's medians run in one pass over the rows they concern
(:func:`switch_back_rows`, :func:`window_medians`).

Block starts are not rare — about a quarter of all device-slots for
``smart_exp3`` on setting 1 at 300 slots — so all of a slot's starts run as
one array pass as well: switch-back targets, exploration, the greedy gate
and its latch, the best tracked network, the block lengths and one
:func:`~repro.algorithms.kernels.base.sample_rows` call.  Only each row's
own generator calls stay in Python, in the scalar policy's per-row order:
the exploration pick (``Generator.choice``, delegated verbatim), then the
greedy coin, then the single-uniform distribution sample.  Generators are
private to their rows, so drawing every row's coin before any row's sample
leaves each stream exactly where the scalar policy leaves it.

The powers the scalar policy evaluates in Python — ``b ** -exponent`` for γ
and ``ceil((1 + β) ** x)`` for block lengths — come from per-kernel lookup
tables whose entries are computed by that same Python expression, so every
lookup is bit-equal to the scalar value.  Block lengths are float64: each
``ceil((1 + β) ** x)`` is an integer-valued double, held exactly for every
count the scalar expression can evaluate, where int64 would overflow from
``x ≈ 440`` at ``β = 0.1``.

State round-trips through the scalar policy at segment boundaries via the
array-view accessors on the :mod:`repro.core` mechanism classes
(``export_counts``/``load_counts``, ``export_arrays``/``load_arrays``,
``export_state``/``load_state``, ``load_latched``).  One subtlety: the scalar
``Block`` stores every per-slot gain, while the kernel keeps only the running
total, the trailing window, and the sequential partial sum of everything that
left the window.  The scatter therefore fabricates a gain list — zeros, the
partial sum, then the tail — whose Python left-to-right ``sum()`` and length
reproduce the true block total and elapsed-slot count bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.kernels.base import (
    _TABLE_START,
    BatchKernel,
    SlotFeedback,
    _extended,
    sample_rows,
)
from repro.core.blocking import Block, SelectionType
from repro.core.smart_exp3 import SmartEXP3Policy
from repro.core.switchback import BlockHistory

_NONE = -1  # sentinel for "no network" / "no block" / "not latched"

_TYPE_LIST = (
    SelectionType.EXPLORATION,
    SelectionType.RANDOM,
    SelectionType.RANDOM_AFTER_COIN,
    SelectionType.GREEDY,
    SelectionType.SWITCH_BACK,
)
_TYPE_CODE = {selection_type: code for code, selection_type in enumerate(_TYPE_LIST)}
_EXPLORATION = _TYPE_CODE[SelectionType.EXPLORATION]
_RANDOM = _TYPE_CODE[SelectionType.RANDOM]
_RANDOM_AFTER_COIN = _TYPE_CODE[SelectionType.RANDOM_AFTER_COIN]
_GREEDY = _TYPE_CODE[SelectionType.GREEDY]
_SWITCH_BACK = _TYPE_CODE[SelectionType.SWITCH_BACK]


def switch_back_rows(
    history: np.ndarray, length: np.ndarray, gain: np.ndarray
) -> np.ndarray:
    """``SwitchBackRule.should_switch_back`` for many rows at once.

    ``history`` holds each row's previous-block gains right-aligned (the last
    ``length`` columns, oldest first) with zeros before them; ``gain`` is the
    first-slot gain of each row's current block.  The rows passed in must
    already satisfy the rule's structural conditions (a previous block with
    data, on another network, neither block a switch-back).  The average is a
    sequential accumulation, as Python's ``sum()`` computes it.
    """
    width = history.shape[1]
    valid = np.arange(width) >= (width - length)[:, None]
    average = np.cumsum(history, axis=1)[:, -1] / length
    better = np.count_nonzero(valid & (history > (gain + 1e-12)[:, None]), axis=1)
    return (
        (gain < average - 1e-12)
        | (gain < history[:, -1] - 1e-12)
        | (better / length > 0.5)
    )


def window_medians(
    history: np.ndarray, length: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """The drop detector's reference and recent medians for many rows at once.

    ``history`` holds each row's connection gains right-aligned (the last
    ``length`` columns, oldest first); the recent window is the last
    ``window`` columns and the reference is everything before it, as in
    ``DropDetector.observe``.  Each median is what ``np.median`` returns:
    the mean of the two middle order statistics (for an odd count, the
    middle one added to itself and halved, which is exact).
    """
    width = history.shape[1] - window
    split = length - window
    reference = np.where(
        np.arange(width) >= (width - split)[:, None], history[:, :width], np.inf
    )
    reference.sort(axis=1)
    recent = np.sort(history[:, width:], axis=1)
    return _middle(reference, split), _middle(recent, window)


def _middle(sorted_rows: np.ndarray, count) -> np.ndarray:
    """Median of the first ``count`` entries of each sorted row."""
    rows = np.arange(sorted_rows.shape[0])
    low = sorted_rows[rows, (count - 1) // 2]
    high = sorted_rows[rows, count // 2]
    return (low + high) / 2


class SmartEXP3Kernel(BatchKernel):
    """Array-native Smart EXP3 (and its Table-III variants, via the config)."""

    SHARED_ARRAY_ATTRS = BatchKernel.SHARED_ARRAY_ATTRS + (
        "_gamma_table",
        "_length_table",
    )

    @classmethod
    def group_key(cls, policy):
        # The config drives every mechanism flag and constant, so devices
        # batch together only when their whole parameterisation matches.
        return (type(policy), policy.available_networks, policy.config)

    def __init__(self, entries, recorder) -> None:
        super().__init__(entries, recorder)
        policies: list[SmartEXP3Policy] = self.policies
        first = policies[0]
        self.config = first.config
        detector = first._reset_policy.drop_detector
        self.sb_window = self.config.switchback_window
        self.drop_window = detector.window_slots
        self.min_conn = detector.min_connection_slots
        self.drop_fraction = detector.drop_fraction
        self.max_hist = detector.reference_window_slots + detector.window_slots
        self._gamma_table = _extended(np.empty(0), _TABLE_START, self._gamma_value)
        self._length_table = _extended(np.empty(0), _TABLE_START, self._length_value)

        size = self.size
        col_of = self.col_of

        self.weights = np.asarray(
            [[p._weights[n] for n in self.nets] for p in policies], dtype=float
        )
        self.sel_counts = np.asarray(
            [p._scheduler.export_counts(self.nets) for p in policies],
            dtype=np.int64,
        )
        tracker_rows = [p._gain_tracker.export_arrays(self.nets) for p in policies]
        self.gain_sum = np.asarray([row[0] for row in tracker_rows], dtype=float)
        self.gain_cnt = np.asarray([row[1] for row in tracker_rows], dtype=np.int64)
        self.usage = np.asarray(
            [[p._slot_usage.get(n, 0) for n in self.nets] for p in policies],
            dtype=np.int64,
        )
        self.explore = np.asarray(
            [[n in p._explore_set for n in self.nets] for p in policies],
            dtype=bool,
        )
        self.latched = np.asarray(
            [
                _NONE
                if p._greedy_gate.latched_length is None
                else p._greedy_gate.latched_length
                for p in policies
            ],
            dtype=float,
        )
        self.block_index = np.asarray(
            [p._block_index for p in policies], dtype=np.int64
        )
        self.reset_count = np.asarray(
            [p.reset_count for p in policies], dtype=np.int64
        )
        self.last_probs = np.asarray(
            [
                [p._current_probabilities.get(n, 0.0) for n in self.nets]
                for p in policies
            ],
            dtype=float,
        )
        # Cached γ and mixed strategy (see the module docstring).
        self.gamma = self._gammas(self.block_index)
        self.probs = np.empty((size, self.num_networks), dtype=float)
        self._refresh_strategy(self._arange)

        # Current block rows; ``tail`` holds the trailing window right-aligned
        # and zero before it.
        self.blk_net = np.full(size, _NONE, dtype=np.intp)
        self.blk_len = np.ones(size, dtype=float)
        self.blk_elapsed = np.zeros(size, dtype=np.int64)
        self.blk_total = np.zeros(size, dtype=float)
        self.blk_prob = np.ones(size, dtype=float)
        self.blk_type = np.zeros(size, dtype=np.int8)
        self.blk_trunc = np.zeros(size, dtype=bool)
        self.tail = np.zeros((size, self.sb_window), dtype=float)
        self.pre_tail_sum = np.zeros(size, dtype=float)
        #: Blocks whose first slot the switch-back rule still has to check.
        self.sb_armed = np.zeros(size, dtype=bool)

        # Previous-block history (switch-back window), laid out like ``tail``.
        self.prev_net = np.full(size, _NONE, dtype=np.intp)
        self.prev_gains = np.zeros((size, self.sb_window), dtype=float)
        self.prev_len = np.zeros(size, dtype=np.int64)
        self.prev_was_sb = np.asarray(
            [p._previous_was_switch_back for p in policies], dtype=bool
        )
        self.sb_pending = np.asarray(
            [p._switch_back_pending for p in policies], dtype=bool
        )
        self.sb_target = np.asarray(
            [
                col_of.get(p._switch_back_target, _NONE)
                if p._switch_back_target is not None
                else _NONE
                for p in policies
            ],
            dtype=np.intp,
        )
        self.drop_pending = np.asarray(
            [p._drop_reset_pending for p in policies], dtype=bool
        )

        # Drop-detector connection histories, right-aligned like ``tail``.
        self.det_net = np.full(size, _NONE, dtype=np.intp)
        self.det_buf = np.zeros((size, self.max_hist), dtype=float)
        self.det_len = np.zeros(size, dtype=np.int64)

        for j, policy in enumerate(policies):
            block = policy._current_block
            if block is not None:
                self._load_block(j, block)
            history = policy._previous_history
            if history is not None and history.network_id in col_of:
                gains = history.gains[-self.sb_window :]
                self.prev_net[j] = col_of[history.network_id]
                self.prev_len[j] = len(gains)
                self.prev_gains[j, self.sb_window - len(gains) :] = gains
            det_net, det_gains = policy._reset_policy.drop_detector.export_state()
            if det_net is not None and det_net in col_of:
                self.det_net[j] = col_of[det_net]
                self.det_len[j] = len(det_gains)
                self.det_buf[j, self.max_hist - len(det_gains) :] = det_gains

        #: Rows that start a new block in the next ``begin_slot``.
        self.blk_done = (
            (self.blk_net == _NONE)
            | self.blk_trunc
            | (self.blk_elapsed >= self.blk_len)
        )

    def _load_block(self, j: int, block: Block) -> None:
        self.blk_net[j] = self.col_of[block.network_id]
        self.blk_len[j] = block.length
        self.blk_elapsed[j] = block.slots_elapsed
        self.blk_total[j] = float(sum(block.slot_gains))
        self.blk_prob[j] = block.probability
        self.blk_type[j] = _TYPE_CODE[block.selection_type]
        self.blk_trunc[j] = block.truncated
        tail = block.slot_gains[-self.sb_window :]
        self.tail[j, self.sb_window - len(tail) :] = tail
        self.pre_tail_sum[j] = float(sum(block.slot_gains[: -self.sb_window]))

    # ---------------------------------------------------- tables and caches
    def _gamma_value(self, block_index: int) -> float:
        """``SmartEXP3Policy._gamma`` of one block index."""
        config = self.config
        if config.fixed_gamma is not None:
            return config.fixed_gamma
        return min(1.0, max(block_index, 1) ** (-config.gamma_exponent))

    def _length_value(self, count: int) -> int:
        """``BlockScheduler.block_length`` after ``count`` selections."""
        return math.ceil((1.0 + self.config.beta) ** count)

    def _gammas(self, block_index: np.ndarray) -> np.ndarray:
        """γ per block index, looked up in the kernel's table."""
        try:
            return self._gamma_table[block_index]
        except IndexError:
            self._gamma_table = _extended(
                self._gamma_table, int(block_index.max()) + 1, self._gamma_value
            )
            return self._gamma_table[block_index]

    def _lengths(self, counts: np.ndarray) -> np.ndarray:
        """Block length per selection count, looked up in the kernel's table."""
        try:
            return self._length_table[counts]
        except IndexError:
            self._length_table = _extended(
                self._length_table, int(counts.max()) + 1, self._length_value
            )
            return self._length_table[counts]

    def _refresh_strategy(self, rows: np.ndarray) -> np.ndarray:
        """Recompute (and return) the cached mixed strategy of ``rows`` from
        their weights and γ, operation for operation as
        ``_compute_probabilities``."""
        gamma = self.gamma[rows]
        weights = self.weights.take(rows, axis=0)
        total = weights.sum(axis=1)
        probs = (1.0 - gamma)[:, None] * weights / total[:, None] + (
            gamma / self.num_networks
        )[:, None]
        self.probs[rows] = probs
        return probs

    # ----------------------------------------------------------- block starts
    def begin_slot(self, slot: int) -> np.ndarray:
        starting = self.blk_done.nonzero()[0]
        if starting.size:
            self._start_blocks(starting)
        return self.cols[self.blk_net]

    def _start_blocks(self, rows: np.ndarray) -> None:
        """``SmartEXP3Policy._start_new_block`` for every row in ``rows``."""
        config = self.config
        block_index = self.block_index[rows] + 1
        self.block_index[rows] = block_index
        self.gamma[rows] = self._gammas(block_index)
        probs = self._refresh_strategy(rows)
        self.last_probs[rows] = probs

        net = np.empty(rows.size, dtype=np.intp)
        prob = np.empty(rows.size, dtype=float)
        kind = np.empty(rows.size, dtype=np.int8)
        # Rows that neither switch back nor explore choose from what they
        # learned: the greedy coin or the distribution.
        learned = np.ones(rows.size, dtype=bool)
        if config.enable_switchback:
            back = self.sb_pending[rows] & (self.sb_target[rows] != _NONE)
            hit = rows[back]
            if hit.size:
                net[back] = self.sb_target[hit]
                prob[back] = 1.0
                kind[back] = _SWITCH_BACK
                self.sb_pending[hit] = False
                self.sb_target[hit] = _NONE
                learned &= ~back
        if config.enable_initial_exploration and self.explore.any():
            exploring = learned & self.explore.take(rows, axis=0).any(axis=1)
            for i in exploring.nonzero()[0]:
                j = rows[i]
                candidates = self.explore[j].nonzero()[0]
                col = int(self.rngs[j].choice(candidates))
                self.explore[j, col] = False
                net[i] = col
                prob[i] = 1.0 / candidates.size
                kind[i] = _EXPLORATION
                learned[i] = False
        picks = learned.nonzero()[0]
        if picks.size:
            net[picks], prob[picks], kind[picks] = self._choose_learned(
                rows[picks], probs[picks]
            )

        counts = self.sel_counts[rows, net]
        self.sel_counts[rows, net] = counts + 1
        self.blk_len[rows] = self._lengths(counts)
        self.blk_net[rows] = net
        self.blk_elapsed[rows] = 0
        self.blk_total[rows] = 0.0
        # Same one-ulp clamp as SmartEXP3Policy._start_new_block (a
        # one-network strategy set can push the sampled probability to 1+ulp).
        self.blk_prob[rows] = np.minimum(prob, 1.0)
        self.blk_type[rows] = kind
        self.blk_trunc[rows] = False
        self.blk_done[rows] = False
        self.tail[rows] = 0.0
        self.pre_tail_sum[rows] = 0.0
        if config.enable_switchback:
            # The rule's structural conditions: this block is neither a
            # switch-back nor exploration, and the previous one has data, is
            # on another network and was not a switch-back either.
            self.sb_armed[rows] = (
                learned
                & (self.prev_len[rows] > 0)
                & (self.prev_net[rows] != net)
                & ~self.prev_was_sb[rows]
            )

    def _choose_learned(
        self, rows: np.ndarray, probs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``SmartEXP3Policy._choose_learned`` for ``rows``: the greedy coin,
        else one sample from the distribution."""
        config = self.config
        rngs = self.rngs
        greedy_probability = config.greedy_probability
        if config.enable_greedy and self.num_networks > 1:
            gated = self._greedy_gate(rows, probs)
        else:
            gated = np.zeros(rows.size, dtype=bool)
        net = np.empty(rows.size, dtype=np.intp)
        greedy = np.zeros(rows.size, dtype=bool)
        flips = gated.nonzero()[0]
        if flips.size:
            coins = np.asarray([rngs[j].random() for j in rows[flips].tolist()])
            heads = flips[coins < greedy_probability]
            if heads.size:
                best = self._best_tracked(rows[heads])
                found = best != _NONE
                net[heads[found]] = best[found]
                greedy[heads[found]] = True
        draws = (~greedy).nonzero()[0]
        if draws.size:
            net[draws] = sample_rows(
                probs[draws], [rngs[j] for j in rows[draws].tolist()]
            )
        prob = probs[np.arange(rows.size), net]
        prob = np.where(gated, prob * (1.0 - greedy_probability), prob)
        prob[greedy] = greedy_probability
        kind = np.where(gated, _RANDOM_AFTER_COIN, _RANDOM).astype(np.int8)
        kind[greedy] = _GREEDY
        return net, prob, kind

    def _greedy_gate(self, rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """``GreedyGate.allows_greedy`` for ``rows``, latching ``y`` wherever
        condition (a) fails for the first time."""
        k = self.num_networks
        gate = probs.max(axis=1) - probs.min(axis=1) <= 1.0 / (k - 1) + 1e-12
        closed = (~gate).nonzero()[0]
        if closed.size:
            shut = rows[closed]
            top_length = self._lengths(
                self.sel_counts[shut, probs[closed].argmax(axis=1)]
            )
            latched = self.latched[shut]
            latched = np.where(latched == _NONE, top_length, latched)
            self.latched[shut] = latched
            gate[closed] = top_length < latched
        return gate

    def _best_tracked(self, rows: np.ndarray) -> np.ndarray:
        """``GainTracker.best_network`` for ``rows`` (``_NONE`` if unobserved):
        the scalar running-best scan over networks, each comparison
        vectorised over rows so the epsilon semantics carry over exactly."""
        counts = self.gain_cnt.take(rows, axis=0)
        averages = self.gain_sum.take(rows, axis=0) / np.maximum(counts, 1)
        best = np.full(rows.size, _NONE, dtype=np.intp)
        best_gain = np.full(rows.size, -1.0)
        for col in range(self.num_networks):
            gain = averages[:, col]
            better = (counts[:, col] > 0) & (gain > best_gain + 1e-12)
            best[better] = col
            best_gain[better] = gain[better]
        return best

    # -------------------------------------------------------------- feedback
    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        config = self.config
        arange = self._arange
        net = self.blk_net
        gain = np.clip(gains, 0.0, 1.0)

        self.blk_elapsed += 1
        self.blk_total += gain
        # The tail is zero before a block's first gains, so its first column
        # is the gain leaving the window once the window is full, else 0.0.
        self.pre_tail_sum += self.tail[:, 0]
        self.tail[:, :-1] = self.tail[:, 1:]
        self.tail[:, -1] = gain

        self.gain_sum[arange, net] += gain
        self.gain_cnt[arange, net] += 1
        self.usage[arange, net] += 1

        if config.enable_switchback:
            armed = self.sb_armed.nonzero()[0]
            if armed.size:
                self._apply_switch_back(armed, gain)
        if config.enable_reset:
            self._apply_drop_detection(gain)

        self.blk_done = self.blk_trunc | (self.blk_elapsed >= self.blk_len)
        ended = self.blk_done.nonzero()[0]
        if ended.size:
            self._finalize_blocks(ended)

        self.record_probability_block(slot_index, self.probs)

    def _apply_switch_back(self, rows: np.ndarray, gain: np.ndarray) -> None:
        self.sb_armed[rows] = False
        back = switch_back_rows(
            self.prev_gains.take(rows, axis=0), self.prev_len[rows], gain[rows]
        )
        hit = rows[back]
        self.blk_trunc[hit] = True
        self.sb_pending[hit] = True
        self.sb_target[hit] = self.prev_net[hit]

    def _apply_drop_detection(self, gain: np.ndarray) -> None:
        net = self.blk_net
        # Connection histories restart whenever the device changes network.
        self.det_len[self.det_net != net] = 0
        self.det_net[:] = net
        self.det_buf[:, :-1] = self.det_buf[:, 1:]
        self.det_buf[:, -1] = gain
        np.minimum(self.det_len + 1, self.max_hist, out=self.det_len)

        rows = (self.det_len > self.min_conn + self.drop_window).nonzero()[0]
        if not rows.size:
            return
        # i_max: the network used for more than half of all connected slots
        # (a network with more than half the slots is the unique argmax).
        usage = self.usage.take(rows, axis=0)
        most_used = 2 * usage[np.arange(rows.size), net[rows]] > usage.sum(axis=1)
        rows = rows[most_used]
        if not rows.size:
            return
        reference, recent = window_medians(
            self.det_buf.take(rows, axis=0), self.det_len[rows], self.drop_window
        )
        dropped = (reference > 0) & (
            recent <= (1.0 - self.drop_fraction) * reference
        )
        hit = rows[dropped]
        self.drop_pending[hit] = True
        self.blk_trunc[hit] = True

    def _finalize_blocks(self, rows: np.ndarray) -> None:
        config = self.config
        net = self.blk_net[rows]
        estimated = self.blk_total[rows] / np.maximum(self.blk_prob[rows], 1e-12)
        self.weights[rows, net] *= np.exp(
            self.gamma[rows] * estimated / self.num_networks
        )
        row_max = self.weights.take(rows, axis=0).max(axis=1)
        needs_scaling = (row_max > 1e100) | (row_max < 1e-100)
        scaled = rows[needs_scaling]
        if scaled.size:
            self.weights[scaled] /= row_max[needs_scaling, None]
        probs = self._refresh_strategy(rows)

        self.prev_net[rows] = net
        self.prev_gains[rows] = self.tail.take(rows, axis=0)
        self.prev_len[rows] = np.minimum(self.blk_elapsed[rows], self.sb_window)
        self.prev_was_sb[rows] = self.blk_type[rows] == _SWITCH_BACK

        if not config.enable_reset:
            return
        reset = self.drop_pending[rows]
        locked = probs.max(axis=1) >= config.reset_probability_threshold
        locked = locked.nonzero()[0]
        if locked.size:
            top = probs[locked].argmax(axis=1)
            reset[locked] |= (
                self._lengths(self.sel_counts[rows[locked], top])
                >= config.reset_block_length_threshold
            )
        reset_rows = rows[reset]
        if reset_rows.size:
            self._do_reset(reset_rows)

    def _do_reset(self, rows: np.ndarray) -> None:
        """Minimal reset: forget blocks and greedy data, keep the weights."""
        self.sel_counts[rows] = 0
        self.gain_sum[rows] = 0.0
        self.gain_cnt[rows] = 0
        self.det_net[rows] = _NONE
        self.det_len[rows] = 0
        if self.config.enable_initial_exploration:
            self.explore[rows] = True
        self.sb_pending[rows] = False
        self.sb_target[rows] = _NONE
        self.prev_net[rows] = _NONE
        self.prev_len[rows] = 0
        self.prev_was_sb[rows] = False
        self.drop_pending[rows] = False
        self.reset_count[rows] += 1

    # ------------------------------------------------------------------ flush
    def flush(self) -> None:
        self._flush_rows(range(self.size))

    def _flush_rows(self, indices) -> None:
        nets = self.nets
        window = self.sb_window
        for j in indices:
            policy = self.policies[j]
            policy._weights = {
                net: float(w) for net, w in zip(nets, self.weights[j])
            }
            policy._block_index = int(self.block_index[j])
            policy._scheduler.load_counts(nets, self.sel_counts[j])
            policy._gain_tracker.load_arrays(
                nets, self.gain_sum[j], self.gain_cnt[j]
            )
            policy._greedy_gate.load_latched(
                None if self.latched[j] == _NONE else int(self.latched[j])
            )
            policy._slot_usage = {
                net: int(c) for net, c in zip(nets, self.usage[j])
            }
            policy._explore_set = {
                nets[c] for c in np.nonzero(self.explore[j])[0]
            }
            policy._switch_back_pending = bool(self.sb_pending[j])
            policy._switch_back_target = (
                None if self.sb_target[j] == _NONE else nets[self.sb_target[j]]
            )
            policy._drop_reset_pending = bool(self.drop_pending[j])
            policy._previous_was_switch_back = bool(self.prev_was_sb[j])
            policy.reset_count = int(self.reset_count[j])
            policy._current_probabilities = {
                net: float(p) for net, p in zip(nets, self.last_probs[j])
            }
            if self.prev_net[j] == _NONE:
                policy._previous_history = None
            else:
                policy._previous_history = BlockHistory(
                    network_id=nets[self.prev_net[j]],
                    gains=[
                        float(x)
                        for x in self.prev_gains[j, window - self.prev_len[j] :]
                    ],
                    window=window,
                )
            detector = policy._reset_policy.drop_detector
            detector.load_state(
                None if self.det_net[j] == _NONE else nets[self.det_net[j]],
                self.det_buf[j, self.max_hist - self.det_len[j] :],
            )
            policy._current_block = self._export_block(j)

    def _export_block(self, j: int) -> Block | None:
        if self.blk_net[j] == _NONE:
            return None
        elapsed = int(self.blk_elapsed[j])
        tail_len = min(elapsed, self.sb_window)
        tail = [float(x) for x in self.tail[j, self.sb_window - tail_len :]]
        if elapsed <= tail_len:
            slot_gains = tail
        else:
            # Fabricate a list whose length and left-to-right sum match the
            # true per-slot history (see the module docstring).
            slot_gains = (
                [0.0] * (elapsed - tail_len - 1)
                + [float(self.pre_tail_sum[j])]
                + tail
            )
        return Block(
            index=int(self.block_index[j]),
            network_id=self.nets[self.blk_net[j]],
            length=int(self.blk_len[j]),
            selection_type=_TYPE_LIST[self.blk_type[j]],
            probability=float(self.blk_prob[j]),
            slot_gains=slot_gains,
            truncated=bool(self.blk_trunc[j]),
        )
