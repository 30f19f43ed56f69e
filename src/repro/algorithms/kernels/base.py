"""The :class:`BatchKernel` protocol and shared array helpers.

A batch kernel executes *all* devices of one policy family as array programs
over ``(num_devices × num_networks)`` NumPy state.  The slot engine
(:mod:`repro.sim.sharded.engine`) groups the live (non-frozen) devices by
``(kernel class, group key)`` — devices in one group share the policy class,
the visible-network set and any configuration the kernel declares relevant —
builds one kernel per group, and replaces the ``2·N`` per-slot Python calls
(``begin_slot`` / ``end_slot`` per device) with one fused ``begin_slot`` /
``end_slot`` pair per kernel.

Lifecycle (kernels persist across the whole run; topology changes edit the
membership instead of tearing the group down):

1. ``__init__`` *gathers* the scalar policies' state into arrays.
2. ``begin_slot`` returns the global network-column choice for every row.
3. ``end_slot`` consumes the realised gains, updates the batched state and
   writes the per-slot mixed strategies into the recorder as one block write
   (a run that records no probabilities skips building them too).
4. ``remove_rows`` / ``absorb`` apply topology edits in place: a departing or
   coverage-changed device is scattered back to its scalar policy and its
   rows deleted; joining devices are gathered by constructing a small kernel
   of the same class and concatenating its row state.
5. ``flush`` *scatters* every row back into the scalar policy objects at the
   end of the run (and ``_flush_rows`` does it for membership edits), so the
   final result assembly observes exactly the state a pure scalar execution
   would have.

Row state is discovered structurally: every ``ndarray`` attribute whose
leading axis has length ``size`` is treated as one-row-per-device (plus the
``policies`` / ``runtimes`` / ``rngs`` lists and any Python-list state the
kernel declares in :attr:`BatchKernel.ROW_LIST_ATTRS`), unless the kernel
names it in :attr:`BatchKernel.SHARED_ARRAY_ATTRS`.  Kernels with
derived, index-valued caches rebuild them in :meth:`BatchKernel._refresh_derived`.

The RNG-equivalence contract is documented in
:mod:`repro.algorithms.kernels`; the helpers below implement its two pillars:
single-draw CDF inversion that is bit-compatible with
``numpy.random.Generator.choice`` and a sequential row sum that reproduces
Python's left-to-right ``sum()`` exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.algorithms.base import Policy


@dataclass
class SlotFeedback:
    """Per-slot physics context handed to kernels that need full feedback.

    ``member_gain`` / ``join_gain`` are global per-network-column arrays (the
    closed-form equal-share counterfactuals, which hold under every gain
    model), one block of columns per run of a stacked engine: recorder row
    ``r`` reads cells ``row_base[r] + column``.
    """

    member_gain: np.ndarray
    join_gain: np.ndarray
    row_base: np.ndarray


def sequential_row_sum(matrix: np.ndarray) -> np.ndarray:
    """Row sums accumulated strictly left to right.

    Reproduces bit-for-bit what ``sum(dict.values())`` computes in the scalar
    policies (Python's ``sum`` is a sequential left-to-right reduction, while
    ``np.sum`` switches to pairwise summation for longer rows).
    """
    total = matrix[:, 0].copy()
    for col in range(1, matrix.shape[1]):
        total += matrix[:, col]
    return total


#: Entries a lookup table starts with (see :func:`_extended`).  The initial
#: fill never raises: Smart EXP3's ``(1 + β) ** 63`` cannot overflow for any
#: valid ``β`` (at most 1).
_TABLE_START = 64


def _extended(table: np.ndarray, size: int, value) -> np.ndarray:
    """``table`` grown to ``size`` entries, entry ``x`` being ``value(x)``.

    ``x`` is a Python int, so ``value`` evaluates exactly the Python
    expression the scalar policy evaluates (``np.power`` may round
    differently).  A caller whose expression can overflow grows its table
    only to the largest key looked up, a key the scalar policy evaluates
    too, so the table overflows exactly where the scalar expression does.
    """
    new = [value(x) for x in range(table.size, size)]
    return np.concatenate([table, np.asarray(new, dtype=float)])


def sample_rows(
    prob_matrix,
    rngs: Sequence[np.random.Generator],
    draws=None,
) -> np.ndarray:
    """One categorical sample per row, bit-compatible with ``Generator.choice``.

    Replicates ``rng.choice(ids, p=probs / probs.sum())`` for every row while
    consuming exactly one uniform double from each row's private generator —
    the identical stream position the scalar policy would leave behind.  The
    replicated pipeline is the one inside ``Generator.choice``:
    normalise → cumulative sum → divide by the last partial sum →
    ``searchsorted(..., side="right")`` on one uniform draw.

    ``draws`` (one uniform per row) skips the per-row generator calls: the
    slot engine draws each row's uniforms for a whole window ahead with one
    ``Generator.random(out=...)`` call per row, which yields the
    *identical* double stream as that many sequential ``.random()`` calls
    — so the pre-drawn path stays bit-exact while paying the Python
    generator-call overhead once per window instead of per slot.
    """
    # Array methods rather than np.sum / np.cumsum: the same reductions
    # without the function-level dispatch, which dominates on small groups.
    probs = prob_matrix / prob_matrix.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    if draws is None:
        draws = np.asarray([rng.random() for rng in rngs], dtype=float)
    indices = (cdf <= draws[:, None]).sum(axis=1)
    return np.minimum(indices, prob_matrix.shape[1] - 1)


class BatchKernel(ABC):
    """Batched execution of one group of devices sharing a policy family."""

    #: Mirrors :attr:`repro.algorithms.base.Policy.needs_full_feedback` for
    #: the engine's counterfactual-gain gating.
    needs_full_feedback: bool = False

    #: Python-list attributes holding one entry per row (parallel to
    #: ``policies``); membership edits delete and append their entries
    #: alongside the arrays.
    ROW_LIST_ATTRS: tuple[str, ...] = ()

    #: ``ndarray`` attributes that are *not* row state — column maps, lookup
    #: tables — and must never be sliced or concatenated by membership
    #: edits, even when their length happens to equal ``size``.
    SHARED_ARRAY_ATTRS: tuple[str, ...] = ("cols", "_arange")

    #: Whether ``begin_slot`` consumes exactly one uniform double per row per
    #: slot unconditionally (EXP3 / Full Information).  The slot engine
    #: pre-draws such rows' uniforms for a whole window and hands
    #: ``begin_slot`` each slot's column (``draws``); kernels with
    #: data-dependent RNG consumption (Smart-EXP3's block starts) or none at
    #: all (Greedy) leave this ``False`` and draw from their rows'
    #: generators themselves.
    uses_slot_draws: bool = False

    @classmethod
    def group_key(cls, policy: Policy) -> Hashable | None:
        """Hashable batching key for ``policy``; ``None`` → scalar fallback.

        Devices end up in the same kernel instance iff their kernel class and
        group key are equal.  The visible-network set is always part of the
        key, so one kernel's state matrices share a single network axis.
        """
        return (type(policy), policy.available_networks)

    def __init__(
        self,
        entries: Sequence[tuple[int, object, Policy]],
        recorder,
    ) -> None:
        """Gather ``entries`` (``(row, runtime, policy)`` as produced by the
        membership layer) into array state.
        """
        self.rows = np.asarray([e[0] for e in entries], dtype=np.intp)
        self.runtimes = [e[1] for e in entries]
        self.policies: list[Policy] = [e[2] for e in entries]
        self.recorder = recorder
        first = self.policies[0]
        #: The group's network ids in ascending order — the shared column axis
        #: of every state matrix, identical to each policy's
        #: ``available_networks``.
        self.nets: tuple[int, ...] = first.available_networks
        self.num_networks = len(self.nets)
        #: Global recorder columns for the group's networks.
        self.cols = np.asarray(
            [recorder.network_col[n] for n in self.nets], dtype=np.intp
        )
        #: Local column of each group network id (inverse of ``nets``).
        self.col_of = {net: col for col, net in enumerate(self.nets)}
        self.rngs = [p.rng for p in self.policies]
        self.size = len(self.policies)
        self._arange = np.arange(self.size)
        self._block_index = None

    def _index_block(self) -> tuple:
        """Where the group's cells sit in a probability slot column.

        One contiguous run of rows over every network is a pair of basic
        slices, which spares the per-slot write its fancy indexing.
        """
        rows = self.rows
        lo = int(rows[0]) if rows.size else 0
        if (
            self.cols.size == len(self.recorder.network_col)
            and (not rows.size or rows[-1] - lo + 1 == rows.size)
            and np.array_equal(rows, np.arange(lo, lo + rows.size))
        ):
            return slice(lo, lo + rows.size), slice(None)
        return rows[:, None], self.cols[None, :]

    def record_probability_block(
        self, slot_index: int, values: np.ndarray
    ) -> None:
        """Write the group's mixed strategies for one slot as one block write."""
        block = self.recorder.probabilities
        if block is None:  # probability recording disabled for this run
            return
        index = self._block_index
        if index is None:  # first write since a membership edit
            index = self._block_index = self._index_block()
        block[index[0], slot_index, index[1]] = values

    # ------------------------------------------------------- membership edits
    def _row_array_attrs(self) -> list[str]:
        """Names of the instance's row-major state arrays.

        Any ``ndarray`` whose leading axis has length ``size`` is row state,
        except the attributes named in :attr:`SHARED_ARRAY_ATTRS`.
        """
        size = self.size
        return [
            name
            for name, value in vars(self).items()
            if name not in self.SHARED_ARRAY_ATTRS
            and isinstance(value, np.ndarray)
            and value.ndim >= 1
            and value.shape[0] == size
        ]

    def _refresh_derived(self) -> None:
        """Rebuild caches derived from row indices after a membership edit."""

    def _flush_rows(self, indices: Sequence[int]) -> None:
        """Scatter only ``indices`` back to their scalar policies.

        The default scatters the whole group (always correct — scattering is
        a pure export of the batched state); built-in kernels override it so
        per-slot churn does not pay a full-group flush per departure.
        """
        self.flush()

    def remove_rows(self, local_indices: Sequence[int]) -> None:
        """Flush ``local_indices`` to their scalar policies and drop the rows.

        Used by the engine when devices leave or their visible-network set
        changes (the device then re-enters another group via a fresh gather).
        """
        local = sorted({int(index) for index in local_indices})
        self._flush_rows(local)
        keep = np.ones(self.size, dtype=bool)
        keep[local] = False
        for name in self._row_array_attrs():
            setattr(self, name, getattr(self, name)[keep])
        for name in ("policies", "runtimes", "rngs") + self.ROW_LIST_ATTRS:
            values = getattr(self, name)
            for index in reversed(local):
                del values[index]
        self.size = len(self.policies)
        self._arange = np.arange(self.size)
        self._block_index = None
        self._refresh_derived()

    def absorb(self, other: "BatchKernel") -> None:
        """Append ``other``'s rows (a freshly gathered kernel of this class).

        ``other`` must share this kernel's class and group key, so the network
        axes agree.  Transient per-slot arrays the fresh kernel has not
        populated yet are zero-padded; every kernel overwrites them in its
        next ``begin_slot``/``end_slot`` before they are read or flushed.
        """
        if type(other) is not type(self) or other.nets != self.nets:
            raise ValueError("can only absorb a kernel of the same group")
        for name in self._row_array_attrs():
            mine = getattr(self, name)
            theirs = getattr(other, name, None)
            if (
                not isinstance(theirs, np.ndarray)
                or theirs.shape[:1] != (other.size,)
                or theirs.shape[1:] != mine.shape[1:]
            ):
                theirs = np.zeros(
                    (other.size,) + mine.shape[1:], dtype=mine.dtype
                )
            setattr(self, name, np.concatenate([mine, theirs]))
        for name in self.ROW_LIST_ATTRS:
            setattr(self, name, list(getattr(self, name)) + list(getattr(other, name)))
        self.policies = self.policies + other.policies
        self.runtimes = self.runtimes + other.runtimes
        self.rngs = self.rngs + other.rngs
        self.size = len(self.policies)
        self._arange = np.arange(self.size)
        self._block_index = None
        self._refresh_derived()

    @abstractmethod
    def begin_slot(self, slot: int, draws: np.ndarray | None = None) -> np.ndarray:
        """Select one network per row; returns *global* network columns.

        ``draws`` reaches kernels with :attr:`uses_slot_draws` only: each
        row's uniform for this slot, taken from its own generator ahead of
        time; ``None`` draws from the row generators now.
        """

    @abstractmethod
    def end_slot(
        self,
        slot: int,
        slot_index: int,
        gains: np.ndarray,
        feedback: SlotFeedback | None = None,
    ) -> None:
        """Consume the slot's realised gains and record the mixed strategies."""

    @abstractmethod
    def flush(self) -> None:
        """Scatter the batched state back into the scalar policy objects."""
