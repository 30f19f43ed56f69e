"""The :class:`BatchKernel` protocol and shared array helpers.

A batch kernel executes *all* devices of one policy family as array programs
over ``(num_devices × num_networks)`` NumPy state.  The vectorized backend
groups the live (non-frozen) devices of a segment by
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
   writes the per-slot mixed strategies into the recorder as one block write.
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
from repro.xp import asnumpy, get_array_module


@dataclass
class SlotFeedback:
    """Per-slot physics context handed to kernels that need full feedback.

    ``member_gain`` / ``join_gain`` are global per-network-column arrays (the
    closed-form equal-share counterfactuals); on the generic physics path they
    are ``None`` and ``counts`` + ``environment`` provide the dict-based
    fallback used by the reference backend.
    """

    member_gain: np.ndarray | None = None
    join_gain: np.ndarray | None = None
    counts: dict[int, int] | None = None
    environment: object | None = None


@dataclass
class WindowPlan:
    """Everything a kernel needs to advance a membership-stable window.

    Assembled by the executor when one kernel covers every active device on
    the closed-form equal-share physics with a stream-free delay model: slot
    range, recorder blocks, the per-network stream-free delay table and the
    previous-choice columns (``prev``, *global* network columns aligned with
    the kernel's rows, -1 = never chose; mutated in place so the executor's
    switch detection resumes seamlessly after the window).
    """

    start_slot: int
    n_slots: int
    idx_lo: int
    net_ids: np.ndarray
    bandwidths: np.ndarray
    num_networks: int
    scale_ref: float
    delay_table: np.ndarray
    prev: np.ndarray
    choices2d: np.ndarray
    rates2d: np.ndarray
    delays2d: np.ndarray
    switches2d: np.ndarray


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
    xp=None,
) -> np.ndarray:
    """One categorical sample per row, bit-compatible with ``Generator.choice``.

    Replicates ``rng.choice(ids, p=probs / probs.sum())`` for every row while
    consuming exactly one uniform double from each row's private generator —
    the identical stream position the scalar policy would leave behind.  The
    replicated pipeline is the one inside ``Generator.choice``:
    normalise → cumulative sum → divide by the last partial sum →
    ``searchsorted(..., side="right")`` on one uniform draw.

    ``draws`` (one uniform per row) skips the per-row generator calls: window
    preparation (:meth:`BatchKernel.prepare_window`) draws a whole
    membership-stable window ahead with one ``Generator.random(n)`` call per
    row, which yields the *identical* double stream as ``n`` sequential
    ``.random()`` calls — so the buffered path stays bit-exact while paying
    the Python generator-call overhead once per window instead of per slot.
    ``xp`` routes the array math through a non-NumPy namespace (seam:
    :mod:`repro.xp`).
    """
    if xp is None:
        xp = get_array_module()
    # Array methods rather than xp.sum / xp.cumsum: the same reductions
    # without the function-level dispatch, which dominates on small groups.
    probs = prob_matrix / prob_matrix.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    if draws is None:
        draws = np.asarray([rng.random() for rng in rngs], dtype=float)
    if xp is not np:
        draws = xp.asarray(draws)
    indices = (cdf <= draws[:, None]).sum(axis=1)
    return xp.minimum(indices, prob_matrix.shape[1] - 1)


class BatchKernel(ABC):
    """Batched execution of one group of devices sharing a policy family."""

    #: ``"bit-exact"`` when every RNG consumption is replicated draw-for-draw
    #: (all built-in kernels), ``"distribution-exact"`` when only the sampling
    #: distribution is preserved (third-party kernels may opt into this; the
    #: equivalence suite then applies statistical instead of bit tests).
    equivalence: str = "bit-exact"
    #: Mirrors :attr:`repro.algorithms.base.Policy.needs_full_feedback` for
    #: the executor's counterfactual-gain gating.
    needs_full_feedback: bool = False

    #: Python-list attributes holding one entry per row (parallel to
    #: ``policies``); membership edits delete and append their entries
    #: alongside the arrays.
    ROW_LIST_ATTRS: tuple[str, ...] = ()

    #: ``ndarray`` attributes that are *not* row state — column maps, draw
    #: buffers, lookup tables — and must never be sliced or concatenated by
    #: membership edits, even when their length happens to equal ``size``.
    SHARED_ARRAY_ATTRS: tuple[str, ...] = ("cols", "_arange", "_window_draws")

    #: Whether ``begin_slot`` consumes exactly one uniform double per row per
    #: slot unconditionally (EXP3 / Full Information).  Only such kernels can
    #: pre-draw a whole membership-stable window (:meth:`prepare_window`);
    #: kernels with data-dependent RNG consumption (Smart-EXP3's block
    #: starts) or none at all (Greedy) leave this ``False`` and the window
    #: machinery degrades to a per-slot no-op for them.
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
        vectorized backend) into array state.
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
        # Pre-drawn uniforms for a membership-stable window (see
        # prepare_window): a (size, n) block plus a consumption cursor.
        # Deliberately excluded from the structural row-state sweep via
        # _drop_window_buffer so membership edits never slice or pad it.
        self._window_draws: np.ndarray | None = None
        self._window_pos = 0

    @property
    def xp(self):
        """The active array namespace (:mod:`repro.xp` seam).

        Resolved per access rather than cached on the instance: the kernel
        state must stay free of module references so the sharded engine's
        columnar checkpoint codec can pickle ``vars(kernel)`` wholesale.
        """
        return get_array_module()

    # ---------------------------------------------------------- draw windows

    def prepare_window(self, n_slots: int) -> None:
        """Pre-draw ``n_slots`` uniforms per row for a membership-stable span.

        ``Generator.random(n)`` yields the identical double stream as ``n``
        sequential ``.random()`` calls, so pre-drawing is bit-exact; it
        amortises the dominant per-row Python generator call over the window.
        Each row's generator fills its row of one preallocated ``(size ×
        n_slots)`` buffer in place (``random(out=row)``, the same stream as
        ``random(n_slots)``), so a window costs one generator call per row
        and no per-row arrays — per-slot churn ends a window every slot.
        The caller (executor/engine) must size ``n_slots`` so the buffer is
        exhausted before the next topology event, checkpoint or flush — a
        partially consumed buffer at a membership edit is a stream-contract
        violation and raises in :meth:`_drop_window_buffer`.

        No-op for kernels without unconditional per-slot draws
        (:attr:`uses_slot_draws`).
        """
        if not self.uses_slot_draws or n_slots < 1:
            return
        self._drop_window_buffer()
        draws = np.empty((self.size, n_slots))
        for rng, row in zip(self.rngs, draws):
            rng.random(out=row)
        self._window_draws = draws
        self._window_pos = 0

    @property
    def window_exhausted(self) -> bool:
        """Whether the pre-drawn uniform buffer has been fully consumed."""
        draws = self._window_draws
        return draws is None or self._window_pos >= draws.shape[1]

    def _take_draws(self) -> np.ndarray | None:
        """Consume one pre-drawn uniform column, or ``None`` when unbuffered."""
        draws = self._window_draws
        if draws is None:
            return None
        pos = self._window_pos
        if pos >= draws.shape[1]:
            self._window_draws = None
            return None
        self._window_pos = pos + 1
        if self._window_pos == draws.shape[1]:
            column = draws[:, pos].copy()
            self._window_draws = None
            return column
        return draws[:, pos]

    def _drop_window_buffer(self) -> None:
        """Discard the draw buffer; raises if draws would be lost unconsumed."""
        draws = self._window_draws
        if draws is None:
            return
        if self._window_pos < draws.shape[1]:
            raise RuntimeError(
                f"{type(self).__name__}: window buffer dropped with "
                f"{draws.shape[1] - self._window_pos} unconsumed draws — "
                "windows must end at membership/checkpoint boundaries"
            )
        self._window_draws = None
        self._window_pos = 0

    def advance_window(self, window: "WindowPlan") -> None:
        """Advance the whole group through a membership-stable window.

        The generic implementation is the *interpreted* fused loop: it runs
        the same ``begin_slot`` → equal-share physics → switch/delay →
        ``end_slot`` sequence the executor's slot loop performs, with the
        per-slot Python overhead (fallback/frozen branches, environment
        calls, dict bookkeeping) eliminated and delays resolved from the
        stream-free per-network table — bit-exact with the per-slot path by
        construction.  Kernels may override it with a compiled mega-loop
        (:class:`~repro.algorithms.kernels.exp3.EXP3Kernel` when numba is
        enabled).

        Preconditions (enforced by the executor): this kernel covers every
        active device, physics is closed-form equal share, the delay model is
        stream-free, and no full-feedback consumer is active.
        """
        xp = self.xp
        rows = self.rows
        net_ids = window.net_ids
        bandwidths = window.bandwidths
        scale_ref = window.scale_ref
        num_networks = window.num_networks
        delay_table = window.delay_table
        prev = window.prev
        choices2d = window.choices2d
        rates2d = window.rates2d
        delays2d = window.delays2d
        switches2d = window.switches2d
        for t in range(window.n_slots):
            slot = window.start_slot + t
            idx = window.idx_lo + t
            cols = self.begin_slot(slot)
            counts = xp.bincount(cols, minlength=num_networks)
            rates = (bandwidths / xp.maximum(counts, 1))[cols]
            host_cols = asnumpy(cols)
            choices2d[rows, idx] = net_ids[host_cols]
            rates2d[rows, idx] = asnumpy(rates)
            switched = (prev != -1) & (prev != host_cols)
            if switched.any():
                switch_rows = rows[switched]
                delays2d[switch_rows, idx] = delay_table[host_cols[switched]]
                switches2d[switch_rows, idx] = True
            prev[:] = host_cols
            gains = xp.minimum(rates / scale_ref, 1.0)
            self.end_slot(slot, idx, gains, None)

    def record_probability_block(
        self, slot_index: int, values: np.ndarray
    ) -> None:
        """Write the group's mixed strategies for one slot as one block write."""
        block = self.recorder.probabilities
        if block is None:  # probability recording disabled for this run
            return
        block[self.rows[:, None], slot_index, self.cols[None, :]] = values

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

        Used by the executor when devices leave or their visible-network set
        changes (the device then re-enters another group via a fresh gather).
        """
        local = sorted({int(index) for index in local_indices})
        self._drop_window_buffer()
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
        self._drop_window_buffer()
        other._drop_window_buffer()
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
        self._refresh_derived()

    @abstractmethod
    def begin_slot(self, slot: int) -> np.ndarray:
        """Select one network per row; returns *global* network columns."""

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
