"""Device-membership machinery of the slot engine.

Every engine (:mod:`repro.sim.sharded.engine`) keeps the same per-run
bookkeeping: a static execution class per device row (frozen / batched
kernel / scalar fallback), persistent kernel groups edited in place as
topology events fire, and the frozen rows awaiting a fresh choice.
:class:`MembershipState` owns that state and the one subtle piece of logic
— the ordering of a topology event's edits (departing/re-covered rows are
scattered back to their scalar policies *before* any
``update_available_networks`` call touches those policies, joining rows are
gathered afterwards).

:func:`equal_share_feedback` is the matching physics helper: the global
per-network-column counterfactual gain arrays of the closed-form
equal-share model, consumed by the Full Information kernels.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.registry import kernel_for_policy
from repro.telemetry import get_telemetry

#: Per-row execution class, fixed for the whole run (the *group* a kernel row
#: belongs to changes with its visible set; its class never does).
FROZEN, KERNEL, FALLBACK = 0, 1, 2


def equal_share_feedback(
    counts: np.ndarray, bandwidths: np.ndarray, scale_ref: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(member_gain, join_gain)`` counterfactual arrays from global counts.

    ``member_gain[c]`` is the gain a current client of occupancy cell ``c``
    observes (bandwidth shared among its current clients); ``join_gain[c]``
    the gain a newcomer would observe (shared among current clients plus
    itself).  ``scale_ref`` is each cell's gain-scaling reference (its
    run's own, in a stack of runs).  Matches
    :meth:`WirelessEnvironment.counterfactual_gains` element for element,
    under every gain model (the counterfactuals are equal share of the
    nominal bandwidths).
    """
    member = np.minimum(
        np.where(counts <= 1, bandwidths, bandwidths / np.maximum(counts, 1))
        / scale_ref,
        1.0,
    )
    join = np.minimum(
        np.where(counts == 0, bandwidths, bandwidths / (counts + 1)) / scale_ref,
        1.0,
    )
    return member, join


def _report_scalar_fallback(row: int, policy) -> None:
    """Record that a row whose policy has a kernel runs on the scalar path."""
    telemetry = get_telemetry()
    if telemetry is not None:
        telemetry.event(
            "path_fallback",
            kind="scalar_policy",
            reason=f"{type(policy).__name__} has no kernel group key",
            row=row,
        )


class MembershipState:
    """Execution classes, kernel groups and frozen bookkeeping for one run."""

    __slots__ = (
        "runtimes_by_row",
        "policies_by_row",
        "recorder",
        "category",
        "slot_draws",
        "active",
        "kernels_by_key",
        "kernel_of",
        "fallback_rows",
        "frozen_dirty",
    )

    def __init__(self, runtimes_by_row, recorder, use_kernels: bool) -> None:
        self.runtimes_by_row = runtimes_by_row
        self.policies_by_row = [rt.policy for rt in runtimes_by_row]
        self.recorder = recorder
        num_devices = len(runtimes_by_row)

        self.category = np.empty(num_devices, dtype=np.int8)
        #: Kernel rows whose kernel takes one uniform per present slot
        #: (:attr:`~repro.algorithms.kernels.base.BatchKernel.uses_slot_draws`):
        #: the engine draws their uniforms ahead, in windows.
        self.slot_draws = np.zeros(num_devices, dtype=bool)
        for row, policy in enumerate(self.policies_by_row):
            if policy.stationary and not policy.needs_full_feedback:
                self.category[row] = FROZEN
                continue
            kernel_cls = kernel_for_policy(policy) if use_kernels else None
            if kernel_cls is None:
                self.category[row] = FALLBACK
            elif kernel_cls.group_key(policy) is None:
                self.category[row] = FALLBACK
                _report_scalar_fallback(row, policy)
            else:
                self.category[row] = KERNEL
                self.slot_draws[row] = kernel_cls.uses_slot_draws

        self.active = np.zeros(num_devices, dtype=bool)
        self.kernels_by_key: dict = {}  # (kernel class, group key) -> kernel
        self.kernel_of: dict = {}  # row -> kernel
        self.fallback_rows: set[int] = set()
        self.frozen_dirty: set[int] = set()

    def attach_kernel_row(self, row: int, pending: dict) -> None:
        """Queue a kernel-class row for (re-)gathering into its group.

        A row whose kernel refuses it (e.g. a custom ``group_key`` vetoing
        this config) moves to the scalar path for the rest of the run.
        """
        runtime = self.runtimes_by_row[row]
        policy = runtime.policy
        kernel_cls = kernel_for_policy(policy)
        key = kernel_cls.group_key(policy) if kernel_cls is not None else None
        if key is None:
            self.category[row] = FALLBACK
            self.slot_draws[row] = False
            self.fallback_rows.add(row)
            _report_scalar_fallback(row, policy)
            return
        pending.setdefault((kernel_cls, key), []).append((row, runtime, policy))

    def apply_events(self, events) -> None:
        """Apply one boundary's joins/leaves/visibility edits in place."""
        removals: dict = {}  # kernel -> list of local row indices
        pending: dict = {}  # (kernel class, key) -> fresh gather entries
        kernel_of = self.kernel_of
        category = self.category

        def detach(row: int) -> None:
            kernel = kernel_of.pop(row, None)
            if kernel is not None:
                local = int(np.nonzero(kernel.rows == row)[0][0])
                removals.setdefault(kernel, []).append(local)

        for row in events.leaves:
            self.active[row] = False
            cat = category[row]
            if cat == KERNEL:
                detach(row)
            elif cat == FALLBACK:
                self.fallback_rows.discard(row)
            else:
                self.frozen_dirty.discard(row)
        for row, _visible in events.visibility:
            if category[row] == KERNEL:
                detach(row)

        # Scatter departing/re-covered rows back to their scalar policies
        # *before* any visible-set update touches those policies.
        for kernel, local_rows in removals.items():
            if len(local_rows) == kernel.size:
                kernel.flush()
                self.kernels_by_key.pop(kernel._executor_key, None)
            else:
                kernel.remove_rows(local_rows)

        for row, visible in events.visibility:
            runtime = self.runtimes_by_row[row]
            runtime.policy.update_available_networks(visible)
            runtime.visible = visible
            cat = category[row]
            if cat == KERNEL:
                self.attach_kernel_row(row, pending)
            elif cat == FROZEN:
                self.frozen_dirty.add(row)

        for row in events.joins:
            self.active[row] = True
            cat = category[row]
            if cat == KERNEL:
                self.attach_kernel_row(row, pending)
            elif cat == FALLBACK:
                self.fallback_rows.add(row)
            else:
                self.frozen_dirty.add(row)

        for group, entries in pending.items():
            fresh = group[0](entries, self.recorder)
            kernel = self.kernels_by_key.get(group)
            if kernel is None:
                fresh._executor_key = group
                self.kernels_by_key[group] = kernel = fresh
            else:
                kernel.absorb(fresh)
            for entry in entries:
                kernel_of[entry[0]] = kernel
