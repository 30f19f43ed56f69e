"""The slot engine: one shard of a run, or a stack of runs, advanced in lockstep.

A :class:`ShardEngine` owns one shard of the device population and advances
it slot by slot through a three-phase protocol driven by the lockstep
driver (:func:`repro.sim.sharded.executor.run_lockstep`).  The
``"vectorized"`` backend runs the whole population as one engine; the
``"sharded"`` backend runs ``K`` of them in one or more processes.

The engine also has a run axis: runs with identical physics (one set of
network ids, equal-share rates, one delay model, slot length and horizon)
can advance as contiguous row blocks of one engine (:class:`RunRows`), so
each kernel group is called once per slot for every stacked run — across
policies too, since a group is keyed by policy family, not by run.  Each
run keeps its own network values (bandwidths and gain-scaling reference),
device ids, policy seeds and ranks, topology plan (placed at its row
offset), environment RNG (held by the driver) and result, a row-block slice
of the shared recorder.  Occupancy is one ``bincount`` over ``run × N +
column``; rates and the Full Information counterfactuals read their run's
``N`` cells, each with its run's bandwidth and scale, through a per-row
base (:attr:`ShardEngine.row_base`).  A sharded engine holds one run.

1. :meth:`begin` — apply the slot's topology events (membership edits on
   persistent kernel groups, :mod:`repro.sim.backends.membership`), run
   policy selection and return the shard's *local* occupancy counts.
2. *(all-reduce outside the engine: local counts sum to global counts)*
3. :meth:`observe` — consume the **global** counts: rates, recording and
   switch detection for the shard's active rows; returns the occupancy
   cells the switchers land on, so the caller can resolve the switching
   delays of every engine of its group in one delay-model call (see
   :func:`repro.sim.sharded.executor.run_lockstep`).
4. :meth:`complete` — charge the delays, feed realised gains back into the
   kernels / scalar policies.

The congestion game makes this exchange sufficient: equal-share rates (and
the Full Information counterfactuals) depend on other devices only through
the ``(networks,)``-sized occupancy vector (:func:`closed_form_rates`
decides which scenarios have them).  Other gain models draw their
rates from the environment RNG over the *global* association grouping, so
only an engine holding the whole population runs them, taking the rates
through :meth:`WirelessEnvironment.realized_rates` with the event backend's
device-ordered grouping.  The counterfactuals stay the closed form under
every gain model: they are equal share of the nominal bandwidths, as
:meth:`WirelessEnvironment.counterfactual_gains` defines them.

Work that is constant between topology events is done once per span: the
activity mask and the mixed strategies of frozen rows (stationary policies
— Fixed Random, Centralized).  The whole population's engine also skips
the per-slot phases of a span in which every active row is frozen
(:meth:`ShardEngine.fast_forward` broadcasts it).

Draw windows belong to the engine: the rows of kernels that take one
uniform per slot (EXP3, Full Information) get their uniforms for a whole
window ahead, one ``Generator.random(out=...)`` call per row into one
``(drawing rows × slots)`` block, and each slot hands every drawing
kernel its rows' column (:meth:`ShardEngine._fill_draws`).  A row takes
one uniform per present slot whichever kernel group holds it, so joins,
leaves and coverage changes do not end a window; a checkpoint barrier,
the draw budget or the horizon does.

Bit-exactness with the event backend holds because every RNG stream is
consumed identically: per-device policy streams come from the same globally
derived seeds (:func:`~repro.sim.backends.base.derive_run_streams`), kernels
replicate the scalar draws row for row, and the environment stream is either
untouched (stream-free delay models, equal-share physics draws nothing) or
consumed in the same global ascending-device order on every shard's replica.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

import repro.algorithms.kernels  # noqa: F401  (registers the built-in kernels)
from repro.algorithms.base import Observation
from repro.algorithms.kernels.base import SlotFeedback
from repro.game.gain import EqualShareModel
from repro.sim.backends.base import (
    SlotRecorder,
    TopologyEvents,
    TopologyPlan,
    build_policies,
)
from repro.sim.backends.membership import (
    FROZEN as _FROZEN,
    MembershipState,
    equal_share_feedback,
)
from repro.sim.metrics import NO_NETWORK, SimulationResult
from repro.sim.sharded.plan import ShardSpec


_U64 = (1 << 64) - 1

#: The draw budget: a draw window holds at most this many uniform doubles
#: (~32 MB), so a large shard draws a few slots ahead, not the whole
#: horizon ...
_DRAW_BUDGET = 4_000_000
#: ... and spans at most this many slots, so a mid-size population's block
#: stays small too.
_DRAW_SLOTS = 128

_NO_ROWS = np.empty(0, dtype=np.intp)


def closed_form_rates(scenario) -> bool:
    """Whether ``scenario``'s rates are a closed-form function of the
    occupancy counts (the equal-share gain model).

    The one place this is decided: only such runs stack, split into shards
    and fast-forward frozen spans.  Any other gain model draws its rates
    over the global association grouping, so its run needs the whole
    population in one engine of its own.
    """
    return type(scenario.gain_model) is EqualShareModel


def _pack_rng_states(policies) -> tuple:
    """Pack per-row bit-generator states into columnar arrays.

    The default generator (PCG64) carries a 128-bit state and a 128-bit
    increment: six unsigned-64 columns hold an entire kernel group, which
    pickles orders of magnitude faster than one nested state dict per row.
    Mixed or non-PCG64 groups fall back to the raw per-row dicts.
    """
    bitgens = [p.rng.bit_generator for p in policies]
    if not all(type(bg) is np.random.PCG64 for bg in bitgens):
        return ("raw", [bg.state for bg in bitgens])
    n = len(bitgens)
    columns = np.empty((6, n), dtype=np.uint64)
    for i, bg in enumerate(bitgens):
        d = bg.state
        s = d["state"]["state"]
        inc = d["state"]["inc"]
        columns[0, i] = s >> 64
        columns[1, i] = s & _U64
        columns[2, i] = inc >> 64
        columns[3, i] = inc & _U64
        columns[4, i] = d["has_uint32"]
        columns[5, i] = d["uinteger"]
    return ("pcg64", columns)


def _iter_rng_states(packed: tuple):
    """Yield one bit-generator state dict per row from a packed tuple."""
    tag, payload = packed
    if tag == "raw":
        yield from payload
        return
    state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = payload
    for i in range(payload.shape[1]):
        yield {
            "bit_generator": "PCG64",
            "state": {
                "state": (int(state_hi[i]) << 64) | int(state_lo[i]),
                "inc": (int(inc_hi[i]) << 64) | int(inc_lo[i]),
            },
            "has_uint32": int(has_uint32[i]),
            "uinteger": int(uinteger[i]),
        }


class _RecorderStub:
    """Placeholder for a freshly-reset recorder inside a checkpoint pickle.

    When a checkpoint lands right after a window flush, the recorder blocks
    have just been zeroed (:meth:`ShardEngine.reset_window`), so the
    snapshot stores this stub instead of tens of megabytes of zeros and the
    restore path rebuilds an identical empty :class:`SlotRecorder`.
    """

    __slots__ = ("width", "record_probabilities", "dtype")

    def __init__(
        self, width: int, record_probabilities: bool, dtype: str
    ) -> None:
        self.width = width
        self.record_probabilities = record_probabilities
        self.dtype = dtype

    def __getstate__(self) -> tuple:
        return (self.width, self.record_probabilities, self.dtype)

    def __setstate__(self, state: tuple) -> None:
        self.width, self.record_probabilities, self.dtype = state


class RunRows:
    """One run's row block ``[lo, hi)`` of an engine, and what its result needs.

    ``policy_seeds`` are kept for the columnar checkpoint codec: restoring a
    snapshot rebuilds the scalar policy objects of kernel-resident rows from
    them instead of pickling 10^5 tiny Python objects.
    """

    __slots__ = (
        "spec",
        "scenario",
        "seed_label",
        "policy_seeds",
        "device_ids",
        "topology",
        "lo",
        "hi",
    )

    def __init__(
        self, spec: ShardSpec, policy_seeds, seed_label: int, lo: int, num_slots: int
    ) -> None:
        self.spec = spec
        self.scenario = scenario = spec.materialize()
        self.seed_label = seed_label
        self.policy_seeds = np.asarray(policy_seeds)
        devices = sorted(
            (device_spec.device for device_spec in scenario.device_specs),
            key=lambda device: device.device_id,
        )
        self.device_ids = tuple(device.device_id for device in devices)
        self.topology = TopologyPlan(scenario, devices, num_slots)
        self.lo = lo
        self.hi = lo + len(devices)

    def build_runtimes(self) -> list:
        """The run's device runtimes, policies built from its seeds, row order."""
        runtimes = build_policies(
            self.scenario, self.policy_seeds, self.spec.policy_ranks
        )
        return [runtimes[d] for d in self.device_ids]


def _merged_events(runs: list[RunRows]) -> dict[int, TopologyEvents]:
    """Every run's topology events at its row offset, slot by slot.

    Runs are in ascending row order, so each merged list stays ascending.
    """
    if len(runs) == 1:
        return runs[0].topology.events
    merged: dict[int, TopologyEvents] = {}
    for run in runs:
        lo = run.lo
        for slot, events in run.topology.events.items():
            into = merged.get(slot)
            if into is None:
                into = merged[slot] = TopologyEvents()
            into.joins.extend(row + lo for row in events.joins)
            into.leaves.extend(row + lo for row in events.leaves)
            into.visibility.extend(
                (row + lo, visible) for row, visible in events.visibility
            )
    return merged


class ShardEngine:
    """One shard's devices, policies, topology and recorder — or a stack of
    whole runs with identical physics, as contiguous row blocks.

    ``runs`` lists ``(spec, policy_seeds, seed_label)`` per run; a sharded
    engine holds one run's shard, a stacked one several whole runs whose
    scenarios share :func:`~repro.sim.sharded.executor.stack_physics`.
    Those runs may differ in everything else: their policies (rows of one
    policy family share a kernel group whichever run they belong to) and
    their network values — each run's bandwidths and gain-scaling reference
    fill its own occupancy cells (``_cell_bandwidths``, ``_cell_scale``)
    and rows (``_row_scale``), so settings 1 and 2 of the paper stack.
    """

    def __init__(
        self,
        runs,
        num_slots: int,
        record_probabilities: bool = True,
        dtype: str = "float64",
        window: int | None = None,
        use_kernels: bool = True,
    ) -> None:
        self.runs: list[RunRows] = []
        runtimes_by_row: list = []
        for spec, policy_seeds, seed_label in runs:
            run = RunRows(
                spec, policy_seeds, seed_label, len(runtimes_by_row), num_slots
            )
            runtimes_by_row += run.build_runtimes()
            self.runs.append(run)
        first = self.runs[0]
        scenario = first.scenario
        #: The first run's shard and scenario: every run shares its physics.
        self.spec = first.spec
        self.scenario = scenario
        self.num_slots = num_slots
        #: Row -> device id (ids repeat across stacked runs).
        self.device_ids = tuple(d for run in self.runs for d in run.device_ids)
        num_devices = len(self.device_ids)

        self.network_order = tuple(sorted(scenario.network_map))
        self.num_networks = len(self.network_order)
        self.net_ids = np.asarray(self.network_order, dtype=np.int64)
        # The run axis: run r's occupancy cells are r*N .. r*N + N-1.
        num_runs = len(self.runs)
        sizes = [run.hi - run.lo for run in self.runs]
        #: Per row: the flat index of its run's first occupancy cell.
        self.row_base = np.repeat(
            np.arange(num_runs, dtype=np.intp) * self.num_networks, sizes
        )
        # Each run's own network values: bandwidth per occupancy cell, and
        # the gain-scaling reference per cell and per row.
        self._cell_bandwidths = np.asarray(
            [
                run.scenario.network_map[k].bandwidth_mbps
                for run in self.runs
                for k in self.network_order
            ],
            dtype=float,
        )
        scales = [float(run.scenario.scale_reference_mbps) for run in self.runs]
        self._cell_scale = np.repeat(scales, self.num_networks)
        self._row_scale = np.repeat(scales, sizes)

        self.window = min(int(window), num_slots) if window else None
        width = self.window or num_slots
        self.recorder = SlotRecorder(
            self.device_ids,
            self.network_order,
            width,
            record_probabilities,
            dtype,
        )
        if window and self.recorder.probabilities is not None:
            raise ValueError(
                "windowed execution requires record_probabilities=False"
            )
        #: 0-based slot index of the recorder's column 0.
        self.col_base = 0
        self.network_col = self.recorder.network_col

        # ---- persistent run state (the membership layer owns the execution
        # classes, kernel groups and frozen bookkeeping, and applies
        # topology events in place)
        self.membership = MembershipState(
            runtimes_by_row, self.recorder, use_kernels
        )
        self.needs_feedback = any(
            p.needs_full_feedback for p in self.membership.policies_by_row
        )
        #: Rates are a closed-form function of the occupancy counts; any
        #: other gain model needs the environment (whole population only).
        self.closed_form = closed_form_rates(scenario)
        self.choice_col = np.zeros(num_devices, dtype=np.intp)
        self.prev_col = np.full(num_devices, -1, dtype=np.intp)
        #: Checkpoint cadence in slots (set by the executor when durability
        #: is on): draw windows and fast-forwards end here, so a snapshot
        #: never has to carry a partly consumed draw block.
        self.draw_barrier_every: int | None = None
        self._events = _merged_events(self.runs)
        self._event_slot_list = sorted(self._events)
        #: Exclusive end slot of the span whose constant blocks (activity,
        #: frozen strategies) are written, and the next topology event.
        self._span_end = 0
        self._next_event = 0
        #: Why draw windows ended (reason -> count), for telemetry's
        #: ``fused_windows`` events.  Always-on: one dict update per window
        #: (not per slot) is noise next to the window's draws.
        self.window_truncations: dict[str, int] = {}
        self.__dict__.update(self._SCRATCH)

    #: The layout cache and per-slot scratch (name -> initial value):
    #: rebuilt by :meth:`begin`, never checkpointed.  Every value is
    #: replaced, never mutated in place, so the defaults can be shared.
    _SCRATCH = {
        "_layout_dirty": True,
        "_act_rows": _NO_ROWS,
        "_all_active": False,
        "_kernel_entries": [],
        "_slot_kernels": [],
        "_drawing": False,
        "_fallback_list": [],
        "_frozen_rows": _NO_ROWS,
        "_first_slot": True,
        "_prev_act": None,
        "_act_cols": _NO_ROWS,
        "_act_base": None,
        "_act_scale": np.empty(0, dtype=float),
        "_act_cells": _NO_ROWS,
        "_rates_act": np.empty(0, dtype=float),
        "_switch_rows": _NO_ROWS,
        "_feedback": None,
        # The draw window (see _fill_draws): the (drawing rows × slots)
        # block, the slots it covers, its engine rows, each one's last
        # drawn slot and each engine row's block row (-1 outside it).  A
        # restore starts with none, so the next slot opens a window.
        "_draws": None,
        "_draw_start": 0,
        "_draw_end": 0,
        "_draw_rows": _NO_ROWS,
        "_draw_upto": _NO_ROWS,
        "_draw_pos": _NO_ROWS,
        "_draws_bound": True,
        "_presence": None,
    }

    # ------------------------------------------------------- checkpointing
    #
    # The naive snapshot — pickle the whole engine — serializes ~5 small
    # Python objects per device (runtime, spec, device, policy, generator),
    # which costs tens of microseconds per device and dominates checkpoint
    # time at megascale.  The columnar codec below instead stores the kernel
    # groups' array state plus one packed RNG state per row, and rebuilds
    # the scalar policy objects of kernel-resident rows from their seeds at
    # restore time.  That is exact because a kernel-resident row's scalar
    # policy is a stale husk by construction: the membership layer always
    # scatters the batched state back into it (``kernel.remove_rows`` /
    # ``flush``) before anything reads it again, so the only live per-row
    # state outside the kernel arrays is the shared RNG and the visible
    # network set — both restored explicitly.  Rows *not* resident in a
    # kernel (scalar fallback, frozen, departed-after-running) do carry live
    # scalar state and are pickled in full.

    def __getstate__(self) -> dict:
        if self._draws is not None:
            raise RuntimeError(
                "engine snapshot inside a draw window: windows must end at "
                "checkpoint barriers"
            )
        self._sync_prev()
        state = dict(self.__dict__)
        drop_recorder = state.pop("_snapshot_drop_recorder", False)
        for name in self._SCRATCH:
            state.pop(name, None)
        membership = self.membership
        if not membership.kernel_of:
            # No kernel-resident rows: every scalar policy is live state.
            return state
        state.pop("membership")
        if drop_recorder:
            # The caller (checkpoint write, post window-flush) certifies the
            # recorder blocks were just reset: rebuild zeros at restore.
            recorder = self.recorder
            state["recorder"] = _RecorderStub(
                width=recorder.num_slots,
                record_probabilities=recorder.probabilities is not None,
                dtype=str(recorder.rates.dtype),
            )
            state.pop("network_col", None)
        kernels = []
        for key, kernel in membership.kernels_by_key.items():
            kernel_vars = {
                name: value
                for name, value in vars(kernel).items()
                if name not in ("recorder", "policies", "runtimes", "rngs")
            }
            kernels.append(
                (key, kernel_vars, _pack_rng_states(kernel.policies))
            )
        kernel_rows = membership.kernel_of
        state["_columnar"] = {
            "category": membership.category,
            "slot_draws": membership.slot_draws,
            "active": membership.active,
            "fallback_rows": membership.fallback_rows,
            "frozen_dirty": membership.frozen_dirty,
            "kernels": kernels,
            "scalar_rows": {
                row: runtime
                for row, runtime in enumerate(membership.runtimes_by_row)
                if row not in kernel_rows
            },
        }
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore from a checkpoint pickle.

        The layout cache references kernel objects, which the snapshot
        rebuilds, so it is not pickled: the layout is marked dirty and
        rebuilt on the first post-restore slot.  Columnar snapshots
        additionally rebuild the scalar policy objects from their seeds,
        restore each row's RNG state and visible set, and rewire the
        kernels' row references (see ``__getstate__``).
        """
        columnar = state.pop("_columnar", None)
        self.__dict__.update(state)
        self.__dict__.update(self._SCRATCH)
        recorder = self.__dict__.get("recorder")
        if isinstance(recorder, _RecorderStub):
            recorder = SlotRecorder(
                self.device_ids,
                self.network_order,
                recorder.width,
                recorder.record_probabilities,
                recorder.dtype,
            )
            self.recorder = recorder
            self.network_col = recorder.network_col
        if columnar is None:
            return
        runtimes_by_row = [
            runtime for run in self.runs for runtime in run.build_runtimes()
        ]
        for row, runtime in columnar["scalar_rows"].items():
            runtimes_by_row[int(row)] = runtime
        policies_by_row = [rt.policy for rt in runtimes_by_row]
        membership = MembershipState.__new__(MembershipState)
        membership.runtimes_by_row = runtimes_by_row
        membership.policies_by_row = policies_by_row
        membership.recorder = self.recorder
        membership.category = columnar["category"]
        membership.slot_draws = columnar["slot_draws"]
        membership.active = columnar["active"]
        membership.fallback_rows = columnar["fallback_rows"]
        membership.frozen_dirty = columnar["frozen_dirty"]
        membership.kernels_by_key = {}
        membership.kernel_of = {}
        for key, kernel_vars, rng_states in columnar["kernels"]:
            kernel = key[0].__new__(key[0])
            kernel.__dict__.update(kernel_vars)
            kernel.recorder = self.recorder
            rows = [int(row) for row in kernel.rows]
            kernel.policies = [policies_by_row[row] for row in rows]
            kernel.runtimes = [runtimes_by_row[row] for row in rows]
            group_nets = tuple(kernel.nets)
            visible = frozenset(group_nets)
            for policy, runtime, rng_state in zip(
                kernel.policies, kernel.runtimes, _iter_rng_states(rng_states)
            ):
                if policy.available_networks != group_nets:
                    # Align sizes/visible set with the group *before* the
                    # RNG restore so any resize draws are overwritten.
                    policy.update_available_networks(visible)
                    runtime.visible = visible
                policy.rng.bit_generator.state = rng_state
            kernel.rngs = [p.rng for p in kernel.policies]
            membership.kernels_by_key[key] = kernel
            for row in rows:
                membership.kernel_of[row] = kernel
        self.membership = membership

    # ------------------------------------------------------------- layout

    def _sync_prev(self) -> None:
        """Write the last observed choices back into ``prev_col``.

        Within one layout :meth:`observe` compares against the previous
        slot's columns of the active rows (``_prev_act``) instead of
        gathering and scattering ``prev_col`` every slot.
        """
        if self._prev_act is not None:
            self.prev_col[self._act_rows] = self._prev_act

    def _refresh_layout(self, slot: int) -> None:
        """Recompute the active rows and where each execution class sits."""
        membership = self.membership
        if self._draws is not None:
            # A row whose kernel refused it now runs on the scalar path,
            # which draws from the row's generator itself.
            stranded = ~membership.slot_draws[self._draw_rows] & (
                self._draw_upto >= slot
            )
            if stranded.any():
                raise RuntimeError(
                    f"row {int(self._draw_rows[stranded][0])} left the kernel "
                    f"path at slot {slot} with draws it has not consumed"
                )
        self._sync_prev()
        self._prev_act = None
        act_rows = np.nonzero(membership.active)[0]
        self._act_rows = act_rows
        self._all_active = act_rows.size == membership.active.size
        if len(self.runs) > 1:
            self._act_base = self.row_base[act_rows]
        self._act_scale = self._row_scale[act_rows]
        entries = []
        for kernel in membership.kernels_by_key.values():
            positions = np.searchsorted(act_rows, kernel.rows)
            # Identity mapping (one kernel covering every active row, the
            # static common case): hand the gains array over as is.
            identity = positions.size == act_rows.size and np.array_equal(
                positions, np.arange(positions.size)
            )
            entries.append((kernel, None if identity else positions))
        self._kernel_entries = entries
        self._slot_kernels = [(kernel, None) for kernel, _ in entries]
        self._drawing = any(kernel.uses_slot_draws for kernel, _ in entries)
        self._draws_bound = not self._drawing
        self._fallback_list = [
            (
                row,
                membership.runtimes_by_row[row],
                membership.policies_by_row[row],
                int(np.searchsorted(act_rows, row)),
                int(self.row_base[row]),
            )
            for row in sorted(membership.fallback_rows)
        ]
        self._frozen_rows = act_rows[membership.category[act_rows] == _FROZEN]
        # Rows that just joined (or came back from a restore) may carry the
        # "never chose" sentinel, so the next slot checks it.
        self._first_slot = True
        self._layout_dirty = False

    def _write_span(self, slot: int) -> None:
        """Write the blocks that stay constant until the next topology event.

        The span runs to the next event, clipped to the recorder window:
        the activity mask of the active rows and the mixed strategies of
        the active frozen rows (stationary policies only change at events).
        Every event slot starts a span, so the next event found here holds
        for every later slot of the span.
        """
        events = self._event_slot_list
        pos = bisect_right(events, slot)
        nxt = events[pos] if pos < len(events) else self.num_slots + 1
        self._next_event = nxt
        end = min(nxt, self.col_base + self.recorder.num_slots + 1)
        self._span_end = end
        lo = slot - 1 - self.col_base
        hi = end - 1 - self.col_base
        recorder = self.recorder
        if self._all_active:
            recorder.active[:, lo:hi] = True
        elif self._act_rows.size:
            recorder.active[self._act_rows, lo:hi] = True
        block = recorder.probabilities
        if block is not None and self._frozen_rows.size:
            policies_by_row = self.membership.policies_by_row
            for row in self._frozen_rows.tolist():
                recorder.record_probabilities(row, lo, policies_by_row[row])
                block[row, lo + 1 : hi] = block[row, lo]

    def _next_barrier(self, slot: int) -> int | None:
        """The first checkpoint barrier at or after ``slot``, if any."""
        every = self.draw_barrier_every
        return ((slot + every - 1) // every) * every if every else None

    def _stable_last(self, slot: int) -> int:
        """Last slot of the membership-stable run from ``slot``: before the
        next topology event, at the next checkpoint barrier or at the
        horizon, whichever comes first."""
        last = min(self._next_event - 1, self.num_slots)
        barrier = self._next_barrier(slot)
        return last if barrier is None else min(last, barrier)

    def _presence_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first and last present slot, from the topology events
        (a row that never joins has an empty range)."""
        presence = self._presence
        if presence is None:
            num_rows = len(self.device_ids)
            first = np.full(num_rows, self.num_slots + 1, dtype=np.int64)
            last = np.full(num_rows, self.num_slots, dtype=np.int64)
            for slot, events in self._events.items():
                if events.joins:
                    first[events.joins] = slot
                if events.leaves:
                    last[events.leaves] = slot - 1
            self._presence = presence = (first, last)
        return presence

    def _fill_draws(self, slot: int) -> None:
        """Open a draw window at ``slot`` (see the module docstring).

        The window ends at the next checkpoint barrier (a snapshot never
        carries a partly consumed block), at the draw budget
        (:data:`_DRAW_BUDGET` uniforms over the drawing rows, at most
        :data:`_DRAW_SLOTS` slots) or at the horizon; the reason is tallied
        for telemetry.  Each drawing row (``membership.slot_draws``)
        present in the window gets its slots from the later of ``slot``
        and its join to the earlier of the window end and its last present
        slot, in one ``Generator.random(out=...)`` call; the block's other
        cells are never read.
        """
        membership = self.membership
        first, last = self._presence_slots()
        rows = np.flatnonzero(membership.slot_draws & (last >= slot))
        end, reason = self.num_slots, "horizon"
        barrier = self._next_barrier(slot)
        if barrier is not None and barrier < end:
            end, reason = barrier, "checkpoint_barrier"
        budget = max(1, min(_DRAW_SLOTS, _DRAW_BUDGET // max(rows.size, 1)))
        if slot + budget - 1 < end:
            end, reason = slot + budget - 1, "draw_budget"
        truncations = self.window_truncations
        truncations[reason] = truncations.get(reason, 0) + 1

        rows = rows[first[rows] <= end]
        span = end - slot + 1
        lo = np.maximum(first[rows] - slot, 0)
        upto = np.minimum(last[rows], end)
        block = np.empty((rows.size, span))
        policies = membership.policies_by_row
        if not lo.any() and (upto == end).all():
            for row, out in zip(rows.tolist(), block):
                policies[row].rng.random(out=out)
        else:
            stops = (upto - slot + 1).tolist()
            for row, out, a, b in zip(rows.tolist(), block, lo.tolist(), stops):
                policies[row].rng.random(out=out[a:b])
        position = np.full(len(self.device_ids), -1, dtype=np.intp)
        position[rows] = np.arange(rows.size)
        self._draws = block
        self._draw_start, self._draw_end = slot, end
        self._draw_rows, self._draw_upto, self._draw_pos = rows, upto, position
        self._draws_bound = False

    def _bind_draws(self) -> None:
        """Point each drawing kernel at its rows of the draw block: the
        whole column when the kernel holds every block row in order."""
        position = self._draw_pos
        bound = []
        for kernel, _positions in self._kernel_entries:
            index = None
            if kernel.uses_slot_draws:
                if np.array_equal(kernel.rows, self._draw_rows):
                    index = slice(None)
                else:
                    index = position[kernel.rows]
                    if (index < 0).any():
                        raise RuntimeError(
                            f"{type(kernel).__name__}: a row of the kernel "
                            "has no draws in the window"
                        )
            bound.append((kernel, index))
        self._slot_kernels = bound
        self._draws_bound = True

    # ---------------------------------------------------------- slot phases

    def begin(self, slot: int) -> np.ndarray:
        """Phase 1: selection.  Returns local per-network occupancy counts.

        A stacked engine returns every run's counts, flat: run ``r``'s
        network column ``c`` is cell ``r * num_networks + c``.
        """
        membership = self.membership
        events = self._events.get(slot)
        if events is not None:
            membership.apply_events(events)
            self._layout_dirty = True
        if membership.frozen_dirty:
            network_col = self.network_col
            for row in membership.frozen_dirty:
                policy = membership.policies_by_row[row]
                self.choice_col[row] = network_col[policy.begin_slot(slot)]
            membership.frozen_dirty.clear()
        if self._layout_dirty:
            self._refresh_layout(slot)
        if slot >= self._span_end:
            self._write_span(slot)

        choice_col = self.choice_col
        block = column = None
        if self._drawing:
            if slot > self._draw_end:
                self._fill_draws(slot)
            if not self._draws_bound:
                self._bind_draws()
            block, column = self._draws, slot - self._draw_start
        for kernel, draws in self._slot_kernels:
            if draws is None:
                choice_col[kernel.rows] = kernel.begin_slot(slot)
            else:
                choice_col[kernel.rows] = kernel.begin_slot(
                    slot, block[draws, column]
                )
        if slot == self._draw_end:
            self._draws = None  # exhausted
        if self._fallback_list:
            network_col = self.network_col
            for row, _runtime, policy, _pos, _base in self._fallback_list:
                choice_col[row] = network_col[policy.begin_slot(slot)]
        act_cols = (
            choice_col.copy() if self._all_active else choice_col[self._act_rows]
        )
        self._act_cols = act_cols
        if self._act_base is None:
            return np.bincount(act_cols, minlength=self.num_networks)
        self._act_cells = cells = self._act_base + act_cols
        return np.bincount(cells, minlength=self._cell_bandwidths.size)

    def observe(
        self, slot: int, counts: np.ndarray, environment=None
    ) -> np.ndarray:
        """Phase 2: global counts in, rates recorded, switchers out.

        ``counts`` is the all-reduced global occupancy.  ``environment``
        (the run's :class:`~repro.sim.environment.WirelessEnvironment`) is
        given only for gain models other than equal share, which the whole
        population's only shard resolves through it.  Returns the
        occupancy cells (``run * num_networks + column``; the column in a
        one-run engine) the shard's switchers land on, in ascending row
        order; the caller resolves their delays and hands them to
        :meth:`complete`.
        """
        act_rows = self._act_rows
        act_cols = self._act_cols
        cells = act_cols if self._act_base is None else self._act_cells
        col = slot - 1 - self.col_base
        recorder = self.recorder
        bandwidths = self._cell_bandwidths
        if environment is None:
            rates_act = (bandwidths / np.maximum(counts, 1))[cells]
        else:
            rates_act = self._environment_rates(slot, environment)
        if self.needs_feedback:
            # The Full Information counterfactuals are equal share of the
            # nominal bandwidths under every gain model.
            member_gain, join_gain = equal_share_feedback(
                counts, bandwidths, self._cell_scale
            )
            self._feedback = SlotFeedback(
                member_gain=member_gain,
                join_gain=join_gain,
                row_base=self.row_base,
            )
        self._rates_act = rates_act
        if self._all_active:
            recorder.rates[:, col] = rates_act
            recorder.choices[:, col] = self.net_ids[act_cols]
        else:
            recorder.rates[act_rows, col] = rates_act
            recorder.choices[act_rows, col] = self.net_ids[act_cols]
        if self._first_slot:
            prev = self.prev_col[act_rows]
            switched = (prev != -1) & (prev != act_cols)
            self._first_slot = False
        else:
            switched = self._prev_act != act_cols
        self._prev_act = act_cols
        # nonzero() doubles as the emptiness test: cheaper than any().
        switched = switched.nonzero()[0]
        if not switched.size:
            self._switch_rows = _NO_ROWS
            return _NO_ROWS
        self._switch_rows = act_rows[switched]
        return cells[switched]

    def _environment_rates(self, slot: int, environment) -> np.ndarray:
        """Realised rates of the active rows through the environment.

        Builds the association dict in ascending device order, exactly as
        the event backend does, so the gain model consumes the environment
        RNG in the same order.
        """
        device_ids = self.device_ids
        act_rows = self._act_rows.tolist()
        chosen = self.net_ids[self._act_cols].tolist()
        slot_choices = {
            device_ids[row]: network_id
            for row, network_id in zip(act_rows, chosen)
        }
        realised = environment.realized_rates(slot_choices, slot)
        return np.asarray(
            [realised[device_ids[row]] for row in act_rows], dtype=float
        )

    def complete(self, slot: int, delays) -> None:
        """Phase 3: charge delays and feed the realised gains back.

        ``delays`` aligns with the cells :meth:`observe` returned (float64 —
        policies see full precision even when the recorder stores float32).
        """
        col = slot - 1 - self.col_base
        recorder = self.recorder
        switch_rows = self._switch_rows
        if switch_rows.size:
            recorder.delays[switch_rows, col] = delays
            recorder.switches[switch_rows, col] = True
        gains_act = np.minimum(self._rates_act / self._act_scale, 1.0)
        feedback = self._feedback
        for kernel, positions in self._kernel_entries:
            kernel.end_slot(
                slot,
                col,
                gains_act if positions is None else gains_act[positions],
                feedback,
            )
        if not self._fallback_list:
            return
        delay_of = (
            dict(zip(switch_rows.tolist(), delays)) if switch_rows.size else {}
        )
        net_ids = self.net_ids
        network_col = self.network_col
        for row, runtime, policy, pos, base in self._fallback_list:
            chosen_col = self.choice_col[row]
            network_id = int(net_ids[chosen_col])
            full_feedback = None
            if policy.needs_full_feedback:
                full_feedback = {
                    k: float(feedback.member_gain[base + network_col[k]])
                    if network_col[k] == chosen_col
                    else float(feedback.join_gain[base + network_col[k]])
                    for k in runtime.visible or frozenset()
                }
            policy.end_slot(
                slot,
                Observation(
                    slot=slot,
                    network_id=network_id,
                    bit_rate_mbps=float(self._rates_act[pos]),
                    gain=float(gains_act[pos]),
                    switched=bool(recorder.switches[row, col]),
                    delay_s=float(delay_of.get(row, 0.0)),
                    full_feedback=full_feedback,
                ),
            )
            runtime.previous_choice = network_id
            recorder.record_probabilities(row, col, policy)

    def fast_forward(self, slot: int) -> int:
        """Advance past ``slot`` while every active row is frozen.

        Only the run's only shard may call this, after completing ``slot``
        (peers would miss the slots' exchanges).  On equal-share physics
        with no kernel or scalar-fallback row active, the occupancy, hence
        every rate, is constant and nobody switches, so ``slot`` is
        broadcast up to the next topology event, checkpoint barrier or
        recorder window end.

        Returns the last slot advanced (``slot`` when nothing qualified).
        """
        if not self.closed_form or self._kernel_entries or self._fallback_list:
            return slot
        last = min(self._stable_last(slot), self.col_base + self.recorder.num_slots)
        if last >= self._draw_end:
            # No drawing row is present before the next event: the rest of
            # the window is spent.
            self._draws = None
        act_rows = self._act_rows
        if last > slot and act_rows.size:
            recorder = self.recorder
            lo, hi = slot - self.col_base, last - self.col_base
            rows = slice(None) if self._all_active else act_rows
            recorder.rates[rows, lo:hi] = self._rates_act[:, None]
            recorder.choices[rows, lo:hi] = self.net_ids[self._act_cols][:, None]
        return last

    # --------------------------------------------------------- run assembly

    def flush_policies(self) -> None:
        """Scatter surviving kernel groups back into the scalar policies."""
        self._sync_prev()
        for kernel in self.membership.kernels_by_key.values():
            kernel.flush()
            for runtime, local_row in zip(kernel.runtimes, kernel.rows):
                runtime.previous_choice = int(
                    self.net_ids[self.prev_col[local_row]]
                )

    def results(self) -> list[SimulationResult]:
        """Each run's full result (full-horizon recorder mode only): its
        row block of the recorder, as views."""
        runtimes_by_row = self.membership.runtimes_by_row
        whole = len(self.runs) == 1
        return [
            self.recorder.result(
                run.scenario,
                run.seed_label,
                dict(zip(run.device_ids, runtimes_by_row[run.lo : run.hi])),
                rows=None if whole else slice(run.lo, run.hi),
            )
            for run in self.runs
        ]

    # ------------------------------------------------------- window support

    def window_result(self, width: int) -> SimulationResult:
        """A :class:`SimulationResult` over the current window's first
        ``width`` columns (zero-copy views into the recorder blocks) of a
        one-run engine."""
        recorder = self.recorder
        full = width == recorder.num_slots
        (run,) = self.runs
        runtimes_by_row = self.membership.runtimes_by_row
        return SimulationResult(
            scenario_name=self.scenario.name,
            seed=run.seed_label,
            num_slots=width,
            slot_duration_s=self.scenario.slot_duration_s,
            networks=dict(self.scenario.network_map),
            device_ids=self.device_ids,
            policy_names={
                d: runtime.spec.policy
                for d, runtime in zip(self.device_ids, runtimes_by_row)
            },
            choices_2d=recorder.choices if full else recorder.choices[:, :width],
            rates_2d=recorder.rates if full else recorder.rates[:, :width],
            delays_2d=recorder.delays if full else recorder.delays[:, :width],
            switches_2d=recorder.switches if full else recorder.switches[:, :width],
            active_2d=recorder.active if full else recorder.active[:, :width],
            probabilities_3d=None,
        )

    def reset_window(self, next_col_base: int) -> None:
        """Clear the recorder blocks for the next slot window."""
        recorder = self.recorder
        recorder.choices.fill(NO_NETWORK)
        recorder.rates.fill(0.0)
        recorder.delays.fill(0.0)
        recorder.switches.fill(False)
        recorder.active.fill(False)
        self.col_base = next_col_base
