"""Vectorized backend: batched slot physics with churn-native topology.

The reference (event) backend spends most of its time in per-device Python:
throwaway dicts for allocation counts and realised rates, per-device scalar
gain scaling, a coverage lookup per device per slot, and per-device dict
indexing into the result arrays.  This backend batches all of that across
devices:

* Allocation counts come from one ``np.bincount`` over the per-device choice
  columns; equal-share rates and the full-information counterfactual gains
  are array expressions over the network axis.
* Topology is consumed from the run's precomputed
  :class:`~repro.sim.backends.base.TopologyPlan` **in-loop**: joins, leaves
  and visible-set changes are membership edits applied at the affected slot —
  kernel groups persist across topology changes (departing/re-covered rows
  are scattered back to their scalar policies and deleted, joining rows are
  gathered and absorbed) instead of the whole horizon being segmented with a
  scalar reference slot at every boundary.  A scenario with per-slot churn
  therefore stays on the batched path.
* Devices running a :attr:`~repro.algorithms.base.Policy.stationary` policy
  (Fixed Random, Centralized) are *frozen*: their choice and mixed strategy
  can only change at a topology event affecting them, so their result rows
  are broadcast per event-free span and the per-slot loop never visits them.
* Learning policies execute through **batched kernels**
  (:mod:`repro.algorithms.kernels`): devices sharing a policy family and
  visible-network set advance as one ``(devices × networks)`` array program —
  one fused selection, one fused update and one probability block write per
  slot, instead of ``begin_slot``/``end_slot``/``record_probabilities``
  round-trips per device.  Policies without a registered kernel run on the
  per-device scalar fallback path (registry lookup:
  :func:`repro.algorithms.registry.kernel_for_policy`).
* Results are written straight into the preallocated
  :class:`~repro.sim.backends.base.SlotRecorder` blocks with column/row/block
  array writes; the activity block is one copy of the plan's presence mask.

Bit-exactness with the event backend is preserved because the RNG streams
are consumed in the identical order (see :mod:`repro.sim.backends.base` and
the kernel contract in :mod:`repro.algorithms.kernels`): the equal-share
gain model draws nothing, switching delays are drawn per switching device in
ascending device order, and every policy keeps its private generator — the
kernels replicate each policy's draws stream-for-stream, and topology edits
route through the same scalar ``update_available_networks`` calls the
reference path performs, at the same slots.  Gain models other than
:class:`EqualShareModel` consume the environment RNG, so they take a generic
per-slot path that routes through
:meth:`WirelessEnvironment.realized_rates` with the same device-ordered
association grouping the event backend builds.
"""

from __future__ import annotations

import time

import numpy as np

import repro.algorithms.kernels  # noqa: F401  (registers the built-in kernels)
from repro.algorithms.base import Observation
from repro.algorithms.kernels.base import SlotFeedback, WindowPlan
from repro.game.gain import EqualShareModel
from repro.profiling import profile_run
from repro.telemetry import get_telemetry
from repro.sim.backends.base import SlotExecutor, prepare_run
from repro.sim.backends.membership import (
    FALLBACK as _FALLBACK,
    FROZEN as _FROZEN,
    MembershipState,
    equal_share_feedback,
)
from repro.sim.metrics import SimulationResult
from repro.sim.scenario import Scenario

#: Uniform doubles buffered per :meth:`BatchKernel.prepare_window` call; caps
#: window length at ``budget // group_size`` so a million-device group still
#: buffers a handful of slots (~32 MB) instead of the whole horizon.
_DRAW_BUDGET = 4_000_000


class VectorizedSlotExecutor(SlotExecutor):
    """Batched per-slot physics with in-loop topology edits and policy kernels."""

    name = "vectorized"

    def __init__(
        self, use_kernels: bool = True, fuse_windows: bool = True
    ) -> None:
        #: When False, every learning policy takes the per-device scalar path;
        #: kept addressable as the ``"vectorized-nokernel"`` backend so
        #: benchmarks can measure the kernel layer in isolation.
        self.use_kernels = use_kernels
        #: When True (default), membership-stable epochs whose every active
        #: device belongs to one kernel on closed-form equal-share physics
        #: with a stream-free delay model advance through
        #: :meth:`BatchKernel.advance_window` — the fused window path
        #: (interpreted: bit-exact; compiled via numba when opted in:
        #: distribution-exact).  ``fuse_windows=False`` is the per-slot
        #: baseline the compiled benchmark suite measures against.
        self.fuse_windows = fuse_windows and use_kernels
        if not use_kernels:
            self.name = "vectorized-nokernel"

    def execute(
        self,
        scenario: Scenario,
        seed: int = 0,
        record_probabilities: bool = True,
    ) -> SimulationResult:
        state = prepare_run(scenario, seed, record_probabilities)
        plan = state.topology
        environment = state.environment
        recorder = state.recorder
        device_ids = state.device_ids
        num_slots = state.num_slots
        num_devices = len(device_ids)
        runtimes_by_row = [state.runtimes[d] for d in device_ids]
        policies_by_row = [rt.policy for rt in runtimes_by_row]
        network_order = state.network_order
        num_networks = len(network_order)
        network_col = recorder.network_col
        net_ids = np.asarray(network_order, dtype=np.int64)
        bandwidths = np.asarray(
            [scenario.network_map[k].bandwidth_mbps for k in network_order],
            dtype=float,
        )
        scale_ref = float(scenario.scale_reference_mbps)
        # Only the exact EqualShareModel is RNG-free and closed-form; any
        # other gain model goes through the environment for bit-exactness.
        fast_physics = type(scenario.gain_model) is EqualShareModel
        any_full_feedback = state.any_full_feedback
        prof = profile_run(self.name)
        tele = get_telemetry()
        window_reasons: dict[str, int] | None = None
        run_started = 0.0
        if tele is not None:
            window_reasons = {}
            run_started = time.perf_counter()
            tele.event(
                "run_start",
                tag=self.name,
                devices=num_devices,
                slots=num_slots,
                scenario=getattr(scenario, "name", None),
            )

        # Stream-free delay models (NoDelay, Constant) draw nothing from the
        # environment RNG, so a per-network-column table replaces the
        # per-switcher sampling calls bit-exactly — both in the slot loop and
        # on the fused window path.
        delay_table = None
        if getattr(scenario.delay_model, "stream_free", False):
            delay_table = np.asarray(
                [environment.switching_delay(int(n)) for n in net_ids],
                dtype=float,
            )

        choices2d = recorder.choices
        rates2d = recorder.rates
        delays2d = recorder.delays
        switches2d = recorder.switches
        active2d = recorder.active
        prob_block = recorder.probabilities

        if not plan.event_slots:
            return state.finish()  # no device is ever present
        active2d[:] = plan.activity_mask()

        # ---- persistent run state (execution classes, kernel groups and
        # frozen bookkeeping live in the shared membership layer; topology
        # events edit them in place through membership.apply_events)
        membership = MembershipState(runtimes_by_row, recorder, self.use_kernels)
        category = membership.category
        active = membership.active
        kernels_by_key = membership.kernels_by_key
        fallback_rows = membership.fallback_rows
        frozen_dirty = membership.frozen_dirty
        frozen_probs = membership.frozen_probs
        choice_col = np.zeros(num_devices, dtype=np.intp)
        prev_col = np.full(num_devices, -1, dtype=np.intp)

        boundaries = list(plan.event_slots)
        boundaries.append(num_slots + 1)

        for seg in range(len(boundaries) - 1):
            seg_start = boundaries[seg]
            seg_end = boundaries[seg + 1]  # epoch covers slots [seg_start, seg_end)
            events = plan.events.get(seg_start)
            if events is not None:
                membership.apply_events(events)

            act_rows = np.nonzero(active)[0]
            if act_rows.size == 0:
                continue
            all_active = act_rows.size == num_devices
            idx_lo, idx_hi = seg_start - 1, seg_end - 1  # 0-based column range

            # ---- frozen rows: refresh edited ones, broadcast the epoch span
            frozen_act = act_rows[category[act_rows] == _FROZEN]
            for row in frozen_act:
                row = int(row)
                if row in frozen_dirty:
                    policy = policies_by_row[row]
                    choice_col[row] = network_col[policy.begin_slot(seg_start)]
                    frozen_dirty.discard(row)
                    if prob_block is not None:
                        cols = []
                        vals = []
                        for network_id, p in policy.probabilities.items():
                            col = network_col.get(network_id)
                            if col is not None:
                                cols.append(col)
                                vals.append(p)
                        frozen_probs[row] = (cols, np.asarray(vals, dtype=float))
                choices2d[row, idx_lo:idx_hi] = net_ids[choice_col[row]]
                if prob_block is not None:
                    cols, vals = frozen_probs[row]
                    # Mixed slice + fancy indexing puts the network axis
                    # first, so broadcast the values along the slot axis.
                    prob_block[row, idx_lo:idx_hi, cols] = vals[:, None]

            live_rows = act_rows[category[act_rows] != _FROZEN]
            all_live = live_rows.size == act_rows.size
            # Every kernel row is active and live (a kernel emptied by an
            # edit is dropped), so the epoch's kernels are the membership's.
            epoch_kernels = list(kernels_by_key.values())
            kernel_pos = {}
            for kernel in epoch_kernels:
                positions = np.searchsorted(act_rows, kernel.rows)
                # Identity mapping (one kernel covering every active row, the
                # static common case): hand the gains array over as is.
                kernel_pos[id(kernel)] = (
                    None
                    if positions.size == act_rows.size
                    and np.array_equal(positions, np.arange(positions.size))
                    else positions
                )
            fallback = [
                (
                    row,
                    runtimes_by_row[row],
                    policies_by_row[row],
                    int(np.searchsorted(act_rows, row)),
                )
                for row in sorted(fallback_rows)
            ]
            need_feedback = any_full_feedback and (
                any(k.needs_full_feedback for k in epoch_kernels)
                or any(entry[2].needs_full_feedback for entry in fallback)
            )

            if live_rows.size == 0 and fast_physics:
                # Every active device is frozen: the allocation — hence every
                # equal-share rate — is constant across the whole epoch; only
                # the first slot can carry switches (from topology edits).
                act_cols = choice_col[act_rows]
                counts = np.bincount(act_cols, minlength=num_networks)
                rates_act = (bandwidths / np.maximum(counts, 1))[act_cols]
                if all_active:
                    rates2d[:, idx_lo:idx_hi] = rates_act[:, None]
                else:
                    rates2d[
                        np.ix_(act_rows, np.arange(idx_lo, idx_hi))
                    ] = rates_act[:, None]
                prev = prev_col[act_rows]
                switched = (prev != -1) & (prev != act_cols)
                if switched.any():
                    switcher_rows = act_rows[switched]
                    delays = environment.switching_delays(
                        [int(net_ids[choice_col[r]]) for r in switcher_rows]
                    )
                    delays2d[switcher_rows, idx_lo] = delays
                    switches2d[switcher_rows, idx_lo] = True
                prev_col[act_rows] = act_cols
                continue

            # ---- fused window path: one kernel covering every active row on
            # closed-form physics with a stream-free delay model advances the
            # whole epoch through BatchKernel.advance_window (pre-drawn
            # uniforms, bincount physics, table delays, block recorder writes
            # — no per-slot executor bookkeeping).  Windows are capped by the
            # draw-buffer budget and truncate at epoch boundaries, so the
            # uniform buffers are always exhausted when topology edits fire.
            if (
                self.fuse_windows
                and fast_physics
                and not need_feedback
                and delay_table is not None
                and not fallback
                and frozen_act.size == 0
                and len(epoch_kernels) == 1
                and kernel_pos[id(epoch_kernels[0])] is None
                and seg_end - seg_start >= 2
            ):
                kernel = epoch_kernels[0]
                window_cap = max(2, _DRAW_BUDGET // max(kernel.size, 1))
                prev = prev_col[kernel.rows].copy()
                t0 = prof.now() if prof is not None else 0.0
                slot = seg_start
                while slot < seg_end:
                    width = min(seg_end - slot, window_cap)
                    kernel.prepare_window(width)
                    kernel.advance_window(
                        WindowPlan(
                            start_slot=slot,
                            n_slots=width,
                            idx_lo=slot - 1,
                            net_ids=net_ids,
                            bandwidths=bandwidths,
                            num_networks=num_networks,
                            scale_ref=scale_ref,
                            delay_table=delay_table,
                            prev=prev,
                            choices2d=choices2d,
                            rates2d=rates2d,
                            delays2d=delays2d,
                            switches2d=switches2d,
                        )
                    )
                    if window_reasons is not None:
                        if width < seg_end - slot:
                            reason = "draw_budget"
                        elif seg_end > num_slots:
                            reason = "horizon"
                        else:
                            reason = "topology_event"
                        window_reasons[reason] = (
                            window_reasons.get(reason, 0) + 1
                        )
                    slot += width
                prev_col[kernel.rows] = prev
                if prof is not None:
                    prof.add("fused_window", t0)
                continue

            # ---- per-slot loop
            # Hoisted per-epoch state (satellite micro-opts): the kernel/
            # position pairs so the slot loop never re-reads the kernel_pos
            # dict, and the draw-window refill list for kernels that consume
            # one uniform per row per slot (the refills replace the per-slot
            # per-row generator calls inside sample_rows).
            kernel_entries = [
                (kernel, kernel_pos[id(kernel)]) for kernel in epoch_kernels
            ]
            draw_spans = [
                (kernel, max(1, _DRAW_BUDGET // max(kernel.size, 1)))
                for kernel in epoch_kernels
                if kernel.uses_slot_draws
            ]
            prev_live: np.ndarray | None = None
            for slot in range(seg_start, seg_end):
                slot_index = slot - 1
                first = slot == seg_start
                if prof is not None:
                    t = prof.now()

                # Phase 1: selection (kernels batched, fallback per device).
                # Refill exhausted draw windows first, sized to end exactly at
                # the epoch boundary so membership edits never drop live draws.
                for kernel, cap in draw_spans:
                    if kernel.window_exhausted:
                        kernel.prepare_window(min(cap, seg_end - slot))
                for kernel in epoch_kernels:
                    choice_col[kernel.rows] = kernel.begin_slot(slot)
                for row, _runtime, policy, _pos in fallback:
                    choice_col[row] = network_col[policy.begin_slot(slot)]
                act_cols = choice_col[act_rows]
                cur_live = act_cols if all_live else choice_col[live_rows]
                if prof is not None:
                    t = prof.add("sampling", t)

                # Phase 2: realised rates.
                counts_dict = None
                if fast_physics:
                    counts = np.bincount(act_cols, minlength=num_networks)
                    rates_act = (bandwidths / np.maximum(counts, 1))[act_cols]
                else:
                    slot_choices = {
                        device_ids[row]: int(net_ids[choice_col[row]])
                        for row in act_rows
                    }
                    groups = environment.client_groups(slot_choices)
                    if any_full_feedback:
                        counts_dict = environment.allocation_counts(
                            slot_choices, groups
                        )
                    realised = environment.realized_rates(
                        slot_choices, slot, groups
                    )
                    rates_act = np.asarray(
                        [realised[device_ids[row]] for row in act_rows],
                        dtype=float,
                    )
                if prof is not None:
                    t = prof.add("physics", t)
                if all_active:
                    rates2d[:, slot_index] = rates_act
                else:
                    rates2d[act_rows, slot_index] = rates_act
                if live_rows.size:
                    choices2d[live_rows, slot_index] = net_ids[cur_live]
                if prof is not None:
                    t = prof.add("recorder", t)

                # Phase 3: feedback and recording.
                gains_act = np.minimum(rates_act / scale_ref, 1.0)
                feedback = None
                member_gain = join_gain = None
                if need_feedback:
                    if fast_physics:
                        member_gain, join_gain = equal_share_feedback(
                            counts, bandwidths, scale_ref
                        )
                        feedback = SlotFeedback(
                            member_gain=member_gain, join_gain=join_gain
                        )
                    else:
                        feedback = SlotFeedback(
                            counts=counts_dict, environment=environment
                        )
                if prof is not None:
                    t = prof.add("physics", t)

                # Switching delays consume the environment RNG per switching
                # device in ascending device order, exactly as the reference
                # backend draws them.  Frozen rows can only switch on the
                # first slot of an epoch (after a topology edit), so later
                # slots compare live rows against the loop-local previous
                # columns (every live row selected at the boundary slot, so
                # the "never chose yet" sentinel check is boundary-only).
                if first:
                    check_rows = act_rows
                    cur = act_cols
                    prev_act = prev_col[act_rows]
                    switched = (prev_act != -1) & (prev_act != cur)
                    prev_col[act_rows] = act_cols
                else:
                    check_rows = live_rows
                    cur = cur_live
                    switched = prev_live != cur
                delay_of: dict[int, float] = {}
                if switched.any():
                    switcher_rows = check_rows[switched]
                    if delay_table is not None:
                        # Stream-free model: table lookup, no RNG, no
                        # per-switcher Python loop inside the delay model.
                        delays = delay_table[cur[switched]]
                        if fallback:
                            delays = delays.tolist()
                    else:
                        delays = environment.switching_delays(
                            net_ids[cur[switched]].tolist()
                        )
                    delays2d[switcher_rows, slot_index] = delays
                    switches2d[switcher_rows, slot_index] = True
                    if fallback:
                        # Feed policies the full-precision delays, not the
                        # recorder's (possibly float32) stored copies.
                        delay_of = dict(zip(switcher_rows.tolist(), delays))
                prev_live = cur_live
                if prof is not None:
                    t = prof.add("delays", t)

                for kernel, positions in kernel_entries:
                    kernel.end_slot(
                        slot,
                        slot_index,
                        gains_act if positions is None else gains_act[positions],
                        feedback,
                    )
                for row, runtime, policy, pos in fallback:
                    network_id = int(net_ids[choice_col[row]])
                    switched_here = bool(switches2d[row, slot_index])
                    full_feedback = None
                    if any_full_feedback and policy.needs_full_feedback:
                        visible = runtime.visible or frozenset()
                        if fast_physics:
                            chosen_col = choice_col[row]
                            full_feedback = {
                                k: float(member_gain[network_col[k]])
                                if network_col[k] == chosen_col
                                else float(join_gain[network_col[k]])
                                for k in visible
                            }
                        else:
                            full_feedback = environment.counterfactual_gains(
                                counts_dict, network_id, visible
                            )
                    policy.end_slot(
                        slot,
                        Observation(
                            slot=slot,
                            network_id=network_id,
                            bit_rate_mbps=float(rates_act[pos]),
                            gain=float(gains_act[pos]),
                            switched=switched_here,
                            delay_s=delay_of.get(row, 0.0),
                            full_feedback=full_feedback,
                        ),
                    )
                    runtime.previous_choice = network_id
                    recorder.record_probabilities(row, slot_index, policy)
                if prof is not None:
                    prof.add("reward", t)

            # Re-sync the loop-local previous columns so the next boundary's
            # switch detection (and the final flush) see the epoch's outcome.
            if live_rows.size and prev_live is not None:
                prev_col[live_rows] = prev_live

        # End of run: scatter every surviving kernel group back into the
        # scalar policies so the final result assembly (reset counts) and any
        # post-run inspection observe exactly the scalar-path state.
        for kernel in kernels_by_key.values():
            kernel.flush()
            for runtime, local_row in zip(kernel.runtimes, kernel.rows):
                runtime.previous_choice = int(net_ids[prev_col[local_row]])

        if prof is not None:
            prof.devices = num_devices
            prof.slots = num_slots
            # state.seed is the resolved integer label (``seed`` itself may
            # be a RunSeed/SeedSequence, which is not JSON-serialisable).
            prof.emit(scenario=getattr(scenario, "name", None), seed=state.seed)
        if tele is not None:
            if window_reasons:
                tele.event(
                    "fused_windows",
                    tag=self.name,
                    windows=sum(window_reasons.values()),
                    reasons=window_reasons,
                )
            seconds = time.perf_counter() - run_started
            tele.event(
                "run_end",
                tag=self.name,
                seconds=round(seconds, 6),
                device_slots_per_second=(
                    round(num_devices * num_slots / seconds, 1)
                    if seconds > 0
                    else None
                ),
            )
        return state.finish()
