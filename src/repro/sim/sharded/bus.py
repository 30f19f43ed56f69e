"""Per-slot synchronisation buses for the sharded engine.

The sharded run advances all shards in lockstep: once per slot every shard
publishes its ``(networks,)`` occupancy vector and reads back the global sum
(the all-reduce the congestion game's structure permits), and — only for
stochastic delay models — a second exchange publishes the occupancy cells
(the network columns) the slot's switching devices land on, so every worker
can replay the global ascending-device-order delay draw on its own
environment-RNG replica.  Checkpointing adds a third,
occasional barrier: a commit fence confirming every worker finished writing
its shard snapshots before worker 0 seals the manifest.

Two implementations:

* :class:`SerialBus` — the in-process ``workers=1`` mode: one driver owns
  every shard, so both exchanges are identities and the commit fence is a
  no-op.  This is the debugging and bit-exactness-testing mode.
* :class:`SharedMemoryBus` — the hot path: worker processes communicate
  through two pre-allocated shared-memory rings (``multiprocessing.Array``
  without locks) synchronised by one :class:`multiprocessing.Barrier` wait
  per exchange.  Each ring is double-banked by slot parity: a slot writes
  bank ``slot % 2`` and the earliest possible reuse of a bank sits two
  barriers later, by which point every worker has read it.

Every :class:`SharedMemoryBus` barrier wait is bounded by a configurable
timeout (``SupervisionConfig.barrier_timeout_s``).  Before waiting, a
worker publishes ``(slot, phase)`` to a shared progress table; when a wait
times out — or a failing peer breaks the barrier — the worker raises
:class:`~repro.sim.sharded.faults.BusTimeoutError` naming which workers
arrived at the fence and where every missing worker was last seen, instead
of blocking forever on a dead peer.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.sim.sharded.faults import (
    DEFAULT_BARRIER_TIMEOUT_S,
    BusTimeoutError,
)
from repro.telemetry import Histogram, get_telemetry, telemetry_enabled

#: Progress-table phase codes, indexable by the phase column.
PHASE_NAMES = ("counts all-reduce", "switcher exchange", "checkpoint commit")
PHASE_COUNTS, PHASE_SWITCHERS, PHASE_CHECKPOINT = range(3)


class SerialBus:
    """Identity bus for the in-process lockstep driver (all shards local)."""

    def reduce_counts(self, slot: int, local_counts: np.ndarray) -> np.ndarray:
        return local_counts

    def exchange_switchers(
        self, slot: int, cells: np.ndarray
    ) -> tuple[np.ndarray, int]:
        return cells, 0

    def checkpoint_sync(self, slot: int) -> None:
        """Commit fence: trivially satisfied with a single driver."""

    def wait_stats(self) -> dict | None:
        """No barriers, no waits: a single driver never blocks."""
        return None


class SharedMemoryBus:
    """Shared-memory ring + barrier all-reduce between worker processes."""

    def __init__(
        self,
        worker_index: int,
        num_workers: int,
        worker_device_offsets: list[int],
        counts_view: np.ndarray,
        switcher_view: np.ndarray | None,
        switcher_counts_view: np.ndarray | None,
        barrier,
        timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
        progress_view: np.ndarray | None = None,
    ) -> None:
        self.worker_index = worker_index
        self.num_workers = num_workers
        #: Global device-row offset of each worker's first shard.
        self.worker_device_offsets = worker_device_offsets
        self.counts = counts_view  # (2, workers, networks) int64
        self.switchers = switcher_view  # (2, total_devices) int64 | None
        self.switcher_counts = switcher_counts_view  # (2, workers) int64 | None
        self.barrier = barrier
        self.timeout_s = timeout_s
        self.progress = progress_view  # (workers, 2) int64: last (slot, phase)
        #: Barrier-wait histogram, live only under telemetry: the extra cost
        #: per wait is two ``perf_counter`` calls and one bisect, but the
        #: disabled path must stay a single ``is None`` check.
        self.wait_hist: Histogram | None = (
            Histogram() if telemetry_enabled() else None
        )

    # ------------------------------------------------------------- barriers

    def _wait(self, slot: int, phase: int) -> None:
        """One bounded barrier wait, with arrival diagnostics on failure."""
        if self.progress is not None:
            self.progress[self.worker_index, 0] = slot
            self.progress[self.worker_index, 1] = phase
        hist = self.wait_hist
        try:
            if hist is None:
                self.barrier.wait(self.timeout_s)
            else:
                waited = time.perf_counter()
                self.barrier.wait(self.timeout_s)
                hist.observe(time.perf_counter() - waited)
        except threading.BrokenBarrierError:
            error = BusTimeoutError(*self._diagnose(slot, phase))
            telemetry = get_telemetry()
            if telemetry is not None:
                telemetry.event(
                    "barrier_timeout",
                    slot=slot,
                    phase=PHASE_NAMES[phase],
                    arrived=error.arrived,
                    missing=error.missing,
                    worker=self.worker_index,
                )
            raise error from None

    def wait_stats(self) -> dict | None:
        """Snapshot for a ``barrier_waits`` event, or ``None`` when disabled."""
        hist = self.wait_hist
        if hist is None or hist.count == 0:
            return None
        payload = hist.payload()
        return {
            "waits": payload["count"],
            "seconds": payload["total"],
            "histogram": payload,
        }

    def _diagnose(self, slot: int, phase: int) -> tuple[str, int, list, list]:
        """Which workers reached this fence, and where the rest were seen."""
        arrived: list[int] = []
        missing: list[str] = []
        if self.progress is not None:
            snapshot = np.array(self.progress)
            for worker in range(self.num_workers):
                last_slot, last_phase = int(snapshot[worker, 0]), int(
                    snapshot[worker, 1]
                )
                if (last_slot, last_phase) >= (slot, phase):
                    arrived.append(worker)
                elif last_slot <= 0:
                    missing.append(f"worker {worker} never reached a barrier")
                else:
                    missing.append(
                        f"worker {worker} last seen at slot {last_slot} "
                        f"({PHASE_NAMES[last_phase]})"
                    )
        message = (
            f"barrier wait broken or timed out (> {self.timeout_s:.1f}s) at "
            f"slot {slot} ({PHASE_NAMES[phase]}): "
            f"arrived {arrived or 'unknown'}"
            + (f"; {'; '.join(missing)}" if missing else "")
        )
        return message, slot, arrived, missing

    # ------------------------------------------------------------ exchanges

    def reduce_counts(self, slot: int, local_counts: np.ndarray) -> np.ndarray:
        bank = slot % 2
        self.counts[bank, self.worker_index, :] = local_counts
        self._wait(slot, PHASE_COUNTS)
        return self.counts[bank].sum(axis=0)

    def exchange_switchers(
        self, slot: int, cells: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Publish this worker's switchers' cells; read back the global list.

        ``cells`` follow the worker's switching devices in ascending order;
        worker slices are disjoint ascending device ranges, so
        concatenating per-worker segments in worker order reproduces the
        global ascending-device order the delay draw must follow.  A worker
        has at most as many switchers as devices, so its segment fits the
        ring from its first device's offset on.  Returns the global cell
        sequence and this worker's offset into it.
        """
        bank = slot % 2
        count = int(cells.size)
        self.switcher_counts[bank, self.worker_index] = count
        lo = self.worker_device_offsets[self.worker_index]
        if count:
            self.switchers[bank, lo : lo + count] = cells
        self._wait(slot, PHASE_SWITCHERS)
        counts = self.switcher_counts[bank]
        segments = []
        offset = 0
        for worker in range(self.num_workers):
            worker_count = int(counts[worker])
            if worker < self.worker_index:
                offset += worker_count
            if worker_count:
                worker_lo = self.worker_device_offsets[worker]
                segments.append(
                    self.switchers[bank, worker_lo : worker_lo + worker_count]
                )
        if not segments:
            return np.empty(0, dtype=np.int64), 0
        return np.concatenate(segments), offset

    def checkpoint_sync(self, slot: int) -> None:
        """Commit fence: every worker's shard files are on disk past this."""
        self._wait(slot, PHASE_CHECKPOINT)
