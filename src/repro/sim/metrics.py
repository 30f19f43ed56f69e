"""Columnar per-run result storage and derived per-device metrics.

A :class:`SimulationResult` stores one run as **struct-of-arrays**: the chosen
network, observed bit rate, switching delay, switch flag and activity of every
device live in ``(num_devices, num_slots)`` blocks, and the selection
probabilities in one ``(num_devices, num_slots, num_networks)`` tensor.  The
execution backends write these blocks in place (see
:class:`repro.sim.backends.base.SlotRecorder`) and hand them to the result
without any per-device scatter, and :mod:`repro.analysis` consumes them as
single vectorized expressions over the device axis.

For callers written against the historical ``device_id -> ndarray`` layout,
the mapping-style accessors (:attr:`SimulationResult.choices`,
:attr:`~SimulationResult.rates_mbps`, ...) expose zero-copy per-device row
views keyed by device id via :class:`DeviceAxisView`.

The probability tensor is the dominant share of a run's footprint; it can be
dropped at record time (``record_probabilities=False`` on the runner /
backends, used automatically by reducers that do not need it) or strided
after the fact (:meth:`SimulationResult.strided_probabilities`).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.game.network import Network

#: Value stored in the ``choices`` array when a device is inactive in a slot.
NO_NETWORK = -1


class DeviceAxisView(MappingABC):
    """Mapping-style view over the device axis of one columnar block.

    ``view[device_id]`` returns that device's row of the underlying
    ``(num_devices, ...)`` block as a zero-copy NumPy view, so code written
    against the historical per-device-dict layout keeps working unchanged.
    The full block is available as :attr:`array` for vectorized consumers.
    """

    __slots__ = ("_block", "_row_of")

    def __init__(self, block: np.ndarray, row_of: Mapping[int, int]) -> None:
        self._block = block
        self._row_of = row_of

    def __getitem__(self, device_id: int) -> np.ndarray:
        return self._block[self._row_of[device_id]]

    def __iter__(self) -> Iterator[int]:
        return iter(self._row_of)

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, device_id) -> bool:
        return device_id in self._row_of

    @property
    def array(self) -> np.ndarray:
        """The underlying ``(num_devices, ...)`` block."""
        return self._block

    def __repr__(self) -> str:
        return (
            f"DeviceAxisView({len(self._row_of)} devices, "
            f"block shape {self._block.shape})"
        )


@dataclass
class SimulationResult:
    """Full record of one simulation run, stored struct-of-arrays.

    Attributes
    ----------
    scenario_name:
        Name of the scenario that produced this run.
    seed:
        Seed of the run's random generator.
    num_slots:
        Horizon in slots.
    slot_duration_s:
        Length of one slot in seconds (15 s in the paper).
    networks:
        Networks of the scenario, keyed by id.
    device_ids:
        All device ids, in ascending order; device ``device_ids[row]`` owns
        row ``row`` of every columnar block.
    policy_names:
        Policy used by each device.
    choices_2d:
        ``(num_devices, num_slots)`` int array of chosen network ids
        (:data:`NO_NETWORK` when inactive).
    rates_2d:
        ``(num_devices, num_slots)`` float array of observed bit rates (Mbps).
    delays_2d:
        ``(num_devices, num_slots)`` float array of switching delays charged.
    switches_2d:
        ``(num_devices, num_slots)`` bool array; True where a device switched.
    active_2d:
        ``(num_devices, num_slots)`` bool array; True when in the service area.
    probabilities_3d:
        ``(num_devices, num_slots, num_networks)`` float tensor with the
        policies' selection probabilities in :attr:`network_order` column
        order, or ``None`` when recording was disabled.
    resets:
        ``device_id -> int`` number of resets performed by the policy.

    The mapping-style accessors (:attr:`choices`, :attr:`rates_mbps`,
    :attr:`delays_s`, :attr:`switches`, :attr:`active`,
    :attr:`probabilities`) are thin compatibility views over the blocks,
    keyed by device id.
    """

    scenario_name: str
    seed: int
    num_slots: int
    slot_duration_s: float
    networks: dict[int, Network]
    device_ids: tuple[int, ...]
    policy_names: dict[int, str]
    choices_2d: np.ndarray
    rates_2d: np.ndarray
    delays_2d: np.ndarray
    switches_2d: np.ndarray
    active_2d: np.ndarray
    probabilities_3d: np.ndarray | None
    resets: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ axes

    @cached_property
    def row_of(self) -> dict[int, int]:
        """Row of each device id in the columnar blocks."""
        return {device_id: row for row, device_id in enumerate(self.device_ids)}

    def row_index(self, device_id: int) -> int:
        """Row of ``device_id`` in the columnar blocks."""
        return self.row_of[device_id]

    def rows_for(self, device_ids: Sequence[int] | None = None) -> np.ndarray:
        """Block rows of ``device_ids`` (all devices when ``None``)."""
        if device_ids is None:
            return np.arange(len(self.device_ids), dtype=np.intp)
        row_of = self.row_of
        return np.asarray([row_of[d] for d in device_ids], dtype=np.intp)

    @property
    def network_order(self) -> tuple[int, ...]:
        """Network ids in the column order used by ``probabilities_3d``."""
        return tuple(sorted(self.networks))

    @cached_property
    def _network_order_array(self) -> np.ndarray:
        return np.asarray(self.network_order, dtype=np.int64)

    # -------------------------------------------------- compatibility views

    @property
    def choices(self) -> DeviceAxisView:
        return DeviceAxisView(self.choices_2d, self.row_of)

    @property
    def rates_mbps(self) -> DeviceAxisView:
        return DeviceAxisView(self.rates_2d, self.row_of)

    @property
    def delays_s(self) -> DeviceAxisView:
        return DeviceAxisView(self.delays_2d, self.row_of)

    @property
    def switches(self) -> DeviceAxisView:
        return DeviceAxisView(self.switches_2d, self.row_of)

    @property
    def active(self) -> DeviceAxisView:
        return DeviceAxisView(self.active_2d, self.row_of)

    @property
    def probabilities(self) -> DeviceAxisView:
        if self.probabilities_3d is None:
            raise ValueError(
                "selection probabilities were not recorded for this run "
                "(record_probabilities=False); re-run with probability "
                "recording enabled"
            )
        return DeviceAxisView(self.probabilities_3d, self.row_of)

    # -------------------------------------------------- probability payload

    def without_probabilities(self) -> "SimulationResult":
        """A copy of this result with the probability tensor dropped.

        The blocks are shared, not copied; use this before shipping results
        across process boundaries when no downstream analysis needs the
        per-slot mixed strategies.
        """
        return replace(self, probabilities_3d=None)

    def strided_probabilities(
        self, stride: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot_indices, tensor)`` keeping every ``stride``-th slot.

        The returned tensor is a zero-copy view of shape
        ``(num_devices, ceil(num_slots / stride), num_networks)``.
        """
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if self.probabilities_3d is None:
            raise ValueError("probabilities were not recorded for this run")
        slot_indices = np.arange(0, self.num_slots, stride)
        return slot_indices, self.probabilities_3d[:, ::stride]

    @property
    def nbytes(self) -> int:
        """Bytes held by the columnar blocks (the IPC-relevant payload size)."""
        total = (
            self.choices_2d.nbytes
            + self.rates_2d.nbytes
            + self.delays_2d.nbytes
            + self.switches_2d.nbytes
            + self.active_2d.nbytes
        )
        if self.probabilities_3d is not None:
            total += self.probabilities_3d.nbytes
        return total

    # ------------------------------------------------------ derived metrics

    def _select(
        self, block: np.ndarray, device_ids: Sequence[int] | None
    ) -> np.ndarray:
        if device_ids is None:
            return block
        return block[self.rows_for(device_ids)]

    def switch_counts(
        self, device_ids: Sequence[int] | None = None
    ) -> np.ndarray:
        """Per-device switch counts, one vectorized reduction over slots."""
        return self._select(self.switches_2d, device_ids).sum(axis=1)

    def switch_count(self, device_id: int) -> int:
        """Total number of network switches performed by a device.

        .. deprecated:: scalar duplicate of :meth:`switch_counts`.
        """
        return int(self.switches_2d[self.row_index(device_id)].sum())

    def total_switches(self) -> int:
        return int(self.switches_2d.sum())

    def mean_switches_per_device(self, device_ids: Sequence[int] | None = None) -> float:
        counts = self.switch_counts(device_ids)
        if counts.size == 0:
            return 0.0
        return float(np.mean(counts))

    def downloads_mb(self, device_ids: Sequence[int] | None = None) -> np.ndarray:
        """Per-device cumulative downloads in megabytes.

        Per slot a device downloads ``rate · (slot_duration − delay)`` Mbit;
        inactive slots contribute nothing (rate is recorded as 0 there).
        One vectorized expression over the ``(devices, slots)`` blocks.
        """
        rates = self._select(self.rates_2d, device_ids)
        delays = self._select(self.delays_2d, device_ids)
        effective = np.clip(self.slot_duration_s - delays, 0.0, None)
        return (rates * effective).sum(axis=1) / 8.0

    def download_mb(self, device_id: int) -> float:
        """Cumulative download of a device in megabytes.

        .. deprecated:: scalar duplicate of :meth:`downloads_mb`.
        """
        return float(self.downloads_mb((device_id,))[0])

    def switching_costs_mb(
        self, device_ids: Sequence[int] | None = None
    ) -> np.ndarray:
        """Per-device download lost to switching delays, in megabytes."""
        rates = self._select(self.rates_2d, device_ids)
        delays = self._select(self.delays_2d, device_ids)
        lost = rates * np.clip(delays, 0.0, self.slot_duration_s)
        return lost.sum(axis=1) / 8.0

    def switching_cost_mb(self, device_id: int) -> float:
        """Download lost to switching delays, in megabytes.

        .. deprecated:: scalar duplicate of :meth:`switching_costs_mb`.
        """
        return float(self.switching_costs_mb((device_id,))[0])

    def allocation_at(self, slot_index: int) -> dict[int, int]:
        """Number of active devices per network at a 0-based slot index."""
        chosen = self.choices_2d[self.active_2d[:, slot_index], slot_index]
        chosen = chosen[chosen != NO_NETWORK]
        order = self._network_order_array
        counts = np.bincount(
            np.searchsorted(order, chosen), minlength=order.size
        )
        return {
            int(network_id): int(counts[col])
            for col, network_id in enumerate(order)
        }

    def devices_with_policy(self, policy_name: str) -> tuple[int, ...]:
        return tuple(
            device_id
            for device_id in self.device_ids
            if self.policy_names[device_id] == policy_name
        )

    def summary(self) -> dict[str, float]:
        """Headline per-run metrics (used by quickstart and reporting)."""
        downloads = self.downloads_mb()
        return {
            "num_devices": float(len(self.device_ids)),
            "num_slots": float(self.num_slots),
            "mean_switches": self.mean_switches_per_device(),
            "median_download_mb": float(np.median(downloads)) if downloads.size else 0.0,
            "std_download_mb": float(np.std(downloads)) if downloads.size else 0.0,
            "total_download_gb": float(np.sum(downloads)) / 1024.0,
        }

    # -------------------------------------------------------- construction

    @classmethod
    def from_device_arrays(
        cls,
        *,
        scenario_name: str,
        seed: int,
        num_slots: int,
        slot_duration_s: float,
        networks: dict[int, Network],
        device_ids: tuple[int, ...],
        policy_names: dict[int, str],
        choices: Mapping[int, np.ndarray],
        rates_mbps: Mapping[int, np.ndarray],
        delays_s: Mapping[int, np.ndarray],
        switches: Mapping[int, np.ndarray],
        active: Mapping[int, np.ndarray],
        probabilities: Mapping[int, np.ndarray] | None = None,
        resets: dict[int, int] | None = None,
    ) -> "SimulationResult":
        """Build a columnar result from the historical per-device-dict layout.

        Migration aid for external callers that still assemble results by
        device: stacks each mapping into one block in ``device_ids`` order.
        """

        def stack(mapping: Mapping[int, np.ndarray]) -> np.ndarray:
            return np.stack([np.asarray(mapping[d]) for d in device_ids])

        return cls(
            scenario_name=scenario_name,
            seed=seed,
            num_slots=num_slots,
            slot_duration_s=slot_duration_s,
            networks=networks,
            device_ids=device_ids,
            policy_names=policy_names,
            choices_2d=stack(choices),
            rates_2d=stack(rates_mbps),
            delays_2d=stack(delays_s),
            switches_2d=stack(switches),
            active_2d=stack(active),
            probabilities_3d=stack(probabilities) if probabilities is not None else None,
            resets=dict(resets or {}),
        )
