"""Service areas, coverage maps and generative mobility/network dynamics.

Figure 1 of the paper shows devices in three service areas (food court, study
area, bus stop) with overlapping coverage of five networks.  A
:class:`ServiceArea` lists the networks visible from that area and a
:class:`CoverageMap` resolves, for a device at a given slot, which networks it
can select (its strategy set ``K_j``).

Beyond the paper's hand-built settings, this module provides the generative
side of dynamic scenarios:

* :class:`CoverageMap` supports per-network *outage windows*: a network in
  outage disappears from every area's visible set for the duration of the
  window, which both execution backends pick up as an ordinary
  visible-network change.
* :class:`NetworkDynamics` samples outage windows: networks "flapping" in
  and out of coverage.
* :func:`random_waypoint_schedule` generates ``Device.area_schedule`` dicts
  from a random-waypoint walk over named service areas.

Visibility lookups are cached per ``(area, outage era)``: the visible set of
an area only changes at outage boundaries, so the per-(device, slot) lookup
on the reference execution path is two ``bisect`` calls and one dict hit
instead of a frozenset construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.game.device import Device


@dataclass(frozen=True)
class ServiceArea:
    """A named region with a fixed set of visible networks."""

    name: str
    network_ids: frozenset[int]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service area name must be non-empty")
        if not self.network_ids:
            raise ValueError(f"service area {self.name!r} must expose at least one network")


@dataclass
class CoverageMap:
    """Maps service areas to visible networks and devices to areas over time.

    Parameters
    ----------
    areas:
        The service areas of the scenario.  A scenario without mobility uses a
        single area (``default_area``) covering every network.
    default_area:
        Area used for devices with no explicit area schedule.
    outages:
        Optional per-network outage windows: ``network_id -> ((start, end),
        ...)`` with 1-based inclusive slot bounds.  A network in outage is
        removed from every area's visible set for those slots.  Outages are
        fixed at construction time (the visibility caches assume them
        immutable).
    """

    areas: dict[str, ServiceArea] = field(default_factory=dict)
    default_area: str = "default"
    outages: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        normalized: dict[int, tuple[tuple[int, int], ...]] = {}
        for network_id, windows in self.outages.items():
            spans = tuple(sorted((int(start), int(end)) for start, end in windows))
            for start, end in spans:
                if start < 1:
                    raise ValueError(
                        f"outage windows start at slot 1 or later, got {start}"
                    )
                if end < start:
                    raise ValueError(
                        f"outage window ({start}, {end}) for network {network_id} "
                        "ends before it starts"
                    )
            if spans:
                normalized[int(network_id)] = spans
        self.outages = normalized
        self._rebuild_outage_eras()

    def _rebuild_outage_eras(self) -> None:
        starts = sorted(self.outage_boundary_slots() | {1})
        self._era_starts: list[int] = starts
        down_by_era: list[frozenset[int]] = []
        for start in starts:
            down_by_era.append(
                frozenset(
                    network_id
                    for network_id, spans in self.outages.items()
                    if any(s <= start <= e for s, e in spans)
                )
            )
        self._down_by_era = down_by_era
        #: (area name, era index) -> visible frozenset, filled lazily.
        self._visible_cache: dict[tuple[str, int], frozenset[int]] = {}

    @classmethod
    def single_area(cls, network_ids: Iterable[int], name: str = "default") -> "CoverageMap":
        """Coverage map with one area exposing every network (settings 1 and 2)."""
        area = ServiceArea(name=name, network_ids=frozenset(network_ids))
        return cls(areas={name: area}, default_area=name)

    @classmethod
    def from_area_networks(
        cls,
        area_networks: Mapping[str, Iterable[int]],
        default_area: str,
        outages: Mapping[int, Sequence[tuple[int, int]]] | None = None,
    ) -> "CoverageMap":
        """Coverage map from a mapping area-name -> visible network ids."""
        areas = {
            name: ServiceArea(name=name, network_ids=frozenset(ids))
            for name, ids in area_networks.items()
        }
        if default_area not in areas:
            raise ValueError(f"default_area {default_area!r} is not one of the areas")
        return cls(
            areas=areas,
            default_area=default_area,
            outages={k: tuple(v) for k, v in (outages or {}).items()},
        )

    def with_outages(
        self, outages: Mapping[int, Sequence[tuple[int, int]]]
    ) -> "CoverageMap":
        """Copy of this map with the given outage windows installed."""
        return CoverageMap(
            areas=dict(self.areas),
            default_area=self.default_area,
            outages={k: tuple(v) for k, v in outages.items()},
        )

    def add_area(self, area: ServiceArea) -> None:
        self.areas[area.name] = area
        # Drop any cached visibility for this name (add_area may redefine an
        # existing area).
        self._visible_cache = {
            key: visible
            for key, visible in self._visible_cache.items()
            if key[0] != area.name
        }

    def outage_boundary_slots(self) -> set[int]:
        """Slots at which some network's outage state flips (starts and ends+1)."""
        boundaries: set[int] = set()
        for spans in self.outages.values():
            for start, end in spans:
                boundaries.add(start)
                boundaries.add(end + 1)
        return boundaries

    def _era_index(self, slot: int) -> int:
        return bisect_right(self._era_starts, slot) - 1 if self.outages else 0

    def networks_down(self, slot: int) -> frozenset[int]:
        """Networks in outage at ``slot``."""
        if not self.outages:
            return frozenset()
        return self._down_by_era[max(self._era_index(slot), 0)]

    def visible_networks(self, device: Device, slot: int) -> frozenset[int]:
        """Networks the device can select at ``slot`` (its strategy set).

        The result is cached per (area, outage era), so repeated per-slot
        lookups on the reference path cost two bisects and one dict hit.
        """
        name = device.area_at(slot, default=self.default_area)
        era = self._era_index(slot)
        key = (name, era)
        visible = self._visible_cache.get(key)
        if visible is None:
            area = self.areas.get(name)
            if area is None:
                raise KeyError(
                    f"unknown service area {name!r} for device {device.device_id}"
                )
            down = self._down_by_era[era] if self.outages else frozenset()
            visible = area.network_ids - down if down else area.network_ids
            self._visible_cache[key] = visible
        return visible

    def validate_outages(self, horizon_slots: int) -> None:
        """Reject outage configurations that empty some area's strategy set."""
        if not self.outages:
            return
        for era, start in enumerate(self._era_starts):
            if start > horizon_slots:
                break
            down = self._down_by_era[era]
            if not down:
                continue
            for area in self.areas.values():
                if not area.network_ids - down:
                    raise ValueError(
                        f"outages at slot {start} leave area {area.name!r} with "
                        "no visible network"
                    )

    def all_network_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        for area in self.areas.values():
            ids |= area.network_ids
        return frozenset(ids)


def _dwell(rng: np.random.Generator, mean_slots: float) -> int:
    """One exponential dwell time, floored at a single slot."""
    return max(1, int(round(float(rng.exponential(mean_slots)))))


def random_waypoint_schedule(
    area_names: Iterable[str],
    horizon_slots: int,
    rng: np.random.Generator,
    mean_dwell_slots: float = 80.0,
    start_area: str | None = None,
) -> dict[int, str]:
    """Random-waypoint mobility over named service areas.

    The device dwells in its current area for an exponential number of slots
    (mean ``mean_dwell_slots``), then jumps to a uniformly chosen *different*
    area, until the horizon is exhausted.  Returns an ``area_schedule``
    mapping suitable for :class:`repro.game.device.Device`.
    """
    order = tuple(area_names)
    if not order:
        raise ValueError("random_waypoint_schedule requires at least one area")
    if mean_dwell_slots <= 0:
        raise ValueError("mean_dwell_slots must be positive")
    if start_area is not None and start_area not in order:
        raise ValueError(f"start_area {start_area!r} is not one of the areas")
    current = (
        start_area
        if start_area is not None
        else order[int(rng.integers(len(order)))]
    )
    schedule = {1: current}
    slot = 1 + _dwell(rng, mean_dwell_slots)
    while slot <= horizon_slots and len(order) > 1:
        candidates = [name for name in order if name != current]
        current = candidates[int(rng.integers(len(candidates)))]
        schedule[slot] = current
        slot += _dwell(rng, mean_dwell_slots)
    return schedule


@dataclass(frozen=True)
class NetworkDynamics:
    """Generative time dynamics of the network side: outages.

    Explicit outage windows plus sampled up/down flapping for the networks
    in ``flapping_networks``, drawn from a scenario-construction RNG
    (independent of the run seeds, so one compiled scenario is reproducible
    across runs).  Compiled windows go into :attr:`CoverageMap.outages` and
    surface as visible-set changes.

    Parameters
    ----------
    outage_windows:
        Fixed per-network outage windows, merged with the sampled ones.
    flapping_networks / mean_up_slots / mean_outage_slots:
        Networks whose availability flaps, with exponential mean up/down
        durations (in slots).
    """

    outage_windows: Mapping[int, Sequence[tuple[int, int]]] = field(
        default_factory=dict
    )
    flapping_networks: tuple[int, ...] = ()
    mean_up_slots: float = 200.0
    mean_outage_slots: float = 10.0

    def __post_init__(self) -> None:
        if self.mean_up_slots <= 0 or self.mean_outage_slots <= 0:
            raise ValueError("flapping mean durations must be positive")

    def compile_outages(
        self, horizon_slots: int, rng: np.random.Generator
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        """Sample the flapping processes into concrete outage windows."""
        windows: dict[int, list[tuple[int, int]]] = {
            int(network_id): [
                (int(start), int(end)) for start, end in spans
            ]
            for network_id, spans in self.outage_windows.items()
        }
        for network_id in self.flapping_networks:
            spans = windows.setdefault(int(network_id), [])
            slot = 1 + _dwell(rng, self.mean_up_slots)
            while slot <= horizon_slots:
                down = _dwell(rng, self.mean_outage_slots)
                spans.append((slot, min(slot + down - 1, horizon_slots)))
                slot += down + _dwell(rng, self.mean_up_slots)
        return {
            network_id: tuple(sorted(spans))
            for network_id, spans in windows.items()
            if spans
        }
