"""Gain (utility) models: how a network's bandwidth maps to per-device bit rate.

The paper's gain ``g_i(t) = U_i(n_i(t))`` is the bit rate a device observes on
its chosen network, scaled to ``[0, 1]``.  Two models are provided here:

* :class:`EqualShareModel` — the simulation assumption of Section VI-A: a
  network's bandwidth is divided equally among its clients.
* :class:`NoisyShareModel` — the real-world imperfection model used by the
  simulated testbed (Section VII-A substitution): shares are perturbed
  per-device and per-slot, so devices on the same network can observe different
  rates, as the paper observes on the Raspberry Pi testbed.

The third, :class:`repro.sim.traces.TraceGainModel`, replays measured
per-network rate traces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from repro.game.network import Network


def scale_gain(bit_rate_mbps: float, max_rate_mbps: float) -> float:
    """Scale a bit rate to the ``[0, 1]`` gain range used by the bandit update.

    ``max_rate_mbps`` is the scaling reference (the maximum achievable rate in
    the scenario, typically the largest network bandwidth).  Rates above the
    reference are clipped to 1.
    """
    if max_rate_mbps <= 0:
        raise ValueError(f"max_rate_mbps must be positive, got {max_rate_mbps}")
    if bit_rate_mbps < 0:
        raise ValueError(f"bit_rate_mbps must be non-negative, got {bit_rate_mbps}")
    return float(min(bit_rate_mbps / max_rate_mbps, 1.0))


def unscale_gain(gain: float, max_rate_mbps: float) -> float:
    """Inverse of :func:`scale_gain` (gain back to Mbps)."""
    if not 0.0 <= gain <= 1.0:
        raise ValueError(f"gain must be in [0, 1], got {gain}")
    return float(gain * max_rate_mbps)


class GainModel(ABC):
    """Maps an allocation of devices to networks into per-device bit rates."""

    @abstractmethod
    def rates(
        self,
        network: Network,
        client_ids: tuple[int, ...],
        slot: int,
        rng: np.random.Generator,
    ) -> Mapping[int, float]:
        """Per-device bit rate (Mbps) for every client of ``network`` at ``slot``."""

    def rate_for(
        self,
        network: Network,
        client_ids: tuple[int, ...],
        device_id: int,
        slot: int,
        rng: np.random.Generator,
    ) -> float:
        """Bit rate observed by a single device (convenience wrapper)."""
        rates = self.rates(network, client_ids, slot, rng)
        if device_id not in rates:
            raise KeyError(
                f"device {device_id} is not a client of network {network.network_id}"
            )
        return rates[device_id]


class EqualShareModel(GainModel):
    """Ideal equal sharing: every client gets ``bandwidth / n`` Mbps."""

    def rates(
        self,
        network: Network,
        client_ids: tuple[int, ...],
        slot: int,
        rng: np.random.Generator,
    ) -> dict[int, float]:
        if not client_ids:
            return {}
        share = network.shared_rate(len(client_ids))
        return {device_id: share for device_id in client_ids}


class NoisyShareModel(GainModel):
    """Real-world-like sharing with per-device noise and unequal shares.

    Each slot the network's usable bandwidth is scaled by a multiplicative
    noise factor (interference / packet loss), and the per-client shares are
    drawn from a Dirichlet distribution so that clients do not observe an equal
    split — both effects the paper reports for its controlled experiments.

    Parameters
    ----------
    rate_noise_std:
        Standard deviation of the log-normal multiplicative noise applied to
        the network's usable bandwidth each slot.
    share_concentration:
        Dirichlet concentration for per-client shares.  Large values approach
        equal sharing; small values create strongly unequal shares.
    dip_probability:
        Per-slot probability of a transient quality dip on the network.
    dip_factor:
        Multiplicative factor applied to the usable bandwidth during a dip.
    """

    def __init__(
        self,
        rate_noise_std: float = 0.1,
        share_concentration: float = 20.0,
        dip_probability: float = 0.02,
        dip_factor: float = 0.4,
    ) -> None:
        if rate_noise_std < 0:
            raise ValueError("rate_noise_std must be >= 0")
        if share_concentration <= 0:
            raise ValueError("share_concentration must be > 0")
        if not 0.0 <= dip_probability <= 1.0:
            raise ValueError("dip_probability must be in [0, 1]")
        if not 0.0 < dip_factor <= 1.0:
            raise ValueError("dip_factor must be in (0, 1]")
        self.rate_noise_std = rate_noise_std
        self.share_concentration = share_concentration
        self.dip_probability = dip_probability
        self.dip_factor = dip_factor

    def rates(
        self,
        network: Network,
        client_ids: tuple[int, ...],
        slot: int,
        rng: np.random.Generator,
    ) -> dict[int, float]:
        if not client_ids:
            return {}
        usable = network.bandwidth_mbps
        if self.rate_noise_std > 0:
            usable *= float(rng.lognormal(mean=0.0, sigma=self.rate_noise_std))
        if rng.random() < self.dip_probability:
            usable *= self.dip_factor
        n = len(client_ids)
        if n == 1:
            return {client_ids[0]: usable}
        shares = rng.dirichlet(np.full(n, self.share_concentration))
        return {
            device_id: float(usable * share)
            for device_id, share in zip(client_ids, shares)
        }

