"""The slotted wireless environment.

:class:`WirelessEnvironment` owns the "physics" of one simulation run: given
the associations chosen by the devices in a slot it computes the realised
per-device bit rates (through the scenario's gain model), the switching delays
(through the delay model) and, when needed, the idealised counterfactual
feedback used by the Full Information baseline.  The event backend drives it
once per slot, one switch at a time (:meth:`WirelessEnvironment.switching_delay`);
the batched backends keep it for its generator, which their one
:meth:`DelayModel.sample_many <repro.sim.delay.DelayModel.sample_many>` call
per slot draws from, and for the rates of gain models other than equal share.
Keeping it separate from the runner makes the environment directly testable
and reusable (the trace-driven and testbed scenarios only differ in the gain
model they plug in).
"""

from __future__ import annotations

import numpy as np

from repro.game.gain import scale_gain
from repro.game.network import Network
from repro.sim.scenario import Scenario


class WirelessEnvironment:
    """Computes rates, delays and counterfactual feedback for one run."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator) -> None:
        self.scenario = scenario
        self.rng = rng
        self.networks: dict[int, Network] = scenario.network_map
        self.scale_reference_mbps = scenario.scale_reference_mbps

    def client_groups(self, associations: dict[int, int]) -> dict[int, list[int]]:
        """Device ids grouped per network, in first-appearance network order.

        The grouping feeds both :meth:`realized_rates` and
        :meth:`allocation_counts`; callers that need both should build it once
        and pass it to each, instead of paying the device iteration twice.
        """
        clients: dict[int, list[int]] = {}
        for device_id, network_id in associations.items():
            clients.setdefault(network_id, []).append(device_id)
        return clients

    def realized_rates(
        self,
        associations: dict[int, int],
        slot: int,
        groups: dict[int, list[int]] | None = None,
    ) -> dict[int, float]:
        """Per-device bit rate (Mbps) given the slot's device→network associations.

        ``groups`` may carry a precomputed :meth:`client_groups` result; the
        gain model is consulted per network in the grouping's insertion order
        either way, so the RNG stream is unaffected.
        """
        clients = groups if groups is not None else self.client_groups(associations)
        rates: dict[int, float] = {}
        for network_id, members in clients.items():
            network_rates = self.scenario.gain_model.rates(
                self.networks[network_id], tuple(sorted(members)), slot, self.rng
            )
            rates.update(network_rates)
        return rates

    def switching_delay(self, network_id: int) -> float:
        """Delay (seconds) for switching onto ``network_id``, capped at one slot."""
        delay = self.scenario.delay_model.sample(self.networks[network_id], self.rng)
        return float(min(max(delay, 0.0), self.scenario.slot_duration_s))

    def scaled_gain(self, bit_rate_mbps: float) -> float:
        """Scale a bit rate into the [0, 1] bandit reward."""
        return scale_gain(bit_rate_mbps, self.scale_reference_mbps)

    def counterfactual_gains(
        self,
        counts: dict[int, int],
        chosen: int,
        visible: frozenset[int],
    ) -> dict[int, float]:
        """Idealised full-information feedback for one device.

        The gain the device would observe on each visible network, assuming
        equal sharing of nominal bandwidths: its current network is shared
        among its current clients, any other network among its clients plus the
        device itself.
        """
        feedback: dict[int, float] = {}
        for network_id in visible:
            if network_id == chosen:
                rate = self.networks[network_id].shared_rate(
                    max(counts.get(network_id, 1), 1)
                )
            else:
                rate = self.networks[network_id].shared_rate(
                    counts.get(network_id, 0) + 1
                )
            feedback[network_id] = self.scaled_gain(rate)
        return feedback

    def allocation_counts(
        self,
        associations: dict[int, int],
        groups: dict[int, list[int]] | None = None,
    ) -> dict[int, int]:
        """Number of associated devices per network.

        With a precomputed :meth:`client_groups` result this is a length
        lookup per network rather than another pass over every device.
        """
        if groups is not None:
            return {network_id: len(members) for network_id, members in groups.items()}
        counts: dict[int, int] = {}
        for network_id in associations.values():
            counts[network_id] = counts.get(network_id, 0) + 1
        return counts
