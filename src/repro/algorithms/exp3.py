"""Classic EXP3 (Auer, Cesa-Bianchi, Freund, Schapire 2002).

EXP3 keeps one weight per network.  Each slot it mixes the normalised weights
with a uniform distribution (exploration), samples a network, observes the
scaled gain, forms the importance-weighted estimate ``ĝ = g / p`` and applies
the multiplicative update ``w ← w · exp(γ ĝ / k)``.

The exploration rate γ decays as ``t^{-1/3}`` by default, as in the paper's
implementation (Section V, following Maghsudi & Stanczak), which guarantees the
convergence result of Theorem 1 while keeping early exploration strong.

The weight state is array-native: ``_weight_values`` is a dense float array
aligned with ``available_networks`` and is rebuilt only when the available set
changes (``on_network_set_changed``), never per slot.  The batched execution
kernel (:mod:`repro.algorithms.kernels.exp3`) gathers and scatters this array
directly, so the scalar policy and the kernel share one state layout.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Observation, Policy, PolicyContext


def decayed_gamma(round_index: int) -> float:
    """The default exploration rate ``min(1, t^{-1/3})`` of round ``t``.

    Evaluated with Python ``**`` on a Python int; the batched kernel fills
    its γ lookup table with this same function, so the two agree bit for
    bit.
    """
    return float(min(1.0, max(round_index, 1) ** (-1.0 / 3.0)))


class EXP3Policy(Policy):
    """Per-slot EXP3 — the paper's main baseline.

    Parameters
    ----------
    context:
        Standard policy context.
    gamma:
        Fixed exploration rate in ``(0, 1]``.  When ``None`` (default) the rate
        decays as ``round^{-1/3}``.
    """

    def __init__(self, context: PolicyContext, gamma: float | None = None) -> None:
        super().__init__(context)
        if gamma is not None and not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self._fixed_gamma = gamma
        self._round = 0
        self._rebuild_weight_arrays(np.ones(self.num_networks, dtype=float))
        uniform = 1.0 / self.num_networks
        self._current_prob_ids: tuple[int, ...] = self.available_networks
        self._current_prob_values: np.ndarray = np.full(
            self.num_networks, uniform, dtype=float
        )
        self._last_choice: int | None = None
        self._last_probability: float = 1.0

    # ------------------------------------------------------------------ utils
    def _rebuild_weight_arrays(self, values: np.ndarray) -> None:
        """Re-align the weight array with ``available_networks``.

        Called from ``__init__`` and ``on_network_set_changed`` only — the
        per-slot path never rebuilds the array or the column index.
        """
        self._weight_values = np.asarray(values, dtype=float)
        self._net_index = {
            network_id: col for col, network_id in enumerate(self.available_networks)
        }

    def _gamma(self) -> float:
        if self._fixed_gamma is not None:
            return self._fixed_gamma
        return decayed_gamma(self._round)

    def _compute_probability_values(self, gamma: float) -> np.ndarray:
        weights = self._weight_values
        total = float(np.sum(weights))
        k = weights.size
        return (1.0 - gamma) * weights / total + gamma / k

    def _compute_probabilities(self, gamma: float) -> dict[int, float]:
        return {
            network_id: float(p)
            for network_id, p in zip(
                self.available_networks, self._compute_probability_values(gamma)
            )
        }

    def _normalise_weights(self) -> None:
        max_weight = float(self._weight_values.max())
        if max_weight > 1e100 or max_weight < 1e-100:
            self._weight_values /= max_weight

    # -------------------------------------------------------------- interface
    def begin_slot(self, slot: int) -> int:
        self._round += 1
        gamma = self._gamma()
        prob_values = self._compute_probability_values(gamma)
        self._current_prob_ids = self.available_networks
        self._current_prob_values = prob_values
        probs = prob_values / prob_values.sum()
        choice = int(self.rng.choice(self.available_networks, p=probs))
        self._last_choice = choice
        self._last_probability = float(prob_values[self._net_index[choice]])
        return self._check_network(choice)

    def end_slot(self, slot: int, observation: Observation) -> None:
        if observation.network_id != self._last_choice:
            raise ValueError(
                "observation does not match the network chosen in begin_slot"
            )
        if not 0.0 <= observation.gain <= 1.0 + 1e-9:
            raise ValueError(f"gain must be in [0, 1], got {observation.gain}")
        gamma = self._gamma()
        estimated = observation.gain / max(self._last_probability, 1e-12)
        k = self.num_networks
        self._weight_values[self._net_index[observation.network_id]] *= float(
            np.exp(gamma * estimated / k)
        )
        self._normalise_weights()

    def on_network_set_changed(
        self, old_set: frozenset[int], new_set: frozenset[int]
    ) -> None:
        """Give new networks the maximum existing weight; drop removed ones."""
        old_index = self._net_index
        old_values = self._weight_values
        existing = [old_values[old_index[i]] for i in old_set & new_set]
        max_weight = max(existing) if existing else 1.0
        self._rebuild_weight_arrays(
            np.asarray(
                [
                    old_values[old_index[i]] if i in old_index else max_weight
                    for i in self.available_networks
                ],
                dtype=float,
            )
        )

    @property
    def probabilities(self) -> dict[int, float]:
        # Restrict to the current available set (it may have changed mid-run).
        probs = {network_id: 0.0 for network_id in self.available_networks}
        for network_id, value in zip(
            self._current_prob_ids, self._current_prob_values
        ):
            if network_id in probs:
                probs[network_id] = float(value)
        total = sum(probs.values())
        if total <= 0:
            return super().probabilities
        return {network_id: p / total for network_id, p in probs.items()}

    @property
    def weights(self) -> dict[int, float]:
        """Copy of the current weights (exposed for tests and analysis)."""
        return {
            network_id: float(self._weight_values[col])
            for network_id, col in self._net_index.items()
        }

    @property
    def weight_values(self) -> np.ndarray:
        """The live weight array, aligned with ``available_networks``.

        This is the view the batched kernel gathers from and scatters back to;
        mutating it mutates the policy.
        """
        return self._weight_values
