"""Switching-delay models.

Every network switch costs time.  The paper models WiFi association delay with
a Johnson SU distribution and cellular attach delay with a Student's
t-distribution, each fitted to 500 measured delays (Section VI-A).  We do not
have the measured delays, so the distribution families are kept and their
parameters are chosen to produce realistic delays of a few seconds, truncated
to ``[min_delay, max_delay]`` (the slot duration of 15 s upper-bounds any
delay the algorithm can observe).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from repro.game.network import Network, NetworkType


class DelayModel(ABC):
    """Samples the delay (seconds) incurred when switching to a network."""

    #: True when :meth:`sample` never consumes the generator AND is a pure
    #: function of the network (equal calls, equal delays).  The sharded
    #: engine relies on both halves: it skips the per-slot switcher exchange
    #: (no RNG replica can diverge) and resolves a slot's switchers through
    #: a per-network delay table sampled once at run start.  A model whose
    #: delays vary per call — via the generator or any internal state —
    #: must leave this False.
    stream_free: bool = False

    @abstractmethod
    def sample(self, network: Network, rng: np.random.Generator) -> float:
        """Delay in seconds for associating with ``network``."""

    def sample_many(
        self, networks: list[Network], rng: np.random.Generator
    ) -> list[float]:
        """Delays for a batch of switches, in order.

        Must consume the RNG stream exactly as the equivalent sequence of
        :meth:`sample` calls (the vectorized backend batches one slot's
        switching devices through this while the event backend draws them one
        by one).  The default implementation simply loops; subclasses may
        batch draws when their sampler is stream-stable under batching.
        """
        return [self.sample(network, rng) for network in networks]


@dataclass
class NoDelayModel(DelayModel):
    """Zero switching delay (used by unit tests and idealised runs)."""

    stream_free = True

    def sample(self, network: Network, rng: np.random.Generator) -> float:
        return 0.0


@dataclass
class ConstantDelayModel(DelayModel):
    """A fixed delay per switch, optionally different for WiFi and cellular."""

    wifi_delay_s: float = 2.0
    cellular_delay_s: float = 3.0

    stream_free = True

    def __post_init__(self) -> None:
        if self.wifi_delay_s < 0 or self.cellular_delay_s < 0:
            raise ValueError("delays must be non-negative")

    def sample(self, network: Network, rng: np.random.Generator) -> float:
        if network.network_type is NetworkType.CELLULAR:
            return self.cellular_delay_s
        return self.wifi_delay_s


@dataclass
class EmpiricalDelayModel(DelayModel):
    """Johnson SU (WiFi) / Student's t (cellular) switching delays.

    Parameters are chosen so that typical delays fall in the 1–5 second range
    with occasional larger values, consistent with the paper's statement that
    the 15 s slot duration exceeds the maximum delay observed in its real-world
    experiments.  Samples are truncated to ``[min_delay_s, max_delay_s]``.
    """

    wifi_a: float = -1.5
    wifi_b: float = 1.8
    wifi_loc: float = 1.0
    wifi_scale: float = 0.6
    cellular_df: float = 3.0
    cellular_loc: float = 2.5
    cellular_scale: float = 0.8
    min_delay_s: float = 0.2
    max_delay_s: float = 15.0

    def __post_init__(self) -> None:
        if self.min_delay_s < 0:
            raise ValueError("min_delay_s must be >= 0")
        if self.max_delay_s <= self.min_delay_s:
            raise ValueError("max_delay_s must be greater than min_delay_s")
        if self.wifi_b <= 0 or self.wifi_scale <= 0:
            raise ValueError("Johnson SU shape/scale parameters must be positive")
        if self.cellular_df <= 0 or self.cellular_scale <= 0:
            raise ValueError("Student t parameters must be positive")

    def sample(self, network: Network, rng: np.random.Generator) -> float:
        # scipy.stats is slow to import and only this scalar path needs it
        # (the batched backends call sample_many, which needs only ndtri),
        # so it is imported on first use.
        from scipy import stats

        if network.network_type is NetworkType.CELLULAR:
            raw = stats.t.rvs(
                df=self.cellular_df,
                loc=self.cellular_loc,
                scale=self.cellular_scale,
                random_state=rng,
            )
        else:
            raw = stats.johnsonsu.rvs(
                a=self.wifi_a,
                b=self.wifi_b,
                loc=self.wifi_loc,
                scale=self.wifi_scale,
                random_state=rng,
            )
        return float(np.clip(raw, self.min_delay_s, self.max_delay_s))

    def sample_many(
        self, networks: list[Network], rng: np.random.Generator
    ) -> list[float]:
        """Batched draws, bit-identical to sequential :meth:`sample` calls.

        Both scipy samplers are pure transforms of stream-stable generator
        draws — Johnson SU is inverse-CDF over one uniform
        (``sinh((ndtri(u) − a) / b) · scale + loc``) and Student's t wraps
        ``Generator.standard_t`` — so the raw draws are consumed run-by-run
        in switch order (keeping the stream position identical to scalar
        sampling) while the transforms and the truncation vectorize over the
        whole batch.  The runs of same-type networks are found with one array
        comparison; only the generator call per run stays in Python, because
        a Student's t draw consumes a data-dependent number of stream values.
        The delay-model tests pin the bit-equivalence against
        ``scipy.stats.rvs``.
        """
        count = len(networks)
        if not count:
            return []
        cellular = np.asarray(
            [network.network_type is NetworkType.CELLULAR for network in networks],
            dtype=bool,
        )
        raw = np.empty(count, dtype=float)
        edges = (np.flatnonzero(cellular[1:] != cellular[:-1]) + 1).tolist()
        for start, stop in zip([0] + edges, edges + [count]):
            if cellular[start]:
                raw[start:stop] = rng.standard_t(self.cellular_df, size=stop - start)
            else:
                raw[start:stop] = rng.uniform(size=stop - start)
        values = np.empty(count, dtype=float)
        wifi = ~cellular
        if wifi.any():
            values[wifi] = (
                np.sinh((ndtri(raw[wifi]) - self.wifi_a) / self.wifi_b)
                * self.wifi_scale
                + self.wifi_loc
            )
        if cellular.any():
            values[cellular] = raw[cellular] * self.cellular_scale + self.cellular_loc
        return np.clip(values, self.min_delay_s, self.max_delay_s).tolist()

    def mean_delay(self, network_type: NetworkType, samples: int = 4000, seed: int = 0) -> float:
        """Monte-Carlo estimate of the mean truncated delay (used by bounds)."""
        rng = np.random.default_rng(seed)
        network = Network(network_id=0, bandwidth_mbps=1.0, network_type=network_type)
        values = [self.sample(network, rng) for _ in range(samples)]
        return float(np.mean(values))
