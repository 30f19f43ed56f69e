"""Switching-delay models.

Every network switch costs time.  The paper models WiFi association delay with
a Johnson SU distribution and cellular attach delay with a Student's
t-distribution, each fitted to 500 measured delays (Section VI-A).  We do not
have the measured delays, so the distribution families are kept and their
parameters are chosen to produce realistic delays of a few seconds, truncated
to ``[min_delay, max_delay]`` (the slot duration of 15 s upper-bounds any
delay the algorithm can observe).

The event backend draws one switch at a time (:meth:`DelayModel.sample`).
The batched backends resolve all of a slot's switches in one
:meth:`DelayModel.sample_many` call over a :class:`SwitchCells` table,
whatever the model: the stream-free models look their delays up per
network type, the empirical model batches its generator draws.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from repro.game.network import Network, NetworkType


class SwitchCells:
    """The networks a batch of switches can land on: one cell per (run, network).

    A stack of runs shares its network ids, but each run keeps its own
    networks (bandwidths and types: the cellular network is id 2 in setting
    1 and id 0 in setting 2).  Cell ``r * per_run + c`` is run ``r``'s
    network of column ``c`` — the occupancy cells of the slot engine.
    Built once per engine; :attr:`cellular` is its type table.
    """

    __slots__ = ("networks", "per_run", "cellular")

    def __init__(self, networks_by_run: Sequence[Sequence[Network]]) -> None:
        #: Every run's networks, run-major.
        self.networks: tuple[Network, ...] = tuple(
            network for networks in networks_by_run for network in networks
        )
        #: Cells per run (the shared network count).
        self.per_run = len(networks_by_run[0]) if networks_by_run else 0
        #: Whether each cell is a cellular network.
        self.cellular = np.asarray(
            [network.network_type is NetworkType.CELLULAR for network in self.networks],
            dtype=bool,
        )


def clamp_to_slot(delays: np.ndarray, slot_duration_s: float) -> np.ndarray:
    """``min(max(delay, 0.0), slot_duration_s)`` per element, as Python computes it.

    Written as the compare the builtins make (the first argument wins ties
    and NaNs), so ``-0.0`` and NaN pass through exactly as the scalar clamp
    of :meth:`~repro.sim.environment.WirelessEnvironment.switching_delay`
    leaves them.
    """
    delays = np.where(0.0 > delays, 0.0, delays)
    return np.where(slot_duration_s < delays, slot_duration_s, delays)


class DelayModel(ABC):
    """Samples the delay (seconds) incurred when switching to a network."""

    #: True when :meth:`sample` never consumes the generator AND is a pure
    #: function of the network (equal calls, equal delays).  Such a model
    #: still resolves a slot's switches through :meth:`sample_many` like
    #: any other, but the shards of a run skip the per-slot switcher
    #: exchange and each resolves only its own switchers, which is exact
    #: only when no call depends on another.  A model whose delays vary per
    #: call — via the generator or any internal state — must leave this
    #: False.
    stream_free: bool = False

    @abstractmethod
    def sample(self, network: Network, rng: np.random.Generator) -> float:
        """Delay in seconds for associating with ``network``."""

    def sample_many(
        self,
        table: SwitchCells,
        cells: np.ndarray,
        rngs: Sequence[np.random.Generator],
        slot_duration_s: float,
    ) -> np.ndarray:
        """One slot's switching delays for a whole engine group, clamped to
        the slot.

        ``cells`` holds each switch's cell of ``table`` (its run and
        network), ascending by run and, within a run, in ascending device
        order; ``rngs`` holds each run's own environment generator.  Each
        run's delays, and its generator's state afterwards, must equal that
        run's own sequential :meth:`sample` calls, each clamped to
        ``[0, slot_duration_s]`` as
        :meth:`~repro.sim.environment.WirelessEnvironment.switching_delay`
        does (the event backend draws switch by switch; the batched backends
        resolve a slot's switches of every stacked run, or of every shard of
        a run, in this one call).  Returns a float64 array.  This default
        calls :meth:`sample` per switch; subclasses may batch draws when
        their sampler is stream-stable under batching, or look the delays
        up when it is stream-free.
        """
        networks = table.networks
        per_run = table.per_run
        delays = np.fromiter(
            (
                self.sample(networks[cell], rngs[cell // per_run])
                for cell in cells.tolist()
            ),
            dtype=float,
            count=len(cells),
        )
        return clamp_to_slot(delays, slot_duration_s)


@dataclass
class NoDelayModel(DelayModel):
    """Zero switching delay (used by unit tests and idealised runs)."""

    stream_free = True

    def sample(self, network: Network, rng: np.random.Generator) -> float:
        return 0.0

    def sample_many(
        self,
        table: SwitchCells,
        cells: np.ndarray,
        rngs: Sequence[np.random.Generator],
        slot_duration_s: float,
    ) -> np.ndarray:
        return np.zeros(cells.size)


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

    def sample_many(
        self,
        table: SwitchCells,
        cells: np.ndarray,
        rngs: Sequence[np.random.Generator],
        slot_duration_s: float,
    ) -> np.ndarray:
        """Each cell's delay by network type, clamped, then one gather."""
        per_cell = np.where(
            table.cellular, float(self.cellular_delay_s), float(self.wifi_delay_s)
        )
        return clamp_to_slot(per_cell, slot_duration_s)[cells]


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
        self,
        table: SwitchCells,
        cells: np.ndarray,
        rngs: Sequence[np.random.Generator],
        slot_duration_s: float,
    ) -> np.ndarray:
        """A stack's batched draws, bit-identical to sequential :meth:`sample`
        calls on each run's own generator.

        Both scipy samplers are pure transforms of stream-stable generator
        draws — Johnson SU is inverse-CDF over one uniform
        (``sinh((ndtri(u) − a) / b) · scale + loc``) and Student's t wraps
        ``Generator.standard_t`` — so the raw draws are consumed in switch
        order, one generator call per maximal run of switches of one
        (run, network type), found with one array comparison over the
        table's type column.  WiFi runs fill their slice in place
        (``random(out=...)``, the same doubles as ``uniform(size=k)``);
        cellular runs call ``standard_t``, which consumes a data-dependent
        number of stream values, so that call stays per run.  The
        transforms, the truncation to ``[min_delay_s, max_delay_s]`` and
        the clamp to the slot length then run once over the whole slot.
        The delay-model tests pin the bit-equivalence against
        ``scipy.stats.rvs``.
        """
        count = cells.size
        if not count:
            return np.empty(0)
        per_run = table.per_run
        cellular = table.cellular[cells]
        owners = cells // per_run
        key = owners * 2 + cellular
        edges = np.flatnonzero(key[1:] != key[:-1]) + 1
        starts = np.concatenate(([0], edges))
        raw = np.empty(count)
        for start, stop, owner, kind in zip(
            starts.tolist(),
            edges.tolist() + [count],
            owners[starts].tolist(),
            cellular[starts].tolist(),
        ):
            rng = rngs[owner]
            if kind:
                raw[start:stop] = rng.standard_t(self.cellular_df, size=stop - start)
            else:
                rng.random(out=raw[start:stop])
        values = np.empty(count)
        wifi = ~cellular
        if wifi.any():
            values[wifi] = (
                np.sinh((ndtri(raw[wifi]) - self.wifi_a) / self.wifi_b)
                * self.wifi_scale
                + self.wifi_loc
            )
        if cellular.any():
            values[cellular] = raw[cellular] * self.cellular_scale + self.cellular_loc
        values = np.clip(values, self.min_delay_s, self.max_delay_s)
        return clamp_to_slot(values, slot_duration_s)

    def mean_delay(self, network_type: NetworkType, samples: int = 4000, seed: int = 0) -> float:
        """Monte-Carlo estimate of the mean truncated delay (used by bounds)."""
        rng = np.random.default_rng(seed)
        network = Network(network_id=0, bandwidth_mbps=1.0, network_type=network_type)
        values = [self.sample(network, rng) for _ in range(samples)]
        return float(np.mean(values))
