"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import Observation, PolicyContext
from repro.game.network import Network, NetworkType, make_networks
from repro.sim.scenario import setting1_scenario, setting2_scenario


@pytest.fixture(autouse=True)
def _telemetry_off(monkeypatch):
    """Keep telemetry disabled unless a test opts in explicitly.

    An exported ``REPRO_TELEMETRY_DIR`` would make every test write event
    streams (and flip ``profile_run`` live); the telemetry tests manage the
    variable themselves via ``repro.telemetry.set_telemetry_dir``.
    """
    from repro.telemetry import TELEMETRY_DIR_ENV, set_telemetry_dir

    monkeypatch.delenv(TELEMETRY_DIR_ENV, raising=False)
    yield
    set_telemetry_dir(None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def three_networks() -> list[Network]:
    """The networks of setting 1: 4, 7 and 22 Mbps."""
    return make_networks([4.0, 7.0, 22.0])


@pytest.fixture
def uniform_networks() -> list[Network]:
    """The networks of setting 2: 11 Mbps each."""
    return make_networks([11.0, 11.0, 11.0])


@pytest.fixture
def wifi_network() -> Network:
    return Network(network_id=0, bandwidth_mbps=10.0, network_type=NetworkType.WIFI)


@pytest.fixture
def cellular_network() -> Network:
    return Network(network_id=1, bandwidth_mbps=22.0, network_type=NetworkType.CELLULAR)


def make_context(
    network_ids=(0, 1, 2),
    seed: int = 7,
    bandwidths: dict | None = None,
    device_index: int = 0,
    num_devices: int = 1,
) -> PolicyContext:
    """Build a policy context for unit tests."""
    return PolicyContext(
        network_ids=tuple(network_ids),
        rng=np.random.default_rng(seed),
        slot_duration_s=15.0,
        network_bandwidths=bandwidths or {0: 4.0, 1: 7.0, 2: 22.0},
        device_index=device_index,
        num_devices=num_devices,
    )


def make_observation(
    slot: int,
    network_id: int,
    gain: float,
    bit_rate: float | None = None,
    switched: bool = False,
    delay: float = 0.0,
    full_feedback=None,
) -> Observation:
    """Build an observation for unit tests."""
    return Observation(
        slot=slot,
        network_id=network_id,
        bit_rate_mbps=bit_rate if bit_rate is not None else gain * 22.0,
        gain=gain,
        switched=switched,
        delay_s=delay,
        full_feedback=full_feedback,
    )


@pytest.fixture
def tiny_setting1():
    """A small, fast variant of setting 1 (6 devices, 80 slots)."""
    return setting1_scenario(policy="smart_exp3", num_devices=6, horizon_slots=80)


@pytest.fixture
def tiny_setting2():
    """A small, fast variant of setting 2 (6 devices, 80 slots)."""
    return setting2_scenario(policy="smart_exp3", num_devices=6, horizon_slots=80)
