"""Unit tests for the delay models and the coverage map."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.game.device import Device
from repro.game.network import Network, NetworkType
from repro.sim.backends.base import TopologyPlan
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel, NoDelayModel
from repro.sim.mobility import CoverageMap, ServiceArea
from repro.sim.runner import run_simulation
from tests.test_backends import dynamic_scenarios


class TestDelayModels:
    def test_no_delay_model(self, rng, wifi_network):
        assert NoDelayModel().sample(wifi_network, rng) == 0.0

    def test_constant_delay_by_type(self, rng, wifi_network, cellular_network):
        model = ConstantDelayModel(wifi_delay_s=1.5, cellular_delay_s=4.0)
        assert model.sample(wifi_network, rng) == 1.5
        assert model.sample(cellular_network, rng) == 4.0

    def test_constant_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantDelayModel(wifi_delay_s=-1.0)

    def test_empirical_delay_within_bounds(self, rng, wifi_network, cellular_network):
        model = EmpiricalDelayModel()
        for network in (wifi_network, cellular_network):
            samples = [model.sample(network, rng) for _ in range(500)]
            assert all(model.min_delay_s <= s <= model.max_delay_s for s in samples)

    def test_empirical_delay_mean_is_a_few_seconds(self):
        model = EmpiricalDelayModel()
        wifi_mean = model.mean_delay(NetworkType.WIFI)
        cellular_mean = model.mean_delay(NetworkType.CELLULAR)
        assert 0.5 < wifi_mean < 6.0
        assert 0.5 < cellular_mean < 8.0

    def test_empirical_delay_parameter_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDelayModel(max_delay_s=0.1, min_delay_s=0.2)
        with pytest.raises(ValueError):
            EmpiricalDelayModel(wifi_b=0.0)
        with pytest.raises(ValueError):
            EmpiricalDelayModel(cellular_df=-1.0)

    def test_empirical_delay_is_deterministic_given_rng(self, wifi_network):
        model = EmpiricalDelayModel()
        a = [model.sample(wifi_network, np.random.default_rng(5)) for _ in range(5)]
        b = [model.sample(wifi_network, np.random.default_rng(5)) for _ in range(5)]
        assert a == b

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats dominates cold-start time and only the scalar
        # EmpiricalDelayModel.sample needs it, so importing the experiment
        # drivers (a fresh interpreter: this suite has loaded it already)
        # must not pull it in.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.experiments; "
                "print('scipy.stats' in sys.modules)",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert probe.stdout.strip() == "False"


class TestServiceAreaAndCoverage:
    def test_service_area_validation(self):
        with pytest.raises(ValueError):
            ServiceArea(name="", network_ids=frozenset({1}))
        with pytest.raises(ValueError):
            ServiceArea(name="empty", network_ids=frozenset())

    def test_single_area_coverage(self):
        coverage = CoverageMap.single_area([0, 1, 2])
        device = Device(device_id=0)
        assert coverage.visible_networks(device, 1) == frozenset({0, 1, 2})
        assert coverage.all_network_ids() == frozenset({0, 1, 2})

    def test_from_area_networks_and_mobility(self):
        coverage = CoverageMap.from_area_networks(
            {"food_court": (2, 3, 4), "study_area": (1, 3)}, default_area="food_court"
        )
        device = Device(device_id=0, area_schedule={1: "food_court", 10: "study_area"})
        assert coverage.visible_networks(device, 5) == frozenset({2, 3, 4})
        assert coverage.visible_networks(device, 10) == frozenset({1, 3})

    def test_from_area_networks_requires_valid_default(self):
        with pytest.raises(ValueError):
            CoverageMap.from_area_networks({"a": (1,)}, default_area="b")

    def test_unknown_area_raises(self):
        coverage = CoverageMap.single_area([0, 1])
        device = Device(device_id=0, area_schedule={1: "mars"})
        with pytest.raises(KeyError):
            coverage.visible_networks(device, 1)

    def test_add_area(self):
        coverage = CoverageMap.single_area([0, 1], name="default")
        coverage.add_area(ServiceArea(name="annex", network_ids=frozenset({2})))
        device = Device(device_id=0, area_schedule={1: "annex"})
        assert coverage.visible_networks(device, 1) == frozenset({2})


class TestOutagesAndDynamics:
    def test_outage_windows_shrink_visible_sets(self):
        coverage = CoverageMap.from_area_networks(
            {"area": (0, 1, 2)}, default_area="area", outages={1: ((10, 19),)}
        )
        device = Device(device_id=0)
        assert coverage.visible_networks(device, 9) == frozenset({0, 1, 2})
        assert coverage.visible_networks(device, 10) == frozenset({0, 2})
        assert coverage.visible_networks(device, 19) == frozenset({0, 2})
        assert coverage.visible_networks(device, 20) == frozenset({0, 1, 2})
        assert coverage.networks_down(15) == frozenset({1})
        assert coverage.outage_boundary_slots() == {10, 20}

    def test_visible_networks_cached_per_area_and_era(self):
        coverage = CoverageMap.from_area_networks(
            {"area": (0, 1)}, default_area="area", outages={0: ((5, 6),)}
        )
        device = Device(device_id=0)
        first = coverage.visible_networks(device, 1)
        # Same era -> the identical cached frozenset object, not a rebuild.
        assert coverage.visible_networks(device, 4) is first
        assert coverage.visible_networks(device, 5) is coverage.visible_networks(
            device, 6
        )

    def test_invalid_outage_windows_rejected(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            CoverageMap.from_area_networks(
                {"area": (0,)}, default_area="area", outages={0: ((10, 5),)}
            )
        with pytest.raises(ValueError, match="slot 1 or later"):
            CoverageMap.from_area_networks(
                {"area": (0,)}, default_area="area", outages={0: ((0, 5),)}
            )

    def test_network_dynamics_compiles_outages_and_capacity(self):
        import numpy as np

        from repro.sim.mobility import NetworkDynamics

        dynamics = NetworkDynamics(
            outage_windows={2: ((30, 35),)},
            flapping_networks=(0,),
            mean_up_slots=20.0,
            mean_outage_slots=5.0,
        )
        rng = np.random.default_rng(2)
        outages = dynamics.compile_outages(200, rng)
        assert outages[2] == ((30, 35),)
        assert outages[0]  # the flapping process produced windows
        for start, end in outages[0]:
            assert 1 <= start <= end <= 200

    def test_random_waypoint_schedule_walks_areas(self):
        import numpy as np

        from repro.sim.mobility import random_waypoint_schedule

        rng = np.random.default_rng(11)
        schedule = random_waypoint_schedule(
            ("a", "b", "c"), 500, rng, mean_dwell_slots=40.0, start_area="a"
        )
        assert schedule[1] == "a"
        starts = sorted(schedule)
        assert all(1 <= s <= 500 for s in starts)
        # Consecutive entries always change area (waypoint jumps are real).
        for before, after in zip(starts, starts[1:]):
            assert schedule[before] != schedule[after]


class TestTopologyPlan:
    def _plan(self, scenario):
        devices = sorted(
            (spec.device for spec in scenario.device_specs),
            key=lambda device: device.device_id,
        )
        return TopologyPlan(scenario, devices, scenario.horizon_slots)

    @settings(
        deadline=None,
        derandomize=True,
        max_examples=100,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenario=dynamic_scenarios())
    def test_plan_replays_the_oracle_activity(self, scenario):
        # The event oracle checks presence per device per slot; replaying
        # the plan's joins and leaves slot by slot must give the same matrix.
        plan = self._plan(scenario)
        present = np.zeros(scenario.num_devices, dtype=bool)
        active = np.zeros((scenario.num_devices, scenario.horizon_slots), dtype=bool)
        for slot in range(1, scenario.horizon_slots + 1):
            events = plan.events.get(slot)
            if events is not None:
                present[events.leaves] = False
                present[events.joins] = True
            active[:, slot - 1] = present
        oracle = run_simulation(
            scenario, seed=0, backend="event", record_probabilities=False
        )
        assert np.array_equal(active, oracle.active_2d)

    def test_events_mirror_reference_updates(self):
        from repro.sim.scenario import mobility_scenario

        scenario = mobility_scenario(horizon_slots=850)
        plan = self._plan(scenario)
        # Slot 1 carries every initial join; the two area transitions carry
        # visibility events for the moving devices (rows 0..7 = ids 1..8).
        assert len(plan.events[1].joins) == 20
        assert [row for row, _ in plan.events[401].visibility] == list(range(8))
        assert [row for row, _ in plan.events[801].visibility] == list(range(8))
        visible_401 = dict(plan.events[401].visibility)
        assert visible_401[0] == frozenset({1, 3})

    def test_visibility_eras_cover_coverage_changes(self):
        from repro.sim.scenario import mobility_scenario

        scenario = mobility_scenario(horizon_slots=850)
        plan = self._plan(scenario)
        assert plan.era_starts == (1, 401, 801)
