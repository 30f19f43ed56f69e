"""Unit tests for scenario construction (paper settings 1-3 and variants)."""

import pytest

from repro.game.gain import NoisyShareModel
from repro.sim.scenario import (
    DeviceSpec,
    Scenario,
    dynamic_join_leave_scenario,
    dynamic_leave_scenario,
    mixed_policy_scenario,
    mobility_scenario,
    scalability_scenario,
    setting1_scenario,
    setting2_scenario,
)
from repro.sim.testbed import (
    controlled_dynamic_scenario,
    controlled_mixed_scenario,
    controlled_static_scenario,
)


class TestStaticSettings:
    def test_setting1_shape(self):
        scenario = setting1_scenario()
        assert scenario.num_devices == 20
        assert sorted(n.bandwidth_mbps for n in scenario.networks) == [4.0, 7.0, 22.0]
        assert scenario.horizon_slots == 1200
        assert scenario.slot_duration_s == 15.0
        assert scenario.total_bandwidth_mbps == pytest.approx(33.0)

    def test_setting2_uniform_rates(self):
        scenario = setting2_scenario()
        assert all(n.bandwidth_mbps == 11.0 for n in scenario.networks)

    def test_scale_reference_defaults_to_max_bandwidth(self):
        assert setting1_scenario().scale_reference_mbps == pytest.approx(22.0)

    def test_with_policy_replaces_all_devices(self):
        scenario = setting1_scenario(policy="smart_exp3").with_policy("greedy")
        assert all(spec.policy == "greedy" for spec in scenario.device_specs)

    def test_with_horizon(self):
        assert setting1_scenario().with_horizon(300).horizon_slots == 300

    def test_custom_device_count_and_horizon(self):
        scenario = setting1_scenario(num_devices=5, horizon_slots=100)
        assert scenario.num_devices == 5
        assert scenario.horizon_slots == 100

    def test_scalability_scenario_preserves_total_bandwidth(self):
        scenario = scalability_scenario(num_devices=20, num_networks=5)
        assert scenario.total_bandwidth_mbps == pytest.approx(33.0, abs=0.1)
        assert len(scenario.networks) == 5


class TestDynamicSettings:
    def test_join_leave_population(self):
        scenario = dynamic_join_leave_scenario()
        assert scenario.num_devices == 20
        transient = [s.device for s in scenario.device_specs if s.device.join_slot == 401]
        assert len(transient) == 9
        assert all(d.leave_slot == 800 for d in transient)

    def test_leave_population(self):
        scenario = dynamic_leave_scenario()
        leavers = [s.device for s in scenario.device_specs if s.device.leave_slot == 600]
        assert len(leavers) == 16

    def test_mobility_scenario_structure(self):
        scenario = mobility_scenario()
        assert len(scenario.networks) == 5
        assert sorted(n.bandwidth_mbps for n in scenario.networks) == [4.0, 7.0, 14.0, 16.0, 22.0]
        group_names = {g.name for g in scenario.device_groups}
        assert any("moving" in name for name in group_names)
        moving = next(g for g in scenario.device_groups if "moving" in g.name)
        assert len(moving) == 8

    def test_mobility_coverage_changes_with_schedule(self):
        scenario = mobility_scenario()
        mover = next(s.device for s in scenario.device_specs if s.device.device_id == 1)
        early = scenario.coverage.visible_networks(mover, 100)
        late = scenario.coverage.visible_networks(mover, 900)
        assert early != late


class TestMixedAndTestbedScenarios:
    def test_mixed_policy_counts(self):
        scenario = mixed_policy_scenario({"smart_exp3": 3, "greedy": 2})
        policies = [spec.policy for spec in scenario.device_specs]
        assert policies.count("smart_exp3") == 3
        assert policies.count("greedy") == 2

    def test_mixed_policy_empty_rejected(self):
        with pytest.raises(ValueError):
            mixed_policy_scenario({})

    def test_controlled_static_uses_noisy_gain_model(self):
        scenario = controlled_static_scenario()
        assert isinstance(scenario.gain_model, NoisyShareModel)
        assert scenario.num_devices == 14
        assert scenario.horizon_slots == 480

    def test_controlled_dynamic_leavers(self):
        scenario = controlled_dynamic_scenario(leavers=9, leave_slot=240)
        leavers = [s.device for s in scenario.device_specs if s.device.leave_slot == 240]
        assert len(leavers) == 9

    def test_controlled_dynamic_rejects_all_leaving(self):
        with pytest.raises(ValueError):
            controlled_dynamic_scenario(num_devices=5, leavers=5)

    def test_controlled_mixed_groups(self):
        scenario = controlled_mixed_scenario(smart_devices=7, greedy_devices=7)
        assert scenario.num_devices == 14
        names = {g.name for g in scenario.device_groups}
        assert names == {"smart_exp3", "greedy"}


class TestScenarioValidation:
    def test_duplicate_device_ids_rejected(self, three_networks):
        from repro.game.device import Device
        from repro.sim.mobility import CoverageMap

        specs = [
            DeviceSpec(device=Device(device_id=0), policy="greedy"),
            DeviceSpec(device=Device(device_id=0), policy="greedy"),
        ]
        with pytest.raises(ValueError):
            Scenario(
                name="bad",
                networks=three_networks,
                device_specs=specs,
                coverage=CoverageMap.single_area([n.network_id for n in three_networks]),
            )

    def test_coverage_must_reference_known_networks(self, three_networks):
        from repro.game.device import Device
        from repro.sim.mobility import CoverageMap

        with pytest.raises(ValueError):
            Scenario(
                name="bad",
                networks=three_networks,
                device_specs=[DeviceSpec(device=Device(device_id=0), policy="greedy")],
                coverage=CoverageMap.single_area([99]),
            )

    def test_requires_devices_and_networks(self, three_networks):
        from repro.game.device import Device
        from repro.sim.mobility import CoverageMap

        coverage = CoverageMap.single_area([0])
        with pytest.raises(ValueError):
            Scenario(name="bad", networks=[], device_specs=[], coverage=coverage)
        with pytest.raises(ValueError):
            Scenario(
                name="bad",
                networks=three_networks,
                device_specs=[],
                coverage=CoverageMap.single_area([0, 1, 2]),
            )


class TestPresenceAndAreaValidation:
    """PR-4 satellite: presence windows and area schedules are validated."""

    def _base(self):
        from repro.game.device import Device
        from repro.game.network import make_networks
        from repro.sim.mobility import CoverageMap

        networks = make_networks([4.0, 7.0, 22.0])
        coverage = CoverageMap.single_area([n.network_id for n in networks])
        return networks, coverage, Device

    def test_join_after_horizon_rejected(self):
        networks, coverage, Device = self._base()
        with pytest.raises(ValueError, match="after the horizon"):
            Scenario(
                name="bad",
                networks=networks,
                device_specs=[
                    DeviceSpec(device=Device(device_id=0, join_slot=500), policy="greedy")
                ],
                coverage=coverage,
                horizon_slots=100,
            )

    def test_with_horizon_revalidates_presence_windows(self):
        scenario = dynamic_join_leave_scenario(policy="greedy")
        assert scenario.with_horizon(500).horizon_slots == 500
        with pytest.raises(ValueError, match="after the horizon"):
            scenario.with_horizon(150)  # join at t=401 falls outside

    def test_unknown_area_in_schedule_rejected(self):
        networks, coverage, Device = self._base()
        with pytest.raises(ValueError, match="unknown service areas"):
            Scenario(
                name="bad",
                networks=networks,
                device_specs=[
                    DeviceSpec(
                        device=Device(device_id=0, area_schedule={1: "atlantis"}),
                        policy="greedy",
                    )
                ],
                coverage=coverage,
            )

    def test_inverted_presence_window_rejected(self):
        _, _, Device = self._base()
        with pytest.raises(ValueError, match="leave_slot"):
            Device(device_id=0, join_slot=10, leave_slot=5)

    def test_outage_emptying_an_area_rejected(self):
        from repro.game.device import Device
        from repro.game.network import make_networks
        from repro.sim.mobility import CoverageMap

        networks = make_networks([4.0, 7.0])
        coverage = CoverageMap.from_area_networks(
            {"solo": (0,), "both": (0, 1)},
            default_area="both",
            outages={0: ((10, 20),)},
        )
        with pytest.raises(ValueError, match="no visible network"):
            Scenario(
                name="bad",
                networks=networks,
                device_specs=[DeviceSpec(device=Device(device_id=0), policy="greedy")],
                coverage=coverage,
                horizon_slots=50,
            )


class TestGenerativeChurnLayer:
    def test_poisson_churn_windows_within_horizon(self):
        import numpy as np

        from repro.sim.scenario import PoissonChurn

        churn = PoissonChurn(
            arrival_rate_per_slot=0.1,
            mean_lifetime_slots=50.0,
            initial_fraction=0.25,
        )
        rng = np.random.default_rng(3)
        windows = churn.presence_windows(40, 300, rng)
        assert len(windows) == 40
        assert sum(1 for join, _ in windows if join == 1) >= 10
        for join, leave in windows:
            assert 1 <= join <= 300
            assert leave is None or join <= leave < 300

    def test_poisson_churn_is_reproducible(self):
        import numpy as np

        from repro.sim.scenario import PoissonChurn

        churn = PoissonChurn()
        first = churn.presence_windows(20, 200, np.random.default_rng(9))
        second = churn.presence_windows(20, 200, np.random.default_rng(9))
        assert first == second

    def test_trace_churn_cycles_and_validates(self):
        import numpy as np

        from repro.sim.scenario import TraceChurn

        trace = TraceChurn(((1, 10), (5, None)))
        windows = trace.presence_windows(5, 100, np.random.default_rng(0))
        assert windows == [(1, 10), (5, None), (1, 10), (5, None), (1, 10)]
        with pytest.raises(ValueError, match="ends before it starts"):
            TraceChurn(((10, 5),))
        with pytest.raises(ValueError, match="at least one window"):
            TraceChurn(())

    def test_per_slot_churn_tiles_every_slot(self):
        from repro.sim.scenario import per_slot_churn_windows

        windows, horizon = per_slot_churn_windows(10)
        assert len(windows) == 10
        events = set()
        for join, leave in windows:
            if join > 1:
                events.add(join)
            if leave is not None:
                events.add(leave + 1)
        assert events == set(range(2, horizon + 1))

    def test_churn_scenario_composition(self):
        from repro.sim.mobility import NetworkDynamics
        from repro.sim.scenario import PoissonChurn, churn_scenario

        scenario = churn_scenario(
            num_devices=12,
            policy="exp3",
            horizon_slots=200,
            churn=PoissonChurn(arrival_rate_per_slot=0.3),
            areas={"east": (0, 2), "west": (1, 2)},
            mobility_fraction=0.5,
            dynamics=NetworkDynamics(
                flapping_networks=(0,),
                mean_up_slots=50.0,
                mean_outage_slots=5.0,
            ),
            seed=4,
        )
        assert scenario.num_devices == 12
        assert scenario.coverage.outages  # flapping compiled into outages
        mobile = [
            spec.device
            for spec in scenario.device_specs
            if len(spec.device.area_schedule) > 1
        ]
        assert mobile  # some devices actually walk between areas
        # Construction is deterministic in the seed.
        again = churn_scenario(
            num_devices=12,
            policy="exp3",
            horizon_slots=200,
            churn=PoissonChurn(arrival_rate_per_slot=0.3),
            areas={"east": (0, 2), "west": (1, 2)},
            mobility_fraction=0.5,
            dynamics=NetworkDynamics(
                flapping_networks=(0,),
                mean_up_slots=50.0,
                mean_outage_slots=5.0,
            ),
            seed=4,
        )
        assert [d.device.join_slot for d in scenario.device_specs] == [
            d.device.join_slot for d in again.device_specs
        ]
        assert scenario.coverage.outages == again.coverage.outages
