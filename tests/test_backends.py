"""Cross-backend equivalence suite.

The vectorized backend must reproduce the event backend's
:class:`SimulationResult` *bit for bit* — same choices, rates, delays,
switches, activity, probabilities and reset counts — for any scenario and
seed.  These tests pin that contract across every registered policy, the
dynamic and mobility scenarios, mixed policy populations, a stochastic gain
model (which exercises the generic physics path) and the parallel
``run_many`` dispatch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.algorithms.exp3 import EXP3Policy
from repro.algorithms.full_information import FullInformationPolicy
from repro.algorithms.registry import create_policy, register_policy
from repro.experiments.common import ALL_POLICIES, ExperimentConfig
from repro.game.device import Device
from repro.game.gain import EqualShareModel, NoisyShareModel
from repro.sim.backends import (
    DEFAULT_BACKEND,
    VectorizedSlotExecutor,
    available_backends,
    get_backend,
    register_backend,
)
from repro.sim.delay import ConstantDelayModel, EmpiricalDelayModel, NoDelayModel
from repro.sim.metrics import NO_NETWORK
from repro.sim.mobility import CoverageMap, NetworkDynamics
from repro.sim.runner import run_many, run_simulation
from repro.sim.scenario import (
    DeviceSpec,
    PoissonChurn,
    Scenario,
    TraceChurn,
    churn_scenario,
    dynamic_join_leave_scenario,
    mixed_policy_scenario,
    mobility_scenario,
    per_slot_churn_scenario,
    setting1_scenario,
    setting2_scenario,
)
from repro.sim.testbed import controlled_dynamic_scenario
from repro.sim.traces import TraceGainModel, TracePair

RESULT_ARRAY_FIELDS = (
    "choices",
    "rates_mbps",
    "delays_s",
    "switches",
    "active",
    "probabilities",
)


#: Slot lengths the fractional-slot test and the generated scenarios use:
#: the paper's 15 s and lengths that are not exact in binary floating point.
SLOT_DURATIONS_S = (15.0, 0.1, 0.2, 1 / 3)


def assert_results_identical(reference, candidate) -> None:
    """Assert two SimulationResults are bit-for-bit equal.

    Runs without probability recording compare equal only to runs without
    it; their probabilities are then skipped.
    """
    assert candidate.scenario_name == reference.scenario_name
    assert candidate.seed == reference.seed
    assert candidate.num_slots == reference.num_slots
    assert candidate.device_ids == reference.device_ids
    assert candidate.policy_names == reference.policy_names
    assert candidate.resets == reference.resets
    recorded = reference.probabilities_3d is not None
    assert (candidate.probabilities_3d is not None) == recorded
    for field in RESULT_ARRAY_FIELDS:
        if field == "probabilities" and not recorded:
            continue
        ref_arrays = getattr(reference, field)
        cand_arrays = getattr(candidate, field)
        for device_id in reference.device_ids:
            ref = ref_arrays[device_id]
            cand = cand_arrays[device_id]
            assert ref.dtype == cand.dtype, (field, device_id)
            assert np.array_equal(ref, cand), (
                f"{field} differs for device {device_id} at slots "
                f"{np.argwhere(ref != cand)[:5].tolist()}"
            )


def assert_physical_invariants(result, scenario) -> None:
    """Assert the physics every run obeys, whatever its backend.

    * Each active device's choice is in its visible set at that slot (the
      set is constant between the device's area moves and the outage
      boundaries, so it is looked up once per such era).
    * Under equal share, the rates of a network's clients sum to at most
      its bandwidth (1e-9 relative).
    * A delay is nonzero only on a switch and lies in ``[0, slot length]``.
    """
    choices, active = result.choices_2d, result.active_2d
    net_ids = np.asarray(sorted(result.networks))
    horizon = result.num_slots
    coverage = scenario.coverage
    outages = coverage.outage_boundary_slots()
    devices = {spec.device.device_id: spec.device for spec in scenario.device_specs}
    visible = np.zeros((len(result.device_ids), horizon, net_ids.size), dtype=bool)
    for row, device_id in enumerate(result.device_ids):
        device = devices[device_id]
        starts = sorted(
            slot for slot in {1, *outages, *device.area_schedule} if 1 <= slot <= horizon
        )
        for lo, hi in zip(starts, starts[1:] + [horizon + 1]):
            cols = np.searchsorted(net_ids, sorted(coverage.visible_networks(device, lo)))
            visible[row, lo - 1 : hi - 1, cols[:, None]] = True
    rows, slots = np.nonzero(active)
    chosen = choices[rows, slots]
    assert np.isin(chosen, net_ids).all(), "an active device chose no network"
    assert visible[rows, slots, np.searchsorted(net_ids, chosen)].all(), (
        "an active device chose a network outside its visible set"
    )
    if type(scenario.gain_model) is EqualShareModel:
        for network_id in net_ids.tolist():
            clients = active & (choices == network_id)
            load = np.where(clients, result.rates_2d, 0.0).sum(axis=0)
            bandwidth = result.networks[network_id].bandwidth_mbps
            assert (load <= bandwidth * (1 + 1e-9)).all(), (
                f"network {network_id} carries more than its bandwidth"
            )
    delays = result.delays_2d
    assert not delays[~result.switches_2d].any(), "a delay without a switch"
    assert ((delays >= 0.0) & (delays <= scenario.slot_duration_s)).all()


def run_both(scenario, seed):
    return (
        run_simulation(scenario, seed=seed, backend="event"),
        run_simulation(scenario, seed=seed, backend="vectorized"),
    )


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ("event", "sharded", "vectorized")
        assert DEFAULT_BACKEND == "event"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("nope")
        with pytest.raises(KeyError, match="unknown backend"):
            run_simulation(setting1_scenario(num_devices=2, horizon_slots=10), backend="nope")

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("event", object)

    def test_experiment_config_validates_backend_and_workers(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentConfig(backend="nope")
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(workers=-1)
        assert ExperimentConfig(backend="vectorized", workers=2).workers == 2


class TestStaticEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_all_policies_setting1(self, policy):
        scenario = setting1_scenario(policy=policy, num_devices=8, horizon_slots=120)
        for seed in (0, 7, 123):
            event, vectorized = run_both(scenario, seed)
            assert_results_identical(event, vectorized)

    def test_setting2_smart_exp3(self):
        scenario = setting2_scenario(policy="smart_exp3", num_devices=6, horizon_slots=100)
        event, vectorized = run_both(scenario, 11)
        assert_results_identical(event, vectorized)

    def test_noisy_gain_model_uses_generic_physics_path(self):
        # NoisyShareModel consumes the environment RNG per network per slot,
        # so the vectorized backend must fall back to the environment's
        # dict-based physics with identical draw order.
        base = setting1_scenario(policy="smart_exp3", num_devices=6, horizon_slots=80)
        scenario = Scenario(
            name="noisy",
            networks=base.networks,
            device_specs=base.device_specs,
            coverage=base.coverage,
            gain_model=NoisyShareModel(rate_noise_std=0.2, share_concentration=5.0),
            horizon_slots=80,
        )
        event, vectorized = run_both(scenario, 5)
        assert_results_identical(event, vectorized)
        # The noise must actually have fired (devices on one network see
        # different rates), otherwise this test is vacuous.
        rates = np.stack([event.rates_mbps[d] for d in event.device_ids])
        assert np.unique(rates[:, -1]).size > 1


class TestDynamicEquivalence:
    @pytest.mark.parametrize("policy", ("greedy", "fixed_random", "exp3"))
    def test_paper_join_leave_scenario(self, policy):
        # Horizon past the join (t=401) and leave (t=800) edges.
        scenario = dynamic_join_leave_scenario(policy=policy, horizon_slots=850)
        event, vectorized = run_both(scenario, 2)
        assert_results_identical(event, vectorized)
        # Sanity: the transient devices really joined and left.
        transient = event.device_ids[-1]
        assert not event.active[transient][:400].any()
        assert event.active[transient][400:800].all()
        assert not event.active[transient][800:].any()

    def test_mobility_scenario_with_stationary_policy(self):
        # Coverage changes at t=401/801 force re-selection even for the
        # "stationary" Fixed Random policy; segments must re-freeze.
        scenario = mobility_scenario(policy="fixed_random", horizon_slots=850)
        event, vectorized = run_both(scenario, 9)
        assert_results_identical(event, vectorized)

    def test_mobility_scenario_with_learning_policy(self):
        scenario = mobility_scenario(policy="greedy", horizon_slots=850)
        event, vectorized = run_both(scenario, 4)
        assert_results_identical(event, vectorized)

    def test_small_join_leave_mix(self):
        # A compact scenario with staggered joins/leaves and mixed policies,
        # so segment boundaries and frozen/live partitions churn every few
        # slots.
        base = setting1_scenario(num_devices=1, horizon_slots=60)
        specs = [
            DeviceSpec(device=Device(device_id=0), policy="smart_exp3"),
            DeviceSpec(device=Device(device_id=1, join_slot=5, leave_slot=40), policy="exp3"),
            DeviceSpec(device=Device(device_id=2, join_slot=10), policy="fixed_random"),
            DeviceSpec(device=Device(device_id=3, leave_slot=30), policy="centralized"),
            DeviceSpec(device=Device(device_id=4, join_slot=20, leave_slot=55), policy="greedy"),
        ]
        scenario = Scenario(
            name="small_dynamic",
            networks=base.networks,
            device_specs=specs,
            coverage=CoverageMap.single_area([n.network_id for n in base.networks]),
            horizon_slots=60,
        )
        for seed in (0, 3):
            event, vectorized = run_both(scenario, seed)
            assert_results_identical(event, vectorized)

    def test_mixed_policy_population(self):
        scenario = mixed_policy_scenario(
            {"smart_exp3": 4, "greedy": 2, "fixed_random": 2, "full_information": 2},
            horizon_slots=100,
        )
        event, vectorized = run_both(scenario, 1)
        assert_results_identical(event, vectorized)


class TestStationaryPoliciesUnderTopologyChange:
    """Frozen rows are written per topology-stable span, not per slot."""

    @pytest.mark.parametrize("record", (True, False))
    @pytest.mark.parametrize("policy", ("fixed_random", "centralized"))
    @pytest.mark.parametrize(
        "factory", (dynamic_join_leave_scenario, mobility_scenario)
    )
    def test_join_leave_and_mobility(self, factory, policy, record):
        scenario = factory(policy=policy, horizon_slots=850)
        event = run_simulation(
            scenario, seed=6, backend="event", record_probabilities=record
        )
        vectorized = run_simulation(
            scenario, seed=6, backend="vectorized", record_probabilities=record
        )
        assert_results_identical(event, vectorized)


def generic_physics_scenario(case: str) -> Scenario:
    """Scenarios whose gain model draws from the environment RNG."""
    if case == "noisy_churn":
        # NoisyShareModel with Poisson churn, mobility and outages around it.
        scenario = churn_scenario(
            num_devices=10,
            policy="full_information",
            horizon_slots=120,
            churn=PoissonChurn(
                arrival_rate_per_slot=0.2,
                mean_lifetime_slots=60.0,
                initial_fraction=0.6,
            ),
            areas={"a": (0, 1, 2), "b": (1, 2)},
            mobility_fraction=0.4,
            mean_dwell_slots=30.0,
            dynamics=NetworkDynamics(
                outage_windows={0: ((40, 55),)},
                flapping_networks=(1,),
                mean_up_slots=40.0,
                mean_outage_slots=8.0,
            ),
            seed=4,
        )
        return replace(scenario, name="noisy_churn", gain_model=NoisyShareModel())
    if case == "noisy_mixed":
        base = mixed_policy_scenario(
            {
                "full_information": 2,
                "exp3": 2,
                "smart_exp3": 2,
                "fixed_random": 2,
                "centralized": 2,
            },
            horizon_slots=100,
        )
        return replace(
            base,
            name="noisy_mixed",
            gain_model=NoisyShareModel(
                rate_noise_std=0.2, share_concentration=5.0
            ),
        )
    return controlled_dynamic_scenario(policy="full_information")


class TestGenericPhysicsEquivalence:
    """Gain models other than equal share, resolved through the environment."""

    @pytest.mark.parametrize("seed", (0, 3))
    @pytest.mark.parametrize(
        "use_kernels", (True, False), ids=("vectorized", "vectorized-nokernel")
    )
    @pytest.mark.parametrize(
        "case", ("noisy_churn", "noisy_mixed", "controlled_dynamic")
    )
    def test_matches_event(self, case, use_kernels, seed):
        scenario = generic_physics_scenario(case)
        event = run_simulation(scenario, seed=seed, backend="event")
        executor = VectorizedSlotExecutor(use_kernels=use_kernels)
        assert_results_identical(event, executor.execute(scenario, seed))


class TestFractionalSlotLengths:
    """Every backend runs every slot, whatever the slot length: time is the
    slot index, so a length that is not exact in binary drops no slot."""

    @pytest.mark.parametrize("slot_duration_s", SLOT_DURATIONS_S)
    def test_backends_agree(self, slot_duration_s):
        scenario = replace(
            setting1_scenario(policy="exp3", horizon_slots=32),
            slot_duration_s=slot_duration_s,
        )
        event = run_simulation(scenario, seed=1, backend="event")
        assert (event.choices_2d[:, -1] != NO_NETWORK).all()
        vectorized = run_simulation(scenario, seed=1, backend="vectorized")
        sharded = get_backend("sharded").with_shards(2).execute(scenario, 1)
        assert_results_identical(event, vectorized)
        assert_results_identical(event, sharded)


class TestStreamFreeDelays:
    """Table-resolved switching delays stay bit-exact across topology edits."""

    @staticmethod
    def _check(scenario, seed):
        event = run_simulation(scenario, seed=seed, backend="event")
        vectorized = run_simulation(scenario, seed=seed, backend="vectorized")
        assert_results_identical(event, vectorized)

    @pytest.mark.parametrize("policy", ("exp3", "full_information"))
    def test_churn(self, policy):
        scenario = replace(
            dynamic_join_leave_scenario(policy=policy, horizon_slots=850),
            delay_model=ConstantDelayModel(),
        )
        self._check(scenario, 2)

    def test_mobility(self):
        scenario = replace(
            mobility_scenario(policy="exp3", horizon_slots=850),
            delay_model=ConstantDelayModel(),
        )
        self._check(scenario, 4)

    def test_outages_and_poisson_churn(self):
        # Outage windows change per-device visibility mid-run; NoDelayModel
        # covers the second stream-free delay model.
        scenario = churn_scenario(
            num_devices=14,
            policy="exp3",
            horizon_slots=300,
            churn=PoissonChurn(
                arrival_rate_per_slot=0.1,
                mean_lifetime_slots=150.0,
                initial_fraction=0.5,
            ),
            dynamics=NetworkDynamics(
                outage_windows={0: ((60, 100),)},
                flapping_networks=(1,),
                mean_up_slots=90.0,
                mean_outage_slots=15.0,
            ),
            seed=3,
        )
        self._check(replace(scenario, delay_model=NoDelayModel()), 5)


class _ScalarEXP3(EXP3Policy):
    """EXP3 that no kernel batches: any override opts a subclass out."""

    def begin_slot(self, slot: int) -> int:
        return super().begin_slot(slot)


class _ScalarFullInformation(FullInformationPolicy):
    """Full Information on the scalar path, reading full feedback there."""

    def begin_slot(self, slot: int) -> int:
        return super().begin_slot(slot)


register_policy("exp3_scalar", _ScalarEXP3, overwrite=True)
register_policy("full_information_scalar", _ScalarFullInformation, overwrite=True)
# A Smart EXP3 config that differs beyond the mechanism flags (β): its rows
# form a kernel group of their own beside the Table III family's.
register_policy(
    "smart_exp3_beta02",
    lambda context, **kwargs: create_policy("smart_exp3", context, beta=0.2, **kwargs),
    overwrite=True,
)

#: The generated scenarios' policy mix: kernel rows (the whole Table III
#: family, which shares one Smart EXP3 group with per-row mechanism flags,
#: and a config variant in a group of its own), frozen rows and rows on the
#: scalar fallback (policies with overrides no kernel may batch).
KERNEL_POLICIES = (
    "smart_exp3",
    "exp3",
    "greedy",
    "full_information",
    "block_exp3",
    "hybrid_block_exp3",
    "smart_exp3_no_reset",
    "smart_exp3_beta02",
)
FROZEN_POLICIES = ("fixed_random", "centralized")
FALLBACK_POLICIES = ("exp3_scalar", "full_information_scalar")


def dynamic_scenario(
    num_devices: int,
    horizon: int,
    churn,
    areas: bool,
    mobility_fraction: float,
    dynamics,
    policies,
    seed: int,
    bandwidths=(4.0, 7.0, 22.0),
    delay_model=None,
    slot_duration_s=None,
    gain_model=None,
) -> Scenario:
    """A dynamic scenario: churn, mobility over three areas, outages and a
    per-device policy mix.

    Every area holds the last network, which never flaps, so no device ever
    loses all of its networks.
    """
    ids = tuple(range(len(bandwidths)))
    scenario = churn_scenario(
        num_devices=num_devices,
        policy="smart_exp3",
        bandwidths=bandwidths,
        horizon_slots=horizon,
        churn=churn,
        areas=(
            {"a": ids, "b": ids[1:], "c": (ids[0], ids[-1])} if areas else None
        ),
        mobility_fraction=mobility_fraction if areas else 0.0,
        dynamics=dynamics,
        seed=seed,
    )
    for spec, policy in zip(scenario.device_specs, policies):
        spec.policy = policy
    if delay_model is not None:
        scenario = replace(scenario, delay_model=delay_model)
    if slot_duration_s is not None:
        scenario = replace(scenario, slot_duration_s=slot_duration_s)
    if gain_model is not None:
        scenario = replace(scenario, gain_model=gain_model)
    return scenario


def random_churn_scenario(case: int) -> Scenario:
    """One seeded random dynamic scenario: churn + mobility + outages.

    The generator varies the churn model, the policy mix (kernel and frozen
    rows), the coverage layout, the mobile fraction and the network
    dynamics, so the cases collectively sweep every topology-edit path of the
    vectorized executor.  :func:`dynamic_scenarios` draws the same shape of
    scenario from a hypothesis strategy, over a wider space.
    """
    rng = np.random.default_rng(10_000 + case)
    horizon = int(rng.integers(60, 180))
    num_devices = int(rng.integers(4, 12))
    if rng.random() < 0.5:
        churn = PoissonChurn(
            arrival_rate_per_slot=float(rng.uniform(0.05, 0.8)),
            mean_lifetime_slots=float(rng.uniform(10.0, horizon)),
            initial_fraction=float(rng.uniform(0.0, 1.0)),
        )
    else:
        windows = []
        for _ in range(num_devices):
            join = int(rng.integers(1, horizon + 1))
            if rng.random() < 0.3:
                leave = None
            else:
                leave = min(join + int(rng.integers(1, horizon)), horizon + 50)
            windows.append((join, leave))
        churn = TraceChurn(tuple(windows))
    areas = rng.random() < 0.6
    dynamics = (
        NetworkDynamics(
            flapping_networks=(int(rng.integers(0, 2)),),
            mean_up_slots=float(rng.uniform(10.0, 60.0)),
            mean_outage_slots=float(rng.uniform(2.0, 12.0)),
        )
        if rng.random() < 0.5
        else None
    )
    mobility_fraction = float(rng.uniform(0.0, 1.0)) if areas else 0.0
    policy_pool = ("smart_exp3", "exp3", "greedy", "fixed_random", "full_information")
    policies = [
        policy_pool[int(rng.integers(len(policy_pool)))] for _ in range(num_devices)
    ]
    return dynamic_scenario(
        num_devices, horizon, churn, areas, mobility_fraction, dynamics,
        policies, seed=case,
    )


@st.composite
def dynamic_scenarios(
    draw,
    bandwidths=None,
    horizon=None,
    delay_model=None,
    slot_duration_s=None,
    gain_model=None,
):
    """Generated dynamic scenarios: 1-30 devices on 1-5 networks, a mix of
    kernel, frozen and scalar-fallback policies, churn, mobility and
    outages, a constant or empirical delay model, a slot length from
    :data:`SLOT_DURATIONS_S`, and a gain model: equal share two times in
    three, otherwise a drawn :class:`NoisyShareModel` or, on exactly two
    networks, a :class:`TraceGainModel` over a drawn trace.

    ``bandwidths``, ``horizon``, ``delay_model``, ``slot_duration_s`` and
    ``gain_model`` pin the physics, so several draws can share it (and
    stack).
    """
    if bandwidths is None:
        bandwidths = tuple(
            draw(
                st.lists(
                    st.sampled_from((2.0, 4.0, 7.0, 11.0, 22.0)),
                    min_size=1,
                    max_size=5,
                )
            )
        )
    if horizon is None:
        horizon = draw(st.integers(10, 40))
    if delay_model is None:
        delay_model = draw(
            st.sampled_from((ConstantDelayModel(), EmpiricalDelayModel()))
        )
    if slot_duration_s is None:
        slot_duration_s = draw(st.sampled_from(SLOT_DURATIONS_S))
    if gain_model is None:
        # Equal share takes two of three branches (one_of drops a repeated
        # strategy object, so each branch is its own ``just``).
        gain_model = draw(
            st.one_of(
                st.just(EqualShareModel()),
                st.just(EqualShareModel()),
                drawn_gain_models(len(bandwidths), horizon),
            )
        )
    num_devices = draw(st.integers(1, 30))
    churn = draw(
        st.one_of(
            st.none(),
            st.builds(
                PoissonChurn,
                arrival_rate_per_slot=st.floats(0.05, 0.8),
                mean_lifetime_slots=st.floats(2.0, float(horizon)),
                initial_fraction=st.floats(0.0, 1.0),
            ),
            st.lists(
                st.tuples(
                    st.integers(1, horizon),
                    st.one_of(st.none(), st.integers(1, horizon + 20)),
                ).map(lambda w: (w[0], None if w[1] is None else w[0] + w[1])),
                min_size=num_devices,
                max_size=num_devices,
            ).map(lambda windows: TraceChurn(tuple(windows))),
        )
    )
    many = len(bandwidths) > 1
    dynamics = None
    if many and draw(st.booleans()):
        dynamics = NetworkDynamics(
            flapping_networks=(draw(st.integers(0, len(bandwidths) - 2)),),
            mean_up_slots=draw(st.floats(3.0, 30.0)),
            mean_outage_slots=draw(st.floats(1.0, 8.0)),
        )
    policies = draw(
        st.lists(
            st.sampled_from(KERNEL_POLICIES + FROZEN_POLICIES + FALLBACK_POLICIES),
            min_size=num_devices,
            max_size=num_devices,
        )
    )
    return dynamic_scenario(
        num_devices,
        horizon,
        churn,
        areas=many and draw(st.booleans()),
        mobility_fraction=draw(st.floats(0.0, 1.0)),
        dynamics=dynamics,
        policies=policies,
        seed=draw(st.integers(0, 2**16)),
        bandwidths=bandwidths,
        delay_model=delay_model,
        slot_duration_s=slot_duration_s,
        gain_model=gain_model,
    )


@st.composite
def drawn_gain_models(draw, num_networks: int, horizon: int):
    """A drawn noisy share or, on two networks (ids 0 and 1), a drawn trace
    of ``horizon`` rates."""
    noisy = st.builds(
        NoisyShareModel,
        rate_noise_std=st.floats(0.0, 0.4),
        share_concentration=st.floats(1.0, 40.0),
        dip_probability=st.floats(0.0, 0.2),
        dip_factor=st.floats(0.1, 1.0),
    )
    if num_networks != 2:
        return draw(noisy)
    rates = st.lists(st.floats(0.1, 25.0), min_size=horizon, max_size=horizon)
    trace = st.builds(
        TracePair,
        name=st.just("drawn"),
        wifi_mbps=rates.map(np.asarray),
        cellular_mbps=rates.map(np.asarray),
    ).map(TraceGainModel)
    return draw(st.one_of(noisy, trace))


class TestRandomizedChurnEquivalence:
    """Seeded random join/leave/mobility scenarios must stay bit-exact."""

    @pytest.mark.parametrize("case", range(8))
    def test_random_churn_bit_exact(self, case):
        scenario = random_churn_scenario(case)
        event, vectorized = run_both(scenario, seed=case)
        assert_results_identical(event, vectorized)

    @pytest.mark.parametrize("case", (0, 3))
    def test_random_churn_without_probabilities(self, case):
        scenario = random_churn_scenario(case)
        event = run_simulation(
            scenario, seed=case, backend="event", record_probabilities=False
        )
        vectorized = run_simulation(
            scenario, seed=case, backend="vectorized", record_probabilities=False
        )
        assert event.probabilities_3d is None
        assert vectorized.probabilities_3d is None
        for block in ("choices_2d", "rates_2d", "delays_2d", "switches_2d", "active_2d"):
            assert np.array_equal(
                getattr(event, block), getattr(vectorized, block)
            ), block
        assert event.resets == vectorized.resets
        # Dropping the tensor must not change the dynamics.
        full = run_simulation(scenario, seed=case, backend="vectorized")
        assert np.array_equal(full.choices_2d, vectorized.choices_2d)

    def test_per_slot_churn_stress_bit_exact(self):
        # The benchmark's worst case: a topology event on every slot.
        for policy in ("exp3", "smart_exp3"):
            scenario = per_slot_churn_scenario(num_devices=12, policy=policy)
            event, vectorized = run_both(scenario, seed=1)
            assert_results_identical(event, vectorized)
            # The churn really is per-slot: every slot after the first
            # changes the active population.
            active = event.active_2d.sum(axis=0)
            assert np.count_nonzero(np.diff(active)) >= scenario.horizon_slots - 2

    def test_kernel_groups_survive_churn(self):
        # Scalar-fallback and kernel paths must agree under churn,
        # isolating the membership-edit layer from the physics.
        scenario = random_churn_scenario(5)
        scalar = VectorizedSlotExecutor(use_kernels=False).execute(scenario, 2)
        kernel = run_simulation(scenario, seed=2, backend="vectorized")
        assert_results_identical(scalar, kernel)


class TestRunMany:
    def test_parallel_matches_serial(self):
        scenario = setting1_scenario(policy="smart_exp3", num_devices=4, horizon_slots=60)
        serial = run_many(scenario, runs=3, base_seed=5, backend="vectorized")
        parallel = run_many(
            scenario, runs=3, base_seed=5, backend="vectorized", workers=2
        )
        assert len(parallel) == 3
        for ref, cand in zip(serial, parallel):
            assert_results_identical(ref, cand)

    def test_workers_one_is_serial(self):
        scenario = setting1_scenario(policy="greedy", num_devices=3, horizon_slots=40)
        assert_results_identical(
            run_many(scenario, runs=2, workers=1)[1],
            run_many(scenario, runs=2, workers=None)[1],
        )

    def test_invalid_arguments(self):
        scenario = setting1_scenario(num_devices=2, horizon_slots=20)
        with pytest.raises(ValueError, match="runs"):
            run_many(scenario, runs=0)
        with pytest.raises(ValueError, match="workers"):
            run_many(scenario, runs=2, workers=-2)
