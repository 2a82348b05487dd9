"""Tests for the spec -> runnable-object bridge (repro.platform.build)."""

import dataclasses

import pytest

from repro.dpm.controller import DpmSetup
from repro.errors import PlatformError
from repro.experiments.scenarios import paper_scenarios
from repro.platform import (
    GemDef,
    IpDef,
    OperatingPointDef,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    TransitionDef,
    WorkloadDef,
    build_dpm_setup,
    build_ip_spec,
    build_workload,
    paper_platforms,
    platform_by_name,
    platform_setup,
    single_ip_platform,
    to_scenario,
)
from repro.platform.build import build_characterization, build_transitions
from repro.power.states import PowerState
from repro.sim.simtime import ms, us
from repro.soc.task import TaskPriority


class TestPaperMigration:
    """The six paper rows are scenarios of the built-in specs."""

    def test_paper_scenarios_are_platform_backed(self):
        scenarios = paper_scenarios()
        assert [s.name for s in scenarios] == ["A1", "A2", "A3", "A4", "B", "C"]
        for scenario, spec in zip(scenarios, paper_platforms()):
            assert scenario.spec == spec
            assert scenario.seed is None


class TestScenario:
    """A scenario is a validated spec plus an optional grid seed."""

    def test_fields_are_derived_from_the_spec(self):
        spec = platform_by_name("B")
        scenario = to_scenario(spec, seed=3)
        assert (scenario.spec, scenario.seed) == (spec, 3)
        assert scenario.name == "B"
        assert scenario.description == spec.description
        assert scenario.max_time == ms(spec.max_time_ms)
        assert scenario.build_config().name == "soc_B"
        assert [ip.name for ip in scenario.build_specs()] == ["ip1", "ip2", "ip3", "ip4"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.seed = 4

    def test_seed_reseeds_each_ip_by_its_index(self):
        spec = platform_by_name("B")
        seeded = to_scenario(spec, seed=3).build_specs()
        for index, ip in enumerate(seeded):
            expected = build_workload(spec.ips[index].workload, seed_override=3 + index)
            assert ip.workload.as_dicts() == expected.as_dicts()

    def test_invalid_spec_is_rejected(self):
        spec = single_ip_platform("X", "lowish", "low")
        with pytest.raises(PlatformError, match="battery condition"):
            to_scenario(spec)

    def test_description_defaults_to_a_summary(self):
        spec = PlatformSpec(name="bare", ips=[
            IpDef(name="x", workload=WorkloadDef(kind="periodic", task_count=2)),
        ])
        assert to_scenario(spec).description == "platform 'bare' (1 IPs)"


class TestWorkloadBuild:
    def test_periodic(self):
        workload = build_workload(WorkloadDef(kind="periodic", task_count=3,
                                              cycles=500, idle_us=10.0,
                                              priority="high",
                                              instruction_class="dsp"))
        assert len(workload) == 3
        assert all(item.task.cycles == 500 for item in workload)
        assert all(item.task.priority is TaskPriority.HIGH for item in workload)
        assert all(item.idle_after == us(10.0) for item in workload)

    def test_explicit_round_trips_via_as_dicts(self):
        source = build_workload(WorkloadDef(kind="random", task_count=4, seed=8))
        rebuilt = build_workload(WorkloadDef(kind="explicit", name=source.name,
                                             items=source.as_dicts()))
        assert rebuilt.as_dicts() == source.as_dicts()

    def test_post_transforms(self):
        wdef = WorkloadDef(kind="periodic", task_count=2, cycles=100,
                           idle_us=10.0, force_priority="very_high", idle_scale=2.0)
        workload = build_workload(wdef)
        assert all(item.task.priority is TaskPriority.VERY_HIGH for item in workload)
        assert all(item.idle_after == us(20.0) for item in workload)

    def test_seed_override_reseeds_generators(self):
        wdef = WorkloadDef(kind="high_activity", task_count=6, seed=1)
        assert build_workload(wdef).as_dicts() != build_workload(wdef, 99).as_dicts()
        assert build_workload(wdef, 99).as_dicts() == build_workload(wdef, 99).as_dicts()

    def test_equal_content_and_seed_share_one_workload(self):
        wdef = WorkloadDef(kind="high_activity", task_count=6, seed=1)
        workload = build_workload(wdef)
        # An equal definition built separately is the same content.
        assert build_workload(WorkloadDef(kind="high_activity", task_count=6, seed=1)) is workload
        assert build_workload(wdef, 5) is build_workload(dataclasses.replace(wdef), 5)

    @pytest.mark.parametrize("other", [
        (WorkloadDef(kind="high_activity", task_count=6, seed=1), 2),
        (WorkloadDef(kind="high_activity", task_count=6, seed=2), None),
        (WorkloadDef(kind="high_activity", task_count=7, seed=1), None),
        (WorkloadDef(kind="high_activity", task_count=6, seed=1, idle_scale=2.0), None),
        (WorkloadDef(kind="low_activity", task_count=6, seed=1), None),
    ], ids=["seed-override", "seed", "task-count", "post-transform", "kind"])
    def test_other_seed_or_content_gives_a_new_workload(self, other):
        workload = build_workload(WorkloadDef(kind="high_activity", task_count=6, seed=1))
        wdef, seed = other
        assert build_workload(wdef, seed) is not workload

    def test_cache_stays_bounded(self):
        maxsize = build_workload.cache_info().maxsize
        for index in range(maxsize + 20):
            build_workload(WorkloadDef(kind="periodic", task_count=1, cycles=1000 + index))
        info = build_workload.cache_info()
        assert info.currsize <= maxsize

    def test_ip_index_decorrelates_grid_seeds(self):
        spec = IpDef(name="a", workload=WorkloadDef(kind="high_activity", task_count=4))
        first = build_ip_spec(spec, index=0, seed=7)
        second = build_ip_spec(spec, index=1, seed=7)
        assert first.workload.as_dicts() != second.workload.as_dicts()


class TestCharacterizationAndPsm:
    def test_thin_ip_uses_library_defaults(self):
        ipdef = IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1))
        assert build_characterization(ipdef) is None
        assert build_transitions(ipdef, None) is None

    def test_explicit_operating_points(self):
        ipdef = IpDef(
            name="a", workload=WorkloadDef(kind="periodic", task_count=1),
            operating_points=[
                OperatingPointDef("ON1", 1.0, 100e6),
                OperatingPointDef("ON2", 0.9, 75e6),
                OperatingPointDef("ON3", 0.8, 50e6),
                OperatingPointDef("ON4", 0.7, 25e6),
            ],
        )
        characterization = build_characterization(ipdef)
        point = characterization.operating_points.point(PowerState.ON1)
        assert point.frequency_hz == 100e6
        assert point.voltage_v == 1.0

    def test_activity_overrides_merge_over_defaults(self):
        from repro.power.characterization import (
            DEFAULT_ACTIVITY,
            InstructionClass,
        )

        ipdef = IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1),
                      activity_by_class={"dsp": 3.0})
        characterization = build_characterization(ipdef)
        assert characterization.activity_by_class[InstructionClass.DSP] == 3.0
        assert (characterization.activity_by_class[InstructionClass.ALU]
                == DEFAULT_ACTIVITY[InstructionClass.ALU])

    def test_psm_latency_knobs_reach_the_table(self):
        ipdef = IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1),
                      psm=PsmDef(entry_latency_us={"SL1": 5.0},
                                 wakeup_latency_us={"SL1": 7.0}))
        table = build_transitions(ipdef, None)
        assert table.latency(PowerState.ON1, PowerState.SL1) == us(5.0)
        assert table.latency(PowerState.SL1, PowerState.ON1) == us(7.0)

    def test_explicit_transition_overrides_and_removals(self):
        ipdef = IpDef(
            name="a", workload=WorkloadDef(kind="periodic", task_count=1),
            psm=PsmDef(transitions=[
                TransitionDef("ON1", "SL1", energy_j=4.5e-6, latency_us=3.0),
                TransitionDef("ON1", "OFF", allowed=False),
            ]),
        )
        table = build_transitions(ipdef, None)
        assert table.energy_j(PowerState.ON1, PowerState.SL1) == 4.5e-6
        assert table.latency(PowerState.ON1, PowerState.SL1) == us(3.0)
        assert not table.is_allowed(PowerState.ON1, PowerState.OFF)
        # untouched defaults survive
        assert table.is_allowed(PowerState.ON1, PowerState.SL4)


class TestSetupResolution:
    def spec_with_policy(self, policy) -> PlatformSpec:
        return PlatformSpec(
            name="pol", policy=policy,
            ips=[IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1))],
        )

    def test_policy_def_builds_named_setups(self):
        assert build_dpm_setup(PolicyDef(name="paper")).name == "paper"
        assert build_dpm_setup(PolicyDef(name="always-on")).name == "always-on"
        assert build_dpm_setup(PolicyDef(name="oracle")).use_idle_hint
        timeout = build_dpm_setup(PolicyDef(name="fixed-timeout", timeout_ms=3.0))
        assert timeout.name == "fixed-timeout"

    def test_policy_lem_overrides(self):
        setup = build_dpm_setup(PolicyDef(name="paper", allow_off=False,
                                          reevaluation_interval_us=123.0,
                                          defer_state="SL2",
                                          estimation_state="ON2"))
        assert setup.lem_config.allow_off is False
        assert setup.lem_config.reevaluation_interval == us(123.0)
        assert setup.lem_config.defer_state is PowerState.SL2
        assert setup.lem_config.estimation_state is PowerState.ON2

    def test_none_setup_defers_to_spec_policy(self):
        scenario = to_scenario(self.spec_with_policy(PolicyDef(name="greedy-sleep")))
        resolved = platform_setup(scenario, None, DpmSetup.paper, use_policy=True)
        assert resolved.name == "greedy-sleep"
        # an explicit setup always wins over the spec's policy
        explicit = platform_setup(scenario, DpmSetup.oracle(), DpmSetup.paper,
                                  use_policy=True)
        assert explicit.name == "oracle"
        # the baseline role ignores the policy
        baseline = platform_setup(scenario, None, DpmSetup.always_on)
        assert baseline.name == "always-on"

    def test_gem_overrides_apply_to_any_setup(self):
        spec = PlatformSpec(
            name="gemmed",
            ips=[IpDef(name="a", workload=WorkloadDef(kind="periodic", task_count=1))],
            gem=GemDef(enabled=True, high_priority_count=3, forced_state="SL3"),
        )
        scenario = to_scenario(spec)
        resolved = platform_setup(scenario, None, DpmSetup.paper, use_policy=True)
        assert resolved.gem_config.high_priority_count == 3
        assert resolved.gem_config.forced_state is PowerState.SL3
        baseline = platform_setup(scenario, DpmSetup.always_on(), DpmSetup.always_on)
        assert baseline.gem_config.high_priority_count == 3

    def test_plain_scenarios_are_untouched(self):
        scenario = to_scenario(single_ip_platform("X", "full", "low"))
        resolved = platform_setup(scenario, None, DpmSetup.paper, use_policy=True)
        assert resolved.name == "paper"
