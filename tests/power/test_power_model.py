"""Tests for the shared, content-cached power model and the shared Table 1 rows."""

import dataclasses

import pytest

from repro.battery.status import BatteryLevel
from repro.dpm.rules import paper_rule_table
from repro.platform import (
    IpDef,
    OperatingPointDef,
    PsmDef,
    WorkloadDef,
    build_ip_spec,
    paper_platforms,
    to_scenario,
)
from repro.platform.build import build_characterization, build_transitions, ip_power_model
from repro.power import (
    BreakEvenAnalyzer,
    PowerModel,
    PowerState,
    TransitionCost,
    default_characterization,
    default_power_model,
    default_transition_table,
)
from repro.sim import us
from repro.soc.task import TaskPriority
from repro.thermal.level import TemperatureLevel


def ipdef(name="ip", **power_fields):
    return IpDef(name=name, workload=WorkloadDef(kind="periodic", task_count=3),
                 **power_fields)


def fresh_breakeven(definition):
    """The analyser built from scratch, without the model or its cache."""
    characterization = build_characterization(definition) or default_characterization()
    transitions = build_transitions(definition, characterization) or default_transition_table(
        reference_power_w=characterization.active_power_w(PowerState.ON1)
    )
    return BreakEvenAnalyzer(characterization, transitions)


CUSTOM_POINTS = [
    OperatingPointDef("ON1", 1.1, 150e6),
    OperatingPointDef("ON2", 1.0, 110e6),
    OperatingPointDef("ON3", 0.9, 80e6),
    OperatingPointDef("ON4", 0.8, 40e6),
]


class TestIpPowerModelCache:
    def test_equal_power_fields_share_one_model(self):
        first = ipdef("a", effective_capacitance_f=1.1e-9,
                      psm=PsmDef(entry_latency_us={"SL2": 80.0}))
        # Name, workload, priorities and bus use are not power fields.
        second = IpDef(name="b", workload=WorkloadDef(kind="bursty", seed=4),
                       static_priority=3, bus_words_per_task=64, bus_priority=0,
                       effective_capacitance_f=1.1e-9,
                       psm=PsmDef(entry_latency_us={"SL2": 80.0}))
        assert ip_power_model(first) is ip_power_model(second)

    @pytest.mark.parametrize("fields", [
        {"psm": PsmDef(wakeup_latency_us={"SL3": 500.0})},
        {"residual_fraction": {"SL1": 0.3}},
        {"operating_points": CUSTOM_POINTS},
        {"effective_capacitance_f": 1.3e-9},
    ], ids=["psm-latency", "residual-fraction", "operating-point", "capacitance"])
    def test_each_power_field_gives_its_own_model(self, fields):
        definition = ipdef(**fields)
        model = ip_power_model(definition)
        assert model is not default_power_model()
        assert model is ip_power_model(ipdef("other", **fields))
        assert model.breakeven.summary() == fresh_breakeven(definition).summary()

    def test_changed_operating_point_changes_the_model(self):
        moved = [dataclasses.replace(CUSTOM_POINTS[0], frequency_hz=160e6)] + CUSTOM_POINTS[1:]
        before = ip_power_model(ipdef(operating_points=CUSTOM_POINTS))
        after = ip_power_model(ipdef(operating_points=moved))
        assert after is not before
        on1 = after.characterization.operating_points.point(PowerState.ON1)
        assert on1.frequency_hz == 160e6

    def test_cache_stays_bounded(self):
        maxsize = ip_power_model.cache_info().maxsize
        for index in range(maxsize + 20):
            ip_power_model(ipdef(effective_capacitance_f=1e-9 + index * 1e-12))
        info = ip_power_model.cache_info()
        assert info.currsize <= maxsize

    def test_paper_rows_use_the_default_model(self):
        for spec in paper_platforms():
            for index, definition in enumerate(spec.ips):
                assert build_ip_spec(definition, index).power is default_power_model()
            for ip_spec in to_scenario(spec).build_specs():
                assert ip_spec.power is default_power_model()

    def test_build_without_arguments_is_the_default_model(self):
        assert PowerModel.build() is default_power_model()
        custom = PowerModel.build(characterization=default_characterization(
            effective_capacitance_f=1.2e-9))
        assert custom is not default_power_model()
        assert custom.transitions.energy_j(PowerState.ON1, PowerState.SL1) > (
            default_power_model().transitions.energy_j(PowerState.ON1, PowerState.SL1))


class TestSharedObjectsAreReadOnly:
    def test_characterization_is_frozen(self):
        characterization = default_power_model().characterization
        with pytest.raises(dataclasses.FrozenInstanceError):
            characterization.effective_capacitance_f = 1e-9

    def test_transition_table_is_read_only(self):
        table = default_power_model().transitions
        with pytest.raises(AttributeError):
            table._costs = {}
        with pytest.raises(TypeError):
            table.costs[(PowerState.ON1, PowerState.SL1)] = TransitionCost(0.0, us(1))
        assert table.costs[(PowerState.ON1, PowerState.SL1)] == table.cost(
            PowerState.ON1, PowerState.SL1)

    def test_power_model_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            default_power_model().transitions = default_transition_table()


class TestSharedTable1Rows:
    def test_tables_are_distinct_but_share_their_rules(self):
        first, second = paper_rule_table(), paper_rule_table()
        assert first is not second
        assert len(first.rules) == len(second.rules)
        assert all(a is b for a, b in zip(first.rules, second.rules))

    def test_hits_stay_per_table(self):
        first, second = paper_rule_table(), paper_rule_table()
        state = first.select_levels(TaskPriority.HIGH, BatteryLevel.FULL, TemperatureLevel.LOW)
        assert state is PowerState.ON1
        assert sum(first.hit_counts.values()) == 1
        assert sum(second.hit_counts.values()) == 0
