"""Golden-result tests for the event-driven fast path.

The kernel/time refactor (virtual clocks, integer-femtosecond hot path) is a
pure speed change: all six paper scenarios must produce *bit-identical*
``ScenarioMetrics`` to the recorded goldens (A1 and B date from before the refactor; A2-A4 and C pin the same
contract for the remaining rows), and adding a materialised (cycle-accurate)
reference clock to a run must not change any energy/timing figure either.
"""

import json
from pathlib import Path

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison, scenario_by_name
from repro.sim import Clock, Simulator, us
from repro.soc.soc import build_soc

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "scenario_metrics.json"

#: ScenarioMetrics float fields pinned bit-exactly (hex) in the golden file.
_FLOAT_FIELDS = (
    "energy_saving_pct",
    "temperature_reduction_pct",
    "average_delay_overhead_pct",
    "dpm_energy_j",
    "baseline_energy_j",
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "dpm_peak_c",
    "baseline_peak_c",
    "simulated_time_s",
)


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("scenario_name", ["A1", "A2", "A3", "A4", "B", "C"])
def test_scenario_metrics_bit_identical_to_pre_refactor_goldens(scenario_name):
    golden = _load_golden()[scenario_name]
    metrics = run_comparison(scenario_by_name(scenario_name), DpmSetup.paper())
    mismatches = {}
    for field in _FLOAT_FIELDS:
        got = getattr(metrics, field)
        if got.hex() != golden[field]:
            mismatches[field] = (got.hex(), golden[field])
    if metrics.tasks_executed != golden["tasks_executed"]:
        mismatches["tasks_executed"] = (metrics.tasks_executed, golden["tasks_executed"])
    for ip_name, figures in metrics.per_ip.items():
        for key, value in figures.items():
            got = value.hex() if isinstance(value, float) else value
            want = golden["per_ip"][ip_name][key]
            if got != want:
                mismatches[f"per_ip.{ip_name}.{key}"] = (got, want)
    assert not mismatches, f"scenario {scenario_name} drifted from golden: {mismatches}"


def _run_soc(scenario_name, with_materialised_clock):
    """Build and run one scenario, optionally with a cycle-accurate clock."""
    scenario = scenario_by_name(scenario_name)
    config = scenario.build_config()
    simulator = Simulator(name=config.name)
    clock = Clock(
        simulator.kernel,
        "refclk",
        period=us(50),
        cycle_accurate=with_materialised_clock,
    )
    simulator.add_module(clock)
    soc = build_soc(scenario.build_specs(), config, DpmSetup.paper(), simulator=simulator)
    end_time = soc.run_until_done(max_time=scenario.max_time)
    return soc, clock, end_time


def _materialised_clocks(simulator):
    """Every materialised Clock reachable from the simulator's module tree."""
    return [
        module
        for top in simulator.top_modules
        for module in top.walk()
        if isinstance(module, Clock) and module.is_materialized
    ]


@pytest.mark.parametrize("scenario_name", ["A1", "A2", "A3", "A4", "B", "C"])
def test_default_scenarios_never_materialise_a_clock(scenario_name):
    """Virtual-clock regression: the fast path must stay clock-free.

    No default scenario may construct — let alone materialise — a Clock;
    the only sanctioned consumer of materialised clocks is the
    cycle-accurate bus, which no paper scenario fits.
    """
    scenario = scenario_by_name(scenario_name)
    config = scenario.build_config()
    simulator = Simulator(name=config.name)
    soc = build_soc(scenario.build_specs(), config, DpmSetup.paper(), simulator=simulator)
    soc.run_until_done(max_time=scenario.max_time)
    clocks = [
        module
        for top in simulator.top_modules
        for module in top.walk()
        if isinstance(module, Clock)
    ]
    assert clocks == [], f"scenario {scenario_name} constructed clocks: {clocks}"


def test_event_driven_bus_stays_on_the_virtual_clock_fast_path():
    """A bus-bearing platform in the default timing mode adds no clock."""
    from repro.platform import PlatformBuilder
    from repro.platform.build import to_scenario

    spec = (
        PlatformBuilder("busy-virtual")
        .bus(words_per_second=5e6)
        .ip("a", workload={"kind": "periodic", "task_count": 4, "cycles": 20000,
                           "idle_us": 100.0}, bus_words_per_task=64)
        .ip("b", workload={"kind": "periodic", "task_count": 4, "cycles": 10000,
                           "idle_us": 80.0}, priority=2, bus_words_per_task=128)
        .max_time_ms(50)
        .build()
    )
    scenario = to_scenario(spec)
    config = scenario.build_config()
    simulator = Simulator(name=config.name)
    soc = build_soc(scenario.build_specs(), config, DpmSetup.paper(), simulator=simulator)
    soc.run_until_done(max_time=scenario.max_time)
    assert soc.bus is not None
    assert soc.bus.stats.transfer_count > 0
    assert soc.bus.clock is None
    assert _materialised_clocks(simulator) == []


def test_cycle_accurate_bus_keeps_even_its_own_clock_virtual():
    """Batched posedge arbitration: the CA bus owns a clock, but the clock's
    edge schedule is used analytically — nothing materialises it, so the
    whole platform stays on the virtual-clock fast path."""
    from repro.platform import PlatformBuilder
    from repro.platform.build import to_scenario

    spec = (
        PlatformBuilder("busy-accurate")
        .bus(words_per_second=5e6, timing="cycle_accurate", words_per_cycle=4)
        .ip("a", workload={"kind": "periodic", "task_count": 4, "cycles": 20000,
                           "idle_us": 100.0}, bus_words_per_task=64)
        .ip("b", workload={"kind": "periodic", "task_count": 4, "cycles": 10000,
                           "idle_us": 80.0}, priority=2, bus_words_per_task=128)
        .max_time_ms(50)
        .build()
    )
    scenario = to_scenario(spec)
    config = scenario.build_config()
    simulator = Simulator(name=config.name)
    soc = build_soc(scenario.build_specs(), config, DpmSetup.paper(), simulator=simulator)
    soc.run_until_done(max_time=scenario.max_time)
    assert soc.bus.stats.transfer_count > 0
    assert soc.bus.clock is not None
    assert not soc.bus.clock.is_materialized
    assert _materialised_clocks(simulator) == []


@pytest.mark.parametrize("scenario_name", ["A1", "B"])
def test_virtual_and_materialised_clocks_give_identical_results(scenario_name):
    """A materialised clock adds edges and activations but must not change
    any energy or timing result of the run."""
    soc_v, clock_v, end_v = _run_soc(scenario_name, with_materialised_clock=False)
    soc_m, clock_m, end_m = _run_soc(scenario_name, with_materialised_clock=True)

    assert not clock_v.is_materialized
    assert clock_m.is_materialized
    # The materialised clock really toggled.
    assert clock_m.out.change_count > 0

    assert end_v == end_m
    assert clock_v.cycle_count == clock_m.cycle_count
    assert soc_v.total_energy_j().hex() == soc_m.total_energy_j().hex()
    assert soc_v.thermal.average_rise_c.hex() == soc_m.thermal.average_rise_c.hex()
    assert soc_v.thermal.peak_c.hex() == soc_m.thermal.peak_c.hex()
    assert soc_v.battery.remaining_j.hex() == soc_m.battery.remaining_j.hex()
    for instance_v, instance_m in zip(soc_v.instances, soc_m.instances):
        assert instance_v.ip.energy_account.total_j.hex() == instance_m.ip.energy_account.total_j.hex()
        assert instance_v.ip.tasks_executed == instance_m.ip.tasks_executed
        assert instance_v.psm.transition_count == instance_m.psm.transition_count
        for exec_v, exec_m in zip(instance_v.ip.executions, instance_m.ip.executions):
            assert exec_v.request_time == exec_m.request_time
            assert exec_v.grant_time == exec_m.grant_time
            assert exec_v.completion_time == exec_m.completion_time
            assert exec_v.energy_j.hex() == exec_m.energy_j.hex()
