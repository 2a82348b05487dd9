"""Golden-result tests for the event-driven fast path.

The kernel/time refactor (integer-femtosecond hot path) is a pure speed
change: all six paper scenarios must produce *bit-identical*
``ScenarioMetrics`` to the recorded goldens (A1 and B date from before the
refactor; A2-A4 and C pin the same contract for the remaining rows).  Only
a cycle-accurate bus holds a clock, and it runs nothing per cycle.
"""

import json
from pathlib import Path

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_comparison, scenario_by_name
from repro.sim import Simulator, sec
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


@pytest.mark.parametrize("scenario_name", ["A1", "A2", "A3", "A4", "B", "C"])
def test_default_scenarios_hold_no_clock(scenario_name):
    """No paper scenario has a cycle-accurate bus, so none holds a clock."""
    scenario = scenario_by_name(scenario_name)
    config = scenario.build_config()
    simulator = Simulator(name=config.name)
    soc = build_soc(scenario.build_specs(), config, DpmSetup.paper(), simulator=simulator)
    soc.run_until_done(max_time=scenario.max_time)
    assert soc.bus is None or soc.bus.clock is None


def test_event_driven_bus_holds_no_clock():
    """A bus-bearing platform in the default timing mode holds no clock."""
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


def test_cycle_accurate_bus_grants_on_its_clock_grid():
    """Batched posedge arbitration: the CA bus holds a clock of period
    ``words_per_cycle / words_per_second`` and every transfer it moves
    spans whole periods of it."""
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
    assert soc.bus.clock.period == sec(4 / 5e6)
    assert soc.bus.stats.busy_time % int(soc.bus.clock.period) == 0
