#!/usr/bin/env python3
"""Retargeting the architecture to a custom IP: own DVFS table, own rules.

The paper stresses that "the complexity and the flexibility of the power
management are left to the LEM, whose parameters can be adapted to the
single IP to optimize its performances".  This example shows that workflow:

1. characterise a custom IP (different voltage/frequency points, a larger
   effective capacitance, slower sleep transitions),
2. write an application-specific rule table (a media accelerator that never
   drops below ON2 for high-priority frames),
3. drive the IP with service requests through a channel (request-driven mode
   instead of a pre-baked workload),
4. inspect the resulting break-even times, decisions and energy breakdown.

Run with::

    python examples/custom_ip_and_rules.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.dpm import (
    BatteryLevel,
    DpmSetup,
    Rule,
    RuleBasedPolicy,
    RuleTable,
    TaskPriority,
    TemperatureLevel,
)
from repro.power import (
    OperatingPoint,
    OperatingPointTable,
    PowerCharacterization,
    PowerModel,
    PowerState,
)
from repro.sim import sec, us
from repro.soc import IpSpec, SocConfig, build_soc, bursty_workload

P, B, T, S = TaskPriority, BatteryLevel, TemperatureLevel, PowerState


def media_accelerator_characterization() -> PowerCharacterization:
    """A hungry media accelerator: 400 MHz at 1.3 V, milder DVFS ladder."""
    points = OperatingPointTable(
        [
            OperatingPoint(S.ON1, voltage_v=1.30, frequency_hz=400e6),
            OperatingPoint(S.ON2, voltage_v=1.15, frequency_hz=320e6),
            OperatingPoint(S.ON3, voltage_v=1.00, frequency_hz=240e6),
            OperatingPoint(S.ON4, voltage_v=0.90, frequency_hz=160e6),
        ]
    )
    return PowerCharacterization(
        operating_points=points,
        effective_capacitance_f=1.6e-9,
        idle_activity=0.40,
    )


def media_rule_table() -> RuleTable:
    """Frames must not starve: high priority never drops below ON2."""
    return RuleTable(
        [
            Rule.of(S.ON1, [P.VERY_HIGH], None, None, label="frames-on-time"),
            Rule.of(S.ON2, [P.HIGH], None, None, label="frames-almost-on-time"),
            Rule.of(S.SL1, None, [B.EMPTY], None, label="save-the-battery"),
            Rule.of(S.ON4, None, [B.LOW], None, label="stretch-the-battery"),
            Rule.of(S.ON3, [P.MEDIUM], None, None, label="background"),
            Rule.of(S.ON4, None, None, None, label="default"),
        ],
        name="media-accelerator",
    )


def main() -> None:
    # The default transition table, scaled to this IP's ON1 power, and the
    # break-even analysis the LEM will use are derived once, here.
    power = PowerModel.build(characterization=media_accelerator_characterization())

    print("Break-even times of the custom IP (who is worth sleeping for?):")
    rows = [
        [str(entry.state),
         f"{entry.round_trip_latency.seconds * 1e6:.0f}",
         f"{entry.round_trip_energy_j * 1e6:.1f}",
         "-" if entry.break_even is None else f"{entry.break_even.seconds * 1e6:.0f}"]
        for entry in power.breakeven.entries
    ]
    print(format_table(["state", "round trip (us)", "round trip (uJ)", "break-even (us)"], rows))

    custom_rules = media_rule_table()
    print("\nCustom rule table:")
    print(custom_rules.describe())
    print(f"covers every input: {custom_rules.is_total()}")

    setup = DpmSetup(
        name="media-dpm",
        policy_factory=lambda: RuleBasedPolicy(rules=media_rule_table(), allow_off=False),
    )

    workload = bursty_workload(
        burst_count=8,
        tasks_per_burst=5,
        seed=9,
        priorities=(P.VERY_HIGH, P.HIGH, P.MEDIUM, P.LOW),
        name="frames",
    )
    spec = IpSpec(name="media", workload=workload, power=power)
    soc = build_soc([spec], SocConfig(name="media_soc"), setup)
    end_time = soc.run_until_done(max_time=sec(5))

    instance = soc.instance("media")
    print(f"\nSimulated {end_time}: {instance.ip.tasks_executed} frames processed")
    print("Energy breakdown (mJ):")
    for category, energy in sorted(instance.ip.energy_account.breakdown.items()):
        print(f"  {category:>10}: {1e3 * energy:.3f}")

    by_state: dict = {}
    for decision in instance.lem.decisions:
        by_state[decision.selected_state] = by_state.get(decision.selected_state, 0) + 1
    print("\nLEM decisions by selected state:")
    for state, count in sorted(by_state.items(), key=lambda item: str(item[0])):
        print(f"  {state}: {count}")

    overheads = [e.delay_overhead for e in instance.ip.executions
                 if e.task.priority in (P.VERY_HIGH, P.HIGH)]
    print(f"\nMean delay overhead of high-priority frames: "
          f"{100.0 * sum(overheads) / len(overheads):.1f} % "
          "(the custom rules keep them fast regardless of the battery)")


if __name__ == "__main__":
    main()
