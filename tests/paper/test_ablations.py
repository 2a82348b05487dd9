"""Ablations and sweeps around the paper's design, checked for their shape.

* The paper's rule-based DPM against simpler policies on the A1 and A2
  conditions: Table 1 DVFS selection and break-even-gated shutdown are the
  two design choices worth separating.
* The idle-time predictors under the paper's policy on bursty traffic: the
  paper only says the LEM "makes a prediction of the idle time".
* The battery condition sweep that generalises rows A1-A4: the emptier the
  battery, the more energy the DPM saves and the more delay it accepts.
"""

from repro.dpm import DpmSetup
from repro.experiments import condition_sweep, run_comparison
from repro.platform import (
    BatteryDef,
    GemDef,
    IpDef,
    PlatformSpec,
    ThermalDef,
    WorkloadDef,
    single_ip_platform,
)
from repro.sim import ms

PREDICTOR_KINDS = ("fixed", "last-value", "ewma", "adaptive")


def policy_ablation(battery):
    """Every policy against the always-on baseline, battery ``battery``."""
    spec = single_ip_platform(f"ablation-{battery}", battery, "low", task_count=24)
    setups = [
        DpmSetup.always_on(),
        DpmSetup.fixed_timeout(ms(2)),
        DpmSetup.greedy_sleep(),
        DpmSetup.oracle(),
        DpmSetup.paper(),
    ]
    return {setup.name: run_comparison(spec, dpm=setup) for setup in setups}


def test_policy_ablation_full_battery():
    """With a full battery the shutdown half dominates the saving."""
    results = policy_ablation("full")
    assert abs(results["always-on"].energy_saving_pct) < 2.0
    assert results["greedy-sleep"].energy_saving_pct > 10.0
    assert results["paper"].energy_saving_pct > results["always-on"].energy_saving_pct + 20.0
    # The timeout policy wastes the timeout interval at idle power, so the
    # prediction-based policies must not save less than it.
    assert (results["greedy-sleep"].energy_saving_pct
            >= results["fixed-timeout"].energy_saving_pct - 3.0)


def test_policy_ablation_low_battery():
    """With a low battery only the paper's policy can trade speed for energy."""
    results = policy_ablation("low")
    paper = results["paper"]
    best_shutdown_only = max(
        results[name].energy_saving_pct for name in ("greedy-sleep", "oracle", "fixed-timeout")
    )
    assert paper.energy_saving_pct > best_shutdown_only + 5.0
    assert paper.average_delay_overhead_pct > results["greedy-sleep"].average_delay_overhead_pct


def bursty_platform():
    """One IP with short intra-burst gaps and long inter-burst pauses."""
    return PlatformSpec(
        name="bursty",
        description="bursty traffic for predictor ablation",
        ips=[IpDef(name="ip1",
                   workload=WorkloadDef(kind="bursty", burst_count=6, tasks_per_burst=6))],
        battery=BatteryDef(condition="full"),
        thermal=ThermalDef(condition="low"),
        gem=GemDef(enabled=False),
    )


def test_predictor_ablation_bursty_traffic():
    spec = bursty_platform()
    results = {
        kind: run_comparison(spec, dpm=DpmSetup.with_predictor(kind))
        for kind in PREDICTOR_KINDS
    }
    results["oracle"] = run_comparison(spec, dpm=DpmSetup.oracle())
    # No predictor may make things worse than the always-on reference...
    for name, metrics in results.items():
        assert metrics.energy_saving_pct > 0.0, name
    # ...the oracle's perfect idle knowledge is the upper bound on saving...
    oracle_saving = results["oracle"].energy_saving_pct
    for name in PREDICTOR_KINDS:
        assert results[name].energy_saving_pct <= oracle_saving + 3.0, name
    # ...and the smoothing EWMA beats the naive last-value predictor on a
    # bursty pattern, where "next idle == previous idle" is exactly wrong.
    assert results["ewma"].energy_saving_pct > results["last-value"].energy_saving_pct


def test_battery_condition_sweep_is_monotone():
    results = condition_sweep(
        battery_levels=("full", "medium", "low"), temperature_levels=("low",), task_count=20
    )
    by_name = {metrics.scenario: metrics for metrics in results}
    full, medium, low = by_name["full/low"], by_name["medium/low"], by_name["low/low"]
    assert full.energy_saving_pct <= medium.energy_saving_pct + 5.0
    assert medium.energy_saving_pct <= low.energy_saving_pct + 5.0
    assert full.average_delay_overhead_pct < low.average_delay_overhead_pct
