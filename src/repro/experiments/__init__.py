"""Experiment catalogue and runners reproducing the paper's evaluation."""

from repro.experiments.differential import (
    ALL_ORACLES,
    DifferentialResult,
    OracleVerdict,
    run_differential,
)
from repro.experiments.lint_crosscheck import (
    CrosscheckResult,
    crosscheck_paper_platforms,
    crosscheck_scenario,
    decision_contexts,
)
from repro.experiments.runner import (
    BaselineFigures,
    RunArtifacts,
    run_baseline,
    run_comparison,
    run_scenario,
)
from repro.experiments.scenarios import (
    Scenario,
    battery_condition,
    paper_scenarios,
    scenario_a_workload,
    scenario_by_name,
    thermal_condition,
)
from repro.experiments.sweep import condition_sweep, policy_ablation, predictor_ablation
from repro.experiments.table2 import (
    reproduce_table2,
    simulation_speed,
    simulation_speed_report,
    table2_report,
)

__all__ = [
    "ALL_ORACLES",
    "BaselineFigures",
    "CrosscheckResult",
    "DifferentialResult",
    "OracleVerdict",
    "RunArtifacts",
    "Scenario",
    "battery_condition",
    "condition_sweep",
    "crosscheck_paper_platforms",
    "crosscheck_scenario",
    "decision_contexts",
    "paper_scenarios",
    "policy_ablation",
    "predictor_ablation",
    "reproduce_table2",
    "run_baseline",
    "run_comparison",
    "run_differential",
    "run_scenario",
    "scenario_a_workload",
    "scenario_by_name",
    "simulation_speed",
    "simulation_speed_report",
    "table2_report",
    "thermal_condition",
]
