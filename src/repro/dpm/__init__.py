"""The paper's contribution: rule-based dynamic power management.

Contents: the Table-1 rule engine, the Local Energy Manager (LEM), the
Global Energy Manager (GEM), idle-time predictors, baseline policies and the
:class:`~repro.dpm.controller.DpmSetup` configuration facade.
"""

from repro.dpm.controller import DpmSetup
from repro.dpm.gem import GemConfig, GlobalEnergyManager, ResourceView
from repro.dpm.lem import LemConfig, LemDecision, LocalEnergyManager
from repro.dpm.levels import BatteryLevel, BusLevel, RuleContext, TaskPriority, TemperatureLevel
from repro.dpm.policies import (
    AlwaysOnPolicy,
    DpmPolicy,
    FixedTimeoutPolicy,
    GreedySleepPolicy,
    OraclePolicy,
    RuleBasedPolicy,
)
from repro.dpm.predictor import (
    AdaptivePredictor,
    ExponentialAveragePredictor,
    FixedPredictor,
    IdlePredictor,
    LastValuePredictor,
    default_predictor,
)
from repro.dpm.rules import Rule, RuleTable, paper_rule_table

__all__ = [
    "AdaptivePredictor",
    "AlwaysOnPolicy",
    "BatteryLevel",
    "BusLevel",
    "DpmPolicy",
    "DpmSetup",
    "ExponentialAveragePredictor",
    "FixedPredictor",
    "FixedTimeoutPolicy",
    "GemConfig",
    "GlobalEnergyManager",
    "GreedySleepPolicy",
    "IdlePredictor",
    "LastValuePredictor",
    "LemConfig",
    "LemDecision",
    "LocalEnergyManager",
    "OraclePolicy",
    "ResourceView",
    "Rule",
    "RuleBasedPolicy",
    "RuleContext",
    "RuleTable",
    "TaskPriority",
    "TemperatureLevel",
    "default_predictor",
    "paper_rule_table",
]
