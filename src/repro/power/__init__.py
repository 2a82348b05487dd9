"""Power modelling substrate: states, DVFS, characterisation, transitions,
break-even analysis, energy accounting and the Power State Machine."""

from repro.power.breakeven import BreakEvenAnalyzer, BreakEvenEntry, break_even_time
from repro.power.characterization import (
    DEFAULT_ACTIVITY,
    InstructionClass,
    PowerCharacterization,
    default_characterization,
)
from repro.power.energy import EnergyAccount, EnergyCategory, EnergyLedger
from repro.power.model import PowerModel, default_power_model, scaled_transition_table
from repro.power.operating_point import (
    OperatingPoint,
    OperatingPointTable,
    default_operating_points,
)
from repro.power.psm import PowerStateMachine
from repro.power.states import ALL_STATES, ON_STATES, SLEEP_STATES, PowerState
from repro.power.transitions import TransitionCost, TransitionTable, default_transition_table

__all__ = [
    "ALL_STATES",
    "BreakEvenAnalyzer",
    "BreakEvenEntry",
    "DEFAULT_ACTIVITY",
    "EnergyAccount",
    "EnergyCategory",
    "EnergyLedger",
    "InstructionClass",
    "ON_STATES",
    "OperatingPoint",
    "OperatingPointTable",
    "PowerCharacterization",
    "PowerModel",
    "PowerState",
    "PowerStateMachine",
    "SLEEP_STATES",
    "TransitionCost",
    "TransitionTable",
    "break_even_time",
    "default_characterization",
    "default_operating_points",
    "default_power_model",
    "default_transition_table",
    "scaled_transition_table",
]
