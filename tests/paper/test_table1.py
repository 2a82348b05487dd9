"""Table 1 of the paper: the power-state selection algorithm, row by row."""

from repro.dpm import BatteryLevel, RuleContext, TaskPriority, TemperatureLevel, paper_rule_table
from repro.power import PowerState

P = TaskPriority
B = BatteryLevel
T = TemperatureLevel
S = PowerState

#: (priority, battery, temperature) -> selected state, one entry per Table-1 row.
TABLE1_SPOT_CHECKS = [
    ((P.VERY_HIGH, B.EMPTY, T.LOW), S.ON4),       # row 1
    ((P.VERY_HIGH, B.FULL, T.HIGH), S.ON4),       # row 2
    ((P.MEDIUM, B.EMPTY, T.LOW), S.SL1),          # row 3
    ((P.LOW, B.MEDIUM, T.HIGH), S.SL1),           # row 4
    ((P.HIGH, B.LOW, T.LOW), S.ON4),              # row 5
    ((P.VERY_HIGH, B.MEDIUM, T.LOW), S.ON1),      # row 7
    ((P.HIGH, B.MEDIUM, T.LOW), S.ON2),           # row 8
    ((P.MEDIUM, B.HIGH, T.LOW), S.ON3),           # row 9
    ((P.LOW, B.MEDIUM, T.LOW), S.ON4),            # row 10
    ((P.HIGH, B.FULL, T.LOW), S.ON1),             # row 11
    ((P.LOW, B.FULL, T.LOW), S.ON2),              # row 12
    ((P.MEDIUM, B.AC_POWER, T.LOW), S.ON1),       # row 13
]


def test_table1_selection_reproduces_the_printed_rows():
    """Every input of the cross product selects a state, and the printed
    rows select the paper's states."""
    table = paper_rule_table()
    contexts = [
        RuleContext(priority, battery, temperature)
        for priority in TaskPriority
        for battery in BatteryLevel
        for temperature in TemperatureLevel
    ]
    assert len([table.select(context) for context in contexts]) == len(contexts)
    for (priority, battery, temperature), expected in TABLE1_SPOT_CHECKS:
        assert table.select_levels(priority, battery, temperature) is expected


def test_table1_is_total():
    """No (priority, battery, temperature) input falls through the table."""
    assert paper_rule_table().uncovered_contexts() == []
