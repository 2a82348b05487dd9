"""Work budgets: the kernel statistics of the six Table 2 rows, pinned exactly.

Each row runs twice, under the paper DPM and under the always-on baseline,
and every counter of ``KernelStatistics.as_dict()`` must equal its budget.
The counters are deterministic, so this is the noise-free check on how much
work a run does: a change that adds work fails here, and a change that
removes work lowers the budget and records the before and after figures in
CHANGES.md.
"""

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_scenario

FIELDS = (
    "process_activations",
    "delta_cycles",
    "timed_notifications",
    "immediate_notifications",
    "signal_updates",
    "events_created",
    "processes_created",
    "time_advances",
)

SETUPS = {"dpm": DpmSetup.paper, "baseline": DpmSetup.always_on}

#: one tuple per run, in FIELDS order
BUDGETS = {
    "A1/dpm": (408, 284, 245, 120, 79, 9, 5, 244),
    "A1/baseline": (285, 161, 161, 120, 0, 9, 5, 160),
    "A2/dpm": (470, 346, 306, 120, 80, 9, 5, 305),
    "A2/baseline": (285, 161, 161, 120, 0, 9, 5, 160),
    "A3/dpm": (408, 284, 245, 120, 79, 9, 5, 244),
    "A3/baseline": (285, 161, 161, 120, 1, 9, 5, 160),
    "A4/dpm": (470, 346, 306, 120, 80, 9, 5, 305),
    "A4/baseline": (285, 161, 161, 120, 1, 9, 5, 160),
    "B/dpm": (1064, 658, 665, 417, 188, 41, 19, 568),
    "B/baseline": (803, 419, 469, 410, 58, 35, 19, 391),
    "C/dpm": (1074, 665, 673, 417, 194, 43, 19, 576),
    "C/baseline": (751, 371, 429, 419, 34, 34, 19, 356),
}


def test_budgets_cover_every_row_and_both_setups():
    rows = ("A1", "A2", "A3", "A4", "B", "C")
    assert sorted(BUDGETS) == sorted(f"{row}/{kind}" for row in rows for kind in SETUPS)


@pytest.mark.parametrize("case", sorted(BUDGETS))
def test_kernel_statistics_match_work_budget(case):
    row, kind = case.split("/")
    run = run_scenario(row, SETUPS[kind](), trace=False)
    stats = run.soc.simulator.kernel.stats.as_dict()
    assert stats == dict(zip(FIELDS, BUDGETS[case]))
