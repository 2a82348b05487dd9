"""Work budgets: the kernel statistics of the six Table 2 rows, pinned exactly.

Each row runs twice, under the paper DPM and under the always-on baseline,
and every counter of ``KernelStatistics.as_dict()`` must equal its budget.
The counters are deterministic, so this is the noise-free check on how much
work a run does: a change that adds work fails here, and a change that
removes work lowers the budget and records the before and after figures in
CHANGES.md.  Running this file as a script prints the current counters in
the shape of ``BUDGETS``::

    PYTHONPATH=src python tests/experiments/test_work_budget.py
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
    "A1/dpm": (367, 284, 245, 40, 79, 7, 4, 244),
    "A1/baseline": (244, 161, 161, 40, 0, 7, 4, 160),
    "A2/dpm": (429, 346, 306, 40, 80, 7, 4, 305),
    "A2/baseline": (244, 161, 161, 40, 0, 7, 4, 160),
    "A3/dpm": (367, 284, 245, 40, 79, 7, 4, 244),
    "A3/baseline": (244, 161, 161, 40, 1, 7, 4, 160),
    "A4/dpm": (429, 346, 306, 40, 80, 7, 4, 305),
    "A4/baseline": (244, 161, 161, 40, 1, 7, 4, 160),
    "B/dpm": (964, 658, 665, 225, 188, 33, 15, 568),
    "B/baseline": (703, 419, 469, 218, 58, 27, 15, 391),
    "C/dpm": (974, 665, 673, 225, 194, 35, 15, 576),
    "C/baseline": (651, 371, 429, 227, 34, 26, 15, 356),
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


if __name__ == "__main__":
    # Print the current counters as a BUDGETS literal, to paste above after
    # a change that removes work.
    print("BUDGETS = {")
    for case in BUDGETS:
        row, kind = case.split("/")
        stats = run_scenario(row, SETUPS[kind](), trace=False).soc.simulator.kernel.stats
        print(f'    "{case}": {tuple(stats.as_dict()[name] for name in FIELDS)},')
    print("}")
