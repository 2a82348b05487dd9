"""No state leaks from one run to the next within a process.

The power models and the Table 1 rows are built once per process and shared
by every SoC (see :mod:`repro.power.model`); the PSM, LEM and GEM state and
the rule hit counts stay per run.  If a shared object kept a per-run value,
a run would depend on the runs before it.  This test runs the six Table 2
rows forward and then in reverse, interleaved with two library-platform
runs, all in one process, and requires every run to match its golden record
bit for bit.
"""

import json

from test_golden_fastpath import GOLDEN_PATH as SCENARIO_GOLDEN_PATH
from test_golden_fastpath import _FLOAT_FIELDS
from test_golden_platforms import GOLDEN_PATH as PLATFORM_GOLDEN_PATH
from test_golden_platforms import snapshot

from repro.dpm import DpmSetup
from repro.experiments import run_comparison, scenario_by_name

ROWS = ("A1", "A2", "A3", "A4", "B", "C")
#: a bus-bearing platform under the paper policy, and the oracle's idle hints
PLATFORM_CASES = (("phone-bursty", "paper"), ("iot-duty-cycle", "oracle"))


def _row_figures(name):
    metrics = run_comparison(scenario_by_name(name), DpmSetup.paper())
    figures = {field: getattr(metrics, field).hex() for field in _FLOAT_FIELDS}
    figures["tasks_executed"] = metrics.tasks_executed
    figures["per_ip"] = {
        ip_name: {
            key: value.hex() if isinstance(value, float) else value
            for key, value in per_ip.items()
        }
        for ip_name, per_ip in metrics.per_ip.items()
    }
    return figures


def _golden_row(golden, name):
    row = golden[name]
    figures = {field: row[field] for field in _FLOAT_FIELDS}
    figures["tasks_executed"] = row["tasks_executed"]
    figures["per_ip"] = row["per_ip"]
    return figures


def test_runs_do_not_depend_on_earlier_runs():
    with open(SCENARIO_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        scenario_golden = json.load(handle)
    with open(PLATFORM_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        platform_golden = json.load(handle)
    first, second = PLATFORM_CASES
    sequence = (
        list(ROWS[:3]) + [first] + list(ROWS[3:]) + [second]
        + list(reversed(ROWS[3:])) + [first] + list(reversed(ROWS[:3])) + [second]
    )
    drifted = []
    for position, item in enumerate(sequence):
        if isinstance(item, tuple):
            platform, setup = item
            got = snapshot(platform, setup)
            want = platform_golden[f"{platform}/{setup}"]
        else:
            got = _row_figures(item)
            want = _golden_row(scenario_golden, item)
        if got != want:
            drifted.append(f"run {position}: {item}")
    assert not drifted, f"runs drifted from their goldens: {drifted}"
