"""No state leaks from one run to the next within a process.

The power models and the Table 1 rows are built once per process and shared
by every SoC (see :mod:`repro.power.model`); the PSM, LEM and GEM state and
the rule hit counts stay per run.  If a shared object kept a per-run value,
a run would depend on the runs before it.  This test runs the six Table 2
rows forward and then in reverse, interleaved with two library-platform
runs, all in one process, and requires every run to match its golden record
bit for bit.

Workloads are built once per ``(definition, seed)`` and shared by every run
that uses them (see :func:`repro.platform.build.build_workload`), so a
second test interleaves one platform under two seeds and two setups and
requires each comparison to match the same comparison run alone in a fresh
process.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_golden_fastpath import GOLDEN_PATH as SCENARIO_GOLDEN_PATH
from test_golden_fastpath import _FLOAT_FIELDS
from test_golden_platforms import GOLDEN_PATH as PLATFORM_GOLDEN_PATH
from test_golden_platforms import snapshot

import repro
from repro.cli import _SETUPS
from repro.dpm import DpmSetup
from repro.experiments import run_comparison, scenario_by_name
from repro.platform import platform_by_name, to_scenario

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


#: one library platform whose two IPs both draw seeded random workloads
SEEDED_PLATFORM = "server-diurnal"
SEEDED_CASES = ((3, "paper"), (4, "greedy-sleep"), (3, "greedy-sleep"), (4, "paper"))
#: the comparison's host-time fields; everything else is deterministic
_TIMING_FIELDS = ("wall_clock_s", "kilocycles_per_second")


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    return value


def seeded_figures(seed, setup):
    """Every deterministic figure of one comparison of :data:`SEEDED_PLATFORM`."""
    metrics = run_comparison(
        to_scenario(platform_by_name(SEEDED_PLATFORM), seed), _SETUPS[setup]()
    )
    figures = dict(vars(metrics))
    for name in _TIMING_FIELDS:
        del figures[name]
    return _exact(figures)


def _isolated_figures(cases):
    """:func:`seeded_figures` of each case, each alone in a fresh interpreter."""
    paths = [str(Path(__file__).parent), str(Path(repro.__file__).parent.parent)]
    script = (
        "import json, sys; sys.path[:0] = json.loads(sys.argv[1]); "
        "from test_no_state_leak import seeded_figures; "
        "print(json.dumps(seeded_figures(int(sys.argv[2]), sys.argv[3])))"
    )
    children = {
        case: subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(paths), str(case[0]), case[1]],
            stdout=subprocess.PIPE, text=True,
        )
        for case in cases
    }
    figures = {}
    try:
        for case, child in children.items():
            output, _ = child.communicate(timeout=600)  # a hang guard, not a speed bound
            assert child.returncode == 0, f"isolated run {case} failed"
            figures[case] = json.loads(output)
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return figures


def test_shared_workloads_match_isolated_runs():
    isolated = _isolated_figures(SEEDED_CASES)
    assert isolated[(3, "paper")] != isolated[(4, "paper")]  # the seed matters
    sequence = SEEDED_CASES + tuple(reversed(SEEDED_CASES))
    drifted = [
        f"run {position}: seed {seed} under {setup}"
        for position, (seed, setup) in enumerate(sequence)
        if seeded_figures(seed, setup) != isolated[(seed, setup)]
    ]
    assert not drifted, f"runs drifted from their isolated runs: {drifted}"
