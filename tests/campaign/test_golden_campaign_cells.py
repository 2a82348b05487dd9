"""Golden results for the campaign's ``single_ip``/``multi_ip`` cells.

``scenario_metrics.json`` pins the six paper rows as ``run_comparison``
sees them by name.  A campaign reaches the same rows another way: it
compiles each normalised entry with ``build_scenario(entry, seed=...)``,
where a grid seed re-seeds the workloads (``seed`` for the single IP,
``seed + 1 .. seed + 4`` for the four IPs of B and C) and an override
may change ``task_count``.  This file pins that path bit for bit for
every paper row and both inline entries of
``examples/specs/paper_grid.json``, with seed ``None`` and ``5`` and with
the default and an overridden ``task_count``, under the paper setup.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/campaign/test_golden_campaign_cells.py
"""

import json
from pathlib import Path

import pytest

from repro.campaign import PAPER_SCENARIO_DEFS, build_scenario, normalize_scenario
from repro.dpm import DpmSetup
from repro.experiments import run_comparison

ROOT = Path(__file__).parent.parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "campaign_cells.json"
GRID_PATH = ROOT / "examples" / "specs" / "paper_grid.json"

#: ScenarioMetrics float fields pinned as hex (wall-clock figures excluded).
FLOAT_FIELDS = (
    "energy_saving_pct",
    "temperature_reduction_pct",
    "average_delay_overhead_pct",
    "dpm_energy_j",
    "baseline_energy_j",
    "dpm_average_rise_c",
    "baseline_average_rise_c",
    "dpm_peak_c",
    "baseline_peak_c",
    "simulated_time_s",
)
SEEDS = (None, 5)
TASK_COUNTS = (None, 8)


def _entries():
    with open(GRID_PATH, "r", encoding="utf-8") as handle:
        grid = json.load(handle)
    inline = [entry for entry in grid["scenarios"] if isinstance(entry, dict)]
    entries = [dict(entry) for entry in PAPER_SCENARIO_DEFS.values()] + inline
    return {entry["name"]: entry for entry in entries}


ENTRIES = _entries()


def _key(name, seed, task_count):
    seed_part = "-" if seed is None else seed
    count_part = "default" if task_count is None else task_count
    return f"{name}/seed={seed_part}/tasks={count_part}"


def _cases():
    return [
        (name, seed, task_count)
        for name in ENTRIES for seed in SEEDS for task_count in TASK_COUNTS
    ]


def snapshot(name, seed, task_count):
    """The pinned figures of one cell, as plain JSON data."""
    entry = dict(ENTRIES[name])
    if task_count is not None:
        entry["task_count"] = task_count
    metrics = run_comparison(
        build_scenario(normalize_scenario(entry), seed=seed), DpmSetup.paper()
    )
    figures = {field: getattr(metrics, field).hex() for field in FLOAT_FIELDS}
    figures["tasks_executed"] = metrics.tasks_executed
    figures["per_ip"] = {
        ip: {key: value.hex() for key, value in sorted(stats.items())}
        for ip, stats in sorted(metrics.per_ip.items())
    }
    return figures


def test_golden_covers_every_cell():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("name,seed,task_count", _cases())
def test_campaign_cell_bit_identical_to_golden(name, seed, task_count):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)[_key(name, seed, task_count)]
    assert snapshot(name, seed, task_count) == golden


if __name__ == "__main__":
    recorded = {_key(*case): snapshot(*case) for case in _cases()}
    # One cell per line keeps the file diffable without bloating it.
    lines = [
        f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}"
        for key in sorted(recorded)
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} cells to {GOLDEN_PATH}")
