"""Golden results for the library platforms under every CLI setup.

The paper goldens (``scenario_metrics.json``) only exercise the ``paper``
setup.  This file pins the four library platforms under each of the five
CLI setups, which reaches the GEM, the shared bus, timeout-driven idling
and the oracle's idle hints.  Every figure is compared bit for bit: event
times in femtoseconds, floats as hex.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/experiments/test_golden_platforms.py
"""

import json
from pathlib import Path

import pytest

from repro.cli import _SETUPS
from repro.experiments import run_scenario
from repro.platform.library import library_platforms

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "platform_metrics.json"

PLATFORMS = {spec.name: spec for spec in library_platforms()}


def snapshot(platform_name, setup_name):
    """The pinned figures of one run, as plain JSON data."""
    return figures(
        run_scenario(PLATFORMS[platform_name], _SETUPS[setup_name](), trace=False)
    )


def figures(run):
    """Event times, transition counts, residencies and end figures of ``run``."""
    per_ip = {}
    for instance in run.soc.instances:
        executions = instance.ip.executions
        per_ip[instance.spec.name] = {
            "grant_fs": [int(record.grant_time) for record in executions],
            "completion_fs": [int(record.completion_time) for record in executions],
            "transition_counts": dict(sorted(instance.psm.transition_counts.items())),
            "residency_fs": {
                str(state): int(spent)
                for state, spent in instance.psm.residency().items()
            },
        }
    return {
        "end_time_fs": int(run.end_time),
        "total_energy_j": run.total_energy_j.hex(),
        "average_rise_c": run.average_rise_c.hex(),
        "peak_temperature_c": run.peak_temperature_c.hex(),
        "per_ip": per_ip,
    }


def _cases():
    return [(platform, setup) for platform in PLATFORMS for setup in _SETUPS]


def test_golden_covers_every_platform_and_setup():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(f"{p}/{s}" for p, s in _cases())


@pytest.mark.parametrize("platform_name,setup_name", _cases())
def test_platform_run_bit_identical_to_golden(platform_name, setup_name):
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)[f"{platform_name}/{setup_name}"]
    assert snapshot(platform_name, setup_name) == golden


if __name__ == "__main__":
    recorded = {f"{p}/{s}": snapshot(p, s) for p, s in _cases()}
    # One run per line keeps the file diffable without bloating it.
    lines = [
        f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}"
        for key in sorted(recorded)
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} runs to {GOLDEN_PATH}")
