"""Golden digests of the battery and temperature sample histories.

The metric goldens pin what a run ends with; this file pins every sample
the SoC took on the way: each ``(time, value)`` pair of
``battery_monitor.history`` and ``temperature_sensor.history``, as the
femtosecond count and the float's hex, folded into one SHA-256 digest per
history.  It covers the six Table 2 rows (DPM and baseline runs) and the
four library platforms under each of the five CLI setups.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/experiments/test_golden_sample_histories.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import _SETUPS
from repro.dpm import DpmSetup
from repro.experiments import run_scenario
from repro.platform.library import library_platforms

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "sample_histories.json"

ROWS = ("A1", "A2", "A3", "A4", "B", "C")
ROW_SETUPS = {"dpm": DpmSetup.paper, "baseline": DpmSetup.always_on}
PLATFORMS = {spec.name: spec for spec in library_platforms()}


def digest(history):
    """SHA-256 over one ``femtoseconds value.hex()`` line per sample."""
    lines = "".join(f"{int(time)} {value.hex()}\n" for time, value in history)
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


def snapshot(scenario, setup):
    """The pinned digests of one run, as plain JSON data."""
    soc = run_scenario(scenario, setup, trace=False).soc
    battery = soc.battery_monitor.history
    temperature = soc.temperature_sensor.history
    return {
        "samples": len(battery),
        "battery": digest(battery),
        "temperature": digest(temperature),
    }


def _cases():
    rows = [(row, kind) for row in ROWS for kind in ROW_SETUPS]
    platforms = [(platform, setup) for platform in PLATFORMS for setup in _SETUPS]
    return rows + platforms


def _run(name, setup_name):
    if name in ROWS:
        return snapshot(name, ROW_SETUPS[setup_name]())
    return snapshot(PLATFORMS[name], _SETUPS[setup_name]())


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_row_and_platform_setup():
    assert sorted(_load_golden()) == sorted(f"{n}/{s}" for n, s in _cases())


def test_digest_folds_time_and_value_bits():
    history = [(5, 0.5), (10, 0.25)]
    assert digest(history) != digest([(5, 0.5), (11, 0.25)])
    assert digest(history) != digest([(5, 0.5), (10, 0.25 + 2.0**-54)])


@pytest.mark.parametrize("name,setup_name", _cases())
def test_sample_histories_bit_identical_to_golden(name, setup_name):
    assert _run(name, setup_name) == _load_golden()[f"{name}/{setup_name}"]


if __name__ == "__main__":
    recorded = {f"{n}/{s}": _run(n, s) for n, s in _cases()}
    lines = [
        f"{json.dumps(key)}: {json.dumps(recorded[key], sort_keys=True)}"
        for key in sorted(recorded)
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} runs to {GOLDEN_PATH}")
