"""Golden digests of GEM-gated platforms under limited resources.

The generated-platform golden enables the GEM only with a full or high
battery and no thermal condition, so it never reaches the GEM's
limited-resources branch (only the best priority ranks stay enabled, a
lower rank proceeds while no better rank is waiting) or its
no-IP-enabled branch; rows B and C reach the first only with a low
battery, a cool chip and two enabled ranks.  This file pins both
branches on a grid of four-IP platforms shaped like row B: each cell is
a SHA-256 digest of the figures of one run, in the shape of
:func:`test_golden_platforms.figures`.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/experiments/test_golden_gem_stress.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from test_golden_platforms import figures

from repro.dpm import DpmSetup
from repro.experiments import run_scenario
from repro.platform import multi_ip_platform

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "gem_stress_platforms.json"

#: (battery, temperature) conditions, GEM high-priority counts, setups
CONDITIONS = (("low", "low"), ("low", "high"), ("empty", "low"))
HIGH_PRIORITY_COUNTS = (1, 3)
SETUPS = {"paper": DpmSetup.paper, "always_on": DpmSetup.always_on}


def _cases():
    return [
        (battery, temperature, count, setup)
        for battery, temperature in CONDITIONS
        for count in HIGH_PRIORITY_COUNTS
        for setup in SETUPS
    ]


def _key(battery, temperature, count, setup):
    return f"{battery}/{temperature}/hp{count}/{setup}"


def digest(battery, temperature, count, setup):
    """SHA-256 over the canonical JSON of one cell's pinned figures."""
    spec = multi_ip_platform("gem-stress", battery, temperature, high_activity_ips=(1, 2))
    spec = dataclasses.replace(
        spec, gem=dataclasses.replace(spec.gem, high_priority_count=count)
    )
    pinned = figures(run_scenario(spec, SETUPS[setup](), trace=False))
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_the_grid():
    assert sorted(_load()) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("battery,temperature,count,setup", _cases())
def test_gem_stress_run_bit_identical_to_golden(battery, temperature, count, setup):
    expected = _load()[_key(battery, temperature, count, setup)]
    assert digest(battery, temperature, count, setup) == expected


if __name__ == "__main__":
    recorded = {_key(*case): digest(*case) for case in _cases()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(recorded)} cells to {GOLDEN_PATH}")
