"""Golden digests of generated platforms.

The library platforms and paper rows of the other goldens have no OFF
states, custom transition tables or bus masters.  The fuzz generator's
platforms do, so this file pins a fixed set of them: each line of
``generated_platforms.jsonl`` holds one spec (canonical JSON), its
content hash, and a SHA-256 digest of the figures of ``run_scenario(spec)``
in the shape of :func:`test_golden_platforms.figures`.

To re-record after an intended behaviour change (this draws a fresh set
of specs from a fixed Hypothesis seed)::

    PYTHONPATH=src python tests/experiments/test_golden_generated_platforms.py
"""

import hashlib
import json
from pathlib import Path

from test_golden_platforms import figures

from repro.experiments import run_scenario
from repro.platform.serialize import spec_hash
from repro.platform.spec import PlatformSpec

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "generated_platforms.jsonl"

#: how many specs a re-record draws, and from which Hypothesis seed
SPEC_COUNT = 200
SEED = 18


def digest(spec):
    """SHA-256 over the canonical JSON of one run's pinned figures."""
    pinned = figures(run_scenario(spec, trace=False))
    text = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_golden_specs_are_distinct_and_hash_stable():
    entries = _load()
    assert len(entries) == SPEC_COUNT
    hashes = [spec_hash(PlatformSpec.from_dict(entry["spec"])) for entry in entries]
    assert hashes == [entry["spec_hash"] for entry in entries]
    assert len(set(hashes)) == len(hashes)


def test_generated_platform_runs_bit_identical_to_golden():
    mismatches = [
        f"#{index} (spec {entry['spec_hash'][:12]})"
        for index, entry in enumerate(_load())
        if digest(PlatformSpec.from_dict(entry["spec"])) != entry["digest"]
    ]
    assert not mismatches, "runs differ from the golden: " + ", ".join(mismatches)


def _draw_specs():
    from hypothesis import HealthCheck, Phase, given, seed, settings

    from repro.fuzz.strategies import platform_specs

    specs = {}

    @settings(
        max_examples=4 * SPEC_COUNT,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
        phases=(Phase.generate,),
    )
    @seed(SEED)
    @given(spec=platform_specs())
    def collect(spec):
        if len(specs) < SPEC_COUNT:
            specs.setdefault(spec_hash(spec), spec)

    collect()
    if len(specs) < SPEC_COUNT:
        raise RuntimeError(f"drew only {len(specs)} distinct specs")
    return list(specs.values())


if __name__ == "__main__":
    lines = [
        json.dumps(
            {"spec": spec.to_dict(), "spec_hash": spec_hash(spec), "digest": digest(spec)},
            sort_keys=True,
            separators=(",", ":"),
        )
        for spec in _draw_specs()
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} generated platforms to {GOLDEN_PATH}")
