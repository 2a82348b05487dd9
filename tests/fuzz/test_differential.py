"""The differential-oracle harness: verdicts, tolerances, bug detection.

The centrepiece is the injected-bug pair: a PSM that never books its
transition latencies MUST be caught by the structural oracle (and by the
end-to-end fuzz loop, which shrinks and saves the counterexample), while the
unmodified code passes the exact same specs.  A differential harness that cannot see a
planted bug is just an expensive random walk.
"""

from __future__ import annotations

import pytest

from repro.dpm import DpmSetup
from repro.errors import ExperimentError
from repro.experiments import (
    ALL_ORACLES,
    run_differential,
    run_scenario,
)
from repro.experiments.differential import OracleVerdict
from repro.platform import PlatformSpec


def tiny_spec(**overrides) -> PlatformSpec:
    data = {
        "format": "repro-platform/1",
        "name": "tiny",
        "ips": [
            {
                "name": "ip0",
                "workload": {
                    "kind": "random",
                    "task_count": 3,
                    "seed": 5,
                    "cycles_min": 5_000,
                    "cycles_max": 40_000,
                    "idle_min_us": 100.0,
                    "idle_max_us": 1_200.0,
                },
            }
        ],
        "max_time_ms": 200.0,
        "sample_interval_us": 1000.0,
    }
    data.update(overrides)
    return PlatformSpec.from_dict(data)


def bus_spec() -> PlatformSpec:
    return tiny_spec(
        ips=[
            {
                "name": "ip0",
                "workload": {
                    "kind": "periodic",
                    "task_count": 4,
                    "cycles": 20_000,
                    "idle_us": 500.0,
                },
                "bus_words_per_task": 32,
            }
        ],
        bus={
            "enabled": True,
            "words_per_second": 1_000_000.0,
            "timing": "cycle_accurate",
            "words_per_cycle": 4,
        },
    )


class TestRunDifferential:
    def test_all_oracles_pass_on_a_small_platform(self):
        result = run_differential(bus_spec())
        assert result.ok, result.summary()
        assert [v.oracle for v in result.verdicts] == list(ALL_ORACLES)
        statuses = {v.oracle: v.status for v in result.verdicts}
        assert statuses["bus_timing"] == "pass"
        assert statuses["policy"] == "pass"
        assert statuses["structural"] == "pass"

    def test_bus_oracle_skips_without_a_bus(self):
        result = run_differential(tiny_spec(), oracles=["bus_timing"])
        verdict = result.verdict("bus_timing")
        assert verdict.status == "skip"
        assert "no bus" in verdict.detail

    def test_oracle_subset_runs_only_selected(self):
        result = run_differential(tiny_spec(), oracles=["structural"])
        assert [v.oracle for v in result.verdicts] == ["structural"]

    def test_unknown_oracle_name_rejected(self):
        for name in ("nonsense", "exact_vs_fast"):
            with pytest.raises(ExperimentError, match="unknown oracle"):
                run_differential(tiny_spec(), oracles=[name])

    def test_summary_names_every_verdict(self):
        result = run_differential(tiny_spec(), oracles=["structural", "policy"])
        summary = result.summary()
        assert "structural" in summary and "policy" in summary
        assert result.spec_hash[:12] in summary

    def test_spec_policy_is_honoured_by_the_base_run(self):
        spec = tiny_spec(policy={"name": "greedy-sleep"})
        result = run_differential(spec, oracles=["structural"])
        assert result.ok, result.summary()


class TestLintReachOracle:
    def test_decisions_contained_in_static_envelope(self):
        result = run_differential(tiny_spec(), oracles=["lint_reach"])
        assert result.ok, result.summary()
        verdict = result.verdicts[0]
        assert verdict.status == "pass"
        assert "contained" in verdict.detail

    def test_part_of_the_default_oracle_set(self):
        assert "lint_reach" in ALL_ORACLES

    def test_shadowed_custom_rule_never_fires(self):
        from repro.dpm.rules import paper_rule_table

        rules = paper_rule_table().as_dicts()
        rules.append({
            "state": "SL4", "priorities": ["low"], "batteries": ["full"],
            "temperatures": ["low"], "buses": ["high"], "label": "dead",
        })
        spec = tiny_spec(policy={"name": "paper", "rules": rules})
        result = run_differential(spec, oracles=["lint_reach"])
        assert result.ok, result.summary()

    def test_lint_errors_on_the_spec_are_advisory(self):
        # A structurally over-committed bus is an error-severity lint
        # finding, but the generator produces such platforms legitimately:
        # the oracle reports it without failing (only static/dynamic
        # disagreement fails).
        spec = bus_spec()
        spec = PlatformSpec.from_dict({
            **spec.to_dict(),
            "bus": {"enabled": True, "words_per_second": 20_000.0},
        })
        from repro.lint import lint_spec

        assert lint_spec(spec).errors  # precondition: really an error
        result = run_differential(spec, oracles=["lint_reach"])
        assert result.ok, result.summary()
        assert "advisory" in result.verdicts[0].detail


class TestPolicyOracle:
    def test_micro_workload_deficit_stays_within_transition_overhead(self):
        # 4 tiny tasks with 50 us gaps: sleeping is a net loss, but the loss
        # must be bounded by the transition energy the policy invested.
        spec = tiny_spec(
            ips=[
                {
                    "name": "ip0",
                    "workload": {
                        "kind": "periodic",
                        "task_count": 4,
                        "cycles": 2_000,
                        "idle_us": 50.0,
                    },
                    "idle_activity": 0.25,
                }
            ],
            max_time_ms=150.0,
            sample_interval_us=500.0,
            with_fan=False,
        )
        paper = run_scenario(spec, DpmSetup.paper(), trace=False)
        base = run_scenario(spec, DpmSetup.always_on(), trace=False)
        assert paper.total_energy_j > base.total_energy_j  # genuinely adversarial
        result = run_differential(spec, oracles=["policy"])
        assert result.ok, result.summary()


class TestInjectedBug:
    def test_structural_catches_lost_transition_residency(self, lost_transition_residency):
        result = run_differential(tiny_spec(), oracles=["structural"])
        verdict = result.verdict("structural")
        assert verdict.status == "fail"
        assert "residency sum" in verdict.detail

    def test_same_spec_passes_without_the_bug(self):
        result = run_differential(tiny_spec(), oracles=["structural"])
        assert result.ok, result.summary()


class TestVerdictPlumbing:
    def test_verdict_dict_round_trip_fields(self):
        verdict = OracleVerdict("policy", "fail", "detail text")
        assert verdict.as_dict() == {
            "oracle": "policy",
            "status": "fail",
            "detail": "detail text",
        }
        assert verdict.failed and not verdict.passed

    def test_result_as_dict_carries_all_verdicts(self):
        result = run_differential(tiny_spec(), oracles=["structural"])
        data = result.as_dict()
        assert data["ok"] is True
        assert data["verdicts"][0]["oracle"] == "structural"
