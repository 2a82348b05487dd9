"""Dynamic cross-validation: static unreachability vs the traced event stream.

Two directions: (a) across the paper's six scenarios, the statically-dead
Table 1 row never wins a decision; (b) an injected shadowed rule is caught
by lint *and* fires zero times at runtime — a true positive end to end.
"""

import pytest

from repro.dpm.rules import paper_rule_table
from repro.experiments import (
    crosscheck_paper_platforms,
    crosscheck_scenario,
    decision_contexts,
)
from repro.experiments.lint_crosscheck import PAPER_SCENARIO_NAMES
from repro.lint import Severity, lint_spec
from repro.platform import (
    BatteryDef,
    IpDef,
    PlatformSpec,
    PolicyDef,
    WorkloadDef,
    platform_by_name,
    to_scenario,
)


class TestPaperScenarios:
    @pytest.mark.parametrize("name", PAPER_SCENARIO_NAMES)
    def test_statically_dead_rules_never_fire(self, name, tmp_path):
        result = crosscheck_scenario(name, trace_dir=tmp_path)
        assert result.ok, result.violations
        assert result.decision_count > 0
        # Table 1's row 6 (index 5) is the statically-dead rule under test.
        assert 5 in result.unreachable
        assert result.fire_counts.get(5, 0) == 0
        # Every decision was replayed against the same table the run used.
        assert sum(result.fire_counts.values()) == result.decision_count
        # The trajectory envelope ran and contained every decision; the
        # narrow paper platforms always leave some Table 1 rows dead.
        assert result.reach_checked
        assert result.trajectory_dead
        for index in result.trajectory_dead:
            assert result.fire_counts.get(index, 0) == 0

    def test_reach_can_be_disabled(self, tmp_path):
        result = crosscheck_scenario("A1", trace_dir=tmp_path, reach=False)
        assert result.ok
        assert not result.reach_checked
        assert result.trajectory_dead == ()

    def test_sweep_helper_covers_all_six(self, tmp_path):
        results = crosscheck_paper_platforms(names=("A1",), trace_dir=tmp_path)
        assert [result.scenario for result in results] == ["A1"]
        assert "ok" in results[0].describe()


def injected_shadowed_spec() -> PlatformSpec:
    """Paper Table 1 plus a deliberately shadowed rule appended at the end."""
    rules = paper_rule_table().as_dicts()
    # A proper subset of t1-row12's match set (bus high only): shadowed, but
    # not an exact duplicate — so lint diagnoses RULES-SHADOWED, not the
    # sharper RULES-CONTRADICTION.
    rules.append({
        "state": "SL4",
        "priorities": ["low"],
        "batteries": ["full"],
        "temperatures": ["low"],
        "buses": ["high"],
        "label": "injected-dead",
    })
    spec = PlatformSpec(
        name="injected",
        ips=[IpDef(
            name="cpu",
            workload=WorkloadDef(kind="periodic", task_count=6,
                                 cycles=20_000, idle_us=300.0),
        )],
        policy=PolicyDef(name="paper", rules=rules),
    )
    spec.validate()
    return spec


class TestInjectedShadowedRule:
    def test_caught_statically_and_dynamically(self, tmp_path):
        spec = injected_shadowed_spec()
        injected = len(spec.policy.rules) - 1

        # Statically: lint flags the injected rule as a hard error
        # (custom tables get ERROR severity, unlike the library table).
        report = lint_spec(spec)
        shadowed = [f for f in report.findings if f.code == "RULES-SHADOWED"
                    and f"rules[{injected}]" in f.path]
        assert shadowed and shadowed[0].severity is Severity.ERROR

        # Dynamically: a traced run never lets the injected rule win.
        result = crosscheck_scenario(spec, trace_dir=tmp_path)
        assert injected in result.unreachable
        assert result.fire_counts.get(injected, 0) == 0
        assert result.ok
        assert result.table_name == "injected-rules"


class TestScenarioSpecResolution:
    """A Scenario is checked against its own spec, whatever its name."""

    def test_renamed_spec_is_reach_checked_as_spec_and_scenario(self, tmp_path):
        spec = platform_by_name("phone-bursty")
        spec.name = "my-phone"
        assert crosscheck_scenario(spec, trace_dir=tmp_path).reach_checked
        assert crosscheck_scenario(to_scenario(spec), trace_dir=tmp_path).reach_checked

    def test_scenario_replays_against_its_own_rules(self, tmp_path):
        spec = injected_shadowed_spec()
        injected = len(spec.policy.rules) - 1
        result = crosscheck_scenario(to_scenario(spec), trace_dir=tmp_path)
        assert result.table_name == "injected-rules"
        assert injected in result.unreachable
        assert result.ok

    def test_registered_name_does_not_replace_the_scenarios_spec(self, tmp_path):
        # Named "A1" but with A2's battery: the run sees a low battery, which
        # lies outside the registered A1 envelope but inside its own.
        spec = platform_by_name("A1")
        spec.battery = BatteryDef(condition="low")
        result = crosscheck_scenario(to_scenario(spec), trace_dir=tmp_path)
        assert result.ok, result.violations
        assert result.reach_checked
        own = crosscheck_scenario(spec, trace_dir=tmp_path)
        assert result.trajectory_dead == own.trajectory_dead


class TestDecisionContexts:
    def test_trace_parsing_ignores_other_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"t_fs": 0, "kind": "sim.backend", "source": "sim"}\n'
            '{"t_fs": 1, "kind": "lem.decision", "source": "cpu",'
            ' "priority": "low", "battery": "full", "temperature": "low",'
            ' "bus": "medium", "other_ip_energy_j": 0.5}\n',
            encoding="utf-8",
        )
        contexts = decision_contexts(trace)
        assert len(contexts) == 1
        assert contexts[0].bus.value == "medium"
        assert contexts[0].other_ip_energy_j == 0.5

    def test_malformed_decision_raises(self, tmp_path):
        from repro.errors import ExperimentError

        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"t_fs": 1, "kind": "lem.decision", "source": "cpu",'
            ' "priority": "nope", "battery": "full", "temperature": "low"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ExperimentError):
            decision_contexts(trace)
