"""Tests for the declarative campaign specification layer."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    JobSpec,
    build_scenario,
    build_setup,
    job_hash,
    normalize_scenario,
    normalize_setup,
)
from repro.errors import CampaignError
from repro.experiments.scenarios import scenario_by_name


class TestNormalizeScenario:
    def test_paper_names_expand(self):
        scenario = normalize_scenario("A1")
        assert scenario["kind"] == "single_ip"
        assert scenario["battery"] == "full"
        assert normalize_scenario("b")["kind"] == "multi_ip"

    def test_unknown_paper_name_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario("Z9")

    def test_missing_required_field_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario({"kind": "single_ip", "name": "x", "battery": "low"})

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError):
            normalize_scenario(
                {"kind": "single_ip", "name": "x", "battery": "low",
                 "temperature": "low", "bogus": 1}
            )

    def test_high_activity_ips_sorted_for_stable_hashing(self):
        first = normalize_scenario(
            {"kind": "multi_ip", "name": "m", "battery": "low",
             "temperature": "low", "high_activity_ips": [2, 1]}
        )
        second = normalize_scenario(
            {"kind": "multi_ip", "name": "m", "battery": "low",
             "temperature": "low", "high_activity_ips": [1, 2]}
        )
        assert first == second


    @pytest.mark.parametrize("entry,message", [
        ({"kind": "single_ip", "name": "x", "battery": "lowish",
          "temperature": "low"}, "battery condition 'lowish'"),
        ({"kind": "multi_ip", "name": "m", "battery": "low",
          "temperature": "tepid", "high_activity_ips": [1]}, "thermal condition 'tepid'"),
        ({"kind": "multi_ip", "name": "m", "battery": "low",
          "temperature": "low", "high_activity_ips": [7]}, "IPs 1..4"),
        ({"kind": "multi_ip", "name": "m", "battery": "low",
          "temperature": "low", "high_activity_ips": []}, "IPs 1..4"),
    ])
    def test_invalid_grid_entries_fail_at_load(self, entry, message):
        with pytest.raises(CampaignError, match=message):
            CampaignSpec.from_dict({"name": "g", "scenarios": [entry]})

    def test_condition_words_are_case_insensitive_and_kept_as_written(self):
        entry = {"kind": "single_ip", "name": "x", "battery": "FULL",
                 "temperature": "Low", "task_count": 6}
        assert normalize_scenario(entry) == entry
        lower = dict(entry, battery="full", temperature="low")
        built, reference = build_scenario(entry), build_scenario(lower)
        assert built.build_config() == reference.build_config()
        assert built.build_specs()[0].workload.as_dicts() == \
            reference.build_specs()[0].workload.as_dicts()

    def test_paper_kind_names_a_paper_row(self):
        scenario = normalize_scenario({"kind": "paper", "name": "B", "task_count": 8})
        assert scenario["kind"] == "multi_ip"
        assert scenario["task_count"] == 8
        with pytest.raises(CampaignError) as error:
            normalize_scenario({"kind": "paper", "name": "phone-bursty"})
        assert str(error.value) == (
            "scenario 'phone-bursty' of kind 'paper' is not a paper row "
            "(expected one of A1, A2, A3, A4, B, C)"
        )


class TestBuildScenario:
    def test_paper_scenario_matches_catalogue(self):
        built = build_scenario(normalize_scenario("A1"))
        reference = scenario_by_name("A1")
        assert built.name == reference.name
        assert built.build_specs()[0].workload.as_dicts() == \
            reference.build_specs()[0].workload.as_dicts()

    def test_seed_reseeds_the_workload(self):
        description = normalize_scenario("A1")
        default = build_scenario(description)
        reseeded = build_scenario(description, seed=99)
        assert default.build_specs()[0].workload.as_dicts() != \
            reseeded.build_specs()[0].workload.as_dicts()

    def test_grid_seed_reseeds_ip_i_with_seed_plus_i(self):
        from repro.soc.workload import high_activity_workload, low_activity_workload

        specs = build_scenario(normalize_scenario("B"), seed=5).build_specs()
        for index, ip in enumerate(specs, start=1):
            if index in (1, 2):
                expected = high_activity_workload(24, seed=5 + index, name=f"ip{index}-busy")
            else:
                expected = low_activity_workload(24, seed=5 + index, name=f"ip{index}-idle")
            assert ip.workload.as_dicts() == expected.as_dicts()

    def test_custom_scenario_without_touching_the_catalogue(self):
        built = build_scenario(
            {"kind": "single_ip", "name": "mine", "battery": "medium",
             "temperature": "high", "task_count": 6, "max_time_ms": 500}
        )
        assert built.name == "mine"
        assert len(built.build_specs()[0].workload) == 6
        assert built.max_time.seconds == pytest.approx(0.5)


class TestSetups:
    def test_named_setups(self):
        for name in ("paper", "always-on", "greedy-sleep", "oracle", "paper+ewma"):
            assert build_setup(normalize_setup(name)).name

    def test_fixed_timeout_parameter(self):
        setup = build_setup({"name": "fixed-timeout", "timeout_ms": 3.0})
        assert setup.name == "fixed-timeout"

    def test_unknown_setup_rejected(self):
        with pytest.raises(CampaignError):
            normalize_setup("warp-drive")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CampaignError):
            normalize_setup({"name": "paper", "bogus": 1})


class TestJobSpec:
    def make(self, seed=1):
        return JobSpec(
            scenario=normalize_scenario("A1"),
            setup=normalize_setup("paper"),
            baseline=normalize_setup("always-on"),
            seed=seed,
        )

    def test_hash_is_stable_and_content_addressed(self):
        assert self.make().job_id == self.make().job_id
        assert self.make(seed=1).job_id != self.make(seed=2).job_id
        assert self.make().job_id == job_hash(self.make().to_dict())

    def test_round_trip(self):
        job = self.make()
        assert JobSpec.from_dict(job.to_dict()) == job


class TestCampaignSpec:
    def spec_dict(self):
        return {
            "name": "grid",
            "scenarios": ["A1", "B"],
            "setups": ["paper", "greedy-sleep"],
            "seeds": [1, 2, 3],
        }

    def test_grid_expansion_size_and_determinism(self):
        spec = CampaignSpec.from_dict(self.spec_dict())
        jobs = spec.jobs()
        assert len(jobs) == 2 * 2 * 3
        assert [job.job_id for job in jobs] == [job.job_id for job in spec.jobs()]

    def test_duplicate_cells_are_dropped(self):
        data = self.spec_dict()
        data["overrides"] = [{}, {}]
        assert len(CampaignSpec.from_dict(data).jobs()) == 12

    def test_overrides_fan_out_scenario_parameters(self):
        data = self.spec_dict()
        data["scenarios"] = ["A1"]
        data["setups"] = ["paper"]
        data["seeds"] = [1]
        data["overrides"] = [{"task_count": 10}, {"task_count": 20}]
        jobs = CampaignSpec.from_dict(data).jobs()
        assert len(jobs) == 2
        assert {job.scenario["task_count"] for job in jobs} == {10, 20}

    def test_unknown_override_key_rejected(self):
        data = self.spec_dict()
        data["overrides"] = [{"warp": 9}]
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict({"name": "empty"})

    def test_unknown_top_level_field_rejected(self):
        data = self.spec_dict()
        data["scenrios"] = data.pop("scenarios")
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(data)

    def test_to_dict_round_trip_preserves_the_grid(self):
        spec = CampaignSpec.from_dict(self.spec_dict())
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert [job.job_id for job in rebuilt.jobs()] == [job.job_id for job in spec.jobs()]


class TestSpecFiles:
    def test_json_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "json-grid",
            "scenarios": ["A1"],
            "setups": ["paper"],
            "seeds": [7],
        }))
        spec = CampaignSpec.from_file(path)
        assert spec.name == "json-grid"
        assert len(spec.jobs()) == 1

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "toml-grid"\n'
            'scenarios = ["A1", "A2"]\n'
            'setups = ["paper"]\n'
            'seeds = [1, 2]\n'
            "\n"
            "[[overrides]]\n"
            "task_count = 8\n"
        )
        spec = CampaignSpec.from_file(path)
        assert spec.name == "toml-grid"
        assert len(spec.jobs()) == 4
        assert spec.jobs()[0].scenario["task_count"] == 8

    def test_unsupported_extension_rejected(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("name: nope")
        with pytest.raises(CampaignError):
            CampaignSpec.from_file(path)
