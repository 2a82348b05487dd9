"""End-to-end tests: specs through the runners, campaigns and the CLI."""

import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    build_scenario,
    normalize_scenario,
    run_campaign,
)
from repro.cli import build_parser, main
from repro.errors import CampaignError
from repro.experiments import run_comparison, run_scenario
from repro.platform import (
    IpDef,
    PlatformBuilder,
    PlatformSpec,
    PolicyDef,
    PsmDef,
    TransitionDef,
    WorkloadDef,
    load_platform,
    save_platform,
    to_scenario,
)
from repro.sim import sec

EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "specs", "custom_platform.json"
)


def tiny_platform(name: str = "tiny") -> PlatformSpec:
    """A platform small enough for sub-second comparison runs."""
    return (
        PlatformBuilder(name)
        .ip("ip1", workload={"kind": "high_activity", "task_count": 4, "seed": 5})
        .max_time_ms(500)
        .build()
    )


class TestRunnersAcceptSpecs:
    def test_run_scenario_accepts_a_spec(self):
        artifacts = run_scenario(tiny_platform())
        assert artifacts.scenario == "tiny"
        assert artifacts.all_tasks_completed

    def test_run_scenario_accepts_a_name(self):
        artifacts = run_scenario("A1")
        assert artifacts.scenario == "A1"

    def test_run_comparison_accepts_a_spec(self):
        metrics = run_comparison(tiny_platform())
        assert metrics.scenario == "tiny"
        assert metrics.tasks_executed == 4

    def test_unsupported_scenario_type_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="expected a Scenario"):
            run_scenario(42)

    def test_custom_eight_ip_platform_with_user_psm_runs(self):
        # The acceptance scenario: >= 8 IPs, user-defined PSM, end to end.
        spec = load_platform(EXAMPLE_SPEC)
        assert len(spec.ips) >= 8
        assert any(ip.psm is not None and ip.psm.transitions for ip in spec.ips)
        metrics = run_comparison(to_scenario(spec))
        assert metrics.tasks_executed == sum(
            len(to_scenario(spec).build_specs()[i].workload)
            for i in range(len(spec.ips))
        )
        assert metrics.energy_saving_pct > 0.0


class TestCampaignIntegration:
    def test_platform_entry_normalizes_to_canonical_inline_spec(self, tmp_path):
        spec = tiny_platform("camp-tiny")
        path = tmp_path / "tiny.json"
        save_platform(spec, path)
        by_file = normalize_scenario({"kind": "platform", "file": str(path)})
        inline = normalize_scenario({"kind": "platform", "spec": spec.to_dict()})
        assert by_file == inline
        assert by_file["name"] == "camp-tiny"
        # hash ingredients are the canonical spec, not the path
        assert by_file["spec"] == spec.to_dict()

    def test_registered_name_resolves_in_campaigns(self):
        normalized = normalize_scenario("A1")
        assert normalized["kind"] == "single_ip"  # legacy names keep legacy hashes

    def test_platform_file_errors_are_campaign_errors(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot load platform spec"):
            normalize_scenario({"kind": "platform", "file": str(tmp_path / "no.json")})
        with pytest.raises(CampaignError, match="needs an inline 'spec'"):
            normalize_scenario({"kind": "platform"})

    def test_build_scenario_from_platform_with_seed(self):
        spec = tiny_platform("camp-seeded")
        description = normalize_scenario({"kind": "platform", "spec": spec.to_dict()})
        default = build_scenario(description)
        reseeded = build_scenario(description, seed=77)
        assert default.build_specs()[0].workload.as_dicts() != \
            reseeded.build_specs()[0].workload.as_dicts()

    def test_campaign_grid_over_a_platform_file_with_caching(self, tmp_path):
        spec_path = tmp_path / "tiny.json"
        save_platform(tiny_platform("camp-grid"), spec_path)
        campaign = CampaignSpec.from_dict({
            "name": "platform-grid",
            "scenarios": ["A1", {"kind": "platform", "file": str(spec_path)}],
            "setups": ["paper"],
            "seeds": [1, 2],
            "overrides": [{}, {"task_count": 6, "max_time_ms": 400}],
        })
        jobs = campaign.jobs()
        labels = {job.label for job in jobs}
        assert "camp-grid/paper/seed=1" in labels
        # overrides: task_count applies to A1 only; max_time_ms to both —
        # the platform cells therefore collapse to 2 unique jobs per seed pair
        directory = tmp_path / "store"
        summary = run_campaign(campaign, directory, workers=1)
        assert summary.ok == summary.total_jobs == len(jobs)
        # second run: everything cached
        resumed = run_campaign(campaign, directory, workers=1, resume=True)
        assert resumed.skipped == summary.total_jobs
        assert resumed.executed == 0

    def test_relative_platform_files_resolve_against_the_spec_directory(
        self, tmp_path, monkeypatch
    ):
        # campaign and platform spec travel together; running from an
        # unrelated cwd must still find the sibling platform file.
        save_platform(tiny_platform("rel-file"), tmp_path / "soc.json")
        (tmp_path / "grid.json").write_text(json.dumps({
            "name": "rel",
            "scenarios": [{"kind": "platform", "file": "soc.json"}],
        }))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        spec = CampaignSpec.from_file(tmp_path / "grid.json")
        assert spec.scenarios[0]["name"] == "rel-file"

    def test_platform_job_hash_is_stable_across_file_and_inline(self, tmp_path):
        spec = tiny_platform("hash-stable")
        path = tmp_path / "spec.json"
        save_platform(spec, path)
        by_file = CampaignSpec.from_dict({
            "name": "h", "scenarios": [{"kind": "platform", "file": str(path)}],
        })
        inline = CampaignSpec.from_dict({
            "name": "h", "scenarios": [{"kind": "platform", "spec": spec.to_dict()}],
        })
        assert [j.job_id for j in by_file.jobs()] == [j.job_id for j in inline.jobs()]


class TestCliPlatform:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_parser_round_trips(self):
        args = self.parse(["platform", "validate", "a.json", "b.toml"])
        assert args.platform_command == "validate"
        assert args.specs == ["a.json", "b.toml"]
        args = self.parse(["platform", "show", "--spec", "x.json", "--json"])
        assert args.platform_command == "show"
        assert args.spec == "x.json" and args.as_json
        args = self.parse(["platform", "run", "--name", "A1", "--setup", "oracle"])
        assert args.platform_command == "run"
        assert (args.name, args.setup) == ("A1", "oracle")
        assert self.parse(["platform", "list"]).platform_command == "list"

    def test_spec_and_name_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            self.parse(["platform", "run", "--spec", "a.json", "--name", "A1"])

    def test_missing_subcommand_is_an_error(self, capsys):
        assert main(["platform"]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_validate_ok_and_failure(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        save_platform(tiny_platform("cli-good"), good)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "broken", "ips": []}))
        assert main(["platform", "validate", str(good)]) == 0
        out = capsys.readouterr().out
        assert "cli-good" in out and "1 IPs" in out
        assert main(["platform", "validate", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert "defines no IPs" in err

    def test_validate_detects_campaign_specs(self, capsys):
        grid = os.path.join(os.path.dirname(EXAMPLE_SPEC), "paper_grid.json")
        assert main(["platform", "validate", grid]) == 0
        assert "campaign" in capsys.readouterr().out

    def test_show_summary_and_json(self, tmp_path, capsys):
        path = tmp_path / "show.json"
        save_platform(tiny_platform("cli-show"), path)
        assert main(["platform", "show", "--spec", str(path)]) == 0
        assert "cli-show" in capsys.readouterr().out
        assert main(["platform", "show", "--spec", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "cli-show"

    def test_show_by_name(self, capsys):
        assert main(["platform", "show", "--name", "B"]) == 0
        assert "GEM" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["platform", "list"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "built-in" in out

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        save_platform(tiny_platform("cli-run"), path)
        assert main(["platform", "run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli-run" in out and "energy saving" in out

    def test_unknown_name_is_a_clean_error(self, capsys):
        assert main(["platform", "run", "--name", "warp-core"]) == 2
        assert "unknown platform" in capsys.readouterr().err

    def test_scenario_error_lists_names(self, capsys):
        assert main(["platform", "show", "--name", "nope"]) == 2
        assert "A1" in capsys.readouterr().err

    def test_scenario_command_unknown_name_is_a_clean_error(self, capsys):
        assert main(["scenario", "does-not-exist"]) == 2
        err = capsys.readouterr().err
        assert "valid names" in err and "A1" in err

    def test_scenario_command_honours_the_platform_policy(self, capsys):
        from repro.platform import has_platform, register_platform, unregister_platform

        spec = tiny_platform("cli-policy")
        spec.policy = PolicyDef(name="greedy-sleep")
        register_platform(spec)
        try:
            assert main(["scenario", "cli-policy"]) == 0
            assert "DPM setup: greedy-sleep" in capsys.readouterr().out
            # an explicit --setup still wins
            assert main(["scenario", "cli-policy", "--setup", "paper"]) == 0
            assert "DPM setup: paper" in capsys.readouterr().out
        finally:
            if has_platform("cli-policy"):
                unregister_platform("cli-policy")


def bus_platform(name: str = "contended", timing: str = "cycle_accurate") -> PlatformSpec:
    """Two IPs contending for a slow shared bus."""
    return (
        PlatformBuilder(name)
        .describe("bandwidth-contended two-IP platform")
        .bus(words_per_second=2e6, arbitration="priority", timing=timing,
             words_per_cycle=8)
        .ip("dsp", workload={"kind": "periodic", "task_count": 4, "cycles": 20000,
                             "idle_us": 50.0},
            priority=1, bus_words_per_task=256)
        .ip("io", workload={"kind": "periodic", "task_count": 4, "cycles": 10000,
                            "idle_us": 30.0},
            priority=2, bus_words_per_task=512, bus_priority=0)
        .max_time_ms(50)
        .build()
    )


class TestBusPlatforms:
    def test_bus_spec_round_trips_through_a_json_file(self, tmp_path):
        spec = bus_platform()
        path = tmp_path / "contended.json"
        save_platform(spec, str(path))
        loaded = load_platform(str(path))
        assert loaded == spec
        assert loaded.bus.timing == "cycle_accurate"
        assert loaded.ips[1].bus_priority == 0

    def test_legacy_flat_bus_keys_still_load(self):
        data = {
            "name": "legacy",
            "ips": [{"name": "ip0",
                     "workload": {"kind": "periodic", "task_count": 1},
                     "bus_words_per_task": 8}],
            "with_bus": True,
            "bus_words_per_second": 1e6,
        }
        spec = PlatformSpec.from_dict(data)
        assert spec.bus.enabled
        assert spec.bus.words_per_second == 1e6
        # The canonical encoding uses the BusDef section.
        assert spec.to_dict()["bus"] == {"enabled": True, "words_per_second": 1e6}

    def test_legacy_inert_bandwidth_without_with_bus_still_loads(self):
        # The old to_dict emitted 'bus_words_per_second' whenever it
        # differed from the default, even with the bus disabled; such
        # archived specs must keep loading (as bus-less platforms).
        data = {
            "name": "legacy-inert",
            "ips": [{"name": "ip0",
                     "workload": {"kind": "periodic", "task_count": 1}}],
            "bus_words_per_second": 30e6,
        }
        spec = PlatformSpec.from_dict(data)
        assert not spec.bus.enabled
        assert "bus" not in spec.to_dict()

    def test_legacy_inert_bandwidth_must_still_be_positive(self):
        from repro.errors import PlatformError

        data = {
            "name": "legacy-bad",
            "ips": [{"name": "ip0",
                     "workload": {"kind": "periodic", "task_count": 1}}],
            "bus_words_per_second": -5.0,
        }
        with pytest.raises(PlatformError, match="bus throughput"):
            PlatformSpec.from_dict(data)

    def test_non_integer_words_per_cycle_fails_spec_validation(self):
        from repro.errors import PlatformError

        with pytest.raises(PlatformError, match="words_per_cycle"):
            (
                PlatformBuilder("bad")
                .bus(timing="cycle_accurate", words_per_cycle=2.0)
                .ip("ip0", workload={"kind": "periodic", "task_count": 1})
                .build()
            )

    def test_legacy_and_new_bus_keys_conflict(self):
        from repro.errors import PlatformError

        data = {
            "name": "conflict",
            "ips": [{"name": "ip0", "workload": {"kind": "periodic", "task_count": 1}}],
            "with_bus": True,
            "bus": {"enabled": True},
        }
        with pytest.raises(PlatformError, match="legacy"):
            PlatformSpec.from_dict(data)

    def test_cycle_accurate_platform_grants_only_on_posedges(self):
        scenario = to_scenario(bus_platform())
        artifacts = run_scenario(scenario)
        bus = artifacts.soc.bus
        # Batched arbitration: grants land on the bus clock's posedge grid
        # (checked via busy_time below); 8 words per cycle at 2e6 words/s.
        assert bus.clock is not None
        assert bus.clock.period == sec(8 / 2e6)
        assert bus.stats.transfer_count == 8
        # Reconstruct the grant instants: every completed task performed one
        # transfer, and in cycle-accurate mode both the grant and the
        # release of every transfer land on the bus-cycle grid.
        period_fs = int(bus.clock.period)
        assert bus.stats.busy_time % period_fs == 0
        summary = artifacts.bus_summary()
        assert summary["transfer_count"] == 8.0
        assert summary["occupancy_pct"] > 0.0

    def test_bus_metrics_flow_into_scenario_metrics(self):
        metrics = run_comparison(bus_platform())
        assert metrics.has_bus_figures
        assert metrics.bus_transfer_count == 8
        assert metrics.bus_words_transferred == 4 * 256 + 4 * 512
        assert metrics.bus_occupancy_pct > 0.0
        assert metrics.bus_cancelled_count == 0
        data = metrics.as_dict()
        assert data["bus_transfer_count"] == 8
        assert data["bus_cancelled_count"] == 0
        # Bus-less runs keep their historical record shape.
        busless = run_comparison(tiny_platform())
        assert not busless.has_bus_figures
        assert "bus_transfer_count" not in busless.as_dict()

    def test_timing_modes_are_distinct_campaign_cells(self):
        # The canonical encodings differ, so a campaign grid sweeping both
        # timing modes gets two separately cached jobs.
        fast = normalize_scenario(
            {"kind": "platform", "spec": bus_platform("h", "event_driven").to_dict()}
        )
        accurate = normalize_scenario(
            {"kind": "platform", "spec": bus_platform("h", "cycle_accurate").to_dict()}
        )
        assert fast != accurate
        assert "timing" not in fast["spec"]["bus"]  # default mode omitted
        assert accurate["spec"]["bus"]["timing"] == "cycle_accurate"

    def test_campaign_runs_a_bus_platform_grid(self, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "name": "bus-grid",
                "scenarios": [
                    {"kind": "platform", "spec": bus_platform().to_dict()},
                ],
                "setups": ["paper"],
            }
        )
        # The contended platform trips the reach-lint preflight by design
        # (BUS-SATURATED is an error finding); bypass the gate explicitly.
        summary = run_campaign(
            spec, str(tmp_path / "campaign"), workers=1, preflight=False,
        )
        assert summary.ok == 1 and summary.errors == 0
        from repro.campaign import ResultStore

        records = ResultStore(str(tmp_path / "campaign")).records()
        assert len(records) == 1
        assert records[0]["metrics"]["bus_transfer_count"] == 8
        # Rebuilt records rehydrate the typed bus fields (not just 'extra').
        from repro.campaign.aggregate import aggregate_records, record_metrics

        rebuilt = record_metrics(records[0])
        assert rebuilt.has_bus_figures
        assert rebuilt.bus_transfer_count == 8
        assert rebuilt.bus_occupancy_pct > 0.0
        assert "bus_transfer_count" not in rebuilt.extra
        aggregated = aggregate_records(records)
        assert aggregated[0].bus_transfer_count == 8
        assert aggregated[0].bus_occupancy_pct == pytest.approx(
            rebuilt.bus_occupancy_pct
        )
