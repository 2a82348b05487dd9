"""Checks on the benchmark itself: its declared metrics, its work counters,
its output checks and what the untraced run imports."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run, workloads  # noqa: E402

#: small inputs, so each workload's round takes well under a second
SMALL = {
    "paper-table2": {},
    "campaign-grid": {"seed_count": 1},
    "fuzz-diff": {"pool": 4},
}


def _make(name: str, tmp_path: Path):
    return workloads.WORKLOADS[name](7, tmp_path, **SMALL[name])


def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # fuzz-diff stays out until its policy-oracle failures are fixed (README.md).
    assert [entry["name"] for entry in spec["workloads"]] == ["paper-table2", "campaign-grid"]
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} == run.END_TO_END
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} == run.PER_LAYER


def _traced_round(name: str, tmp_path: Path):
    """(untraced round, traced round, per-layer values) of a fresh workload."""
    from perfbench import tracer as tracing

    workload = _make(name, tmp_path)
    untraced = workload.run_round(None)
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        traced = workload.run_round(None)
    finally:
        installation.uninstall()
    values = run.per_layer(tracer, run.Phase([traced]), 0.0, name == "fuzz-diff")
    return untraced, traced, values


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_work_counters_repeat_exactly_for_the_same_seed(name, tmp_path):
    counted = [key for key, unit in run.PER_LAYER.items()
               if unit != "s" and key != "bench.trace_overhead_pct"]
    first_untraced, first, first_values = _traced_round(name, tmp_path / "a")
    _, second, second_values = _traced_round(name, tmp_path / "b")
    assert first.failed == second.failed == first_untraced.failed == 0
    assert first.outputs == first_untraced.outputs == second.outputs
    assert {key: first_values[key] for key in counted} == {
        key: second_values[key] for key in counted
    }
    assert first_values["sim.activations"] > 0


def test_wrappers_are_removed_after_uninstall():
    from perfbench import tracer as tracing
    from repro.experiments import runner
    from repro.soc.soc import SoC

    originals = (runner.run_scenario, runner.build_soc, SoC.__dict__["run_until_done"])
    tracing.install(tracing.Tracer()).uninstall()
    assert (runner.run_scenario, runner.build_soc, SoC.__dict__["run_until_done"]) == originals


def test_paper_check_fires_on_a_perturbed_golden(tmp_path):
    golden = workloads.load_golden()
    value = float.fromhex(golden["A1"]["energy_saving_pct"])
    golden["A1"]["energy_saving_pct"] = (value + abs(value) * 1e-15).hex()
    perturbed = tmp_path / "scenario_metrics.json"
    perturbed.write_text(json.dumps(golden))
    result = workloads.PaperTable2(0, tmp_path, golden_path=perturbed).run_round(None)
    assert (result.ops, result.failed) == (6, 1)
    assert result.problems[0].startswith("A1:")


def test_campaign_check_fires_on_a_perturbed_record():
    from repro.campaign import build_scenario, build_setup, execute_job
    from repro.experiments.runner import run_comparison

    job = workloads.CampaignGrid(7, Path("."), seed_count=1).spec.jobs()[0]
    record = execute_job(job.to_dict())
    metrics = run_comparison(
        build_scenario(job.scenario, seed=job.seed),
        dpm=build_setup(job.setup),
        baseline=build_setup(job.baseline),
    )
    assert workloads.record_mismatch(record, metrics) == ""
    record["metrics"]["dpm_energy_j"] *= 1.0 + 1e-12
    assert "dpm_energy_j" in workloads.record_mismatch(record, metrics)


def test_fuzz_check_fires_on_a_failed_verdict():
    from repro.experiments.differential import OracleVerdict

    passing = [OracleVerdict("policy", "pass"), OracleVerdict("bus_timing", "skip", "no bus")]
    assert workloads.verdict_problem(passing) == ""
    assert "policy=fail" in workloads.verdict_problem([OracleVerdict("policy", "fail", "x")])
    assert workloads.verdict_problem([]) == "no verdicts"


def test_untraced_rounds_import_no_tracer_and_no_obs(tmp_path):
    script = (
        "import sys; from pathlib import Path\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from perfbench import workloads\n"
        "for name in ('paper-table2', 'campaign-grid'):\n"
        f"    workloads.set_up(name, 7, Path({str(tmp_path)!r})).run_round(None)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('perfbench.tracer', 'repro.obs'))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, check=True
    )
    assert completed.stdout.strip().splitlines()[-1] == "[]"


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "paper-table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
