"""The three benchmark workloads: inputs from a seed, timed rounds, output checks.

Every workload is a closed loop with one caller: the next op starts only when
the previous one has returned.  None of them names an accuracy mode or a
kernel backend, so the defaults run and removing an alternative path cannot
break a workload.

``paper-table2``
    One op is one Table 2 row, ``run_comparison(name)``; a round is the six
    rows A1..C.  Long simulations and few builds: the kernel, PSM, DPM,
    battery and thermal layers do most of the work.
``campaign-grid``
    One op is one job of a grid of short jobs; a round is one
    ``run_campaign`` of the whole grid into a fresh store directory.  Fixed
    per-job cost (normalisation, spec and SoC build, baseline sharing,
    preflight, store writes, pool dispatch) dominates.
``fuzz-diff``
    One op is one generated platform through ``run_differential``; a round
    is one pass over the platforms generated in set-up.  The workload with
    the most shared buses, OFF states, custom rule tables and lint work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "scenario_metrics.json"

#: The paper's Table 2 rows, in paper order.
ROWS = ("A1", "A2", "A3", "A4", "B", "C")

#: ScenarioMetrics float fields the golden file pins bit for bit (as hex).
GOLDEN_FLOAT_FIELDS = (
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

#: Host-time fields of a result record; everything else must be deterministic.
_TIMING_FIELDS = ("wall_clock_s", "kilocycles_per_second")

#: campaign-grid: the paper rows A1-A4 and B re-seeded with few tasks, plus
#: one library platform, so that the reach-lint preflight has a spec to
#: check and a shared bus carries traffic.  Four of the six scenarios are
#: single-IP (~4 ms jobs) and two multi-IP (~13 ms), so op_ms_p50 falls well
#: inside the short cluster and op_ms_p90 inside the long one, away from
#: the edges where scheduling noise moves them; C would only add a third
#: long scenario like B.
GRID_SCENARIOS = ("A1", "A2", "A3", "A4", "B", "phone-bursty")
GRID_SETUPS = ("paper", "greedy-sleep")
GRID_TASKS = 8
GRID_SEEDS = 8
#: campaign jobs compared against an in-process run after the timed loop
GRID_SAMPLE = 4

#: fuzz-diff: platforms generated per seed; one pass takes about 15 s on one
#: core, so a 20 s run times the whole pool, not a seed-dependent few.
FUZZ_POOL = 400


@dataclass
class RoundResult:
    """What one timed round did."""

    ops: int = 0
    failed: int = 0
    #: host time of the ops and their checks, not of the speed samples
    elapsed_s: float = 0.0
    #: False when the deadline cut the round short
    complete: bool = True
    #: host slowness sampled around the round's ops (see hostspeed.py)
    slowness: List[float] = field(default_factory=list)
    #: each op's host time divided by the mean slowness just before and after it
    latencies_s: List[float] = field(default_factory=list)
    #: simulated ON1 kilocycles and host seconds of the DPM runs
    dpm_kcycles: float = 0.0
    dpm_run_s: float = 0.0
    #: op key -> digest of the op's deterministic output
    outputs: Dict[str, str] = field(default_factory=dict)
    #: work counts the workload reads from its own outputs
    counts: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)

    def fail(self, key: str, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{key}: {problem}")


def unscaled() -> float:
    """A host-slowness source that scales nothing."""
    return 1.0


def run_ops(result: RoundResult, items, deadline: Optional[float],
            slowness: Callable[[], float], call: Callable, check: Callable) -> RoundResult:
    """Time ``call(item)`` for each ``(key, item)`` until ``deadline``.

    ``check(key, output)`` verifies each output.  The host's slowness is
    sampled before the first op and after every op, so each op is scaled by
    the host's speed right around it: on a shared host that speed changes
    within a second.
    """
    before = slowness()
    result.slowness.append(before)
    for key, item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            result.complete = False
            break
        result.ops += 1
        start = time.perf_counter()
        try:
            output = call(item)
        except Exception as error:  # noqa: BLE001 - a raising op is a failed op
            output = None
            result.fail(key, f"raised {error!r}")
        op_s = time.perf_counter() - start
        if output is not None:
            check(key, output)
        result.elapsed_s += time.perf_counter() - start
        after = slowness()
        result.slowness.append(after)
        if output is not None:
            result.latencies_s.append(op_s / ((before + after) / 2.0))
        before = after
    return result


def digest(value: Any) -> str:
    """Short content hash of a JSON-encodable value."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def deterministic_view(metrics: Mapping[str, Any], per_ip: Mapping[str, Any]) -> Dict[str, Any]:
    """A result record's metrics without its host-time fields."""
    return {
        "metrics": {key: value for key, value in metrics.items() if key not in _TIMING_FIELDS},
        "per_ip": per_ip,
    }


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_mismatches(metrics, golden: Mapping[str, Any]) -> Dict[str, tuple]:
    """Fields of a ScenarioMetrics row that differ from its golden entry."""
    mismatches: Dict[str, tuple] = {}
    for name in GOLDEN_FLOAT_FIELDS:
        got = getattr(metrics, name).hex()
        if got != golden[name]:
            mismatches[name] = (got, golden[name])
    if metrics.tasks_executed != golden["tasks_executed"]:
        mismatches["tasks_executed"] = (metrics.tasks_executed, golden["tasks_executed"])
    if set(metrics.per_ip) != set(golden["per_ip"]):
        mismatches["per_ip"] = (sorted(metrics.per_ip), sorted(golden["per_ip"]))
        return mismatches
    for ip_name, figures in metrics.per_ip.items():
        for key, value in figures.items():
            got = value.hex() if isinstance(value, float) else value
            want = golden["per_ip"][ip_name].get(key)
            if got != want:
                mismatches[f"per_ip.{ip_name}.{key}"] = (got, want)
    return mismatches


def row_digest(metrics) -> str:
    return digest([getattr(metrics, name).hex() for name in GOLDEN_FLOAT_FIELDS]
                  + [metrics.tasks_executed, metrics.per_ip])


def energy_saving_error_pp(rows) -> float:
    """Mean absolute gap to the paper's Table 2 energy saving, in points."""
    from repro.analysis.report import PAPER_TABLE2

    gaps = [abs(row.energy_saving_pct - PAPER_TABLE2[row.scenario]["energy_saving_pct"])
            for row in rows]
    return sum(gaps) / len(gaps)


class PaperTable2:
    """The paper's own experiment: the six Table 2 rows, round after round.

    The rows are fixed by the paper, so the seed changes nothing.
    """

    name = "paper-table2"

    def __init__(self, seed: int, workdir: Path, golden_path: Path = GOLDEN_PATH) -> None:
        self.golden = load_golden(golden_path)
        self.last_rows: Dict[str, Any] = {}

    def run_round(self, deadline: Optional[float],
                  slowness: Callable[[], float] = unscaled) -> RoundResult:
        # Imported per round, not bound in set-up, so the traced run's
        # wrappers are the ones called.
        from repro.experiments.runner import run_comparison

        result = RoundResult()

        def check(name: str, metrics) -> None:
            result.dpm_kcycles += metrics.kilocycles_per_second * metrics.wall_clock_s
            result.dpm_run_s += metrics.wall_clock_s
            mismatches = golden_mismatches(metrics, self.golden[name])
            if mismatches:
                result.fail(name, f"differs from the golden: {mismatches}")
            result.outputs[name] = row_digest(metrics)
            self.last_rows[name] = metrics

        return run_ops(result, [(name, name) for name in ROWS], deadline, slowness,
                       run_comparison, check)

    def energy_saving_err_pp(self) -> float:
        return energy_saving_error_pp([self.last_rows[name] for name in ROWS])

    def final_check(self) -> RoundResult:
        return RoundResult()


def table2_error_pass(golden_path: Path = GOLDEN_PATH) -> tuple:
    """Run the six rows once, untimed: (energy saving error in pp, check result)."""
    workload = PaperTable2(0, Path("."), golden_path)
    check = workload.run_round(None)
    return workload.energy_saving_err_pp(), check


class CampaignGrid:
    """A sweep user's throughput: many short jobs through the worker pool.

    The seed draws the grid's seed list; the grid mixes ``single_ip`` and
    ``multi_ip`` paper rows with few tasks and one library platform, under
    the ``paper`` and ``greedy-sleep`` setups against one shared
    ``always-on`` baseline.
    """

    name = "campaign-grid"

    def __init__(self, seed: int, workdir: Path, seed_count: int = GRID_SEEDS) -> None:
        from repro.campaign import CampaignSpec

        seeds = sorted(random.Random(seed).sample(range(1, 100_000), seed_count))
        self.spec = CampaignSpec.from_dict(
            {
                "name": "perfbench-grid",
                "scenarios": list(GRID_SCENARIOS),
                "setups": list(GRID_SETUPS),
                "seeds": seeds,
                "overrides": [{"task_count": GRID_TASKS}],
                "baseline": "always-on",
            }
        )
        self.workers = min(2, os.cpu_count() or 1)
        self.workdir = workdir
        self.rounds = 0
        #: job_id -> the first round's record, which later rounds must repeat
        self.reference: Dict[str, Dict[str, Any]] = {}

    def run_round(self, deadline: Optional[float],
                  slowness: Callable[[], float] = unscaled) -> RoundResult:
        """One whole campaign (the deadline cannot cut a round short).

        Jobs run in the workers, so every job time is scaled by the host's
        slowness sampled before and after the whole campaign.
        """
        from repro.campaign import run_campaign

        directory = self.workdir / f"campaign-{self.rounds}"
        self.rounds += 1
        result = RoundResult()
        result.slowness.append(slowness())
        start = time.perf_counter()
        try:
            summary = run_campaign(self.spec, directory, workers=self.workers)
        except Exception as error:  # noqa: BLE001 - a raising round fails every job
            result.elapsed_s = time.perf_counter() - start
            result.slowness.append(slowness())
            result.fail("campaign", f"raised {error!r}")
            result.ops = result.failed = len(self.spec.jobs())
            return result
        result.elapsed_s = time.perf_counter() - start
        result.slowness.append(slowness())
        factor = sum(result.slowness) / len(result.slowness)
        shutil.rmtree(directory, ignore_errors=True)
        for record in summary.records:
            result.ops += 1
            key = record.get("job_id", "?")
            if record.get("status") != "ok":
                result.fail(key, f"status {record.get('status')!r}: {record.get('error')}")
                continue
            metrics = record["metrics"]
            result.latencies_s.append(record["wall_clock_s"] / factor)
            result.dpm_kcycles += metrics["kilocycles_per_second"] * metrics["wall_clock_s"]
            result.dpm_run_s += metrics["wall_clock_s"]
            result.outputs[key] = digest(deterministic_view(metrics, record["per_ip"]))
            reference = self.reference.setdefault(key, record)
            if reference is not record and result.outputs[key] != digest(
                deterministic_view(reference["metrics"], reference["per_ip"])
            ):
                result.fail(key, "differs from the same job in the first round")
        if result.ops != summary.total_jobs:
            result.fail("campaign", f"{result.ops} records for {summary.total_jobs} jobs")
        return result

    def final_check(self) -> RoundResult:
        """Compare a fixed sample of job records with in-process runs."""
        from repro.campaign import build_scenario, build_setup
        from repro.experiments.runner import run_comparison

        result = RoundResult()
        jobs = sorted(self.spec.jobs(), key=lambda job: job.job_id)
        for index in range(GRID_SAMPLE):
            job = jobs[index * len(jobs) // GRID_SAMPLE]
            record = self.reference.get(job.job_id)
            result.ops += 1
            if record is None:
                result.fail(job.job_id, "no record from the timed rounds")
                continue
            metrics = run_comparison(
                build_scenario(job.scenario, seed=job.seed),
                dpm=build_setup(job.setup),
                baseline=build_setup(job.baseline),
                accuracy=job.accuracy,
            )
            problem = record_mismatch(record, metrics)
            if problem:
                result.fail(job.job_id, problem)
        return result


def record_mismatch(record: Mapping[str, Any], metrics) -> str:
    """Why a campaign record differs from an in-process ScenarioMetrics ("" if not)."""
    want = deterministic_view(metrics.as_dict(), metrics.per_ip)
    got = deterministic_view(record["metrics"], record["per_ip"])
    if digest(got) == digest(want):
        return ""
    fields = sorted(
        key for key in set(want["metrics"]) | set(got["metrics"])
        if want["metrics"].get(key) != got["metrics"].get(key)
    )
    return f"record differs from an in-process run_comparison in {fields or ['per_ip']}"


def generate_platforms(seed: int, count: int) -> list:
    """``count`` platforms from ``platform_specs``, reproducible from ``seed``."""
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as hypothesis_seed

    from repro.fuzz.strategies import platform_specs

    specs: list = []

    @settings(
        max_examples=count,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
        phases=(Phase.generate,),
        print_blob=False,
    )
    @hypothesis_seed(seed)
    @given(spec=platform_specs())
    def collect(spec) -> None:
        specs.append(spec)

    collect()
    return specs


class FuzzDiff:
    """Generated platforms through every differential oracle.

    The platforms are generated once in set-up, so Hypothesis cost lands in
    ``setup_s``; the program only ever sees the generated specs.
    """

    name = "fuzz-diff"

    def __init__(self, seed: int, workdir: Path, pool: int = FUZZ_POOL) -> None:
        self.specs = generate_platforms(seed, pool)

    def run_round(self, deadline: Optional[float],
                  slowness: Callable[[], float] = unscaled) -> RoundResult:
        from repro.experiments.differential import run_differential

        result = RoundResult()

        def check(key: str, outcome) -> None:
            problem = verdict_problem(outcome.verdicts)
            if problem:
                result.fail(key, problem)
            for verdict in outcome.verdicts:
                kind = "skips" if verdict.status == "skip" else "runs"
                result.counts[f"fuzz.oracle_{kind}.{verdict.oracle}"] += 1
            result.outputs[key] = digest([verdict.as_dict() for verdict in outcome.verdicts])

        return run_ops(result, [(str(index), spec) for index, spec in enumerate(self.specs)],
                       deadline, slowness, run_differential, check)

    def simulation_speed(self) -> tuple:
        """(kilocycles, host seconds) of one default run per platform, untimed."""
        from repro.experiments.runner import run_scenario

        kcycles = seconds = 0.0
        for spec in self.specs:
            run = run_scenario(spec)
            kcycles += run.cycles_simulated() / 1e3
            seconds += run.wall_clock_s
        return kcycles, seconds

    def final_check(self) -> RoundResult:
        return RoundResult()


def verdict_problem(verdicts) -> str:
    """Why a differential result fails the output check ("" when every verdict passed or skipped)."""
    bad = [f"{verdict.oracle}={verdict.status}" for verdict in verdicts
           if verdict.status not in ("pass", "skip")]
    if not verdicts:
        return "no verdicts"
    return f"oracle verdicts {bad}" if bad else ""


WORKLOADS = {cls.name: cls for cls in (PaperTable2, CampaignGrid, FuzzDiff)}


def set_up(name: str, seed: int, workdir: Path):
    """Everything before the first timed op: imports, then the workload's inputs."""
    import repro  # noqa: F401
    import repro.cli  # noqa: F401

    return WORKLOADS[name](seed, workdir)
