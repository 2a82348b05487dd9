"""Run one benchmark workload and print its metrics; see README.md.

    python3 perfbench/run.py --workload paper-table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--all`` runs every workload in this process and prints a table instead.
"""

import time

# Set-up time counts from here: a fresh interpreter, before any import.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))  # run as a script: make ``perfbench`` importable

from perfbench import hostspeed  # noqa: E402

WORK = ROOT / ".perfbench"
#: fresh-interpreter set-ups per run besides the run's own (median reported)
SETUP_PROBES = 4
#: host-speed samples taken right after each set-up, to scale it
SETUP_SPEED_SAMPLES = 3
#: the paper's SystemC simulation speed, printed beside kcycles_per_s
PAPER_KCYCLES_PER_S = "35 (scenario A) / 7.5 (B, C)"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "kcycles_per_s": "Kcycle/s",
    "peak_rss_mb": "MB",
    "energy_saving_err_pp": "pp",
}

ORACLES = ("exact_vs_fast", "backend_parity", "bus_timing", "policy", "structural", "lint_reach")

PER_LAYER = {
    "sim.run_s": "s",
    "sim.activations": "count",
    "sim.delta_cycles": "count",
    "sim.timed_notifications": "count",
    "sim.time_advances": "count",
    "power.psm_requests": "count",
    "power.psm_request_s": "s",
    "power.psm_transitions": "count",
    "dpm.lem_requests": "count",
    "dpm.lem_request_s": "s",
    "dpm.lem_completions": "count",
    "dpm.gem_evaluations": "count",
    "dpm.gem_evaluate_s": "s",
    "dpm.rule_selects": "count",
    "dpm.rule_select_s": "s",
    "battery.draws": "count",
    "battery.draw_s": "s",
    "battery.samples": "count",
    "thermal.steps": "count",
    "thermal.step_s": "s",
    "thermal.samples": "count",
    "bus.requests": "count",
    "bus.request_s": "s",
    "bus.transfers": "count",
    "bus.wait_us_mean": "us",
    "bus.occupancy_pct": "%",
    "platform.builds": "count",
    "platform.build_s": "s",
    "soc.builds": "count",
    "soc.build_s": "s",
    "experiments.dpm_runs": "count",
    "experiments.baseline_runs": "count",
    "experiments.baseline_per_job": "1",
    "campaign.preflight_s": "s",
    "campaign.store_puts": "count",
    "campaign.store_put_s": "s",
    "campaign.dispatch_wait_s": "s",
    "lint.lint_specs": "count",
    "lint.lint_spec_s": "s",
    "lint.reaches": "count",
    "lint.reach_s": "s",
    **{f"fuzz.oracle_runs.{oracle}": "count" for oracle in ORACLES},
    **{f"fuzz.oracle_skips.{oracle}": "count" for oracle in ORACLES},
    "fuzz.runs_per_platform": "1",
    "analysis.compare_s": "s",
    "bench.trace_overhead_pct": "%",
}


class Phase:
    """The rounds of one timed loop, summed.

    A round's factor is the mean host slowness sampled around its ops (see
    hostspeed.py); rates are multiplied by it, so that host drift cancels
    out.  Op times come already scaled from the workloads.
    """

    def __init__(self, rounds) -> None:
        self.rounds = rounds
        self.slowness = [statistics.fmean(result.slowness) for result in rounds]
        self.ops = sum(result.ops for result in rounds)
        self.failed = sum(result.failed for result in rounds)
        self.latencies_s = [value for result in rounds for value in result.latencies_s]
        self.counts: Counter = Counter()
        self.outputs = {}
        self.problems = []
        for result in rounds:
            self.counts.update(result.counts)
            self.outputs.update(result.outputs)
            self.problems.extend(result.problems)

    def _rate(self, work, seconds) -> float:
        """Median over complete rounds of work per scaled second.

        The median keeps a stall in one round from moving the figure.  With
        fewer than three complete rounds (a fuzz-diff round is its whole
        pool) all rounds are pooled instead.
        """
        pairs = list(zip(self.rounds, self.slowness))
        complete = [(result, factor) for result, factor in pairs if result.complete]
        if len(complete) >= 3:
            return statistics.median(work(result) / seconds(result) * factor
                                     for result, factor in complete)
        return (sum(work(result) for result, _ in pairs)
                / sum(seconds(result) / factor for result, factor in pairs))

    @property
    def ops_per_s(self) -> float:
        return self._rate(lambda result: result.ops, lambda result: result.elapsed_s)

    @property
    def kcycles_per_s(self) -> float:
        return self._rate(lambda result: result.dpm_kcycles, lambda result: result.dpm_run_s)


def measure(workload, seconds: float, whole_rounds: bool) -> Phase:
    """Run rounds until ``seconds`` have passed (finishing the round when asked)."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while time.perf_counter() < deadline:
        rounds.append(workload.run_round(None if whole_rounds else deadline, hostspeed.slowness))
    return Phase(rounds)


def percentile_ms(values, fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` (seconds), in milliseconds."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index] * 1e3


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest finished child's (ru_maxrss is KiB).

    Children count only where the workload has pool workers: a process
    also inherits the peak of whatever its launcher ran before exec.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of ``name`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(workload, phase: Phase, seed: int, own_setup_s) -> tuple:
    """(metrics, failures found after the timed loop)."""
    from perfbench import workloads

    # Before the set-up probes, which are children too.
    rss = peak_rss_mb(with_children=workload.name == "campaign-grid")
    failed = workload.final_check().failed
    if workload.name == "paper-table2":
        error_pp = workload.energy_saving_err_pp()
    else:
        error_pp, check = workloads.table2_error_pass()
        failed += check.failed
    if workload.name == "fuzz-diff":
        kcycles, run_s = workload.simulation_speed()
        kcycles_per_s = kcycles / run_s
    else:
        kcycles_per_s = phase.kcycles_per_s
    setups = [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    if own_setup_s is not None:
        setups.append(own_setup_s)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": phase.ops_per_s,
        "op_ms_p50": percentile_ms(phase.latencies_s, 0.5),
        "op_ms_p90": percentile_ms(phase.latencies_s, 0.9),
        "kcycles_per_s": kcycles_per_s,
        "peak_rss_mb": rss,
        "energy_saving_err_pp": error_pp,
    }
    return values, failed


def per_layer(tracer, phase: Phase, overhead_pct: float, is_fuzz: bool) -> dict:
    """Counts and self times per round of the traced phase."""
    rounds = len(phase.rounds)
    counts = Counter(tracer.counts)
    counts.update(phase.counts)
    self_times = tracer.self_times()

    def count(name: str) -> float:
        return counts[name] / rounds

    def self_s(*names: str) -> float:
        return sum(self_times.get(name, (0, 0.0))[1] for name in names) / rounds

    ops = phase.ops / rounds
    scenario_runs = count("experiments.scenario_runs")
    baseline_runs = count("experiments.baseline_runs")
    grants = counts["bus.grants"]
    bus_elapsed = counts["bus.elapsed_fs"]
    values = {
        "sim.run_s": self_s("sim.run"),
        "sim.activations": count("sim.activations"),
        "sim.delta_cycles": count("sim.delta_cycles"),
        "sim.timed_notifications": count("sim.timed_notifications"),
        "sim.time_advances": count("sim.time_advances"),
        "power.psm_requests": count("power.psm_request"),
        "power.psm_request_s": self_s("power.psm_request"),
        "power.psm_transitions": count("power.psm_transitions"),
        "dpm.lem_requests": count("dpm.lem_request"),
        "dpm.lem_request_s": self_s("dpm.lem_request"),
        "dpm.lem_completions": count("dpm.lem_completions"),
        "dpm.gem_evaluations": count("dpm.gem_evaluate"),
        "dpm.gem_evaluate_s": self_s("dpm.gem_evaluate"),
        "dpm.rule_selects": count("dpm.rule_select"),
        "dpm.rule_select_s": self_s("dpm.rule_select"),
        "battery.draws": count("battery.draw"),
        "battery.draw_s": self_s("battery.draw"),
        "battery.samples": count("battery.samples"),
        "thermal.steps": count("thermal.step"),
        "thermal.step_s": self_s("thermal.step"),
        "thermal.samples": count("thermal.samples"),
        "bus.requests": count("bus.request"),
        "bus.request_s": self_s("bus.request", "bus.complete"),
        "bus.transfers": count("bus.transfers"),
        "bus.wait_us_mean": counts["bus.wait_fs"] / grants / 1e9 if grants else 0.0,
        "bus.occupancy_pct": 100.0 * counts["bus.busy_fs"] / bus_elapsed if bus_elapsed else 0.0,
        "platform.builds": count("platform.build"),
        "platform.build_s": self_s("platform.build"),
        "soc.builds": count("soc.build"),
        "soc.build_s": self_s("soc.build"),
        "experiments.dpm_runs": scenario_runs - baseline_runs,
        "experiments.baseline_runs": baseline_runs,
        "experiments.baseline_per_job": baseline_runs / ops,
        "campaign.preflight_s": self_s("campaign.preflight"),
        "campaign.store_puts": count("campaign.store_put"),
        "campaign.store_put_s": self_s("campaign.store_put"),
        "campaign.dispatch_wait_s": self_s("campaign.run"),
        "lint.lint_specs": count("lint.lint_spec"),
        "lint.lint_spec_s": self_s("lint.lint_spec"),
        "lint.reaches": count("lint.reach"),
        "lint.reach_s": self_s("lint.reach"),
        "fuzz.runs_per_platform": scenario_runs / ops if is_fuzz else 0.0,
        "analysis.compare_s": self_s("analysis.compare"),
        "bench.trace_overhead_pct": overhead_pct,
    }
    for oracle in ORACLES:
        values[f"fuzz.oracle_runs.{oracle}"] = count(f"fuzz.oracle_runs.{oracle}")
        values[f"fuzz.oracle_skips.{oracle}"] = count(f"fuzz.oracle_skips.{oracle}")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, own_setup_s=None) -> dict:
    """Set up, measure and check one workload; return the result object."""
    from perfbench import workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        workload = workloads.set_up(name, seed, workdir)
        if own_setup_s is not None:
            own_setup_s += time.perf_counter() - started
            own_setup_s /= hostspeed.slowness(SETUP_SPEED_SAMPLES)
        untraced = measure(workload, seconds, whole_rounds=False)
        print(f"[{name}] host slowness {statistics.median(untraced.slowness):.3f} "
              f"(1 = reference host)", file=sys.stderr)
        problems = list(untraced.problems)
        if not trace:
            traced_module_loaded = "perfbench.tracer" in sys.modules
            values, late_failures = end_to_end(workload, untraced, seed, own_setup_s)
            failed = untraced.failed + late_failures
            correct = failed == 0 and not traced_module_loaded
            units = END_TO_END
            if traced_module_loaded:
                problems.append("the untraced run imported the tracer")
        else:
            from perfbench import tracer as tracing

            tracer = tracing.Tracer()
            installation = tracing.install(tracer)
            try:
                traced = measure(workload, seconds, whole_rounds=True)
            finally:
                installation.uninstall()
            tracer.write(WORK / f"spans-{name}.tsv")
            overhead = 100.0 * (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s
            values = per_layer(tracer, traced, overhead, name == "fuzz-diff")
            differing = sorted(key for key, value in traced.outputs.items()
                               if untraced.outputs.get(key, value) != value)
            failed = untraced.failed + traced.failed + workload.final_check().failed
            problems += traced.problems
            if differing:
                problems.append(f"traced outputs differ from untraced ones: {differing[:5]}")
            correct = failed == 0 and not differing
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:5]:
        print(f"[{name}] check failed: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": untraced.ops,
        "failed": min(failed, untraced.ops),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def print_table(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, metric in result["metrics"].items():
        note = f"   (paper: {PAPER_KCYCLES_PER_S})" if key == "kcycles_per_s" else ""
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}{note}")


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from perfbench import workloads

    if not workloads.GOLDEN_PATH.is_file():
        print(f"error: missing golden file {workloads.GOLDEN_PATH}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # The lint oracle's trace files stay inside the checkout.
    tempfile.tempdir = str(WORK)
    os.environ["TMPDIR"] = str(WORK)
    if args.setup_probe:
        workdir = WORK / f"probe-{os.getpid()}"
        try:
            workloads.set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setup_s = time.perf_counter() - _STARTED
        print(json.dumps({"setup_s": setup_s / hostspeed.slowness(SETUP_SPEED_SAMPLES)}))
        return 0
    if args.all:
        for name in workloads.WORKLOADS:
            print_table(name, run_workload(name, args.seed, args.seconds, bool(args.trace)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          own_setup_s=time.perf_counter() - _STARTED)
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
