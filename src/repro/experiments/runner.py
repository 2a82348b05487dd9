"""Experiment runner.

:func:`run_scenario` builds and simulates one scenario with one DPM setup and
returns the raw artefacts (SoC, executions, wall-clock figures).
:func:`run_comparison` runs the scenario twice — once with the DPM under
study and once with the paper's reference configuration (maximum frequency,
never sleep) — and reduces the two runs to the Table-2 metrics.

Every runner accepts, in place of a :class:`Scenario`, a
:class:`~repro.platform.spec.PlatformSpec` (built on the fly) or a scenario
name (resolved through the named platform registry).  A ``None`` setup
defers to the spec's own :class:`~repro.platform.spec.PolicyDef` (when
present) and the spec's GEM tunables are applied to whichever setup runs.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.metrics import ScenarioMetrics, compare_runs
from repro.dpm.controller import DpmSetup
from repro.errors import ExperimentError
from repro.experiments.scenarios import Scenario
from repro.power.states import PowerState
from repro.sim.simtime import SimTime
from repro.soc.soc import SoC, build_soc
from repro.soc.task import TaskExecution

__all__ = [
    "BaselineFigures",
    "RunArtifacts",
    "run_baseline",
    "run_comparison",
    "run_scenario",
]


@dataclass
class BaselineFigures:
    """The figures of a baseline run that Table-2 metrics actually consume.

    Unlike :class:`RunArtifacts` this is plain picklable data, so a campaign
    can compute the baseline of a scenario cell once and share it across
    every job of the grid.
    """

    scenario: str
    setup: str
    total_energy_j: float
    average_rise_c: float
    peak_temperature_c: float
    all_tasks_completed: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for JSON storage.

        The constant ``accuracy`` entry keeps stored baseline records
        byte-identical to those written while a second mode existed.
        """
        return {
            "scenario": self.scenario,
            "setup": self.setup,
            "accuracy": "exact",
            "total_energy_j": self.total_energy_j,
            "average_rise_c": self.average_rise_c,
            "peak_temperature_c": self.peak_temperature_c,
            "all_tasks_completed": self.all_tasks_completed,
        }

    @staticmethod
    def from_dict(value) -> "BaselineFigures":
        """Rebuild from :meth:`as_dict` output."""
        return BaselineFigures(
            scenario=str(value["scenario"]),
            setup=str(value["setup"]),
            total_energy_j=float(value["total_energy_j"]),
            average_rise_c=float(value["average_rise_c"]),
            peak_temperature_c=float(value["peak_temperature_c"]),
            all_tasks_completed=bool(value["all_tasks_completed"]),
        )


@dataclass
class RunArtifacts:
    """Everything produced by one simulated run of a scenario."""

    scenario: str
    setup: str
    soc: SoC
    end_time: SimTime
    wall_clock_s: float
    executions: List[TaskExecution] = field(default_factory=list)
    #: Where the run's event/waveform trace was written (None when untraced).
    trace_path: Optional[Path] = None

    @property
    def total_energy_j(self) -> float:
        """SoC energy consumed during the run."""
        return self.soc.total_energy_j()

    @property
    def average_rise_c(self) -> float:
        """Average chip temperature rise above ambient during the run."""
        return self.soc.thermal.average_rise_c

    @property
    def peak_temperature_c(self) -> float:
        """Peak chip temperature reached during the run."""
        return self.soc.thermal.peak_c

    @property
    def all_tasks_completed(self) -> bool:
        """True when every IP drained its workload within the time budget."""
        return self.soc.all_done

    def cycles_simulated(self) -> float:
        """Simulated time expressed in reference (ON1) clock cycles."""
        characterization = self.soc.instances[0].characterization
        period = characterization.operating_points.point(PowerState.ON1).clock_period
        return self.end_time / period

    def kilocycles_per_second(self) -> float:
        """Simulation speed in kilo clock cycles per wall-clock second."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.cycles_simulated() / self.wall_clock_s / 1e3

    def bus_summary(self) -> Optional[Dict[str, float]]:
        """Shared-bus figures of the run, or ``None`` on bus-less platforms."""
        bus = self.soc.bus
        if bus is None:
            return None
        return {
            "occupancy_pct": 100.0 * bus.occupancy(),
            "transfer_count": float(bus.stats.transfer_count),
            "words_transferred": float(bus.stats.words_transferred),
            "average_wait_us": bus.stats.average_wait().seconds * 1e6,
            "cancelled_count": float(bus.stats.cancelled_count),
        }

    def per_ip_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-IP energy, task count and mean delay overhead."""
        summary: Dict[str, Dict[str, float]] = {}
        for instance in self.soc.instances:
            executions = instance.ip.executions
            overheads = [execution.delay_overhead for execution in executions]
            summary[instance.spec.name] = {
                "energy_j": instance.ip.energy_account.total_j,
                "tasks": float(len(executions)),
                "mean_delay_overhead_pct": (
                    100.0 * sum(overheads) / len(overheads) if overheads else 0.0
                ),
                "transitions": float(instance.psm.transition_count),
            }
        return summary


def _as_scenario(scenario) -> Scenario:
    """Accept a :class:`Scenario`, a platform spec, or a scenario name."""
    if isinstance(scenario, Scenario):
        return scenario
    from repro.platform.build import to_scenario
    from repro.platform.spec import PlatformSpec

    if isinstance(scenario, PlatformSpec):
        return to_scenario(scenario)
    if isinstance(scenario, str):
        from repro.experiments.scenarios import scenario_by_name

        return scenario_by_name(scenario)
    raise ExperimentError(
        f"cannot run {scenario!r}: expected a Scenario, a PlatformSpec or a "
        "scenario/platform name"
    )


def _resolve_trace_request(scenario: Scenario, trace):
    """Turn run_scenario's ``trace`` argument into a TraceRequest or None.

    ``None`` defers to the scenario's platform spec (the ``trace:`` section
    of a :class:`~repro.platform.spec.PlatformSpec`); ``False`` disables
    tracing regardless of the spec; a
    :class:`~repro.obs.session.TraceRequest` is used as-is.
    """
    if trace is False:
        return None
    if trace is None:
        trace_def = scenario.spec.trace
        if not trace_def.enabled:
            # The common case: repro.obs stays entirely unimported.
            return None
        from repro.obs.session import TraceRequest

        return TraceRequest.from_trace_def(trace_def)
    from repro.obs.session import TraceRequest

    if isinstance(trace, TraceRequest):
        return trace
    raise ExperimentError(
        f"trace must be a TraceRequest, None or False, got {trace!r}"
    )


def run_scenario(
    scenario: "Scenario | str",
    setup: Optional[DpmSetup] = None,
    trace=None,
) -> RunArtifacts:
    """Build and simulate ``scenario`` once under ``setup`` (default: paper DPM).

    ``trace`` controls event tracing: ``None`` (default) follows the
    platform spec's ``trace:`` section, ``False`` forces tracing off, and a
    :class:`~repro.obs.session.TraceRequest` traces the run explicitly.
    """
    from repro.platform.build import platform_setup

    scenario = _as_scenario(scenario)
    setup = platform_setup(scenario, setup, DpmSetup.paper, use_policy=True)
    request = _resolve_trace_request(scenario, trace)
    specs = scenario.build_specs()
    config = scenario.build_config()
    soc = build_soc(specs, config, setup)
    session = None
    if request is not None:
        from repro.obs.session import TraceSession

        session = TraceSession(request, stem=scenario.name)
        session.attach(soc)
    wall_start = _wallclock.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
    end_time = soc.run_until_done(max_time=scenario.max_time)
    wall_elapsed = _wallclock.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
    trace_path = None
    if session is not None:
        trace_path = session.finish(end_time=end_time)
    executions: List[TaskExecution] = []
    for instance in soc.instances:
        executions.extend(instance.ip.executions)
    if not executions:
        raise ExperimentError(
            f"scenario {scenario.name!r} executed no tasks under setup {setup.name!r}"
        )
    return RunArtifacts(
        scenario=scenario.name,
        setup=setup.name,
        soc=soc,
        end_time=end_time,
        wall_clock_s=wall_elapsed,
        executions=executions,
        trace_path=trace_path,
    )


def run_baseline(
    scenario: "Scenario | str",
    baseline: Optional[DpmSetup] = None,
) -> BaselineFigures:
    """Run the reference configuration once and reduce it to plain figures."""
    from repro.platform.build import platform_setup

    scenario = _as_scenario(scenario)
    baseline = platform_setup(scenario, baseline, DpmSetup.always_on)
    # The baseline never traces: a spec-enabled trace would clobber the DPM
    # run's output file and the reference run is not the run under study.
    run = run_scenario(scenario, baseline, trace=False)
    return BaselineFigures(
        scenario=scenario.name,
        setup=baseline.name,
        total_energy_j=run.total_energy_j,
        average_rise_c=run.average_rise_c,
        peak_temperature_c=run.peak_temperature_c,
        all_tasks_completed=run.all_tasks_completed,
    )


def run_comparison(
    scenario: "Scenario | str",
    dpm: Optional[DpmSetup] = None,
    baseline: Optional[DpmSetup] = None,
    accuracy: Optional[str] = None,
    baseline_figures: Optional[BaselineFigures] = None,
    trace=None,
) -> ScenarioMetrics:
    """Run ``scenario`` with the DPM and with the baseline; return Table-2 metrics.

    ``accuracy`` accepts only ``None`` or ``"exact"``, the single mode
    every run uses; it remains because ``perfbench/workloads.py`` passes
    it, and anything else raises :class:`ValueError`.

    ``baseline_figures`` (e.g. from a campaign's shared-baseline cache)
    skips the baseline run entirely; runs are deterministic, so the shared
    figures are identical to a freshly computed baseline.

    ``trace`` applies to the DPM run only (semantics as in
    :func:`run_scenario`); the baseline run is never traced.
    """
    from repro.platform.build import platform_setup

    if accuracy not in (None, "exact"):
        raise ValueError(f"unknown accuracy mode {accuracy!r} (only 'exact' exists)")
    scenario = _as_scenario(scenario)
    dpm = platform_setup(scenario, dpm, DpmSetup.paper, use_policy=True)
    baseline = platform_setup(scenario, baseline, DpmSetup.always_on)
    dpm_run = run_scenario(scenario, dpm, trace=trace)
    if baseline_figures is None:
        baseline_figures = run_baseline(scenario, baseline)
    if not dpm_run.all_tasks_completed:
        raise ExperimentError(
            f"scenario {scenario.name!r}: the DPM run did not finish within the time budget"
        )
    if not baseline_figures.all_tasks_completed:
        raise ExperimentError(
            f"scenario {scenario.name!r}: the baseline run did not finish within the time budget"
        )
    metrics = compare_runs(
        scenario=scenario.name,
        dpm_energy_j=dpm_run.total_energy_j,
        baseline_energy_j=baseline_figures.total_energy_j,
        dpm_rise_c=dpm_run.average_rise_c,
        baseline_rise_c=baseline_figures.average_rise_c,
        dpm_executions=dpm_run.executions,
        dpm_peak_c=dpm_run.peak_temperature_c,
        baseline_peak_c=baseline_figures.peak_temperature_c,
        simulated_time_s=dpm_run.end_time.seconds,
        wall_clock_s=dpm_run.wall_clock_s,
        kilocycles_per_second=dpm_run.kilocycles_per_second(),
        per_ip=dpm_run.per_ip_summary(),
        bus=dpm_run.bus_summary(),
    )
    return metrics
