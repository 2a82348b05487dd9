"""The scenario catalogue of the paper's evaluation (section 2).

Four single-IP simulations (A1–A4) run *the same sequence of tasks* under
different battery / temperature conditions, and two four-IP simulations with
a GEM (B, C) differ in which IPs are busy:

====  =======  ===========  ==========================================
id    battery  temperature  IP activity
====  =======  ===========  ==========================================
A1    Full     Low          1 IP, mixed busy/idle sequence
A2    Low      Low          same sequence
A3    Full     High         same sequence
A4    Low      High         same sequence
B     Low      Low          IP1/IP2 high activity, IP3/IP4 low activity
C     Low      Low          IP1/IP2 low activity, IP3/IP4 high activity
====  =======  ===========  ==========================================

A :class:`Scenario` is one runnable experiment: a validated
:class:`~repro.platform.spec.PlatformSpec` plus an optional grid seed, made
by :func:`repro.platform.build.to_scenario`.  The
:mod:`repro.experiments.runner` builds and simulates it, once with the
paper's DPM and once with the always-on baseline, to produce one row of
Table 2.

The six rows live in the named platform registry
(:mod:`repro.platform.registry`) as thin specs made by
:func:`~repro.platform.registry.single_ip_platform` and
:func:`~repro.platform.registry.multi_ip_platform`, and
:func:`scenario_by_name` resolves any registered platform — paper row or
user-defined — by name.  This module keeps the presets the specs name
(:func:`battery_condition`, :func:`thermal_condition`) and the common task
sequence of rows A1–A4 (:func:`scenario_a_workload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.battery.model import BatteryConfig
from repro.errors import ExperimentError
from repro.sim.simtime import SimTime, ms
from repro.soc.soc import IpSpec, SocConfig
from repro.soc.workload import Workload, high_activity_workload, low_activity_workload
from repro.thermal.model import ThermalConfig

if TYPE_CHECKING:
    from repro.platform.spec import PlatformSpec

__all__ = [
    "Scenario",
    "battery_condition",
    "thermal_condition",
    "scenario_a_workload",
    "paper_scenarios",
    "scenario_by_name",
]


@dataclass(frozen=True)
class Scenario:
    """One runnable experiment: a validated platform spec and a grid seed.

    Made by :func:`repro.platform.build.to_scenario`, which validates the
    spec.  ``seed``, when set, re-seeds the IP at position ``index`` with
    ``seed + index`` (explicit workloads are untouched).  Everything else
    is derived from the spec.
    """

    spec: PlatformSpec
    seed: Optional[int] = None

    @property
    def name(self) -> str:
        """The platform's name."""
        return self.spec.name

    @property
    def description(self) -> str:
        """The spec's description, or a one-line summary of the platform."""
        spec = self.spec
        return spec.description or (
            f"platform {spec.name!r} ({len(spec.ips)} IPs"
            f"{', GEM' if spec.gem.enabled else ''})"
        )

    @property
    def max_time(self) -> SimTime:
        """Simulated-time budget of one run."""
        return ms(self.spec.max_time_ms)

    def build_specs(self) -> List[IpSpec]:
        """Fresh IP specifications for one run."""
        from repro.platform.build import build_ip_spec

        return [
            build_ip_spec(ipdef, index, self.seed)
            for index, ipdef in enumerate(self.spec.ips)
        ]

    def build_config(self) -> SocConfig:
        """Fresh SoC configuration for one run."""
        from repro.platform.build import build_soc_config

        return build_soc_config(self.spec)


def battery_condition(level: str) -> BatteryConfig:
    """Battery configuration for a named condition (``"full"`` or ``"low"``).

    ``full`` starts at 95 % state of charge (class Full), ``low`` at 20 %
    (class Low); ``medium`` and ``empty`` are provided for sweeps.
    """
    presets = {
        "full": 0.95,
        "high": 0.75,
        "medium": 0.45,
        "low": 0.20,
        "empty": 0.03,
    }
    try:
        soc0 = presets[level.lower()]
    except KeyError:
        raise ExperimentError(f"unknown battery condition {level!r}") from None
    return BatteryConfig(capacity_j=250.0, initial_state_of_charge=soc0)


def thermal_condition(level: str, ip_count: int = 1) -> ThermalConfig:
    """Thermal configuration for a named condition (``"low"`` or ``"high"``).

    The *high* condition models a hot environment: higher ambient and an
    initial die temperature just above the High threshold, so the DPM must
    actively cool the chip down before serving non-critical tasks.  The
    thermal resistance scales inversely with the number of IPs (a larger SoC
    ships with a package designed for its power budget).
    """
    resistance = 60.0 / max(1, ip_count)
    if level.lower() == "low":
        return ThermalConfig(
            ambient_c=35.0,
            initial_c=35.0,
            thermal_resistance_c_per_w=resistance,
        )
    if level.lower() == "high":
        # Hot environment: high ambient and an already warm die.  The busy
        # baseline crosses into the High class, so the DPM must actively keep
        # the chip below it (rows 2 and 4 of Table 1).
        return ThermalConfig(
            ambient_c=68.0,
            initial_c=70.0,
            thermal_resistance_c_per_w=resistance,
        )
    raise ExperimentError(f"unknown thermal condition {level!r}")


def scenario_a_workload(seed: int = 11, task_count: int = 40) -> Workload:
    """The common task sequence of the single-IP scenarios A1–A4.

    Half of the sequence is busy (short idle gaps), half is idle-heavy (long
    gaps), matching the paper's "in some sequences the IP is often busy, in
    some it is often in idle state"; priorities are mixed so the Table-1 rows
    that depend on the priority are all exercised.
    """
    if task_count < 2:
        raise ExperimentError("the scenario A workload needs at least two tasks")
    busy = high_activity_workload(task_count=task_count // 2, seed=seed, name="A-busy")
    idle_heavy = low_activity_workload(
        task_count=task_count - task_count // 2, seed=seed + 1, name="A-idle"
    )
    return Workload(items=list(busy.items) + list(idle_heavy.items), name="scenario-A")


def paper_scenarios() -> List[Scenario]:
    """The six scenarios of the paper's Table 2, in order.

    They are built from the thin built-in
    :class:`~repro.platform.spec.PlatformSpec` objects of the named platform
    registry; the goldens of ``tests/golden/`` pin their results.
    """
    from repro.platform.build import to_scenario
    from repro.platform.registry import paper_platforms

    return [to_scenario(spec) for spec in paper_platforms()]


def scenario_by_name(name: str) -> Scenario:
    """Look up a scenario by name: a Table-2 row or any registered platform."""
    from repro.platform.build import to_scenario
    from repro.platform.registry import has_platform, platform_by_name, platform_names

    if has_platform(name):
        return to_scenario(platform_by_name(name))
    raise ExperimentError(
        f"unknown scenario {name!r}; valid names: {', '.join(platform_names())}. "
        "Custom platforms can be registered with repro.platform.register_platform "
        "or loaded from a spec file with repro.platform.load_platform."
    )
