"""Bridge from a :class:`~repro.platform.spec.PlatformSpec` to runnable objects.

The spec tree is pure data; this module turns it into the library's value
objects (:class:`~repro.soc.soc.IpSpec`, :class:`~repro.soc.soc.SocConfig`,
:class:`~repro.power.model.PowerModel`,
:class:`~repro.dpm.controller.DpmSetup`) and, through :func:`to_scenario`,
into the :class:`~repro.experiments.scenarios.Scenario` the runners take:
the spec plus an optional grid seed.  The runners read the spec's policy,
GEM tunables and trace section from ``scenario.spec``.

A spec that leaves every optional knob unset builds the library's default
objects (the shared default power model, the paper's DPM setup), which is
how the six paper rows stay thin built-in specs (see
:mod:`repro.platform.registry`) while the pinned goldens stay
bit-identical.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Callable, Dict, Optional, Tuple

from repro.battery.model import BatteryConfig
from repro.dpm.controller import DpmSetup
from repro.dpm.rules import RuleTable
from repro.dpm.predictor import (
    AdaptivePredictor,
    ExponentialAveragePredictor,
    FixedPredictor,
    LastValuePredictor,
)
from repro.errors import PlatformError
from repro.experiments.scenarios import (
    Scenario,
    battery_condition,
    scenario_a_workload,
    thermal_condition,
)
from repro.platform.spec import (
    CHARACTERIZATION_FIELDS,
    BatteryDef,
    IpDef,
    PlatformSpec,
    PolicyDef,
    ThermalDef,
    WorkloadDef,
)
from repro.power.characterization import (
    DEFAULT_ACTIVITY,
    DEFAULT_RESIDUAL_FRACTION,
    InstructionClass,
    PowerCharacterization,
)
from repro.power.model import PowerModel, default_power_model, scaled_transition_table
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.power.states import PowerState
from repro.power.transitions import TransitionCost, TransitionTable
from repro.sim.simtime import ms, us
from repro.soc.soc import IpSpec, SocConfig
from repro.soc.task import TaskPriority
from repro.soc.workload import (
    Workload,
    bursty_workload,
    high_activity_workload,
    low_activity_workload,
    periodic_workload,
    random_workload,
)
from repro.thermal.model import ThermalConfig

__all__ = [
    "build_battery_config",
    "build_characterization",
    "build_dpm_setup",
    "build_ip_spec",
    "build_soc_config",
    "build_thermal_config",
    "build_transitions",
    "build_workload",
    "ip_power_model",
    "platform_setup",
    "to_scenario",
]

_PREDICTOR_FACTORIES = {
    "fixed": FixedPredictor,
    "last-value": LastValuePredictor,
    "ewma": ExponentialAveragePredictor,
    "adaptive": AdaptivePredictor,
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_workload(wdef: WorkloadDef, seed_override: Optional[int] = None) -> Workload:
    """Instantiate the workload described by ``wdef``.

    ``seed_override`` replaces the definition's own seed (campaign grids
    sweep seeds this way); it is ignored by ``explicit`` workloads, which
    have no randomness.  Fields left unset fall through to the generator's
    own defaults, so the mapping stays in one place.
    """
    seed = seed_override if seed_override is not None else wdef.seed
    kwargs: Dict[str, object] = {}

    def put(key: str, value) -> None:
        if value is not None:
            kwargs[key] = value

    kind = wdef.kind
    if kind == "explicit":
        return _post_transform(
            wdef, Workload.from_dicts(wdef.items or [], name=wdef.name or "workload")
        )
    if kind == "scenario_a":
        put("seed", seed)
        put("task_count", wdef.task_count)
        workload = scenario_a_workload(**kwargs)
        if wdef.name:
            workload.name = wdef.name
        return _post_transform(wdef, workload)

    put("name", wdef.name)
    put("seed", seed)
    if wdef.priorities is not None:
        kwargs["priorities"] = tuple(TaskPriority(p) for p in wdef.priorities)
    if kind == "periodic":
        kwargs.pop("seed", None)  # deterministic generator
        put("task_count", wdef.task_count)
        put("cycles", wdef.cycles)
        kwargs.pop("priorities", None)
        if wdef.idle_us is not None:
            kwargs["idle"] = us(wdef.idle_us)
        if wdef.priority is not None:
            kwargs["priority"] = TaskPriority(wdef.priority)
        if wdef.instruction_class is not None:
            kwargs["instruction_class"] = InstructionClass(wdef.instruction_class)
        workload = periodic_workload(**kwargs)
    elif kind == "random":
        put("task_count", wdef.task_count)
        if wdef.cycles_min is not None:
            kwargs["cycles_range"] = (wdef.cycles_min, wdef.cycles_max)
        if wdef.idle_min_us is not None:
            kwargs["idle_range"] = (us(wdef.idle_min_us), us(wdef.idle_max_us))
        workload = random_workload(**kwargs)
    elif kind == "high_activity":
        put("task_count", wdef.task_count)
        workload = high_activity_workload(**kwargs)
    elif kind == "low_activity":
        put("task_count", wdef.task_count)
        workload = low_activity_workload(**kwargs)
    elif kind == "bursty":
        put("burst_count", wdef.burst_count)
        put("tasks_per_burst", wdef.tasks_per_burst)
        if wdef.cycles_min is not None:
            kwargs["cycles_range"] = (wdef.cycles_min, wdef.cycles_max)
        if wdef.intra_burst_idle_us is not None:
            kwargs["intra_burst_idle"] = us(wdef.intra_burst_idle_us)
        if wdef.inter_burst_idle_us is not None:
            kwargs["inter_burst_idle"] = us(wdef.inter_burst_idle_us)
        workload = bursty_workload(**kwargs)
    else:  # pragma: no cover - validate() rejects unknown kinds first
        raise PlatformError(f"unknown workload kind {kind!r}")
    return _post_transform(wdef, workload)


def _post_transform(wdef: WorkloadDef, workload: Workload) -> Workload:
    if wdef.force_priority is not None:
        workload = workload.with_priority(TaskPriority(wdef.force_priority))
    if wdef.idle_scale is not None:
        workload = workload.scaled_idle(wdef.idle_scale)
    return workload


# ----------------------------------------------------------------------
# Characterisation and transitions
# ----------------------------------------------------------------------
def build_characterization(ipdef: IpDef) -> Optional[PowerCharacterization]:
    """The IP's characterisation, or ``None`` for the library default.

    Returning ``None`` (rather than a fresh default object) lets
    :func:`ip_power_model` hand every default IP the one shared
    :func:`~repro.power.model.default_power_model`.
    """
    if not ipdef.has_custom_characterization():
        return None
    if ipdef.operating_points is not None:
        table = OperatingPointTable(
            OperatingPoint(
                state=PowerState(p.state),
                voltage_v=p.voltage_v,
                frequency_hz=p.frequency_hz,
            )
            for p in ipdef.operating_points
        )
    else:
        from repro.power.operating_point import default_operating_points

        table = default_operating_points(
            max_frequency_hz=ipdef.max_frequency_hz or 200e6,
            max_voltage_v=ipdef.max_voltage_v or 1.2,
        )
    activity = dict(DEFAULT_ACTIVITY)
    if ipdef.activity_by_class:
        activity.update(
            {InstructionClass(key): value for key, value in ipdef.activity_by_class.items()}
        )
    residual = dict(DEFAULT_RESIDUAL_FRACTION)
    if ipdef.residual_fraction:
        residual.update(
            {PowerState(key): value for key, value in ipdef.residual_fraction.items()}
        )
    kwargs: Dict[str, object] = {
        "operating_points": table,
        "activity_by_class": activity,
        "residual_fraction": residual,
    }
    if ipdef.effective_capacitance_f is not None:
        kwargs["effective_capacitance_f"] = ipdef.effective_capacitance_f
    if ipdef.idle_activity is not None:
        kwargs["idle_activity"] = ipdef.idle_activity
    if ipdef.leakage_coefficient is not None:
        kwargs["leakage_coefficient"] = ipdef.leakage_coefficient
    return PowerCharacterization(**kwargs)


def build_transitions(
    ipdef: IpDef, characterization: Optional[PowerCharacterization]
) -> Optional[TransitionTable]:
    """The IP's transition table, or ``None`` for the generated default."""
    psm = ipdef.psm
    if psm is None:
        return None
    kwargs: Dict[str, object] = {}
    if psm.dvfs_latency_us is not None:
        kwargs["dvfs_latency"] = us(psm.dvfs_latency_us)
    if psm.entry_latency_us:
        kwargs["sleep_entry_latency"] = {
            PowerState(state): us(value) for state, value in psm.entry_latency_us.items()
        }
    if psm.wakeup_latency_us:
        kwargs["wakeup_latency"] = {
            PowerState(state): us(value) for state, value in psm.wakeup_latency_us.items()
        }
    table = scaled_transition_table(
        characterization or default_power_model().characterization, **kwargs
    )
    if not psm.transitions:
        return table
    costs: Dict[Tuple[PowerState, PowerState], TransitionCost] = dict(table.costs)
    for entry in psm.transitions:
        pair = (PowerState(entry.source), PowerState(entry.target))
        if entry.allowed:
            costs[pair] = TransitionCost(entry.energy_j, us(entry.latency_us))
        else:
            costs.pop(pair, None)
    return TransitionTable(costs)


#: IpDef fields that determine the IP's power model; no other field does.
_POWER_FIELDS = CHARACTERIZATION_FIELDS + ("psm",)


class _PowerFields:
    """An IpDef seen only through its power fields: equal, and hashing
    alike, exactly when their canonical JSON is equal."""

    __slots__ = ("ipdef", "key")

    def __init__(self, ipdef: IpDef) -> None:
        self.ipdef = ipdef
        self.key = json.dumps(
            {key: getattr(ipdef, key) for key in _POWER_FIELDS
             if getattr(ipdef, key) is not None},
            sort_keys=True, separators=(",", ":"), default=lambda value: value.to_dict(),
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _PowerFields) and self.key == other.key


@functools.lru_cache(maxsize=256)
def _power_model(fields: _PowerFields) -> PowerModel:
    characterization = build_characterization(fields.ipdef)
    return PowerModel.build(characterization, build_transitions(fields.ipdef, characterization))


def ip_power_model(ipdef: IpDef) -> PowerModel:
    """The IP's :class:`~repro.power.model.PowerModel`, built once per content.

    Models are cached per process, keyed by the canonical JSON of the power
    fields only (characterisation, ``operating_points``, ``psm``): IPs that
    differ in name, workload, priorities or bus use share one model, and an
    IP with none of those fields gets :func:`default_power_model`.  The
    cache is bounded; ``ip_power_model.cache_info()`` reports its use.
    """
    return _power_model(_PowerFields(ipdef))


ip_power_model.cache_info = _power_model.cache_info  # type: ignore[attr-defined]


def build_ip_spec(ipdef: IpDef, index: int = 0, seed: Optional[int] = None) -> IpSpec:
    """One :class:`IpSpec` from its definition.

    A grid ``seed`` re-seeds the IP's generator workload with
    ``seed + index`` (the IP's position in the platform), so sweeping a seed
    re-rolls every IP while keeping them decorrelated.
    """
    return IpSpec(
        name=ipdef.name,
        workload=build_workload(
            ipdef.workload, None if seed is None else seed + index
        ),
        static_priority=ipdef.static_priority,
        power=ip_power_model(ipdef),
        initial_state=PowerState(ipdef.initial_state),
        bus_words_per_task=ipdef.bus_words_per_task,
        bus_priority=ipdef.bus_priority,
    )


# ----------------------------------------------------------------------
# SoC-level configuration
# ----------------------------------------------------------------------
def build_battery_config(bdef: BatteryDef) -> BatteryConfig:
    """Battery configuration: preset (if any) plus explicit overrides."""
    base = battery_condition(bdef.condition) if bdef.condition else BatteryConfig()
    overrides: Dict[str, object] = {}
    if bdef.capacity_j is not None:
        overrides["capacity_j"] = bdef.capacity_j
    if bdef.state_of_charge is not None:
        overrides["initial_state_of_charge"] = bdef.state_of_charge
    if bdef.nominal_power_w is not None:
        overrides["nominal_power_w"] = bdef.nominal_power_w
    if bdef.peukert_exponent is not None:
        overrides["peukert_exponent"] = bdef.peukert_exponent
    if bdef.self_discharge_w is not None:
        overrides["self_discharge_w"] = bdef.self_discharge_w
    if bdef.on_ac_power is not None:
        overrides["on_ac_power"] = bdef.on_ac_power
    return dataclasses.replace(base, **overrides) if overrides else base


def build_thermal_config(tdef: ThermalDef, ip_count: int) -> ThermalConfig:
    """Thermal configuration: preset (scaled to ``ip_count``) plus overrides."""
    base = (
        thermal_condition(tdef.condition, ip_count=ip_count)
        if tdef.condition
        else ThermalConfig()
    )
    overrides: Dict[str, object] = {}
    if tdef.ambient_c is not None:
        overrides["ambient_c"] = tdef.ambient_c
    if tdef.initial_c is not None:
        overrides["initial_c"] = tdef.initial_c
    if tdef.resistance_c_per_w is not None:
        overrides["thermal_resistance_c_per_w"] = tdef.resistance_c_per_w
    if tdef.capacitance_j_per_c is not None:
        overrides["thermal_capacitance_j_per_c"] = tdef.capacitance_j_per_c
    if tdef.fan_resistance_scale is not None:
        overrides["fan_resistance_scale"] = tdef.fan_resistance_scale
    return dataclasses.replace(base, **overrides) if overrides else base


def build_soc_config(spec: PlatformSpec) -> SocConfig:
    """The :class:`SocConfig` of one run of ``spec``."""
    return SocConfig(
        name=f"soc_{spec.name}",
        battery=build_battery_config(spec.battery),
        thermal=build_thermal_config(spec.thermal, ip_count=len(spec.ips)),
        sample_interval=us(spec.sample_interval_us),
        use_gem=spec.gem.enabled,
        with_fan=spec.with_fan,
        fan_power_w=spec.fan_power_w,
        with_bus=spec.bus.enabled,
        bus_words_per_second=spec.bus.words_per_second,
        bus_arbitration=spec.bus.arbitration,
        bus_timing=spec.bus.timing,
        bus_words_per_cycle=spec.bus.words_per_cycle,
    )


# ----------------------------------------------------------------------
# Policy / setup
# ----------------------------------------------------------------------
def build_dpm_setup(policy: PolicyDef) -> DpmSetup:
    """A :class:`DpmSetup` from the platform's :class:`PolicyDef`."""
    policy.validate("platform.policy")
    allow_off = True if policy.allow_off is None else policy.allow_off
    if policy.name == "paper":
        predictor = (
            _PREDICTOR_FACTORIES[policy.predictor] if policy.predictor else None
        )
        rules = (
            RuleTable.from_dicts(policy.rules, name="policy-rules")
            if policy.rules
            else None
        )
        setup = DpmSetup.paper(
            rules=rules, allow_off=allow_off, predictor_factory=predictor
        )
    elif policy.name == "always-on":
        setup = DpmSetup.always_on()
    elif policy.name == "greedy-sleep":
        setup = DpmSetup.greedy_sleep(allow_off=allow_off)
    elif policy.name == "oracle":
        setup = DpmSetup.oracle()
    else:  # fixed-timeout (validate() restricts the vocabulary)
        setup = DpmSetup.fixed_timeout(ms(policy.timeout_ms or 2.0))
    lem_overrides: Dict[str, object] = {}
    if policy.allow_off is not None:
        lem_overrides["allow_off"] = policy.allow_off
    if policy.reevaluation_interval_us is not None:
        lem_overrides["reevaluation_interval"] = us(policy.reevaluation_interval_us)
    if policy.defer_state is not None:
        lem_overrides["defer_state"] = PowerState(policy.defer_state)
    if policy.estimation_state is not None:
        lem_overrides["estimation_state"] = PowerState(policy.estimation_state)
    if lem_overrides:
        setup.lem_config = dataclasses.replace(setup.lem_config, **lem_overrides)
    return setup


def _apply_gem_overrides(spec: PlatformSpec, setup: DpmSetup) -> DpmSetup:
    if not spec.gem.has_overrides():
        return setup
    overrides: Dict[str, object] = {}
    if spec.gem.high_priority_count is not None:
        overrides["high_priority_count"] = spec.gem.high_priority_count
    if spec.gem.evaluation_interval_us is not None:
        overrides["evaluation_interval"] = us(spec.gem.evaluation_interval_us)
    if spec.gem.forced_state is not None:
        overrides["forced_state"] = PowerState(spec.gem.forced_state)
    return dataclasses.replace(
        setup, gem_config=dataclasses.replace(setup.gem_config, **overrides)
    )


def platform_setup(
    scenario: Scenario,
    setup: Optional[DpmSetup],
    default: Callable[[], DpmSetup],
    use_policy: bool = False,
) -> DpmSetup:
    """Resolve the setup for one run of ``scenario``.

    ``None`` resolves to the spec's own :class:`PolicyDef` (when
    ``use_policy`` and the spec has one), else to the ``default`` factory;
    the spec's GEM tunables are then applied to whatever setup runs.
    """
    spec = scenario.spec
    if setup is None:
        if use_policy and spec.policy is not None:
            setup = build_dpm_setup(spec.policy)
        else:
            setup = default()
    return _apply_gem_overrides(spec, setup)


def to_scenario(spec: PlatformSpec, seed: Optional[int] = None) -> Scenario:
    """Turn a validated spec into a runnable scenario.

    ``seed``, when given, re-seeds every generator workload with
    ``seed + ip_index`` (explicit workloads are untouched) — the hook
    campaign grids use to sweep seeds over platform files.
    """
    return Scenario(spec.validate(), seed)
