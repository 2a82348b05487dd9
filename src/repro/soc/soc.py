"""SoC builder: wires IPs, PSMs, LEMs, GEM, battery, thermal sensor and bus.

This module turns a declarative description (:class:`IpSpec` per IP plus a
:class:`SocConfig`) into a ready-to-run :class:`SoC` — the structure of the
paper's Fig. 1: every IP gets a PSM and a LEM; the optional GEM, battery
monitor, temperature sensor, supplementary fan and shared bus are SoC-level
singletons.

The same builder produces both the DPM configuration under study and the
paper's baseline (maximum frequency, never sleep): only the
:class:`~repro.dpm.controller.DpmSetup` changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.battery.model import Battery, BatteryConfig
from repro.battery.monitor import BatteryMonitor
from repro.errors import ConfigurationError
from repro.power.characterization import PowerCharacterization
from repro.power.energy import EnergyLedger
from repro.power.model import PowerModel, default_power_model
from repro.power.psm import PowerStateMachine
from repro.power.states import PowerState
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms, sec
from repro.sim.simulator import Simulator
from repro.soc.bus import Bus
from repro.soc.ip import FunctionalIP
from repro.soc.workload import Workload
from repro.thermal.fan import Fan
from repro.thermal.model import ThermalConfig, ThermalModel
from repro.thermal.sensor import TemperatureSensor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dpm imports soc.task)
    from repro.dpm.controller import DpmSetup
    from repro.dpm.gem import GlobalEnergyManager
    from repro.dpm.lem import LocalEnergyManager

__all__ = ["IpSpec", "SocConfig", "IpInstance", "SoC", "build_soc"]


@dataclass
class IpSpec:
    """Declarative description of one IP block.

    ``power`` is the IP's derived power model (characterisation, transition
    costs, break-even analysis).  It is immutable and may be shared by any
    number of specs and SoCs; the default is the process-wide library model.
    """

    name: str
    workload: Workload
    static_priority: int = 1
    power: PowerModel = field(default_factory=default_power_model)
    initial_state: PowerState = PowerState.ON1
    bus_words_per_task: int = 0
    #: arbitration priority on the shared bus; ``None`` reuses the static
    #: priority (lower wins), the historical behaviour
    bus_priority: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("IP name must be non-empty")
        if self.static_priority < 1:
            raise ConfigurationError("static priority must be >= 1")
        if self.bus_priority is not None and self.bus_priority < 0:
            raise ConfigurationError("bus priority must be >= 0")


@dataclass
class SocConfig:
    """SoC-level configuration shared by every IP."""

    name: str = "soc"
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    sample_interval: SimTime = field(default_factory=lambda: ms(1))
    use_gem: bool = False
    with_fan: bool = True
    fan_power_w: float = 0.05
    with_bus: bool = False
    bus_words_per_second: float = 50e6
    bus_arbitration: str = "priority"
    bus_timing: str = "event_driven"
    bus_words_per_cycle: int = 1
    trace_states: bool = False

    def __post_init__(self) -> None:
        if self.sample_interval.is_zero:
            raise ConfigurationError("sample interval must be positive")


@dataclass
class IpInstance:
    """One built IP with its power-management entourage."""

    spec: IpSpec
    ip: FunctionalIP
    psm: PowerStateMachine
    lem: "LocalEnergyManager"
    characterization: PowerCharacterization


class SoC(Module):
    """The built SoC of Fig. 1, ready to simulate."""

    #: structured-tracing hook (repro.obs); None keeps every hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None
    #: last battery/thermal levels reported on the trace (level-change
    #: detection; seeded by repro.obs.instrument)
    _traced_battery_level = None
    _traced_thermal_level = None

    def __init__(self, simulator: Simulator, config: SocConfig) -> None:
        super().__init__(simulator.kernel, config.name)
        self.simulator = simulator
        self.config = config
        self.ledger = EnergyLedger()
        self.battery = Battery(config.battery)
        self.thermal = ThermalModel(config.thermal)
        # The sensors have no process of their own: the SoC's one sampler
        # thread posts the lazily integrated books once per window, then
        # samples the monitor, then the sensor.
        self.battery_monitor = BatteryMonitor(
            simulator.kernel,
            "battery_monitor",
            self.battery,
            self.ledger,
            sample_interval=config.sample_interval,
            parent=self,
        )
        self.temperature_sensor = TemperatureSensor(
            simulator.kernel,
            "temperature_sensor",
            self.thermal,
            self.ledger,
            sample_interval=config.sample_interval,
            parent=self,
        )
        self.add_thread(self._shared_sample_loop, name="sampler")
        self.fan: Optional[Fan] = None
        if config.with_fan:
            self.fan = Fan(
                simulator.kernel,
                "fan",
                self.thermal,
                self.ledger.account("fan"),
                power_w=config.fan_power_w,
                parent=self,
            )
        self.bus: Optional[Bus] = None
        if config.with_bus:
            self.bus = Bus(
                simulator.kernel,
                "bus",
                words_per_second=config.bus_words_per_second,
                arbitration=config.bus_arbitration,
                timing=config.bus_timing,
                words_per_cycle=config.bus_words_per_cycle,
                parent=self,
            )
        self.gem: Optional[GlobalEnergyManager] = None
        self.instances: List[IpInstance] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ips(self) -> List[FunctionalIP]:
        """The functional IP blocks, in creation order."""
        return [instance.ip for instance in self.instances]

    @property
    def lems(self) -> List[LocalEnergyManager]:
        """The local energy managers, in creation order."""
        return [instance.lem for instance in self.instances]

    @property
    def psms(self) -> List[PowerStateMachine]:
        """The power state machines, in creation order."""
        return [instance.psm for instance in self.instances]

    def instance(self, name: str) -> IpInstance:
        """Look up one IP instance by name."""
        for candidate in self.instances:
            if candidate.spec.name == name:
                return candidate
        raise ConfigurationError(f"SoC has no IP named {name!r}")

    @property
    def all_done(self) -> bool:
        """True once every IP finished its task source."""
        return all(ip.done for ip in self.ips)

    def total_energy_j(self) -> float:
        """SoC-wide energy consumed so far."""
        return self.ledger.total_j

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run_until_done(
        self,
        max_time: SimTime = sec(10),
        check_interval: SimTime = ms(5),
    ) -> SimTime:
        """Simulate until every IP finished (or ``max_time`` elapsed).

        Returns the simulated time at the end of the run.  Energy books are
        flushed so the ledger reflects the full interval.
        """
        if max_time.is_zero:
            raise ConfigurationError("max_time must be positive")
        kernel = self.kernel
        while not self.all_done and kernel.now < max_time:
            remaining = max_time - kernel.now
            kernel.run(check_interval if check_interval < remaining else remaining)
        self.flush()
        return kernel.now

    def _shared_sample_loop(self):
        """One periodic process: flush the books once, then sample both sensors."""
        interval = self.config.sample_interval
        flush_books = self.flush_power_books
        monitor_sample = self.battery_monitor.sample_now
        sensor_sample = self.temperature_sensor.sample_now
        while True:
            yield interval
            flush_books()
            monitor_sample()
            sensor_sample()
            if self._tracer is not None:
                self._trace_sample()

    def _trace_sample(self) -> None:
        """Emit one ``sample.window`` event plus any level crossings."""
        tracer = self._tracer
        now_fs = self.kernel.now_fs
        soc_value = self.battery.state_of_charge
        temperature = self.thermal.temperature_c
        tracer.emit(now_fs, "sample.window", self.name,
                    state_of_charge=soc_value, temperature_c=temperature)
        battery_level = self.battery.level
        if battery_level is not self._traced_battery_level:
            self._traced_battery_level = battery_level
            tracer.emit(now_fs, "battery.level", self.name,
                        level=str(battery_level), state_of_charge=soc_value)
        thermal_level = self.thermal.level
        if thermal_level is not self._traced_thermal_level:
            self._traced_thermal_level = thermal_level
            tracer.emit(now_fs, "thermal.level", self.name,
                        level=str(thermal_level), temperature_c=temperature)

    def flush_power_books(self) -> None:
        """Post the lazily integrated background/fan energy up to now."""
        for instance in self.instances:
            instance.psm.flush_energy()
        if self.fan is not None:
            self.fan.flush_energy()

    def flush(self) -> None:
        """Close the energy books of every PSM and the fan, and resample sensors."""
        self.flush_power_books()
        self.battery_monitor.sample_now()
        self.temperature_sensor.sample_now()
        if self._tracer is not None:
            self._trace_sample()


def build_soc(
    ip_specs: Sequence[IpSpec],
    soc_config: Optional[SocConfig] = None,
    dpm: Optional[DpmSetup] = None,
    simulator: Optional[Simulator] = None,
) -> SoC:
    """Build the complete SoC of Fig. 1.

    Parameters
    ----------
    ip_specs:
        One :class:`IpSpec` per IP block.
    soc_config:
        SoC-level configuration (battery, thermal, GEM, bus, sampling).
    dpm:
        The power-management setup; defaults to the paper's DPM
        (:meth:`DpmSetup.paper`).
    simulator:
        Optional pre-existing simulator to build into.
    """
    # Imported here (not at module level) to keep repro.soc importable on its
    # own: repro.dpm depends on repro.soc.task, so a module-level import in
    # the other direction would create a cycle.
    from repro.dpm.controller import DpmSetup
    from repro.dpm.gem import GlobalEnergyManager
    from repro.dpm.lem import LocalEnergyManager

    if not ip_specs:
        raise ConfigurationError("at least one IP is required")
    names = [spec.name for spec in ip_specs]
    if len(names) != len(set(names)):
        raise ConfigurationError("IP names must be unique")
    soc_config = soc_config or SocConfig()
    dpm = dpm or DpmSetup.paper()
    if simulator is None:
        simulator = Simulator(name=soc_config.name)
    soc = SoC(simulator, soc_config)
    simulator.add_module(soc)

    if soc_config.use_gem:
        soc.gem = GlobalEnergyManager(
            simulator.kernel,
            "gem",
            battery_monitor=soc.battery_monitor,
            temperature_sensor=soc.temperature_sensor,
            fan=soc.fan,
            bus=soc.bus,
            config=dpm.gem_config,
            parent=soc,
        )

    for spec in ip_specs:
        characterization = spec.power.characterization
        account = soc.ledger.account(spec.name)
        psm = PowerStateMachine(
            simulator.kernel,
            f"{spec.name}_psm",
            characterization=characterization,
            transitions=spec.power.transitions,
            energy_account=account,
            initial_state=spec.initial_state,
            parent=soc,
        )
        lem = LocalEnergyManager(
            simulator.kernel,
            f"{spec.name}_lem",
            ip_name=spec.name,
            psm=psm,
            characterization=characterization,
            battery=soc.battery,
            thermal=soc.thermal,
            breakeven=spec.power.breakeven,
            policy=dpm.make_policy(),
            predictor=dpm.make_predictor(),
            gem=soc.gem,
            bus=soc.bus,
            static_priority=spec.static_priority,
            config=dpm.lem_config,
            parent=soc,
        )
        ip = FunctionalIP(
            simulator.kernel,
            spec.name,
            characterization=characterization,
            psm=psm,
            energy_account=account,
            workload=spec.workload,
            bus=soc.bus,
            bus_words_per_task=spec.bus_words_per_task if soc.bus is not None else 0,
            bus_priority=(
                spec.static_priority if spec.bus_priority is None else spec.bus_priority
            ),
            parent=soc,
        )
        ip.connect_lem(lem)
        soc.instances.append(
            IpInstance(spec=spec, ip=ip, psm=psm, lem=lem, characterization=characterization)
        )
        if soc_config.trace_states:
            simulator.watch(psm.state_signal)

    return soc
