"""The Global Energy Manager (GEM).

The GEM (paper, section 1.4) receives resource requests from all IPs,
assigns a *static priority* to each of them, tells every LEM how much energy
the other IP blocks have requested, and gates the LEMs with the paper's
intentionally simple algorithm::

    if (battery is Medium or High or Full) and (temperature is Low or Medium):
        enable every IP
    elif (battery is Empty or Low) and (temperature is Low or Medium):
        enable IPs with high priority
    else:
        do not enable any IP
        switch on a supplementary fan

Interpretation notes:

* "IPs with high priority" is implemented as: IPs whose static priority is
  within the best ``high_priority_count`` ranks are always enabled; a
  lower-priority IP is additionally enabled by the first evaluation that
  finds *no* higher-priority IP with a pending (not yet granted) task
  request.  A granted, running task does not hold lower ranks back.  This
  work-conserving reading keeps the delay of low-priority IPs finite, as in
  the paper's Table 2 where all IPs complete their sequences.
* "The GEM can force each PSM in Sleep1 state if the resources are limited
  and the IP has low priority" — whenever an IP is not enabled and is idle,
  its LEM is asked to park the PSM in ``SL1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.battery.status import BatteryLevel
from repro.errors import ConfigurationError
from repro.power.states import PowerState
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, us
from repro.soc.bus import Bus, BusLevel
from repro.thermal.fan import Fan
from repro.thermal.level import TemperatureLevel

__all__ = ["GemConfig", "GlobalEnergyManager", "ResourceView"]

#: sentinel "no pending request" priority rank (worse than any real rank)
_NO_RANK = 1 << 30

# Plain tuples: enum membership in a short tuple identity-compares, which
# beats the Python-level __hash__ a frozenset lookup would pay.
_BATTERY_OK = (BatteryLevel.MEDIUM, BatteryLevel.HIGH, BatteryLevel.FULL, BatteryLevel.AC_POWER)
_BATTERY_POOR = (BatteryLevel.EMPTY, BatteryLevel.LOW)
_TEMPERATURE_OK = (TemperatureLevel.LOW, TemperatureLevel.MEDIUM)


@dataclass(frozen=True)
class ResourceView:
    """Snapshot of the SoC resource status the GEM conditions on.

    The paper's GEM "receives information about the status of the SoC
    resources (battery energy, chip temperature, bus occupation, etc.)";
    this record is that view at one instant, with both the raw figures and
    their quantised classes.
    """

    battery: BatteryLevel
    temperature: TemperatureLevel
    bus: BusLevel
    state_of_charge: float
    temperature_c: float
    bus_occupancy: float
    pending_energy_j: float

    def describe(self) -> str:
        """Human-readable one-liner, used in traces and reports."""
        return (
            f"battery={self.battery} ({self.state_of_charge:.0%}), "
            f"temperature={self.temperature} ({self.temperature_c:.1f} C), "
            f"bus={self.bus} ({self.bus_occupancy:.0%}), "
            f"pending={self.pending_energy_j:.3e} J"
        )


@dataclass
class GemConfig:
    """Tunable parameters of the Global Energy Manager."""

    #: number of top static-priority ranks that stay enabled when resources
    #: are limited (battery Empty/Low with acceptable temperature)
    high_priority_count: int = 2
    #: polling interval of the periodic re-evaluation (safety net; the GEM
    #: also re-evaluates on every request, completion and sensor change)
    evaluation_interval: SimTime = us(500)
    #: state the GEM forces on disabled, idle IPs
    forced_state: PowerState = PowerState.SL1

    def __post_init__(self) -> None:
        if self.high_priority_count < 1:
            raise ConfigurationError("at least one priority rank must stay enabled")
        if self.evaluation_interval.is_zero:
            raise ConfigurationError("evaluation interval must be positive")
        if self.forced_state.is_on:
            raise ConfigurationError("the forced state must be a sleep/off state")


class GlobalEnergyManager(Module):
    """SoC-level energy manager gating the per-IP LEMs."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        battery_monitor,
        temperature_sensor,
        fan: Optional[Fan] = None,
        bus: Optional[Bus] = None,
        config: Optional[GemConfig] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.battery_monitor = battery_monitor
        self.temperature_sensor = temperature_sensor
        # Hot-path references (evaluate runs on every request/completion).
        self._battery = battery_monitor.battery
        self._thermal = temperature_sensor.model
        self.fan = fan
        self.bus = bus
        self.config = config or GemConfig()
        self.enable_changed = self.event("enable_changed")
        self._lems: Dict[str, object] = {}
        self._priorities: Dict[str, int] = {}
        self._enabled: Dict[str, bool] = {}
        self._pending_energy: Dict[str, float] = {}
        self._pending_version = 0
        self._pending_cache: Dict[str, tuple] = {}
        # Static-priority structures derived from the registrations; rebuilt
        # lazily whenever a LEM is added (priorities never change afterwards).
        # The enable decision under limited resources is a pure function of
        # the best pending priority rank, so the maps are cached per rank
        # (and the all-enabled/none-enabled maps are cached outright).
        self._rank_cache_dirty = True
        self._allowed_ranks: set = set()
        self._min_pending_rank: int = _NO_RANK
        self._enable_map_cache: Dict[int, tuple] = {}
        self._all_enabled_map: Dict[str, bool] = {}
        self._none_enabled_map: Dict[str, bool] = {}
        self._all_names: tuple = ()
        self._evaluations = 0
        self._fan_activations = 0
        self.add_thread(self._periodic_evaluation, name="evaluate")
        self.add_method(
            self._on_sensor_change,
            sensitivity=[
                battery_monitor.level_signal.changed_event,
                temperature_sensor.level_signal.changed_event,
            ],
            name="sensor_watch",
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_lem(self, lem, static_priority: int) -> None:
        """Register a LEM under its IP name with a static priority (1 = highest)."""
        ip_name = lem.ip_name
        if ip_name in self._lems:
            raise ConfigurationError(f"an LEM for IP {ip_name!r} is already registered")
        if static_priority < 1:
            raise ConfigurationError("static priority must be >= 1")
        self._lems[ip_name] = lem
        self._priorities[ip_name] = static_priority
        # Never mutate a cached (possibly shared) enable map.
        self._enabled = dict(self._enabled)
        self._enabled[ip_name] = True
        self._pending_energy[ip_name] = 0.0
        self._pending_version += 1
        self._rank_cache_dirty = True
        self.evaluate()

    @property
    def ip_names(self) -> List[str]:
        """Registered IP names."""
        return list(self._lems)

    def priority_of(self, ip_name: str) -> int:
        """Static priority of ``ip_name`` (1 is the highest)."""
        try:
            return self._priorities[ip_name]
        except KeyError:
            raise ConfigurationError(f"IP {ip_name!r} is not registered with the GEM") from None

    # ------------------------------------------------------------------
    # Resource requests
    # ------------------------------------------------------------------
    def register_request(self, ip_name: str, estimated_energy_j: float) -> None:
        """A LEM forwards a task request with its estimated energy."""
        if ip_name not in self._lems:
            raise ConfigurationError(f"IP {ip_name!r} is not registered with the GEM")
        if estimated_energy_j < 0.0:
            raise ConfigurationError("estimated energy must be non-negative")
        self._pending_energy[ip_name] = estimated_energy_j
        self._pending_version += 1
        # A new pending request can only improve the best pending rank.
        rank = self._priorities[ip_name]
        if rank < self._min_pending_rank:
            self._min_pending_rank = rank
        self.evaluate()

    def clear_request(self, ip_name: str) -> None:
        """The LEM reports that the IP's task finished."""
        if ip_name not in self._lems:
            raise ConfigurationError(f"IP {ip_name!r} is not registered with the GEM")
        self._pending_energy[ip_name] = 0.0
        self._pending_version += 1
        if self._priorities[ip_name] <= self._min_pending_rank:
            self._refresh_min_pending_rank()
        self.evaluate()

    def note_request_served(self, ip_name: str) -> None:
        """The LEM reports that a pending request was granted.

        Pure bookkeeping: the best pending rank is refreshed so the next
        (periodic or event-driven) evaluation sees it, but no evaluation
        runs at grant time.
        """
        if self._priorities[ip_name] <= self._min_pending_rank:
            self._refresh_min_pending_rank()

    def _refresh_min_pending_rank(self) -> None:
        """Recompute the best (lowest) priority rank with a pending request."""
        best = _NO_RANK
        priorities = self._priorities
        for name, lem in self._lems.items():
            if lem.has_pending_request:
                rank = priorities[name]
                if rank < best:
                    best = rank
        self._min_pending_rank = best

    def pending_energy_excluding(self, ip_name: str) -> float:
        """Energy requested by every IP except ``ip_name`` (paper, section 1.4).

        Cached per pending-map version: the recomputation runs the identical
        sum in the identical order, so the cached figure is bit-identical.
        """
        entry = self._pending_cache.get(ip_name)
        version = self._pending_version
        if entry is not None and entry[0] == version:
            return entry[1]
        value = sum(energy for name, energy in self._pending_energy.items() if name != ip_name)
        self._pending_cache[ip_name] = (version, value)
        return value

    # ------------------------------------------------------------------
    # Resource view
    # ------------------------------------------------------------------
    def bus_level(self) -> BusLevel:
        """Quantised bus occupation (``LOW`` on bus-less platforms)."""
        bus = self.bus
        return BusLevel.LOW if bus is None else bus.occupancy_level()

    def resource_view(self) -> ResourceView:
        """The SoC resource status the GEM currently sees (paper, 1.4).

        ``bus`` is the windowed level the rules consume (current
        contention); ``bus_occupancy`` is the lifetime busy fraction used
        for reporting.
        """
        bus = self.bus
        return ResourceView(
            battery=self._battery.level,
            temperature=self._thermal.level,
            bus=self.bus_level(),
            state_of_charge=self._battery.state_of_charge,
            temperature_c=self._thermal.temperature_c,
            bus_occupancy=0.0 if bus is None else bus.occupancy(),
            pending_energy_j=sum(self._pending_energy.values()),
        )

    # ------------------------------------------------------------------
    # Enable algorithm
    # ------------------------------------------------------------------
    def is_enabled(self, ip_name: str) -> bool:
        """True when the GEM currently allows ``ip_name`` to execute."""
        return self._enabled.get(ip_name, True)

    @property
    def enabled_map(self) -> Dict[str, bool]:
        """Copy of the current enable decision per IP."""
        return dict(self._enabled)

    @property
    def evaluation_count(self) -> int:
        """Number of times the enable algorithm ran."""
        return self._evaluations

    @property
    def fan_activations(self) -> int:
        """Number of times the supplementary fan was switched on."""
        return self._fan_activations

    def evaluate(self) -> None:
        """Run the paper's enable algorithm once."""
        self._evaluations += 1
        battery = self._battery.level
        temperature = self._thermal.level
        temp_ok = temperature in _TEMPERATURE_OK
        if self._rank_cache_dirty:
            self._rebuild_rank_cache()
        if battery in _BATTERY_OK and temp_ok:
            new_enabled = self._all_enabled_map
            disabled: tuple = ()
            fan_on = False
        elif battery in _BATTERY_POOR and temp_ok:
            new_enabled, disabled = self._enable_high_priority()
            fan_on = False
        else:
            new_enabled = self._none_enabled_map
            disabled = self._all_names
            fan_on = True
        self._apply(new_enabled, disabled, fan_on)

    def _rebuild_rank_cache(self) -> None:
        ranked = sorted(self._priorities.items(), key=lambda item: item[1])
        self._allowed_ranks = {
            priority for _, priority in ranked[: self.config.high_priority_count]
        }
        self._enable_map_cache = {}
        self._all_enabled_map = {name: True for name in self._lems}
        self._none_enabled_map = {name: False for name in self._lems}
        self._all_names = tuple(self._lems)
        self._rank_cache_dirty = False

    def _enable_high_priority(self) -> tuple:
        # Work-conserving reading of "enable IPs with high priority": a
        # low-priority IP may proceed as long as no higher-priority IP is
        # waiting for a grant (see the module docstring).  The decision is a
        # pure function of the best pending rank, so the (map, disabled)
        # pairs are cached per rank.
        min_rank = self._min_pending_rank
        cached = self._enable_map_cache.get(min_rank)
        if cached is None:
            allowed_ranks = self._allowed_ranks
            enabled = {
                name: priority in allowed_ranks or min_rank >= priority
                for name, priority in self._priorities.items()
            }
            cached = (enabled, tuple(name for name, on in enabled.items() if not on))
            self._enable_map_cache[min_rank] = cached
        return cached

    #: structured-tracing hook (repro.obs); None keeps the hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None

    def _apply(self, new_enabled: Dict[str, bool], disabled: tuple, fan_on: bool) -> None:
        changed = new_enabled is not self._enabled and new_enabled != self._enabled
        self._enabled = new_enabled
        if self.fan is not None:
            if fan_on and not self.fan.is_on:
                self._fan_activations += 1
            self.fan.set_on(fan_on)
        if disabled:
            lems = self._lems
            forced = self.config.forced_state
            for name in disabled:
                lem = lems[name]
                if not lem.is_busy:
                    lem.force_low_power(forced)
        if changed:
            tracer = self._tracer
            if tracer is not None:
                view = self.resource_view()
                tracer.emit(
                    self.kernel.now_fs, "gem.decision", self.name,
                    enabled=[name for name, on in new_enabled.items() if on],
                    disabled=list(disabled),
                    fan_on=fan_on,
                    battery=str(view.battery),
                    temperature=str(view.temperature),
                    bus=str(view.bus),
                    state_of_charge=view.state_of_charge,
                    temperature_c=view.temperature_c,
                    bus_occupancy=view.bus_occupancy,
                    pending_energy_j=view.pending_energy_j,
                )
            self.enable_changed.notify()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _periodic_evaluation(self):
        while True:
            yield self.config.evaluation_interval
            self.evaluate()

    def _on_sensor_change(self) -> None:
        self.evaluate()
