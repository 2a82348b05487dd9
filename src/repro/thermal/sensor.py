"""Temperature sensor simulation module.

Like the battery monitor, each :meth:`TemperatureSensor.sample_now` converts
the energy the SoC consumed since the previous sample into an average power,
advances the lumped-RC thermal model by one step and publishes the quantised
:class:`~repro.thermal.level.TemperatureLevel`; the SoC's sampler calls it
every ``sample_interval`` and leaves the ledger posted (see
:mod:`repro.battery.monitor`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ThermalError
from repro.power.energy import EnergyLedger
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms
from repro.thermal.level import TemperatureLevel
from repro.thermal.model import ThermalModel

__all__ = ["TemperatureSensor"]


class TemperatureSensor(Module):
    """Samples SoC power and publishes the chip temperature."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        model: ThermalModel,
        ledger: EnergyLedger,
        sample_interval: Optional[SimTime] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise ThermalError("temperature sample interval must be positive")
        self.model = model
        self.ledger = ledger
        self.sample_interval = sample_interval or ms(1)
        # The interval in seconds, computed once exactly as SimTime.seconds.
        self._interval_s = self.sample_interval.seconds
        self.level_signal = self.signal("level", model.level)
        self._last_total_j = ledger.total_j
        self._history: List[Tuple[int, float]] = []

    @property
    def level(self) -> TemperatureLevel:
        """Most recently published temperature class."""
        return self.level_signal.read()

    @property
    def temperature_c(self) -> float:
        """Temperature of the model after the most recent sample."""
        return self.model.temperature_c

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, temperature_c)`` pairs."""
        return [(SimTime(time_fs), value) for time_fs, value in self._history]

    def sample_now(self) -> TemperatureLevel:
        """Step the thermal model by one window at the power posted since the last sample."""
        model = self.model
        total = self.ledger.total_j
        delta = max(0.0, total - self._last_total_j)
        self._last_total_j = total
        model.step(delta / self._interval_s, self.sample_interval)
        self._history.append((self.kernel._now_fs, model.temperature_c))
        level = model.level
        self.level_signal.write(level)
        return level
