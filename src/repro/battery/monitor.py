"""Battery monitor simulation module.

The monitor closes the loop between the energy ledger and the battery model:
each :meth:`BatteryMonitor.sample_now` drains the battery by the energy the
SoC consumed since the previous sample and publishes the quantised
:class:`~repro.battery.status.BatteryLevel` on a signal that the LEMs and the
GEM read.  The monitor has no process of its own: the SoC's sampler calls it
every ``sample_interval``, after posting the lazily integrated energy (PSM
background power, the fan) to the ledger.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.battery.model import Battery
from repro.battery.status import BatteryLevel
from repro.errors import BatteryError
from repro.power.energy import EnergyLedger
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ms

__all__ = ["BatteryMonitor"]


class BatteryMonitor(Module):
    """Samples SoC energy consumption and publishes the battery level."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        battery: Battery,
        ledger: EnergyLedger,
        sample_interval: Optional[SimTime] = None,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if sample_interval is not None and sample_interval.is_zero:
            raise BatteryError("battery sample interval must be positive")
        self.battery = battery
        self.ledger = ledger
        self.sample_interval = sample_interval or ms(1)
        self.level_signal = self.signal("level", battery.level)
        self._last_total_j = ledger.total_j
        self._last_sample_fs = kernel.now_fs
        self._history: List[Tuple[int, float]] = []

    @property
    def level(self) -> BatteryLevel:
        """Most recently published battery level."""
        return self.level_signal.read()

    @property
    def history(self) -> List[Tuple[SimTime, float]]:
        """Sampled ``(time, state_of_charge)`` pairs."""
        return [(SimTime(time_fs), value) for time_fs, value in self._history]

    def sample_now(self) -> BatteryLevel:
        """Drain the battery by the energy posted since the last sample."""
        battery = self.battery
        total = self.ledger.total_j
        delta = total - self._last_total_j
        self._last_total_j = total
        now_fs = self.kernel._now_fs
        elapsed_fs = now_fs - self._last_sample_fs
        self._last_sample_fs = now_fs
        if delta > 0.0:
            # Use the actual elapsed time to derive the discharge rate; when the
            # sample is forced with no time elapsed, fall back to nominal rate.
            # A full window reuses the interval instead of building a SimTime.
            over: Optional[SimTime] = self.sample_interval
            if elapsed_fs != over:
                over = SimTime(elapsed_fs) if elapsed_fs else None
            battery.draw_energy(delta, over=over)
        self._history.append((now_fs, battery.state_of_charge))
        level = battery.level
        self.level_signal.write(level)
        return level
