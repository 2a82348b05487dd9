"""A clock as a value: a period and the instant its edge schedule starts.

Nothing in this library toggles a clock signal.  Components advance time
with explicit timed waits (task durations, idle periods), and the one
cycle-accurate consumer — the bus arbiter — only needs to know *when* the
next rising edge falls.  A :class:`Clock` answers that with integer
arithmetic on its edge schedule, so a clocked model costs no kernel work
per simulated cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.simtime import SimTime

__all__ = ["Clock"]


@dataclass(frozen=True)
class Clock:
    """A fixed-period clock whose rising edges fall at
    ``start_fs + k * period`` for ``k >= 1``.

    Parameters
    ----------
    period:
        Clock period (must be positive).
    start_fs:
        Absolute time (fs) the clock starts at; the first rising edge is one
        full period later.
    """

    period: SimTime
    start_fs: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("clock period must be positive")

    def next_posedge_fs(self, now_fs: int) -> int:
        """Absolute time (fs) of the first rising edge at or after ``now_fs``.

        Cycle-accurate consumers (the bus arbiter) use this to jump straight
        to the next interesting edge instead of waking on every cycle.
        """
        period = int(self.period)
        first = self.start_fs + period
        if now_fs <= first:
            return first
        return first + -(-(now_fs - first) // period) * period
