"""The derived power model of one IP, built once and shared.

In the paper an IP's power model is a static property of the IP: its
characterisation, the ACPI-style cost matrix of its PSM and the break-even
times derived from both.  :class:`PowerModel` bundles the three.  It is
immutable (the characterisation is a frozen dataclass, the transition table
is read-only and the break-even analyser, built once on first use, is never
written), so one model can serve every SoC built in a process; the per-run
state lives in the PSM, LEM and GEM that read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.power.breakeven import BreakEvenAnalyzer
from repro.power.characterization import PowerCharacterization, default_characterization
from repro.power.states import PowerState
from repro.power.transitions import TransitionTable, default_transition_table
from repro.sim.simtime import SimTime

__all__ = ["PowerModel", "default_power_model", "scaled_transition_table"]


@dataclass(frozen=True, eq=False)
class PowerModel:
    """Characterisation, transition costs and break-even analysis of one IP.

    Models compare and hash by identity, like the shared objects they are.
    """

    characterization: PowerCharacterization
    transitions: TransitionTable

    @functools.cached_property
    def breakeven(self) -> BreakEvenAnalyzer:
        """The analyser the simulator's LEM consults (every sleep state and OFF).

        Built on first use, then kept: a table that lacks some ON1 round
        trip has no such analyser (building it raises
        :class:`~repro.errors.InvalidTransitionError`, so such an IP cannot
        be simulated), yet the linter must still be able to model the IP.
        """
        return BreakEvenAnalyzer(self.characterization, self.transitions)

    @classmethod
    def build(
        cls,
        characterization: Optional[PowerCharacterization] = None,
        transitions: Optional[TransitionTable] = None,
    ) -> "PowerModel":
        """A model of the given objects, with the defaults completed.

        A missing characterisation is the library default; a missing table
        is the generated default scaled to the ON1 active power.  With both
        missing this is the shared :func:`default_power_model`.
        """
        if characterization is None and transitions is None:
            return default_power_model()
        return _derive(characterization, transitions)


@functools.lru_cache(maxsize=None)
def default_power_model() -> PowerModel:
    """The library-default model, built on first use and shared by the process."""
    return _derive(None, None)


def _derive(
    characterization: Optional[PowerCharacterization],
    transitions: Optional[TransitionTable],
) -> PowerModel:
    if characterization is None:
        characterization = default_characterization()
    if transitions is None:
        transitions = scaled_transition_table(characterization)
    return PowerModel(characterization=characterization, transitions=transitions)


def scaled_transition_table(
    characterization: PowerCharacterization,
    dvfs_latency: Optional[SimTime] = None,
    sleep_entry_latency: Optional[Mapping[PowerState, SimTime]] = None,
    wakeup_latency: Optional[Mapping[PowerState, SimTime]] = None,
) -> TransitionTable:
    """The generated default table, its energies scaled to the ON1 active
    power of ``characterization``; the latency knobs are those of
    :func:`~repro.power.transitions.default_transition_table`."""
    return default_transition_table(
        reference_power_w=characterization.active_power_w(PowerState.ON1),
        dvfs_latency=dvfs_latency,
        sleep_entry_latency=sleep_entry_latency,
        wakeup_latency=wakeup_latency,
    )
