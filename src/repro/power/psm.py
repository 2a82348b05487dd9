"""The Power State Machine (PSM) simulation module.

The PSM is the hardware component that sits next to each IP and physically
switches it between the ACPI-style power states.  It is deliberately dumb:
*which* state to use is the Local Energy Manager's decision; the PSM only

* validates and executes the requested transitions, paying their energy and
  latency cost (taken from the :class:`~repro.power.transitions.TransitionTable`),
* publishes the current state on a signal so the functional IP knows at
  which speed it may execute,
* integrates the *background* power of the IP (idle power in ON states,
  residual power in sleep/off states) into the IP's energy account, and
* keeps residency statistics per state, which the analysis layer turns into
  temperature and energy figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.errors import InvalidTransitionError, PowerModelError
from repro.power.characterization import PowerCharacterization
from repro.power.energy import EnergyAccount, EnergyCategory
from repro.power.states import PowerState
from repro.power.transitions import TransitionCost, TransitionTable
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime

__all__ = ["PowerStateMachine"]


class PowerStateMachine(Module):
    """Per-IP power state machine with transition costs and energy accounting.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Instance name (typically ``"<ip>.psm"`` via the parent argument).
    characterization:
        Power characterisation of the attached IP.
    transitions:
        Allowed transitions and their costs.
    energy_account:
        Ledger that receives background and transition energy.  The
        functional IP charges its *active* (task) energy to the same account.
    initial_state:
        State at time zero (default ``ON1``).
    parent:
        Optional parent module.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        characterization: PowerCharacterization,
        transitions: TransitionTable,
        energy_account: EnergyAccount,
        initial_state: PowerState = PowerState.ON1,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        self.characterization = characterization
        self.transitions = transitions
        self.energy_account = energy_account
        # Authoritative state lives in a plain attribute (updated immediately);
        # the signal mirrors it one delta later for traces and observers.
        self._state = initial_state
        self.state_signal = self.signal("state", initial_state)
        self.transition_complete = self.event("transition_complete")
        # The transition in flight as (target, cost), and the request queued
        # behind it; both None while the PSM is idle.
        self._in_flight: Optional[Tuple[PowerState, TransitionCost]] = None
        self._queued: Optional[PowerState] = None
        self._completion = self.event("completion")
        self._busy = False
        self._last_account_fs: int = kernel.now_fs
        # Hot-path state keyed by the dense PowerState._idx: residency in raw
        # femtoseconds, memoised background power, and transition costs.
        self._residency_fs: list = [0] * len(PowerState)
        # States that appeared in the books even with zero accumulated time
        # (a zero-latency transition): residency() must still list them.
        self._residency_touched: set = set()
        self._background_power: list = [None] * len(PowerState)
        self._cost_cache: Dict[int, object] = {}
        self._label_cache: Dict[int, str] = {}
        self._transition_count = 0
        self._transition_counts: Dict[str, int] = defaultdict(int)
        # Completion wakes a method at the transition's end, so it keeps its
        # push-order place among the processes due at that instant.
        self.add_method(self._complete_in_flight, [self._completion], name="transitions")

    #: structured-tracing hook (repro.obs); None keeps the hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None
    #: source label for emitted events (the IP name); falls back to the
    #: PSM's own module name when instrumentation did not set one
    _trace_name = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> PowerState:
        """The current power state."""
        return self._state

    @property
    def is_transitioning(self) -> bool:
        """True while a transition is in flight."""
        return self._in_flight is not None

    @property
    def transition_count(self) -> int:
        """Number of completed transitions."""
        return self._transition_count

    @property
    def transition_counts(self) -> Dict[str, int]:
        """Completed transitions keyed by ``"SRC->DST"``."""
        return dict(self._transition_counts)

    def residency(self) -> Dict[PowerState, SimTime]:
        """Time spent so far in each state (up to the last accounting point)."""
        return {
            state: SimTime(self._residency_fs[state._idx])
            for state in PowerState
            if self._residency_fs[state._idx] > 0 or state._idx in self._residency_touched
        }

    # ------------------------------------------------------------------
    # Requests (called by the LEM / GEM)
    # ------------------------------------------------------------------
    def request_state(self, target: PowerState) -> None:
        """Move to ``target``; the request takes effect in the caller's activation.

        It is checked against the state it starts from: the current state,
        or the target of the transition in flight.  An idle PSM starts the
        transition at once (a zero-latency one completes before returning).
        During a transition the request is queued, replacing any earlier
        one, and starts when that transition completes, at the same instant.
        Wait for the new state with :meth:`wait_for_state`.
        """
        if not isinstance(target, PowerState):
            raise PowerModelError(f"requested state must be a PowerState, got {target!r}")
        in_flight = self._in_flight
        source = self._state if in_flight is None else in_flight[0]
        if not self.transitions.is_allowed(source, target):
            raise InvalidTransitionError(
                f"{self.name}: transition {source} -> {target} is not allowed"
            )
        if in_flight is None:
            self._start_transition(target)
        else:
            self._queued = target

    def wait_for_state(self, target: PowerState):
        """Generator helper: ``yield from psm.wait_for_state(ON2)``."""
        while self.state is not target or self.is_transitioning:
            yield self.transition_complete

    def transition_latency(self, target: PowerState) -> SimTime:
        """Latency the PSM would pay to reach ``target`` from the current state."""
        return self.transitions.latency(self.state, target)

    # ------------------------------------------------------------------
    # Busy bookkeeping (called by the functional IP)
    # ------------------------------------------------------------------
    def set_busy(self, busy: bool) -> None:
        """Tell the PSM whether the IP is actively executing a task.

        While busy, the task energy is charged by the IP itself, so the PSM
        suspends background-power integration to avoid double counting.
        """
        if busy and not self.state.can_execute:
            raise PowerModelError(
                f"{self.name}: IP cannot execute in state {self.state}"
            )
        self._integrate_background()
        self._busy = busy

    # ------------------------------------------------------------------
    # Energy integration
    # ------------------------------------------------------------------
    def flush_energy(self) -> None:
        """Integrate background power up to the current simulated time.

        Experiment runners call this once at the end of a simulation so that
        the last interval (between the final event and the end time) is
        charged to the account.
        """
        self._integrate_background()

    def _integrate_background(self) -> None:
        now_fs = self.kernel._now_fs
        elapsed_fs = now_fs - self._last_account_fs
        if elapsed_fs <= 0:
            return
        state = self._state
        idx = state._idx
        self._residency_fs[idx] += elapsed_fs
        if not self._busy:
            power = self._background_power[idx]
            if power is None:
                power = self.characterization.idle_power_w(state)
                self._background_power[idx] = power
            if power > 0.0:
                category = EnergyCategory.IDLE if state._is_on else EnergyCategory.SLEEP
                # elapsed_fs / 10^15 matches SimTime.seconds bit for bit
                # without allocating the SimTime.
                self.energy_account.add_energy(
                    power * (elapsed_fs / 1_000_000_000_000_000), category
                )
        self._last_account_fs = now_fs

    def _complete_transition(self, source: PowerState, target: PowerState, cost) -> None:
        """Transition-completion bookkeeping.

        The transition interval itself is charged as transition energy; the
        accounting marker moves past it without billing idle power.
        """
        self._last_account_fs = self.kernel.now_fs
        self._residency_fs[source._idx] += cost.latency
        self._residency_touched.add(source._idx)
        self.energy_account.add_energy(cost.energy_j, EnergyCategory.TRANSITION)
        self._state = target
        self._transition_count += 1
        label_key = source._idx * 16 + target._idx
        label = self._label_cache.get(label_key)
        if label is None:
            label = f"{source}->{target}"
            self._label_cache[label_key] = label
        self._transition_counts[label] += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self.kernel.now_fs, "psm.transition",
                self._trace_name or self.name,
                from_state=str(source), to_state=str(target),
                latency_us=int(cost.latency) / 1e9,
                energy_j=cost.energy_j,
            )
        self.state_signal.write(target)
        self.transition_complete.notify_delta()

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _start_transition(self, target: PowerState) -> None:
        source = self._state
        if target is source:
            self.transition_complete.notify()
            return
        cost_key = source._idx * 16 + target._idx
        cost = self._cost_cache.get(cost_key)
        if cost is None:
            cost = self.transitions.cost(source, target)
            self._cost_cache[cost_key] = cost
        # Close the books on the time spent in the old state.
        self._integrate_background()
        if cost.latency.is_zero:
            self._complete_transition(source, target, cost)
        else:
            self._in_flight = (target, cost)
            self._completion.notify_after(cost.latency)

    def _complete_in_flight(self) -> None:
        """Finish the transition in flight, then start the queued request."""
        target, cost = self._in_flight
        self._in_flight = None
        self._complete_transition(self._state, target, cost)
        queued = self._queued
        if queued is not None:
            self._queued = None
            self._start_transition(queued)
