"""Signals: primitive channels with SystemC request/update semantics.

A :class:`Signal` holds a value that is only visible to readers *after* the
update phase of the delta cycle in which it was written.  This gives the
usual hardware-description determinism: every process reading a signal in
the same delta cycle observes the same (old) value regardless of execution
order.

A signal exposes one notification event, ``changed_event``, notified one
delta cycle after the stored value actually changes.
"""

from __future__ import annotations

from typing import Callable, Generic, List, TypeVar

from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.simtime import SimTime

__all__ = ["Signal"]

T = TypeVar("T")


class Signal(Generic[T]):
    """A value holder with deferred (delta-cycle) update semantics.

    Parameters
    ----------
    kernel:
        The owning kernel.
    name:
        Hierarchical name, used for traces and error messages.
    initial:
        Initial value, visible from time zero.
    """

    __slots__ = (
        "_kernel",
        "name",
        "_current",
        "_next",
        "changed_event",
        "_observers",
        "_write_count",
        "_change_count",
    )

    def __init__(self, kernel: Kernel, name: str, initial: T) -> None:
        self._kernel = kernel
        self.name = name
        self._current: T = initial
        self._next: T = initial
        self.changed_event: Event = kernel.event(f"{name}.changed")
        self._observers: List[Callable[[SimTime, T], None]] = []
        self._write_count = 0
        self._change_count = 0

    # -- value access -----------------------------------------------------
    def read(self) -> T:
        """Return the current (stable) value."""
        return self._current

    @property
    def value(self) -> T:
        """Alias for :meth:`read`, convenient in expressions."""
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value`` to become visible after the next update phase."""
        self._write_count += 1
        self._next = value
        if value != self._current:
            self._kernel.request_update(self)

    # -- events -------------------------------------------------------------
    def add_observer(self, callback: Callable[[SimTime, T], None]) -> None:
        """Register a callback invoked with ``(time, new_value)`` on change."""
        self._observers.append(callback)

    def remove_observer(self, callback: Callable[[SimTime, T], None]) -> bool:
        """Detach a previously registered observer.

        Returns True when the callback was attached (and is now removed);
        False for an unknown callback.  Detaching matters beyond memory: a
        stale observer keeps running (and keeps its owner alive) on every
        later change of the signal.
        """
        try:
            self._observers.remove(callback)
        except ValueError:
            return False
        return True

    # -- statistics ---------------------------------------------------------
    @property
    def write_count(self) -> int:
        """Total number of writes (including writes of an unchanged value)."""
        return self._write_count

    @property
    def change_count(self) -> int:
        """Number of times the visible value actually changed."""
        return self._change_count

    # -- kernel interface -----------------------------------------------------
    def update(self) -> None:
        """Apply the pending write; called by the kernel in the update phase.

        A ``changed_event`` with neither waiters nor callbacks is not
        scheduled at all: the update phase runs after the evaluate phase, so
        the waiter set is final and firing it in the next delta
        cycle could not wake anything.  Skipping them keeps waiter-less
        signal traffic (status/debug signals nobody listens to) from forcing
        empty delta cycles through the kernel.
        """
        new = self._next
        if new == self._current:
            return
        self._current = new
        self._change_count += 1
        kernel = self._kernel
        changed = self.changed_event
        if changed._waiters or changed._callbacks:
            kernel.schedule_delta(changed)
        if self._observers:
            now = kernel.now
            for observer in self._observers:
                observer(now, new)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.name!r}, value={self._current!r})"
