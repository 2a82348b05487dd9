"""Hierarchical modules: the structural building blocks of a model.

A :class:`Module` groups processes and signals under a hierarchical name,
like a SystemC ``sc_module``.  Subclasses describe behaviour by registering
processes in their constructor::

    class Blinker(Module):
        def __init__(self, kernel, name, parent=None):
            super().__init__(kernel, name, parent)
            self.led = self.signal("led", False)
            self.add_thread(self._blink)

        def _blink(self):
            while True:
                self.led.write(not self.led.read())
                yield ns(10)

Modules track their children so the design tree can be printed.  There
are no ports and no elaboration step: a module reads and writes the
signals it holds references to, and its processes are registered with the
kernel as soon as they are created.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import ElaborationError
from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.process import MethodProcess, Process, ThreadProcess
from repro.sim.signal import Signal

__all__ = ["Module"]

T = TypeVar("T")


class Module:
    """Base class for hierarchical simulation modules.

    Parameters
    ----------
    kernel:
        The kernel that will schedule this module's processes.
    name:
        Local (non-hierarchical) instance name.  Must be unique among the
        siblings under the same parent.
    parent:
        Optional enclosing module.  Top-level modules have ``parent=None``
        and are registered with the simulator instead.
    """

    def __init__(self, kernel: Kernel, name: str, parent: Optional["Module"] = None) -> None:
        if not name:
            raise ElaborationError("module name must be a non-empty string")
        self.kernel = kernel
        self.basename = name
        self.parent = parent
        # The hierarchy is fixed at construction time, so the full name can
        # be computed once instead of walking the parent chain on every read.
        self._full_name = name if parent is None else f"{parent.name}.{name}"
        self._children: Dict[str, "Module"] = {}
        self._signals: List[Signal] = []
        self._processes: List[Process] = []
        if parent is not None:
            parent._add_child(self)

    # -- naming ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Full hierarchical name (dot-separated)."""
        return self._full_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"

    # -- hierarchy ---------------------------------------------------------
    def _add_child(self, child: "Module") -> None:
        if child.basename in self._children:
            raise ElaborationError(
                f"module {self.name!r} already has a child named {child.basename!r}"
            )
        self._children[child.basename] = child

    @property
    def children(self) -> Sequence["Module"]:
        """Direct sub-modules, in creation order."""
        return list(self._children.values())

    # -- construction helpers ------------------------------------------------
    def signal(self, name: str, initial: T) -> Signal[T]:
        """Create a signal named relative to this module."""
        sig: Signal[T] = Signal(self.kernel, f"{self.name}.{name}", initial)
        self._signals.append(sig)
        return sig

    def event(self, name: str) -> Event:
        """Create an event named relative to this module."""
        return self.kernel.event(f"{self.name}.{name}")

    def add_thread(self, func: Callable, name: Optional[str] = None) -> ThreadProcess:
        """Register a generator function as a thread process."""
        process_name = f"{self.name}.{name or func.__name__}"
        process = self.kernel.create_thread(func, process_name)
        self._processes.append(process)
        return process

    def add_method(
        self,
        func: Callable[[], None],
        sensitivity: Iterable[Event],
        name: Optional[str] = None,
    ) -> MethodProcess:
        """Register a callable as a method process with static sensitivity.

        The method first runs on the first notification of an event in
        ``sensitivity``, never at initialisation.
        """
        process_name = f"{self.name}.{name or func.__name__}"
        process = self.kernel.create_method(func, sensitivity, process_name)
        self._processes.append(process)
        return process

    # -- reporting ---------------------------------------------------------------
    def design_tree(self, indent: int = 0) -> str:
        """Return a printable tree of this module and its descendants."""
        lines = [" " * indent + f"{self.basename} ({type(self).__name__})"]
        for child in self._children.values():
            lines.append(child.design_tree(indent + 2))
        return "\n".join(lines)

    @property
    def signals(self) -> Sequence[Signal]:
        """Signals created by this module (not including children's)."""
        return list(self._signals)

    @property
    def processes(self) -> Sequence[Process]:
        """Processes registered by this module."""
        return list(self._processes)
