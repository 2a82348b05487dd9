"""Functional IP: the traffic generator that executes tasks.

The paper treats each IP as a black box: it "executes a sequence of tasks or
remains in idle state for a fixed time", asking its Local Energy Manager for
permission (and a power state) before every task.  This module implements
that behaviour:

1. for every workload item, the IP sends a *task execution request* to its
   LEM and waits for the grant;
2. once granted, it executes the task at the speed of the PSM's current ON
   state, charging the task energy to its energy account;
3. it notifies the LEM of the completion and idles until the next request.

The IP can alternatively be driven by a :class:`~repro.soc.service.ServiceChannel`
(request-driven mode) and can optionally perform a bus transfer per task.

The LEM is any object honouring the small protocol used here:
``submit_task_request(task) -> grant`` (where ``grant`` exposes ``granted``,
``event`` and ``state``) and ``notify_task_complete(task)``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigurationError, WorkloadError
from repro.power.characterization import PowerCharacterization
from repro.power.energy import EnergyAccount, EnergyCategory
from repro.power.psm import PowerStateMachine
from repro.power.states import PowerState
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime
from repro.soc.bus import Bus
from repro.soc.service import ServiceChannel
from repro.soc.task import Task, TaskExecution
from repro.soc.workload import Workload

__all__ = ["FunctionalIP"]


class FunctionalIP(Module):
    """Workload- or request-driven traffic generator with DPM hooks.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Instance name; also used as the energy-account owner and bus master id.
    characterization:
        Power characterisation shared with the PSM and the LEM.
    psm:
        The IP's power state machine.
    energy_account:
        Ledger receiving the task (active) energy.
    workload:
        Task sequence to execute (mutually exclusive with ``service_channel``).
    service_channel:
        Optional request-driven source of tasks.
    bus:
        Optional shared bus; when given, every task performs one transfer of
        ``bus_words_per_task`` words before executing.
    bus_words_per_task:
        Words moved per task when a bus is attached.
    bus_priority:
        Arbitration priority used on the bus (lower wins).
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        characterization: PowerCharacterization,
        psm: PowerStateMachine,
        energy_account: EnergyAccount,
        workload: Optional[Workload] = None,
        service_channel: Optional[ServiceChannel] = None,
        bus: Optional[Bus] = None,
        bus_words_per_task: int = 0,
        bus_priority: int = 0,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(kernel, name, parent)
        if (workload is None) == (service_channel is None):
            raise ConfigurationError(
                f"IP {name!r} needs exactly one task source: a workload or a service channel"
            )
        if bus is None and bus_words_per_task:
            raise ConfigurationError("bus_words_per_task requires a bus")
        if bus is not None and bus_words_per_task < 0:
            raise ConfigurationError("bus_words_per_task must be non-negative")
        self.characterization = characterization
        self.psm = psm
        self.energy_account = energy_account
        self.workload = workload
        self.service_channel = service_channel
        self.bus = bus
        self.bus_words_per_task = bus_words_per_task
        self.bus_priority = bus_priority
        self.lem = None
        self.executions: List[TaskExecution] = []
        self.done_signal = self.signal("done", False)
        self.done_event = self.event("done")
        self.busy_signal = self.signal("busy", False)
        self._tasks_executed = 0
        self.add_thread(self._run, name="traffic")

    #: structured-tracing hook (repro.obs); None keeps every hook site to a
    #: single attribute test, so untraced runs stay bit-identical
    _tracer = None

    # -- wiring -----------------------------------------------------------
    def connect_lem(self, lem) -> None:
        """Attach the Local Energy Manager that will serve this IP."""
        if self.lem is not None:
            raise ConfigurationError(f"IP {self.name!r} already has a LEM")
        self.lem = lem

    # -- status ---------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once the whole task source has been executed."""
        return self.done_signal.read()

    @property
    def tasks_executed(self) -> int:
        """Number of completed tasks."""
        return self._tasks_executed

    @property
    def total_task_energy_j(self) -> float:
        """Active energy charged by this IP so far."""
        return self.energy_account.category_j(EnergyCategory.ACTIVE)

    def reference_duration(self, task: Task) -> SimTime:
        """Task duration at maximum frequency (paper baseline)."""
        return self.characterization.execution_time(PowerState.ON1, task.cycles)

    def reference_energy_j(self, task: Task) -> float:
        """Task energy at maximum frequency (paper baseline)."""
        return self.characterization.task_energy_j(
            PowerState.ON1, task.cycles, task.instruction_class
        )

    # -- main process -------------------------------------------------------------
    def _run(self):
        if self.lem is None:
            raise ConfigurationError(
                f"IP {self.name!r} has no LEM attached; call connect_lem() before running"
            )
        if self.workload is not None:
            yield from self._run_workload()
        else:
            yield from self._run_channel()
        self.done_signal.write(True)
        self.done_event.notify()

    def _run_workload(self):
        for item in self.workload:
            yield from self._execute_task(item.task, next_idle_hint=item.idle_after)
            if item.idle_after.femtoseconds > 0:
                yield item.idle_after

    def _run_channel(self):
        while True:
            request = yield from self.service_channel.wait_and_pop()
            if request is None:
                return
            yield from self._execute_task(request.task)

    def _execute_task(self, task: Task, next_idle_hint: Optional[SimTime] = None):
        record = TaskExecution(
            task=task,
            ip_name=self.name,
            request_time=self.kernel.now,
            reference_duration=self.reference_duration(task),
            reference_energy_j=self.reference_energy_j(task),
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                self.kernel.now_fs, "task.request", self.name,
                task=task.name, priority=str(task.priority), cycles=task.cycles,
            )
        grant = self.lem.submit_task_request(task)
        if not grant.granted:
            yield grant.event
        record.grant_time = self.kernel.now
        state = self.psm.state
        if not state.can_execute:
            raise WorkloadError(
                f"IP {self.name!r} was granted task {task.name!r} in non-executing state {state}"
            )
        if self.bus is not None and self.bus_words_per_task > 0:
            yield from self.bus.transfer(self.name, self.bus_words_per_task, self.bus_priority)
        duration = self.characterization.execution_time(state, task.cycles)
        energy = self.characterization.task_energy_j(state, task.cycles, task.instruction_class)
        if tracer is not None:
            now_fs = self.kernel.now_fs
            tracer.emit(
                now_fs, "task.start", self.name,
                task=task.name,
                wait_us=(now_fs - int(record.request_time)) / 1e9,
                duration_us=int(duration) / 1e9,
                energy_j=energy,
            )
        self.psm.set_busy(True)
        self.busy_signal.write(True)
        yield duration
        self.psm.set_busy(False)
        self.busy_signal.write(False)
        self.energy_account.add_energy(energy, EnergyCategory.ACTIVE)
        record.completion_time = self.kernel.now
        record.power_state = state
        record.energy_j = energy
        self.executions.append(record)
        self._tasks_executed += 1
        if tracer is not None:
            tracer.emit(
                self.kernel.now_fs, "task.complete", self.name,
                task=task.name, energy_j=energy,
            )
        self.lem.notify_task_complete(task, next_idle_hint)
