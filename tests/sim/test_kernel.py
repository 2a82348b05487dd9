"""Unit tests for the discrete-event kernel: events, processes, scheduling."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import YIELD, AnyOf, Kernel, Signal, ns, us


@pytest.fixture
def kernel():
    return Kernel()


class TestTimedWaits:
    def test_single_timed_wait(self, kernel):
        log = []

        def proc():
            log.append(("start", kernel.now.nanoseconds))
            yield ns(10)
            log.append(("after", kernel.now.nanoseconds))

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert log == [("start", 0.0), ("after", 10.0)]

    def test_sequential_waits_accumulate(self, kernel):
        times = []

        def proc():
            for _ in range(5):
                yield ns(3)
                times.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert times == [3.0, 6.0, 9.0, 12.0, 15.0]

    def test_run_with_duration_stops_at_end(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        end = kernel.run(ns(35))
        assert ticks == [10.0, 20.0, 30.0]
        assert end == ns(35)

    def test_run_is_resumable(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)

        kernel.create_thread(proc, "proc")
        kernel.run(ns(25))
        kernel.run(ns(25))
        assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert kernel.now == ns(50)

    def test_two_processes_interleave_deterministically(self, kernel):
        order = []

        def fast():
            while kernel.now < ns(30):
                yield ns(10)
                order.append(("fast", kernel.now.nanoseconds))

        def slow():
            while kernel.now < ns(30):
                yield ns(15)
                order.append(("slow", kernel.now.nanoseconds))

        kernel.create_thread(fast, "fast")
        kernel.create_thread(slow, "slow")
        kernel.run(ns(100))
        # At t=30 both processes are due; the one whose wait was scheduled
        # first (slow, armed at t=15) resumes first: insertion order is kept.
        assert order == [
            ("fast", 10.0),
            ("slow", 15.0),
            ("fast", 20.0),
            ("slow", 30.0),
            ("fast", 30.0),
        ]

    def test_starvation_ends_run_without_duration(self, kernel):
        def proc():
            yield ns(5)

        kernel.create_thread(proc, "proc")
        end = kernel.run()
        assert end == ns(5)
        assert not kernel.pending_activity


class TestEvents:
    def test_timed_event_wakes_waiter(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            yield ns(7)
            event.notify()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [7.0]

    def test_notify_after_delay(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            event.notify_after(ns(42))
            return
            yield  # pragma: no cover

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [42.0]

    def test_delta_notification_keeps_time(self, kernel):
        event = kernel.event("go")
        log = []

        def waiter():
            yield event
            log.append(kernel.now.nanoseconds)

        def notifier():
            yield ns(5)
            event.notify_delta()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [5.0]

    def test_any_of_wakes_on_first_event(self, kernel):
        early = kernel.event("early")
        late = kernel.event("late")
        log = []

        def waiter():
            yield AnyOf([early, late])
            log.append(kernel.now.nanoseconds)

        def notifier():
            early.notify_after(ns(3))
            late.notify_after(ns(9))
            return
            yield  # pragma: no cover

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == [3.0]

    def test_event_wait_is_one_shot(self, kernel):
        event = kernel.event("go")
        wakeups = []

        def waiter():
            yield event
            wakeups.append(kernel.now.nanoseconds)
            # Not waiting again: further notifications must not wake us.

        def notifier():
            yield ns(1)
            event.notify()
            yield ns(1)
            event.notify()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert wakeups == [1.0]

    def test_anyof_requires_events(self, kernel):
        with pytest.raises(SchedulingError):
            AnyOf([])


class TestMethodProcesses:
    def test_method_runs_on_each_notification(self, kernel):
        event = kernel.event("tick")
        calls = []

        kernel.create_method(lambda: calls.append(kernel.now.nanoseconds), [event], "m")

        def driver():
            for _ in range(3):
                yield ns(10)
                event.notify()

        kernel.create_thread(driver, "driver")
        kernel.run()
        assert calls == [10.0, 20.0, 30.0]

    def test_method_waits_for_its_first_notification(self, kernel):
        event = kernel.event("tick")
        calls = []
        kernel.create_method(lambda: calls.append(kernel.now.nanoseconds), [event], "m")
        kernel.run()
        assert calls == []


class TestSingleWakePerPhase:
    """A process woken by several events in one phase resumes once."""

    @staticmethod
    def _thread_wake_times(kernel, notify_both):
        first = kernel.event("first")
        second = kernel.event("second")
        log = []

        def waiter():
            yield AnyOf([first, second])
            log.append(("woken", kernel.now.nanoseconds))
            yield ns(100)
            log.append(("slept", kernel.now.nanoseconds))

        def driver():
            yield ns(10)
            notify_both(first, second)

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(driver, "driver")
        kernel.run()
        return log

    def test_two_delta_notifications_wake_a_thread_once(self, kernel):
        def notify_both(first, second):
            first.notify_delta()
            second.notify_delta()

        log = self._thread_wake_times(kernel, notify_both)
        assert log == [("woken", 10.0), ("slept", 110.0)]

    def test_two_immediate_notifications_wake_a_thread_once(self, kernel):
        def notify_both(first, second):
            first.notify()
            second.notify()

        log = self._thread_wake_times(kernel, notify_both)
        assert log == [("woken", 10.0), ("slept", 110.0)]

    def test_two_timed_notifications_at_one_instant_wake_a_thread_once(self, kernel):
        def notify_both(first, second):
            first.notify_after(ns(5))
            second.notify_after(ns(5))

        log = self._thread_wake_times(kernel, notify_both)
        assert log == [("woken", 15.0), ("slept", 115.0)]

    @staticmethod
    def _method_run_times(kernel, notify_both):
        first = kernel.event("first")
        second = kernel.event("second")
        calls = []
        kernel.create_method(lambda: calls.append(kernel.now.nanoseconds), [first, second], "m")

        def driver():
            yield ns(10)
            notify_both(first, second)

        kernel.create_thread(driver, "driver")
        kernel.run()
        return calls

    def test_two_delta_notifications_run_a_method_once(self, kernel):
        def notify_both(first, second):
            first.notify_delta()
            second.notify_delta()

        assert self._method_run_times(kernel, notify_both) == [10.0]

    def test_two_immediate_notifications_run_a_method_once(self, kernel):
        def notify_both(first, second):
            first.notify()
            second.notify()

        assert self._method_run_times(kernel, notify_both) == [10.0]

    def test_two_timed_notifications_at_one_instant_run_a_method_once(self, kernel):
        def notify_both(first, second):
            first.notify_after(ns(5))
            second.notify_after(ns(5))

        assert self._method_run_times(kernel, notify_both) == [15.0]

    def test_a_method_renotified_in_a_later_delta_runs_again(self, kernel):
        first = kernel.event("first")
        second = kernel.event("second")
        phase = []
        calls = []
        kernel.create_method(lambda: calls.append((kernel.now.nanoseconds, phase[-1])), [first, second], "m")

        def driver():
            yield ns(10)
            phase.append("first")
            first.notify_delta()
            yield first
            phase.append("second")
            second.notify_delta()

        kernel.create_thread(driver, "driver")
        kernel.run()
        assert calls == [(10.0, "first"), (10.0, "second")]

    def test_method_sensitive_to_two_signals_written_together_runs_once(self, kernel):
        # The shape of the GEM's sensor watch: one pass writes both level
        # signals, and the method sensitive to both must evaluate once.
        battery = Signal(kernel, "battery", 0)
        temperature = Signal(kernel, "temperature", 0)
        calls = []
        kernel.create_method(
            lambda: calls.append((kernel.now.nanoseconds, battery.read(), temperature.read())),
            [battery.changed_event, temperature.changed_event],
            "watch",
        )

        def sampler():
            for level in (1, 2):
                yield ns(10)
                battery.write(level)
                temperature.write(level)

        kernel.create_thread(sampler, "sampler")
        kernel.run()
        assert calls == [(10.0, 1, 1), (20.0, 2, 2)]

    def test_a_thread_rewoken_in_a_later_delta_resumes_again(self, kernel):
        # Deduplication is per wake, not per instant: a thread that waits
        # again and is notified in the next delta cycle resumes again.
        gate = kernel.event("gate")
        log = []

        def waiter():
            yield gate
            log.append("first")
            yield gate
            log.append("second")

        def driver():
            yield ns(1)
            gate.notify_delta()
            yield gate
            gate.notify_delta()

        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(driver, "driver")
        kernel.run()
        assert log == ["first", "second"]


class TestSameInstantOrdering:
    """The same-femtosecond ordering contract of the kernel docstring."""

    def test_timed_event_callbacks_run_before_processes_of_the_instant(self, kernel):
        log = []
        timer = kernel.event("timer")
        timer.add_callback(lambda: log.append("callback"))

        def sleeper():
            yield ns(10)  # pushed before the timer notification
            log.append("sleeper")

        def waiter():
            yield timer
            log.append("waiter")

        def notifier():
            timer.notify_after(ns(10))
            return
            yield  # pragma: no cover - makes this a generator

        kernel.create_thread(sleeper, "sleeper")
        kernel.create_thread(waiter, "waiter")
        kernel.create_thread(notifier, "notifier")
        kernel.run()
        assert log == ["callback", "sleeper", "waiter"]

    def test_immediate_notify_queues_behind_runnable_processes(self, kernel):
        log = []
        go = kernel.event("go")

        def notifier():
            yield ns(10)
            log.append("notifier")
            go.notify()

        def bystander():
            yield ns(10)
            log.append("bystander")

        def waiter():
            yield go
            log.append("waiter")

        kernel.create_thread(notifier, "notifier")
        kernel.create_thread(bystander, "bystander")
        kernel.create_thread(waiter, "waiter")
        kernel.run()
        assert log == ["notifier", "bystander", "waiter"]

    def test_delta_events_fire_after_the_update_phase(self, kernel):
        sig = Signal(kernel, "s", 0)
        ready = kernel.event("ready")
        log = []

        def writer():
            yield ns(10)
            sig.write(1)
            ready.notify_delta()
            log.append(("writer", sig.read()))

        def on_ready():
            yield ready
            log.append(("ready", sig.read()))

        def on_change():
            yield sig.changed_event
            log.append(("changed", sig.read()))

        kernel.create_thread(writer, "writer")
        kernel.create_thread(on_ready, "on_ready")
        kernel.create_thread(on_change, "on_change")
        kernel.run()
        # The delta event was notified before the update phase scheduled
        # the signal's change event, so it fires first — and both waiters
        # already read the written value.
        assert log == [("writer", 0), ("ready", 1), ("changed", 1)]
        assert kernel.now == ns(10)

    def test_yield_resumes_behind_the_runnable_set(self, kernel):
        log = []
        go = kernel.event("go")

        def yielder():
            yield ns(10)
            log.append("yielder")
            yield YIELD
            log.append("yielder resumed")

        def notifier():
            yield ns(10)
            log.append("notifier")
            go.notify()

        def bystander():
            yield ns(10)
            log.append("bystander")

        def waiter():
            yield go
            log.append("waiter")

        for func in (yielder, notifier, bystander, waiter):
            kernel.create_thread(func, func.__name__)
        kernel.run()
        # The waiter was woken after the yield, so it queues behind it.
        assert log == ["yielder", "notifier", "bystander", "yielder resumed", "waiter"]

    @staticmethod
    def _stats_of(body):
        kernel = Kernel()
        kernel.create_thread(body, "proc")
        kernel.run()
        return kernel.stats.as_dict()

    def test_yield_costs_one_activation_and_no_notification(self):
        def plain():
            yield ns(10)

        def yielding():
            yield ns(10)
            yield YIELD

        expected = self._stats_of(plain)
        expected["process_activations"] += 1
        assert self._stats_of(yielding) == expected
        assert expected["immediate_notifications"] == 0

    def test_yield_stays_in_the_same_delta_cycle(self, kernel):
        sig = Signal(kernel, "s", 0)
        ready = kernel.event("ready")
        log = []

        def writer():
            yield ns(10)
            sig.write(1)
            ready.notify_delta()
            yield YIELD
            # Neither the update phase nor the delta notification has run.
            log.append(("writer", sig.read()))

        def on_ready():
            yield ready
            log.append(("ready", sig.read()))

        kernel.create_thread(writer, "writer")
        kernel.create_thread(on_ready, "on_ready")
        kernel.run()
        assert log == [("writer", 0), ("ready", 1)]
        assert kernel.now == ns(10)

    def test_thread_killed_while_yielded_never_resumes(self, kernel):
        log = []

        def victim():
            try:
                yield ns(10)
                log.append("victim")
                yield YIELD
                log.append("victim resumed")
            finally:
                log.append("victim closed")

        victim_process = kernel.create_thread(victim, "victim")

        def killer():
            yield ns(10)
            log.append("killer")
            victim_process.kill()

        kernel.create_thread(killer, "killer")
        kernel.run()
        assert log == ["victim", "killer", "victim closed"]
        assert victim_process.terminated


class TestKernelControl:
    def test_stop_halts_simulation(self, kernel):
        ticks = []

        def proc():
            while True:
                yield ns(10)
                ticks.append(kernel.now.nanoseconds)
                if len(ticks) == 3:
                    kernel.stop()

        kernel.create_thread(proc, "proc")
        kernel.run()
        assert ticks == [10.0, 20.0, 30.0]

    def test_run_not_reentrant(self, kernel):
        def proc():
            with pytest.raises(SimulationError):
                kernel.run()
            yield ns(1)

        kernel.create_thread(proc, "proc")
        kernel.run()

    def test_invalid_wait_spec_raises(self, kernel):
        def proc():
            yield "not a wait spec"

        kernel.create_thread(proc, "proc")
        with pytest.raises(SchedulingError):
            kernel.run()

    def test_yield_none_without_sensitivity_raises(self, kernel):
        def proc():
            yield None

        kernel.create_thread(proc, "proc")
        with pytest.raises(SchedulingError):
            kernel.run()

    def test_statistics_counted(self, kernel):
        def proc():
            for _ in range(4):
                yield ns(1)

        kernel.create_thread(proc, "proc")
        kernel.run()
        stats = kernel.stats.as_dict()
        assert stats["processes_created"] == 1
        assert stats["timed_notifications"] == 4
        assert stats["process_activations"] >= 5

    def test_process_registered_after_start_runs(self, kernel):
        log = []

        def late():
            yield ns(2)
            log.append(("late", kernel.now.nanoseconds))

        def spawner():
            yield ns(5)
            kernel.create_thread(late, "late")

        kernel.create_thread(spawner, "spawner")
        kernel.run()
        assert log == [("late", 7.0)]


class TestProcessKill:
    def test_kill_clears_a_pending_timed_wait(self, kernel):
        log = []

        def victim():
            yield us(10)
            log.append("victim")  # pragma: no cover - must not run

        def killer(process):
            def proc():
                yield us(1)
                process.kill()
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(killer(process), "killer")
        kernel.run()
        assert log == []
        assert process.terminated
        assert not kernel.pending_activity

    def test_kill_removes_the_process_from_event_waiters(self, kernel):
        log = []
        event = kernel.event("gate")

        def victim():
            yield event
            log.append("victim")  # pragma: no cover - must not run

        def driver(process):
            def proc():
                yield us(1)
                process.kill()
                event.notify()
                yield us(1)
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(driver(process), "driver")
        kernel.run()
        assert log == []
        assert event.waiter_count == 0

    def test_kill_runs_finally_blocks(self, kernel):
        cleanup = []

        def victim():
            try:
                yield us(10)
            finally:
                cleanup.append("cleaned")

        def killer(process):
            def proc():
                yield us(1)
                process.kill()
            return proc

        process = kernel.create_thread(victim, "victim")
        kernel.create_thread(killer(process), "killer")
        kernel.run()
        assert cleanup == ["cleaned"]

    def test_kill_is_idempotent_and_safe_after_termination(self, kernel):
        def short():
            yield ns(1)

        process = kernel.create_thread(short, "short")
        kernel.run()
        assert process.terminated
        process.kill()  # no-op
        process.kill()
        assert process.terminated

    def test_kill_before_start_prevents_any_execution(self, kernel):
        log = []

        def victim():
            log.append("started")
            yield ns(1)

        process = kernel.create_thread(victim, "victim")
        process.kill()
        kernel.run()
        assert log == []
        assert process.terminated

    def test_self_kill_terminates_at_the_next_yield(self, kernel):
        log = []
        cleanup = []
        holder = {}

        def victim():
            try:
                log.append("before")
                holder["p"].kill()  # self-kill from the executing frame
                log.append("after-kill")
                yield us(1)
                log.append("resumed")  # pragma: no cover - must not run
            finally:
                cleanup.append("cleaned")

        def bystander():
            yield us(5)
            log.append("bystander")

        holder["p"] = kernel.create_thread(victim, "victim")
        kernel.create_thread(bystander, "bystander")
        kernel.run()
        # The self-killing frame runs to its next yield, then terminates
        # with its finally blocks; the rest of the simulation continues.
        assert log == ["before", "after-kill", "bystander"]
        assert cleanup == ["cleaned"]
        assert holder["p"].terminated
