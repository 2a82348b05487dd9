"""Tests for the event-driven fast path: virtual clocks, the integer-
femtosecond timed queue (lazy-cancellation compaction), and determinism of
simultaneous timed notifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Clock, Kernel, Simulator, fs, ns, us
from repro.sim.event import TimedQueue
from repro.sim.simtime import SimTime


class TestTimedQueueCompaction:
    def test_len_counts_live_entries_only(self):
        queue = TimedQueue()
        handles = [queue.push(100 + i, object()) for i in range(10)]
        assert len(queue) == 10
        for handle in handles[:4]:
            queue.cancel(handle)
        assert len(queue) == 6
        # Cancelling twice is a no-op.
        queue.cancel(handles[0])
        assert len(queue) == 6

    def test_cancelled_entries_do_not_leak_heap_slots(self):
        queue = TimedQueue()
        live = queue.push(10**9, "live")
        dead = []
        # Push/cancel far more entries than the compaction threshold; without
        # compaction the heap would keep every slot until pop time.
        for i in range(10 * TimedQueue.COMPACT_THRESHOLD):
            dead.append(queue.push(1000 + i, i))
            queue.cancel(dead[-1])
        assert len(queue) == 1
        assert queue.heap_size <= 2 * TimedQueue.COMPACT_THRESHOLD
        assert queue.next_time_fs() == 10**9
        assert queue.pop_due(10**9) == ["live"]
        assert live[3]  # consumed handles read as cancelled

    def test_compaction_preserves_pop_order(self):
        reference = TimedQueue()
        compacted = TimedQueue()
        times = [5, 3, 3, 9, 1, 7, 3, 9, 2, 8] * 30
        ref_handles, cmp_handles = [], []
        for index, when in enumerate(times):
            ref_handles.append(reference.push(when, (when, index)))
            cmp_handles.append(compacted.push(when, (when, index)))
        # Cancel the same arbitrary subset in both queues; only the compacted
        # queue is pushed over the compaction threshold afterwards.
        for index in range(0, len(times), 3):
            reference.cancel(ref_handles[index])
            compacted.cancel(cmp_handles[index])
        extra = [compacted.push(10_000 + i, None) for i in range(2 * TimedQueue.COMPACT_THRESHOLD)]
        for handle in extra:
            compacted.cancel(handle)

        def drain(queue):
            order = []
            while True:
                when = queue.next_time_fs()
                if when is None:
                    return order
                order.extend(queue.pop_due(when))
        assert drain(compacted) == drain(reference)

    def test_fifo_order_among_ties(self):
        """Entries at the same femtosecond pop in push order."""
        queue = TimedQueue()
        for tag in range(20):
            queue.push(100, ("tie", tag))
        queue.push(50, "early")
        assert queue.pop_due(50) == ["early"]
        assert queue.pop_due(100) == [("tie", tag) for tag in range(20)]
        assert len(queue) == 0

    def test_cancel_after_pop_is_a_noop(self):
        queue = TimedQueue()
        handle = queue.push(5, "x")
        assert queue.pop_due(5) == ["x"]
        queue.cancel(handle)  # must not corrupt the counters
        assert len(queue) == 0
        assert queue.next_time_fs() is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_interleaving_matches_sorted_list_model(self, seed):
        """Thousands of random push/cancel/pop steps, checked step by step
        against a plain list of live ``(time, push order, payload)`` entries:
        pop order (ties included), earliest time and live length.  Handles
        stay cancellable after their entry popped, so stale cancels are
        exercised too."""
        rng = random.Random(seed)
        queue = TimedQueue()
        model = []  # live entries, kept sorted by (time, push order)
        handles = {}  # push order -> queue handle, until cancelled
        clock = 0
        for step in range(5000):
            roll = rng.random()
            if roll < 0.55:
                when = clock + rng.randrange(0, 50)
                handles[step] = queue.push(when, step)
                model.append((when, step, step))
                model.sort()
            elif roll < 0.85 and handles:
                key = rng.choice(sorted(handles))
                queue.cancel(handles.pop(key))
                model = [entry for entry in model if entry[1] != key]
            else:
                expected = model[0][0] if model else None
                assert queue.next_time_fs() == expected
                if expected is not None:
                    clock = expected
                    due = [entry for entry in model if entry[0] == clock]
                    model = model[len(due):]
                    assert queue.pop_due(clock) == [entry[2] for entry in due]
            assert len(queue) == len(model)
            assert queue.heap_size >= len(queue)
        # Drain completely; the full remaining order must agree.
        while (when := queue.next_time_fs()) is not None:
            due = [entry[2] for entry in model if entry[0] == when]
            model = model[len(due):]
            assert queue.pop_due(when) == due
        assert model == []
        assert len(queue) == 0

    def test_kernel_pending_activity_ignores_cancelled_only_timed_entries(self):
        kernel = Kernel()
        event = kernel.event("never")
        handle = kernel.schedule_timed(event, ns(100))
        assert kernel.pending_activity
        kernel.cancel_timed(handle)
        assert not kernel.pending_activity


class TestSimultaneousTimedDeterminism:
    @given(
        delays=st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=24
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_same_instant_notifications_fire_in_schedule_order(self, delays):
        """Timed notifications maturing at the same instant preserve the
        order in which they were scheduled, mixing event notifications and
        process timeouts, across repeated runs."""

        def run_once():
            kernel = Kernel()
            log = []

            def waiter(index, event):
                def proc():
                    yield event
                    log.append(("event", index, int(kernel.now)))
                return proc

            def sleeper(index, delay):
                def proc():
                    yield ns(delay)
                    log.append(("timeout", index, int(kernel.now)))
                return proc

            events = []
            for index, delay in enumerate(delays):
                if index % 2 == 0:
                    event = kernel.event(f"e{index}")
                    events.append((event, delay))
                    kernel.create_thread(waiter(index, event), f"w{index}")
                else:
                    kernel.create_thread(sleeper(index, delay), f"s{index}")
            # Schedule the event notifications after the threads exist so the
            # waiters are armed; notify_after shares the timed queue with the
            # process timeouts above.
            def scheduler():
                for event, delay in events:
                    event.notify_after(ns(delay))
                return
                yield  # pragma: no cover - makes this a generator

            kernel.create_thread(scheduler, "scheduler")
            kernel.run()
            return log

        first = run_once()
        second = run_once()
        assert first == second
        # All notifications matured, and within one instant the wake order
        # follows the scheduling order (stable by sequence number).
        assert len(first) == len(delays)
        times = [entry[2] for entry in first]
        assert times == sorted(times)


class TestVirtualClock:
    def test_virtual_clock_creates_no_activity(self):
        kernel = Kernel()
        clock = Clock(kernel, "clk", period=ns(10))
        kernel.initialize()
        assert not clock.is_materialized
        assert not kernel.pending_activity
        # Time advances purely analytically.
        kernel.run(us(1))
        assert clock.cycle_count == 100
        assert kernel.stats.process_activations == 0

    def test_cycle_count_matches_toggled_clock(self):
        sim_a = Simulator()
        virtual = sim_a.add_module(Clock(sim_a.kernel, "clk", period=ns(10)))
        sim_a.run(ns(245))

        sim_b = Simulator()
        accurate = sim_b.add_module(
            Clock(sim_b.kernel, "clk", period=ns(10), cycle_accurate=True)
        )
        sim_b.run(ns(245))
        assert accurate.is_materialized
        assert virtual.cycle_count == accurate.cycle_count == 24
        assert accurate.out.change_count > 0

    def test_out_access_materializes_before_run(self):
        sim = Simulator()
        clock = sim.add_module(Clock(sim.kernel, "clk", period=ns(10)))
        edges = []
        clock.out.add_observer(lambda when, value: edges.append((when.nanoseconds, value)))
        assert clock.is_materialized
        sim.run(ns(24))
        assert edges == [(5.0, False), (10.0, True), (15.0, False), (20.0, True)]

    def test_materialize_after_time_advanced_is_rejected(self):
        sim = Simulator()
        clock = sim.add_module(Clock(sim.kernel, "clk", period=ns(10)))
        sim.run(ns(25))
        with pytest.raises(SimulationError):
            _ = clock.out

    def test_duty_cycle_phases_sum_to_period_exactly(self):
        kernel = Kernel()
        # Adversarial period (prime femtosecond count) and duty cycle: the
        # high phase rounds, the low phase must absorb the remainder.
        period = fs(10_000_019)
        clock = Clock(kernel, "clk", period=period, duty_cycle=1.0 / 3.0)
        assert clock._high_time + clock._low_time == period

    def test_toggled_clock_does_not_drift_from_analytic_count(self):
        sim = Simulator()
        period = fs(10_000_019)
        clock = sim.add_module(
            Clock(sim.kernel, "clk", period=period, duty_cycle=1.0 / 3.0, cycle_accurate=True)
        )
        # Runs the toggle thread through ~1000 full periods; the thread
        # asserts its own cycle count against the analytic one every period.
        sim.run(SimTime(10_000_019 * 1000))
        assert clock.cycle_count == 1000

    def test_invalid_parameters_rejected(self):
        kernel = Kernel()
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk", period=ns(0))
        with pytest.raises(ConfigurationError):
            Clock(kernel, "clk2", period=ns(10), duty_cycle=1.5)
