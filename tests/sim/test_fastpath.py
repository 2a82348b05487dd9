"""Tests for the event-driven fast path: the clock's edge arithmetic, the
integer-femtosecond timed queue (lazy-cancellation compaction), and
determinism of simultaneous timed notifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim import Clock, Kernel, fs, ns
from repro.sim.event import TimedQueue


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

    def test_compaction_inside_a_running_loop_loses_no_wake(self):
        """One activation cancels enough timed waits to compact the heap
        while the time loop runs.  The waits the loop arms afterwards still
        mature, and same-instant wakes keep their push order."""
        kernel = Kernel()
        log = []

        def sleeper(tag, delay):
            def body():
                yield delay
                log.append((tag, kernel.now_fs))
            return body

        victims = [
            kernel.create_thread(sleeper(f"victim{index}", ns(50)), f"victim{index}")
            for index in range(3 * TimedQueue.COMPACT_THRESHOLD)
        ]
        for index in range(3):
            kernel.create_thread(sleeper(f"early{index}", ns(100)), f"early{index}")
        heap_sizes = []

        def killer():
            yield ns(10)
            for victim in victims:
                victim.kill()
            heap_sizes.append(kernel._timed.heap_size)
            yield ns(90)  # armed after the compaction, due at 100 ns
            log.append(("killer", kernel.now_fs))
            yield ns(10)
            log.append(("killer", kernel.now_fs))

        kernel.create_thread(killer, "killer")
        for index in range(2):
            kernel.create_thread(sleeper(f"late{index}", ns(100)), f"late{index}")
        kernel.run()
        assert heap_sizes[0] < TimedQueue.COMPACT_THRESHOLD  # compacted in the loop
        at_100 = int(ns(100))
        assert log == [
            ("early0", at_100), ("early1", at_100), ("early2", at_100),
            ("late0", at_100), ("late1", at_100),
            ("killer", at_100), ("killer", int(ns(110))),
        ]

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


class TestClock:
    #: a prime femtosecond count, so no edge lands on a round number
    PERIOD_FS = 10_000_019
    START_FS = 7_777_777

    def brute_force_next_posedge(self, now_fs, edges=64):
        """First of ``start_fs + k*period`` (``k >= 1``) at or after ``now_fs``."""
        return min(
            edge
            for edge in (self.START_FS + k * self.PERIOD_FS for k in range(1, edges))
            if edge >= now_fs
        )

    def test_next_posedge_matches_brute_force_enumeration(self):
        clock = Clock(fs(self.PERIOD_FS), start_fs=self.START_FS)
        on_grid = [self.START_FS + k * self.PERIOD_FS for k in range(1, 40)]
        instants = [0, self.START_FS - 1, self.START_FS, self.START_FS + 1]
        for edge in on_grid:
            instants += [edge - 1, edge, edge + 1]
        instants += [self.START_FS + 5 * self.PERIOD_FS + self.PERIOD_FS // 2]
        for now_fs in instants:
            assert clock.next_posedge_fs(now_fs) == self.brute_force_next_posedge(now_fs), now_fs

    @pytest.mark.parametrize(
        "period_fs, start_fs",
        [(1, 0), (3, 0), (7919, 1), (7919, 104_729), (1_000_000, 999_999)],
    )
    def test_next_posedge_matches_brute_force_for_every_instant(self, period_fs, start_fs):
        clock = Clock(fs(period_fs), start_fs=start_fs)
        edges = [start_fs + k * period_fs for k in range(1, 6)]
        # Every instant from before the start to the fourth edge, or a dense
        # sample of them when the period is large.
        step = max(1, period_fs // 97)
        for now_fs in range(0, edges[3] + 1, step):
            expected = min(edge for edge in edges if edge >= now_fs)
            assert clock.next_posedge_fs(now_fs) == expected, now_fs
        for edge in edges[:4]:
            assert clock.next_posedge_fs(edge) == edge
            assert clock.next_posedge_fs(edge + 1) == edge + period_fs

    def test_equal_clocks_hash_alike(self):
        assert hash(Clock(ns(10), start_fs=5)) == hash(Clock(ns(10), start_fs=5))
        assert Clock(ns(10), start_fs=5) != Clock(ns(10), start_fs=6)
        assert Clock(ns(10)) != Clock(ns(20))
        assert len({Clock(ns(10)), Clock(ns(10)), Clock(ns(20))}) == 2

    def test_clock_is_a_frozen_value(self):
        clock = Clock(ns(10))
        assert clock == Clock(ns(10), start_fs=0)
        assert clock.period == ns(10)
        with pytest.raises(AttributeError):
            clock.period = ns(20)

    def test_invalid_period_rejected(self):
        with pytest.raises(ConfigurationError):
            Clock(ns(0))
