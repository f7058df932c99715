"""Unit tests for Resource, Store, WaitQueue, TokenBucket."""

from __future__ import annotations

import pytest

from repro.simulator import (
    Resource,
    SimulationError,
    Store,
    TokenBucket,
    WaitQueue,
    any_of,
)


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_immediate_acquire(self, sim, runner):
        res = Resource(sim, 2)

        def proc(sim):
            yield res.acquire()
            return (res.available, res.in_use)

        assert runner(proc(sim)) == (1, 1)

    def test_blocks_when_exhausted(self, sim):
        res = Resource(sim, 1)
        order = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(10)
            order.append("holder-release")
            res.release()

        def waiter(sim):
            yield res.acquire()
            order.append(f"waiter-got@{sim.now}")
            res.release()

        sim.spawn(holder(sim))
        p = sim.spawn(waiter(sim))
        sim.run(until=p)
        assert order == ["holder-release", "waiter-got@10.0"]

    def test_fifo_no_barging(self, sim):
        res = Resource(sim, 2)
        got = []

        def taker(sim, name, units):
            yield res.acquire(units)
            got.append(name)

        def setup(sim):
            yield res.acquire(2)  # drain
            sim.spawn(taker(sim, "big", 2))
            yield sim.timeout(1)
            sim.spawn(taker(sim, "small", 1))
            yield sim.timeout(1)
            # Release one unit: 'small' COULD run but 'big' is queued
            # first — FIFO means nobody proceeds yet.
            res.release(1)
            yield sim.timeout(1)
            assert got == []
            res.release(1)
            yield sim.timeout(1)
            assert got == ["big"]

        p = sim.spawn(setup(sim))
        sim.run(until=p)

    def test_acquire_more_than_capacity_rejected(self, sim):
        res = Resource(sim, 2)
        with pytest.raises(ValueError):
            res.acquire(3)

    def test_over_release_detected(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_utilization_accounting(self, sim):
        res = Resource(sim, 1)

        def proc(sim):
            yield res.acquire()
            yield sim.timeout(50)
            res.release()
            yield sim.timeout(50)

        p = sim.spawn(proc(sim))
        sim.run(until=p)
        assert res.utilization() == pytest.approx(0.5)

    def test_queue_length(self, sim, runner):
        res = Resource(sim, 1)

        def proc(sim):
            yield res.acquire()
            res.acquire()
            res.acquire()
            return res.queue_length

        assert runner(proc(sim)) == 2


class TestStore:
    def test_put_then_get(self, sim, runner):
        st = Store(sim)
        st.put("a")
        st.put("b")

        def proc(sim):
            x = yield st.get()
            y = yield st.get()
            return (x, y)

        assert runner(proc(sim)) == ("a", "b")

    def test_get_blocks_until_put(self, sim):
        st = Store(sim)

        def getter(sim):
            item = yield st.get()
            return (item, sim.now)

        def putter(sim):
            yield sim.timeout(7)
            st.put("late")

        p = sim.spawn(getter(sim))
        sim.spawn(putter(sim))
        assert sim.run(until=p) == ("late", 7.0)

    def test_waiting_getters_fifo(self, sim):
        st = Store(sim)
        got = []

        def getter(sim, name):
            item = yield st.get()
            got.append((name, item))

        procs = [sim.spawn(getter(sim, i)) for i in range(3)]

        def putter(sim):
            yield sim.timeout(1)
            for item in "abc":
                st.put(item)

        sim.spawn(putter(sim))
        sim.run_all(procs)
        assert got == [(0, "a"), (1, "b"), (2, "c")]

    def test_try_get(self, sim):
        st = Store(sim)
        assert st.try_get() is None
        st.put(1)
        assert st.try_get() == 1

    def test_drain(self, sim):
        st = Store(sim)
        for i in range(5):
            st.put(i)
        assert st.drain() == [0, 1, 2, 3, 4]
        assert len(st) == 0

    def test_depth_tracking(self, sim):
        st = Store(sim)
        for i in range(3):
            st.put(i)
        st.try_get()
        assert st.max_depth == 3
        assert st.total_put == 3


class TestWaitQueue:
    def test_wake_one_fifo(self, sim):
        wq = WaitQueue(sim)
        woken = []

        def waiter(sim, name):
            yield wq.wait()
            woken.append(name)

        procs = [sim.spawn(waiter(sim, i)) for i in range(3)]

        def waker(sim):
            yield sim.timeout(1)
            wq.wake_one()
            yield sim.timeout(1)
            wq.wake_all()

        sim.spawn(waker(sim))
        sim.run_all(procs)
        assert woken == [0, 1, 2]

    def test_wake_with_no_waiters_lost_without_latch(self, sim):
        wq = WaitQueue(sim)
        assert wq.wake_one() is False

        def waiter(sim):
            yield wq.wait()  # would hang forever
            return "woke"

        p = sim.spawn(waiter(sim))
        sim.run()
        assert p.is_alive  # never woken: the wakeup was lost (by design)

    def test_latch_remembers_one_wakeup(self, sim, runner):
        wq = WaitQueue(sim, latch=True)
        wq.wake_one()

        def waiter(sim):
            yield wq.wait()  # latched token satisfies immediately
            return sim.now

        assert runner(waiter(sim)) == 0.0

    def test_latch_holds_single_token(self, sim):
        wq = WaitQueue(sim, latch=True)
        wq.wake_one()
        wq.wake_one()  # collapses into the same token

        def waiter(sim, out):
            yield wq.wait()
            out.append(sim.now)

        out: list[float] = []
        sim.spawn(waiter(sim, out))
        p2 = sim.spawn(waiter(sim, out))
        sim.run()
        assert out == [0.0]  # second waiter still asleep
        assert p2.is_alive

    def test_wake_value_passthrough(self, sim, runner):
        wq = WaitQueue(sim)

        def waiter(sim):
            v = yield wq.wait()
            return v

        def waker(sim):
            yield sim.timeout(1)
            wq.wake_one("payload")

        sim.spawn(waker(sim))
        assert runner(waiter(sim)) == "payload"


class TestTokenBucket:
    def test_needs_positive_tokens(self, sim):
        with pytest.raises(ValueError):
            TokenBucket(sim, 0)

    def test_acquire_release_cycle(self, sim, runner):
        tb = TokenBucket(sim, 3)

        def proc(sim):
            yield tb.acquire(2)
            assert tb.tokens == 1
            tb.release(2)
            return tb.tokens

        assert runner(proc(sim)) == 3

    def test_blocks_without_credit(self, sim):
        tb = TokenBucket(sim, 1)

        def user(sim):
            yield tb.acquire()
            yield sim.timeout(10)
            tb.release()

        def waiter(sim):
            yield tb.acquire()
            return sim.now

        sim.spawn(user(sim))
        p = sim.spawn(waiter(sim))
        assert sim.run(until=p) == 10.0
        assert tb.stall_count == 1

    def test_overflow_release_detected(self, sim):
        tb = TokenBucket(sim, 2)
        with pytest.raises(SimulationError):
            tb.release()

    def test_fifo_handoff(self, sim):
        tb = TokenBucket(sim, 2)
        got = []

        def taker(sim, name, n):
            yield tb.acquire(n)
            got.append(name)

        def setup(sim):
            yield tb.acquire(2)
            sim.spawn(taker(sim, "two", 2))
            yield sim.timeout(1)
            sim.spawn(taker(sim, "one", 1))
            yield sim.timeout(1)
            tb.release(1)  # head needs 2: nobody runs
            yield sim.timeout(1)
            assert got == []
            tb.release(1)
            yield sim.timeout(1)
            assert got == ["two"]

        p = sim.spawn(setup(sim))
        sim.run(until=p)


def _wait_or_give_up(sim, wait, patience):
    """Race a queued ``wait`` against a timer, as ``HPBDClient._watchdog``
    does: when the timer wins, abandon the wait.  Generator; returns
    whether the wait was served."""
    timer = sim.timeout(patience)
    idx, _value = yield any_of(sim, [wait, timer])
    if idx == 1:
        wait.abandoned = True
        return False
    timer.cancel()
    return True


class TestInterruptedWaiters:
    """A wait its waiter cut short (the waiter's timer won, and it set
    ``abandoned``) must not be granted the capacity, token or item that
    would later have gone to it: the next waiter is served instead."""

    def test_resource_skips_abandoned_waiter(self, sim):
        res = Resource(sim, 1)
        got = []

        def holder(sim):
            yield res.acquire()
            yield sim.timeout(10)
            res.release()

        def doomed(sim):
            if (yield from _wait_or_give_up(sim, res.acquire(), 5)):
                got.append("doomed")  # must never run
                res.release()
            return "gave up"

        def patient(sim):
            yield res.acquire()
            got.append("patient")
            res.release()

        sim.spawn(holder(sim))
        d = sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.run(until=p)
        assert d.value == "gave up"
        assert got == ["patient"]
        assert res.available == 1  # no capacity leaked

    def test_tokenbucket_skips_abandoned_waiter(self, sim):
        tb = TokenBucket(sim, 1)
        got = []

        def holder(sim):
            yield tb.acquire()
            yield sim.timeout(10)
            tb.release()

        def doomed(sim):
            if (yield from _wait_or_give_up(sim, tb.acquire(), 5)):
                got.append("doomed")

        def patient(sim):
            yield tb.acquire()
            got.append("patient")
            tb.release()

        sim.spawn(holder(sim))
        sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.run(until=p)
        assert got == ["patient"]
        assert tb.tokens == 1

    def test_store_skips_abandoned_getter(self, sim):
        st = Store(sim)
        got = []

        def doomed(sim):
            wait = st.get()
            if (yield from _wait_or_give_up(sim, wait, 5)):
                got.append(("doomed", wait.value))

        def patient(sim):
            item = yield st.get()
            got.append(("patient", item))

        sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.schedule_call(6.0, lambda: st.put("item"))
        sim.run(until=p)
        assert got == [("patient", "item")]

    def test_waitqueue_skips_abandoned_waiter(self, sim):
        wq = WaitQueue(sim)
        got = []

        def doomed(sim):
            if (yield from _wait_or_give_up(sim, wq.wait(), 5)):
                got.append("doomed")

        def patient(sim):
            yield wq.wait()
            got.append("patient")

        sim.spawn(doomed(sim))
        p = sim.spawn(patient(sim))
        sim.schedule_call(6.0, lambda: wq.wake_one())
        sim.run(until=p)
        assert got == ["patient"]
