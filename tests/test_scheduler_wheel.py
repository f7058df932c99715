"""Calendar-queue scheduler edge cases the equivalence sweep can't hit.

The sweep harness (test_scheduler_equivalence) proves heap and wheel
agree on realistic workloads; this module aims the wheel's internals at
the boundaries where a calendar queue classically goes wrong — bucket
edges, far-future cascades, empty-wheel spins, tombstone reuse — and at
the ordering contract (same-timestamp FIFO within and across priority
bands) both schedulers must uphold.
"""

from __future__ import annotations

import pytest

from repro.simulator import (
    LAZY,
    NORMAL,
    URGENT,
    Resource,
    Simulator,
    Timeout,
    TokenBucket,
)
from repro.simulator.core import _NBUCKETS, _W
from repro.simulator.errors import NonFiniteTime, SchedulingInPast, SimulationError

pytestmark = pytest.mark.parametrize("scheduler", ["heap", "wheel"])


def make_sim(scheduler):
    return Simulator(scheduler=scheduler)


class TestSameTimestampOrdering:
    def test_fifo_within_priority(self, scheduler):
        sim = make_sim(scheduler)
        order = []
        for i in range(16):
            sim.schedule_call(5.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(16))

    def test_urgent_beats_normal_at_same_instant(self, scheduler):
        sim = make_sim(scheduler)
        order = []
        # interleave posts: normal, urgent, normal, urgent ...
        for i in range(8):
            sim.schedule_call(5.0, lambda i=i: order.append(("n", i)), NORMAL)
            sim.schedule_call(5.0, lambda i=i: order.append(("u", i)), URGENT)
        sim.run()
        # all urgent first (in post order), then all normal (in post order)
        assert order == [("u", i) for i in range(8)] + [("n", i) for i in range(8)]

    def test_priority_bands_spanning_bucket_boundary(self, scheduler):
        """Same-instant ordering must hold at a bucket edge exactly."""
        sim = make_sim(scheduler)
        edge = _W * 3  # exactly on a bucket boundary
        order = []
        sim.schedule_call(edge, lambda: order.append("n"), NORMAL)
        sim.schedule_call(edge, lambda: order.append("u"), URGENT)
        sim.run()
        assert order == ["u", "n"]
        assert sim.now == edge


class TestTombstones:
    def test_cancel_then_fire_is_skipped_and_pooled(self, scheduler):
        sim = make_sim(scheduler)
        fired = []

        def proc(sim):
            yield sim.timeout(10.0)
            fired.append(sim.now)

        victim = sim.timeout(5.0)
        victim.callbacks.append(lambda e: fired.append("victim"))
        victim.cancel()
        del victim  # recycling is refcount-gated; drop our handle
        sim.spawn(proc(sim))
        sim.run()
        assert fired == [10.0]
        # the tombstone was recycled into the pool, not leaked
        assert len(sim._timeout_pool) >= 1

    def test_cancelled_event_does_not_advance_clock(self, scheduler):
        sim = make_sim(scheduler)
        t = sim.timeout(50.0)
        t.cancel()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_pool_reuse_after_cancel(self, scheduler):
        """A cancelled-then-recycled Timeout must rearm clean."""
        sim = make_sim(scheduler)
        t = sim.timeout(3.0)
        t.cancel()
        del t  # recycling is refcount-gated; drop our handle
        sim.run()
        assert len(sim._timeout_pool) == 1
        reused = sim.timeout(7.0)  # LIFO pool hands the tombstone back
        assert len(sim._timeout_pool) == 0
        assert not reused.cancelled
        fired = []
        reused.callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_cancel_processed_event_is_noop(self, scheduler):
        sim = make_sim(scheduler)
        t = sim.timeout(1.0)
        done = []
        t.callbacks.append(lambda e: done.append(1))
        sim.run()
        t.cancel()  # already processed: silently ignored
        assert done == [1]

    def test_cancel_owned_event_raises(self, scheduler):
        """An event a process is blocked on cannot be tombstoned — that
        would strand the generator forever."""
        sim = make_sim(scheduler)
        gate = sim.event("gate")

        def proc(sim):
            yield gate

        sim.spawn(proc(sim))
        sim.run()  # init event fires; proc is parked on gate
        with pytest.raises(SimulationError):
            gate.cancel()
        gate.succeed()  # unstick for a clean teardown
        sim.run()


class TestFarFutureCascade:
    def test_beyond_horizon_lands_and_fires_in_order(self, scheduler):
        """Entries past the wheel horizon park in the overflow heap and
        cascade back in as the wheel turns."""
        sim = make_sim(scheduler)
        horizon = _NBUCKETS * _W
        times = [horizon * 3 + 1.0, horizon + 0.5, horizon * 2, 3.0, horizon - 0.1]
        fired = []
        for t in times:
            sim.schedule_call(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.now == max(times)

    def test_cascade_boundary_exact_horizon(self, scheduler):
        """An entry exactly at the horizon is far-future; one at
        horizon - epsilon is wheel-resident.  Both must fire, in order."""
        sim = make_sim(scheduler)
        horizon = _NBUCKETS * _W
        fired = []
        sim.schedule_call(horizon, lambda: fired.append("at"))
        sim.schedule_call(horizon - 1e-9, lambda: fired.append("below"))
        sim.run()
        assert fired == ["below", "at"]

    def test_interleaved_near_and_far(self, scheduler):
        """A process sleeping short intervals while far-future timers
        exist: every cascade must preserve the global order."""
        sim = make_sim(scheduler)
        horizon = _NBUCKETS * _W
        fired = []
        for k in range(1, 6):
            sim.schedule_call(horizon * k + 0.25, lambda k=k: fired.append(("far", k)))

        def ticker(sim):
            for i in range(int(horizon * 5 / 100.0) + 10):
                yield sim.timeout(100.0)
                fired.append(("tick", sim.now))

        sim.spawn(ticker(sim))
        sim.run()
        # reconstruct expected order by time (ticks at i*100, fars at k*horizon+.25)
        expected = sorted(
            [(k * horizon + 0.25, ("far", k)) for k in range(1, 6)]
            + [((i + 1) * 100.0, ("tick", (i + 1) * 100.0))
               for i in range(int(horizon * 5 / 100.0) + 10)],
            key=lambda kv: kv[0],
        )
        assert fired == [tag for _, tag in expected]


class TestEmptyWheelSpin:
    def test_far_only_jump_does_not_walk_buckets(self, scheduler):
        """With nothing on the wheel and one far-future entry, the
        scheduler must jump straight to it (guard against O(gap/width)
        bucket walking)."""
        sim = make_sim(scheduler)
        fired = []
        sim.schedule_call(1e9, lambda: fired.append(sim.now))  # ~125M buckets away
        sim.run()
        assert fired == [1e9]
        assert sim.now == 1e9

    def test_sparse_repeated_jumps(self, scheduler):
        sim = make_sim(scheduler)
        fired = []

        def proc(sim):
            for _ in range(50):
                yield sim.timeout(1e7)  # each sleep is ~2441 bucket widths
                fired.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert len(fired) == 50
        assert fired[-1] == pytest.approx(50e7)

    def test_time_warp_then_dense_traffic(self, scheduler):
        """After a huge jump by a lone timeout, new near-term entries
        must land in valid buckets (bucket ordinals are absolute, not
        wrapped state)."""
        sim = make_sim(scheduler)
        fired = []

        def proc(sim):
            yield sim.timeout(1e8)
            for i in range(200):
                yield sim.timeout(0.5)
                fired.append(sim.now)

        sim.spawn(proc(sim))
        sim.run()
        assert len(fired) == 200
        assert fired[-1] == pytest.approx(1e8 + 100.0)


class TestNonFiniteTimes:
    """``inf`` and ``NaN`` are rejected when scheduled, with the same
    typed error on both backends, and leave the queue untouched."""

    BAD = [float("inf"), float("nan")]

    def _assert_queue_intact(self, sim):
        fired = []
        sim.schedule_call(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_timeout_rejects(self, scheduler, bad):
        sim = make_sim(scheduler)
        with pytest.raises(NonFiniteTime):
            sim.timeout(bad)
        with pytest.raises(NonFiniteTime):
            Timeout(sim, bad)
        self._assert_queue_intact(sim)

    @pytest.mark.parametrize("bad", BAD)
    def test_pooled_timeout_rejects(self, scheduler, bad):
        sim = make_sim(scheduler)
        sim.timeout(1.0)
        sim.run()
        assert sim._timeout_pool
        with pytest.raises(NonFiniteTime):
            sim.timeout(bad)
        assert sim.now == 1.0
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 3.0

    @pytest.mark.parametrize("bad", BAD)
    def test_schedule_call_rejects(self, scheduler, bad):
        sim = make_sim(scheduler)
        with pytest.raises(NonFiniteTime):
            sim.schedule_call(bad, lambda: None)
        self._assert_queue_intact(sim)

    @pytest.mark.parametrize("bad", BAD)
    def test_run_until_rejects(self, scheduler, bad):
        sim = make_sim(scheduler)
        with pytest.raises(NonFiniteTime):
            sim.run(until=bad)
        assert sim.now == 0.0
        self._assert_queue_intact(sim)

    def test_non_finite_is_a_simulation_error(self, scheduler):
        sim = make_sim(scheduler)
        with pytest.raises(SimulationError):
            sim.timeout(float("inf"))
        # Negative delays keep their own error, -inf included.
        with pytest.raises(SchedulingInPast):
            sim.timeout(-float("inf"))


class TestRunUntilMarker:
    def test_run_until_deadline_between_events(self, scheduler):
        sim = make_sim(scheduler)
        fired = []
        sim.schedule_call(3.0, lambda: fired.append(3.0))
        sim.schedule_call(9.0, lambda: fired.append(9.0))
        sim.run(until=5.0)
        assert fired == [3.0]
        assert sim.now == 5.0
        sim.run()
        assert fired == [3.0, 9.0]

    def test_run_until_same_instant_as_event(self, scheduler):
        """Events at exactly the deadline still fire (marker sorts after
        every real priority at that instant)."""
        sim = make_sim(scheduler)
        fired = []
        sim.schedule_call(5.0, lambda: fired.append("evt"))
        sim.run(until=5.0)
        assert fired == ["evt"]
        assert sim.now == 5.0

    def test_marker_not_counted_as_event(self, scheduler):
        sim = make_sim(scheduler)
        sim.schedule_call(1.0, lambda: None)
        before = sim.events_processed
        sim.run(until=10.0)
        assert sim.events_processed == before + 1


    def test_run_until_event_stops_before_its_waiter_sleeps(self, scheduler):
        """A process resumed by ``until`` that then sleeps alone in the
        queue is not carried on: the drain stops once ``until`` has
        fired, before the sleeper's timeout."""
        sim = make_sim(scheduler)
        wake = sim.event("wake")
        ticks = []

        def sleeper(sim):
            yield wake
            for _ in range(3):
                yield sim.timeout(10.0)
                ticks.append(sim.now)

        sim.spawn(sleeper(sim))
        sim.run(until=1.0)
        wake.succeed()
        sim.run(until=wake)
        assert (sim.now, ticks) == (1.0, [])
        sim.run()
        assert ticks == [11.0, 21.0, 31.0]


class TestNextPopQuery:
    """``Simulator._head`` and the elisions built on it."""

    @pytest.mark.parametrize("delay", [1_000.0, 10_000.0])
    def test_head_after_inline_sleep_jump(self, scheduler, delay):
        """An inline sleep in an empty queue moves the clock past the
        current bucket, so the next two posts land in a wheel bucket
        (1 ms) or the overflow heap (10 ms) while ``_cur`` stays empty:
        the head is still due now, and a grant must not be taken
        inline."""
        sim = make_sim(scheduler)
        res = Resource(sim, 1)
        order = []

        def proc(sim):
            assert sim.sleep_inline(delay)
            for i in range(2):
                evt = sim.event("post")
                evt.callbacks.append(lambda _e, i=i: order.append(i))
                evt.succeed()
            if scheduler == "wheel":
                assert not sim._cur and sim.now >= sim._cur_end
            assert sim._head()[0] == sim.now == delay
            assert not res.grant_inline()
            yield res.acquire()
            order.append("granted")
            res.release()

        sim.run(until=sim.spawn(proc(sim)))
        assert order == [0, 1, "granted"]

    def test_grant_taken_inline_when_it_fires_next(self, scheduler):
        sim = make_sim(scheduler)
        res = Resource(sim, 2)
        seen = []

        def proc(sim):
            yield sim.timeout(5.0)
            seen.append(res.grant_inline(2))
            seen.append(res.grant_inline())  # no units left
            res.release(2)
            evt = sim.event("lazy")
            evt.succeed(priority=LAZY)  # a LAZY entry now does not block
            seen.append(res.grant_inline())
            res.release()

        sim.run(until=sim.spawn(proc(sim)))
        assert seen == [True, False, True]
        assert res.utilization() == 0.0  # held for no simulated time

    def test_no_inline_grant_outside_a_sole_resume(self, scheduler):
        """The resumed event still has a callback to run, or is the
        ``until`` of ``run()``: the query answers "URGENT due now"."""
        sim = make_sim(scheduler)
        res = Resource(sim, 1)
        wake = [sim.event("w0"), sim.event("w1")]
        seen = []

        def proc(sim):
            yield wake[0]
            seen.append(res.grant_inline())
            yield wake[1]
            seen.append(res.grant_inline())

        sim.spawn(proc(sim))
        sim.run(until=1.0)
        wake[0].callbacks.append(lambda _e: seen.append("cb"))
        wake[0].succeed()
        sim.run(until=2.0)
        wake[1].succeed()
        sim.run(until=wake[1])
        assert seen == [False, "cb", False]
        with pytest.raises(ValueError):
            res.grant_inline(2)  # units beyond capacity, as acquire()

    def test_zero_sleep_taken_inline(self, scheduler):
        sim = make_sim(scheduler)
        seen = []

        def proc(sim):
            yield sim.timeout(5.0)
            seen.append((sim.sleep_inline(0.0), sim.now))
            sim.timeout(3.0)  # a later head does not block a 0 µs sleep
            seen.append((sim.sleep_inline(0.0), sim.now))

        sim.run(until=sim.spawn(proc(sim)))
        assert seen == [(True, 5.0), (True, 5.0)]

    def test_sleep_taken_inline_before_the_head(self, scheduler):
        """An empty queue, then a head after ``now + delay``: the clock
        moves to exactly ``now + delay``, as the timeout would fire."""
        sim = make_sim(scheduler)
        seen = []

        def proc(sim):
            yield sim.timeout(0.1)
            seen.append((sim.sleep_inline(0.2), sim.now))
            sim.schedule_call(10.0, lambda: seen.append(("call", sim.now)))
            seen.append((sim.sleep_inline(9.0), sim.now))

        sim.run(until=sim.spawn(proc(sim)))
        sim.run()
        assert seen == [
            (True, 0.1 + 0.2), (True, 0.1 + 0.2 + 9.0), ("call", 0.1 + 0.2 + 10.0)
        ]

    def test_sleep_to_a_normal_head_refused(self, scheduler):
        """A NORMAL head at ``now + delay`` was posted first, so it
        fires before the timeout would."""
        sim = make_sim(scheduler)
        order = []

        def proc(sim):
            yield sim.timeout(1.0)
            sim.schedule_call(4.0, lambda: order.append("head"))
            assert not sim.sleep_inline(4.0)
            assert sim.now == 1.0
            yield sim.timeout(4.0)
            order.append("slept")

        sim.run(until=sim.spawn(proc(sim)))
        assert order == ["head", "slept"]

    def test_sleep_to_a_lazy_head_or_deadline_taken(self, scheduler):
        """At ``now + delay`` a LAZY head, or ``run(until=<float>)``'s
        marker, sorts after the NORMAL timeout: the sleep goes inline."""
        sim = make_sim(scheduler)
        order = []

        def proc(sim):
            yield sim.timeout(1.0)
            sim.schedule_call(4.0, lambda: order.append("lazy"), LAZY)
            assert sim.sleep_inline(4.0)
            order.append(("slept", sim.now))
            yield sim.timeout(1.0)  # at 6.0: the deadline is at 8.0
            assert sim.sleep_inline(2.0)
            order.append(("slept", sim.now))
            assert not sim.sleep_inline(1.0)  # past the deadline
            yield sim.timeout(1.0)
            order.append(("resumed", sim.now))

        sim.spawn(proc(sim))
        sim.run(until=8.0)
        order.append(("until", sim.now))
        sim.run()
        assert order == [
            ("slept", 5.0), "lazy", ("slept", 8.0), ("until", 8.0),
            ("resumed", 9.0),
        ]

    def test_no_inline_sleep_outside_a_sole_resume(self, scheduler):
        """Resumed by an event that still has a callback to run, or by
        ``run()``'s ``until``: every sleep, even of 0 µs, is refused."""
        sim = make_sim(scheduler)
        wake = [sim.event("w0"), sim.event("w1")]
        seen = []

        def proc(sim):
            yield wake[0]
            seen.append(sim.sleep_inline(0.0))
            seen.append(sim.sleep_inline(2.0))
            yield wake[1]
            seen.append(sim.sleep_inline(2.0))

        sim.spawn(proc(sim))
        sim.run(until=1.0)
        wake[0].callbacks.append(lambda _e: seen.append("cb"))
        wake[0].succeed()
        sim.run(until=2.0)
        wake[1].succeed()
        sim.run(until=wake[1])
        assert seen == [False, False, "cb", False]
        assert sim.now == 2.0
        assert not sim.sleep_inline(1.0)  # no process running at all

    def test_bad_sleep_rejected_as_timeout_does(self, scheduler):
        sim = make_sim(scheduler)
        sim.run(until=3.0)
        for delay, error in (
            (-1.0, SchedulingInPast),
            (float("inf"), NonFiniteTime),
            (float("nan"), NonFiniteTime),
        ):
            with pytest.raises(error):
                sim.timeout(delay)
            with pytest.raises(error):
                sim.sleep_inline(delay)
        assert sim.now == 3.0

    def test_credit_grant_taken_inline_when_it_fires_next(self, scheduler):
        sim = make_sim(scheduler)
        bucket = TokenBucket(sim, 2)
        seen = []

        def proc(sim):
            yield sim.timeout(5.0)
            seen.append(bucket.grant_inline(2))
            seen.append(bucket.grant_inline())  # no credits left
            bucket.release(2)
            sim.event("due").succeed()  # a NORMAL entry due now blocks
            seen.append(bucket.grant_inline())
            yield bucket.acquire()
            bucket.release()

        sim.run(until=sim.spawn(proc(sim)))
        assert seen == [True, False, False]
        assert bucket.tokens == 2
        assert bucket.stall_count == 0
        with pytest.raises(ValueError):
            bucket.grant_inline(3)  # more than the water-mark, as acquire()

    def test_timeout_at_is_exact(self, scheduler):
        now, when = 4.6776140491268166, 762.1810116633841
        assert now + (when - now) != when
        sim = make_sim(scheduler)
        sim.run(until=now)
        fired = []
        sim.timeout_at(when).callbacks.append(lambda _e: fired.append(sim.now))
        sim.run()
        assert fired == [when]
        with pytest.raises(SchedulingInPast):
            sim.timeout_at(when - 1.0)


class TestEnvSelection:
    def test_env_var_selects_scheduler(self, scheduler, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
        sim = Simulator()
        assert sim.scheduler == scheduler

    def test_bad_scheduler_rejected(self, scheduler):
        with pytest.raises(ValueError):
            Simulator(scheduler="fibheap")
