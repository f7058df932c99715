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

from repro.simulator import NORMAL, URGENT, Simulator, Timeout
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
        """After a huge solo jump, new near-term entries must land in
        valid buckets (bucket ordinals are absolute, not wrapped state)."""
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


class TestEnvSelection:
    def test_env_var_selects_scheduler(self, scheduler, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
        sim = Simulator()
        assert sim.scheduler == scheduler

    def test_bad_scheduler_rejected(self, scheduler):
        with pytest.raises(ValueError):
            Simulator(scheduler="fibheap")
