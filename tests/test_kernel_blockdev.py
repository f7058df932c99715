"""Unit tests for bios, request merging, plugging and the elevator."""

from __future__ import annotations

import pytest

from repro.kernel import READ, WRITE, Bio, RequestQueue
from repro.simulator import Event, SimulationError
from repro.units import MAX_REQUEST_SECTORS, SECTORS_PER_PAGE


def make_queue(sim, **kw):
    kw.setdefault("capacity_sectors", 1 << 20)
    return RequestQueue(sim, "rq", **kw)


def bio(sim, op, sector, nsectors=SECTORS_PER_PAGE):
    return Bio(op=op, sector=sector, nsectors=nsectors, done=Event(sim))


class TestBio:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            bio(sim, "erase", 0)
        with pytest.raises(ValueError):
            Bio(op=READ, sector=-1, nsectors=8, done=Event(sim))
        with pytest.raises(ValueError):
            Bio(op=READ, sector=0, nsectors=0, done=Event(sim))

    def test_geometry(self, sim):
        b = bio(sim, READ, 8, 16)
        assert b.end_sector == 24
        assert b.nbytes == 8192


class TestMerging:
    def test_back_merge(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, WRITE, 8))
        rq.submit_bio(bio(sim, WRITE, 16))
        rq.unplug()
        req = rq.try_next_request()
        assert req.nsectors == 24
        assert len(req.bios) == 3
        assert rq.merge_count == 2

    def test_front_merge(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 16))
        rq.submit_bio(bio(sim, WRITE, 8))
        rq.unplug()
        req = rq.try_next_request()
        assert req.sector == 8
        assert req.nsectors == 16

    def test_no_cross_direction_merge(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, READ, 8))
        rq.unplug()
        reqs = [rq.try_next_request(), rq.try_next_request()]
        assert sorted(r.op for r in reqs) == [READ, WRITE]

    def test_no_merge_with_gap(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, WRITE, 24))  # hole at 8..24
        rq.unplug()
        assert rq.try_next_request().nsectors == 8

    def test_128k_cap(self, sim):
        rq = make_queue(sim, unplug_threshold=10_000)
        for i in range(MAX_REQUEST_SECTORS // SECTORS_PER_PAGE + 5):
            rq.submit_bio(bio(sim, WRITE, i * SECTORS_PER_PAGE))
        rq.unplug()
        first = rq.try_next_request()
        assert first.nsectors == MAX_REQUEST_SECTORS
        second = rq.try_next_request()
        assert second is not None  # overflow went to a second request

    def test_beyond_capacity_rejected(self, sim):
        rq = make_queue(sim, capacity_sectors=16)
        with pytest.raises(SimulationError):
            rq.submit_bio(bio(sim, WRITE, 16))


class TestPlugging:
    def test_plug_timer_fires(self, sim):
        rq = make_queue(sim, plug_delay=50.0)
        rq.submit_bio(bio(sim, WRITE, 0))
        assert rq.try_next_request() is None  # still plugged
        sim.run(until=49.0)
        assert rq.try_next_request() is None
        sim.run(until=51.0)
        assert rq.try_next_request() is not None

    def test_unplug_threshold(self, sim):
        rq = make_queue(sim, unplug_threshold=3)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, WRITE, 100))
        assert rq.dispatch_depth == 0
        rq.submit_bio(bio(sim, WRITE, 200))  # third request: unplug
        assert rq.dispatch_depth == 3

    def test_explicit_unplug(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, READ, 0))
        rq.unplug()
        assert rq.dispatch_depth == 1

    def test_merging_window_while_plugged(self, sim):
        # Bios arriving during the plug window coalesce; after unplug a
        # new bio starts a fresh request.
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, WRITE, 8))
        rq.unplug()
        rq.submit_bio(bio(sim, WRITE, 16))  # contiguous but too late
        rq.unplug()
        r1 = rq.try_next_request()
        r2 = rq.try_next_request()
        assert r1.nsectors == 16
        assert r2.nsectors == 8


class TestElevatorAndPriority:
    def test_reads_dispatch_before_writes(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, READ, 1000))
        rq.unplug()
        assert rq.try_next_request().op == READ

    def test_ascending_sector_order(self, sim):
        rq = make_queue(sim, unplug_threshold=100)
        for sector in (800, 80, 8000, 8):
            rq.submit_bio(bio(sim, WRITE, sector))
        rq.unplug()
        sectors = [rq.try_next_request().sector for _ in range(4)]
        assert sectors == [8, 80, 800, 8000]

    def test_cscan_wrap(self, sim):
        rq = make_queue(sim, unplug_threshold=100)
        rq.submit_bio(bio(sim, WRITE, 5000))
        rq.unplug()
        rq.try_next_request()  # head now at 5008
        for sector in (400, 6000):
            rq.submit_bio(bio(sim, WRITE, sector))
        rq.unplug()
        assert rq.try_next_request().sector == 6000  # ahead of head first
        assert rq.try_next_request().sector == 400

    def test_waiting_driver_woken_by_unplug(self, sim):
        rq = make_queue(sim, plug_delay=30.0)
        got = []

        def driver(sim):
            req = yield rq.next_request()
            got.append((req.sector, sim.now))

        p = sim.spawn(driver(sim))
        rq.submit_bio(bio(sim, WRITE, 8))
        sim.run(until=p)
        assert got == [(8, 30.0)]


class TestCompletion:
    def test_complete_fires_all_bios(self, sim):
        rq = make_queue(sim)
        bios = [bio(sim, WRITE, i * 8) for i in range(3)]
        for b in bios:
            rq.submit_bio(b)
        rq.unplug()
        req = rq.try_next_request()
        rq.complete(req)
        sim.run()
        assert all(b.done.processed for b in bios)

    def test_over_complete_detected(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.unplug()
        req = rq.try_next_request()
        rq.complete(req)
        with pytest.raises(SimulationError):
            rq.complete(req)

    def test_in_flight_accounting(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.unplug()
        assert rq.in_flight == 1
        rq.complete(rq.try_next_request())
        assert rq.in_flight == 0

    def test_request_trace_and_size_tallies(self, sim):
        rq = make_queue(sim)
        rq.submit_bio(bio(sim, WRITE, 0))
        rq.submit_bio(bio(sim, WRITE, 8))
        rq.submit_bio(bio(sim, READ, 100))
        rq.unplug()
        trace = rq.request_trace()
        assert len(trace) == 2
        assert {op for (_t, op, _n) in trace} == {READ, WRITE}
        assert rq.stats.get("rq.req_bytes.write").total == 8192
        assert rq.stats.get("rq.req_bytes.read").total == 4096


class TestEndIo:
    """``end_io`` bios (the VM's) complete a request from one event."""

    def _request(self, sim, rq, bios):
        for b in bios:
            rq.submit_bio(b)
        rq.unplug()
        req = rq.try_next_request()
        assert req.bios == bios  # one merged request, in sector order
        sim.run()  # the (now stale) plug timer
        return req

    def test_bio_needs_exactly_one_completion(self, sim):
        with pytest.raises(ValueError):
            Bio(op=READ, sector=0, nsectors=8)
        with pytest.raises(ValueError):
            Bio(op=READ, sector=0, nsectors=8, done=Event(sim),
                end_io=lambda b: None)

    def test_32_bio_request_completes_in_one_event(self, sim):
        rq = make_queue(sim)
        order = []
        bios = [
            Bio(op=WRITE, sector=i * SECTORS_PER_PAGE, nsectors=SECTORS_PER_PAGE,
                end_io=lambda b: order.append((sim.now, b.sector)))
            for i in range(32)
        ]
        assert sum(b.nbytes for b in bios) == MAX_REQUEST_SECTORS * 512
        req = self._request(sim, rq, bios)
        before = sim.events_processed
        rq.complete(req)
        sim.run()
        assert sim.events_processed - before == 1
        assert order == [(sim.now, b.sector) for b in bios]
        assert rq.bios_completed == 32

    def test_done_bios_keep_one_event_each_in_bio_order(self, sim):
        rq = make_queue(sim)
        order = []

        def end_io(b):
            order.append(b.sector)

        bios = []
        for i, kind in enumerate("eedeed"):
            b = Bio(op=WRITE, sector=i * SECTORS_PER_PAGE,
                    nsectors=SECTORS_PER_PAGE,
                    **({"end_io": end_io} if kind == "e" else {"done": Event(sim)}))
            if kind == "d":
                b.done.callbacks.append(lambda _e, s=b.sector: order.append(s))
            bios.append(b)
        req = self._request(sim, rq, bios)
        before = sim.events_processed
        rq.complete(req)
        sim.run()
        # runs [e e] [d] [e e] [d]: two end_io events, two done events
        assert sim.events_processed - before == 4
        assert order == [b.sector for b in bios]
        assert all(b.done.processed for b in bios if b.done is not None)
